"""MemoryBudget accounting and budget-string parsing."""

from __future__ import annotations

import pytest

from repro.errors import MemoryBudgetError, ShapeError
from repro.ooc import MemoryBudget, parse_budget


class TestParseBudget:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            (1048576, 1 << 20),
            (1048576.0, 1 << 20),
            ("1048576", 1 << 20),
            ("64K", 64 << 10),
            ("64kb", 64 << 10),
            ("64KiB", 64 << 10),
            ("2M", 2 << 20),
            ("1.5G", int(1.5 * (1 << 30))),
            ("3GiB", 3 << 30),
            (" 512 mb ", 512 << 20),
        ],
    )
    def test_accepted(self, spec, expected):
        assert parse_budget(spec) == expected

    @pytest.mark.parametrize(
        "spec", ["", "x", "12X", "-5", "1..5G", "G", None]
    )
    def test_rejected(self, spec):
        with pytest.raises((ShapeError, TypeError)):
            parse_budget(spec)


class TestMemoryBudget:
    def test_charge_release_peak(self):
        b = MemoryBudget("1M")
        assert b.cap == 1 << 20
        b.charge("a", 100)
        b.charge("b", 200)
        assert b.used == 300
        b.release("a", 100)
        assert b.used == 200
        assert b.peak == 300
        c = b.counters()
        assert c["ooc_budget_cap_bytes"] == 1 << 20
        assert c["ooc_budget_peak_bytes"] == 300
        assert c["ooc_budget_overruns"] == 0
        assert c["ooc_budget_charges"] == 2

    def test_overrun_counts_but_continues(self):
        b = MemoryBudget(100)
        b.charge("big", 1000)
        assert b.counters()["ooc_budget_overruns"] == 1
        assert b.peak == 1000

    def test_strict_overrun_raises(self):
        b = MemoryBudget(100, strict=True)
        with pytest.raises(MemoryBudgetError):
            b.charge("big", 1000)

    def test_hold_context_releases(self):
        b = MemoryBudget("1M")
        with b.hold("tmp", 500):
            assert b.used == 500
        assert b.used == 0
        assert b.peak == 500

    def test_fits_and_remaining(self):
        b = MemoryBudget(1000)
        assert b.fits(1000)
        b.charge("x", 600)
        assert b.remaining == 400
        assert b.fits(400) and not b.fits(401)
