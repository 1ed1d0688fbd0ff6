"""Spill-aware planning: in-core vs. out-of-core routing and sizing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.htycache import cached_plan
from repro.planner import OocDecision, contraction_stats, plan_ooc
from repro.tensor.random import random_tensor_fibered


@pytest.fixture(scope="module")
def stats():
    x = random_tensor_fibered((12, 14, 16, 18), 1200, 2, 48, seed=91)
    y = random_tensor_fibered((16, 18, 10, 12), 2000, 2, 200, seed=92)
    plan = cached_plan(x, y, (2, 3), (0, 1))
    return contraction_stats(x, y, plan)


class TestPlanOoc:
    def test_generous_budget_stays_in_core(self, stats):
        d = plan_ooc(stats, 4 << 30)
        assert isinstance(d, OocDecision)
        assert not d.out_of_core
        assert d.est_spill_bytes == 0
        assert "fits budget" in d.reason

    def test_tiny_budget_goes_out_of_core(self, stats):
        d = plan_ooc(stats, 64 << 10)
        assert d.out_of_core
        assert d.est_spill_bytes > 0
        assert d.est_spill_seconds > 0
        assert "exceeds budget" in d.reason

    def test_force_spill_overrides_fit(self, stats):
        d = plan_ooc(stats, 4 << 30, force_spill=True)
        assert d.out_of_core
        assert d.reason == "forced"

    def test_smaller_budget_means_more_partitions(self, stats):
        small = plan_ooc(stats, 256 << 10)
        large = plan_ooc(stats, 1 << 30)
        assert small.num_chunks >= large.num_chunks
        assert small.num_y_spans >= large.num_y_spans
        assert small.chunk_pairs <= large.chunk_pairs

    def test_workers_shrink_per_worker_chunks(self, stats):
        solo = plan_ooc(stats, 16 << 20, workers=1)
        team = plan_ooc(stats, 16 << 20, workers=8)
        assert team.chunk_pairs <= solo.chunk_pairs

    def test_counters_shape(self, stats):
        d = plan_ooc(stats, 1 << 20)
        c = d.counters()
        assert set(c) == {
            "ooc_plan_out_of_core",
            "ooc_plan_est_peak_bytes",
            "ooc_plan_num_y_spans",
            "ooc_plan_num_chunks",
            "ooc_plan_chunk_pairs",
        }
        assert all(v >= 0 for v in c.values())

    def test_estimate_scales_with_input(self):
        from repro.planner import estimate_in_core_peak

        small_x = random_tensor_fibered((8, 8, 8), 100, 1, 10, seed=1)
        small_y = random_tensor_fibered((8, 8, 8), 150, 1, 20, seed=2)
        big_x = random_tensor_fibered((32, 32, 32), 8000, 1, 80, seed=1)
        big_y = random_tensor_fibered((32, 32, 32), 12000, 1, 160, seed=2)
        s_small = contraction_stats(
            small_x, small_y, cached_plan(small_x, small_y, (2,), (0,))
        )
        s_big = contraction_stats(
            big_x, big_y, cached_plan(big_x, big_y, (2,), (0,))
        )
        assert estimate_in_core_peak(s_big) > estimate_in_core_peak(
            s_small
        )


def test_spill_estimate_within_2x_of_spilled_bytes():
    # The spill path writes Z's rows, Y's partials and the demoted HtY
    # payload; the estimate counts the same three.
    from repro.core import contract
    from repro.datasets import make_case

    case = make_case("chicago", 2, scale=0.5, seed=1)
    stats = contraction_stats(
        case.x, case.y, cached_plan(case.x, case.y, case.cx, case.cy)
    )
    est = plan_ooc(stats, 16 << 20).est_spill_bytes
    res = contract(case.x, case.y, case.cx, case.cy, memory_budget="16M")
    assert res.profile.flags["ooc"] == "spill"
    spilled = res.profile.counters["ooc_spill_bytes"]
    assert spilled / 2 <= est <= 2 * spilled
