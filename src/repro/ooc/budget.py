"""Live-allocation accountant for budget-capped execution.

The out-of-core engine never *enforces* the budget by refusing work —
it *plans* around it (run sizes, span counts, in-core vs. spill) and
uses :class:`MemoryBudget` to account every large live allocation so
the run can report how close it came. ``strict=True`` turns overruns
into :class:`~repro.errors.MemoryBudgetError` for tests that pin the
engine's sizing logic; the default records an ``overruns`` counter and
continues, because a single unsplittable allocation (one sub-tensor's
output, the hash-table heads) may legitimately exceed a tiny budget.

Budgets are parsed from human strings (``"64M"``, ``"1.5GiB"``,
``"250000"``) by :func:`parse_budget`, shared by ``contract`` and the
``ttt --memory-budget`` flag.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Union

from repro.errors import MemoryBudgetError, ShapeError

__all__ = ["MemoryBudget", "parse_budget"]

_UNIT_BYTES = {
    "": 1,
    "b": 1,
    "k": 1 << 10,
    "kb": 1 << 10,
    "kib": 1 << 10,
    "m": 1 << 20,
    "mb": 1 << 20,
    "mib": 1 << 20,
    "g": 1 << 30,
    "gb": 1 << 30,
    "gib": 1 << 30,
}

_BUDGET_RE = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*([a-zA-Z]*)\s*$")


def parse_budget(value: Union[int, float, str]) -> int:
    """Parse a budget spec into bytes.

    Accepts plain byte counts (``1048576``) and unit-suffixed strings
    (``"64M"``, ``"1.5GiB"``, ``"512kb"``; units are powers of two).
    """
    if isinstance(value, (int, float)):
        nbytes = int(value)
    else:
        m = _BUDGET_RE.match(str(value))
        if m is None:
            raise ShapeError(
                f"cannot parse memory budget {value!r}; use bytes or a "
                "K/M/G-suffixed size like '64M'"
            )
        number, unit = m.groups()
        try:
            scale = _UNIT_BYTES[unit.lower()]
        except KeyError:
            raise ShapeError(
                f"unknown memory-budget unit {unit!r} in {value!r}; "
                f"choose from {sorted(u for u in _UNIT_BYTES if u)}"
            ) from None
        nbytes = int(float(number) * scale)
    if nbytes <= 0:
        raise ShapeError(
            f"memory budget must be positive, got {nbytes} bytes"
        )
    return nbytes


class MemoryBudget:
    """Charge/release accounting of live engine allocations against a cap.

    Tracks the current total, the peak, per-label peaks, and how often
    a charge pushed the total past the cap. The accountant covers the
    engine's *own* large allocations (prepared X, HtY, chunk outputs,
    Z-row blocks) — operands the caller already holds are sunk cost
    and are not charged.
    """

    def __init__(
        self, cap_bytes: Union[int, float, str], *, strict: bool = False
    ) -> None:
        self.cap = parse_budget(cap_bytes)
        self.strict = bool(strict)
        self.used = 0
        self.peak = 0
        self.overruns = 0
        self.charges = 0
        self._by_label: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def charge(self, label: str, nbytes: int) -> int:
        """Account *nbytes* of a live allocation under *label*."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ShapeError(f"cannot charge {nbytes} bytes")
        self.used += nbytes
        self.charges += 1
        self._by_label[label] = self._by_label.get(label, 0) + nbytes
        if self.used > self.peak:
            self.peak = self.used
        if self.used > self.cap:
            self.overruns += 1
            if self.strict:
                raise MemoryBudgetError(
                    f"budget of {self.cap} bytes exceeded: {self.used} "
                    f"bytes live after charging {nbytes} for {label!r}"
                )
        return nbytes

    def release(self, label: str, nbytes: int) -> None:
        """Release a previously charged allocation."""
        nbytes = int(nbytes)
        self.used = max(self.used - nbytes, 0)
        left = self._by_label.get(label, 0) - nbytes
        if left > 0:
            self._by_label[label] = left
        else:
            self._by_label.pop(label, None)

    @contextmanager
    def hold(self, label: str, nbytes: int) -> Iterator[None]:
        """Charge for the duration of a ``with`` block."""
        self.charge(label, nbytes)
        try:
            yield
        finally:
            self.release(label, nbytes)

    # ------------------------------------------------------------------
    def fits(self, nbytes: int) -> bool:
        """Would charging *nbytes* stay within the cap?"""
        return self.used + int(nbytes) <= self.cap

    @property
    def remaining(self) -> int:
        """Headroom left under the cap (0 when over)."""
        return max(self.cap - self.used, 0)

    def subdivide(
        self,
        fractions: Dict[str, float],
        *,
        floor: int = 1 << 16,
        strict: bool = False,
    ) -> Dict[str, "MemoryBudget"]:
        """Independent child budgets capped at fractions of this cap.

        The serve layer hands each tenant a fixed share of the operand
        registry's budget: a tenant pinning against its own child
        budget can exhaust only its share, so backpressure stays
        per-tenant while the parent budget still bounds the total.
        Children account independently — charge the parent alongside a
        child when a global total is also needed.
        """
        children: Dict[str, MemoryBudget] = {}
        for label, fraction in fractions.items():
            if fraction <= 0:
                raise ShapeError(
                    f"budget fraction for {label!r} must be positive, "
                    f"got {fraction}"
                )
            children[label] = MemoryBudget(
                max(int(self.cap * float(fraction)), int(floor)),
                strict=strict,
            )
        return children

    def counters(self, prefix: str = "ooc_budget") -> Dict[str, int]:
        """Profile-counter snapshot (``<prefix>_*`` names)."""
        return {
            f"{prefix}_cap_bytes": int(self.cap),
            f"{prefix}_peak_bytes": int(self.peak),
            f"{prefix}_overruns": int(self.overruns),
            f"{prefix}_charges": int(self.charges),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryBudget(cap={self.cap}, used={self.used}, "
            f"peak={self.peak}, overruns={self.overruns})"
        )
