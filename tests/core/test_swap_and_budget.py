"""Guarantees that hold on every path of the one five-stage driver.

* A run that swaps its operands (§3.3) charges stage 5 — its seconds and
  its Table-2 bytes — on the final Z, exactly as an unswapped run does.
* A memory budget and the HtY cache combine: a cached HtY is charged to
  the budget for the run, and the output does not change.
"""

import numpy as np
import pytest

from repro.core import DataObject, contract, default_hty_cache
from repro.core.stages import Stage
from repro.tensor import random_tensor_fibered


@pytest.fixture(scope="module")
def pair():
    """X larger than Y, so the default contract() swaps them."""
    x = random_tensor_fibered((14, 12, 16, 18), 2400, 2, 60, seed=301)
    y = random_tensor_fibered((16, 18, 9, 11), 900, 2, 50, seed=302)
    assert x.nnz > y.nnz
    return x, y, (2, 3), (0, 1)


def _sorting_cells(profile):
    return sorted(
        (t.obj.value, t.kind.value, t.pattern.value, t.nbytes)
        for t in profile.traffic
        if t.stage is Stage.OUTPUT_SORTING
    )


@pytest.mark.parametrize("budget", [None, "256K"], ids=["memory", "spill"])
def test_swapped_run_charges_stage5(pair, budget):
    x, y, cx, cy = pair
    kwargs = {}
    if budget is not None:
        kwargs = dict(memory_budget=budget, force_spill=True)
    swapped = contract(x, y, cx, cy, **kwargs)
    straight = contract(x, y, cx, cy, swap_larger_to_y=False, **kwargs)
    assert swapped.profile.counters.get("swapped_operands") == 1
    assert "swapped_operands" not in straight.profile.counters
    if budget is not None:
        assert swapped.profile.flags["ooc"] == "spill"
        assert straight.profile.flags["ooc"] == "spill"
    assert swapped.tensor.fingerprint() == straight.tensor.fingerprint()
    cells = _sorting_cells(swapped.profile)
    assert cells and all(c[-1] > 0 for c in cells)
    assert cells == _sorting_cells(straight.profile)
    for res in (swapped, straight):
        assert Stage.OUTPUT_SORTING in res.profile.stage_seconds
    # the swapped run really sorted its permuted Z
    assert swapped.profile.stage_seconds[Stage.OUTPUT_SORTING] > 0.0


def test_budget_and_hty_cache_combine(pair):
    x, y, cx, cy = pair
    ref = contract(x, y, cx, cy)
    default_hty_cache().clear()
    runs = [
        contract(
            x, y, cx, cy, memory_budget="256K", force_spill=True,
            use_hty_cache=True,
        )
        for _ in range(2)
    ]
    for res in runs:
        assert res.profile.flags["ooc"] == "spill"
        np.testing.assert_array_equal(res.tensor.indices, ref.tensor.indices)
        assert res.tensor.values.tobytes() == ref.tensor.values.tobytes()
        assert res.profile.counters["ooc_budget_cap_bytes"] == 256 << 10
        assert res.profile.counters["ooc_budget_peak_bytes"] > 0
    first, second = (r.profile.counters for r in runs)
    assert first.get("hty_cache_misses") == 1
    assert second.get("hty_cache_hits") == 1
    # the cached HtY is held for the run: the peak covers all of it
    hty_bytes = runs[1].profile.object_bytes[DataObject.HTY]
    assert second["ooc_budget_peak_bytes"] >= hty_bytes > 0


def test_thread_ranges_fold_exactly_under_contention(pair):
    """Worker threads hand ranges to the shared totals and spill sink.

    More threads than cores and a tiny switch interval make a lost
    update likely if either missed its lock; the folded counts, the
    traffic and the budget ledger must still equal the serial run's.
    """
    import sys

    from repro.ooc import MemoryBudget
    from repro.parallel import parallel_sparta

    x, y, cx, cy = pair
    ref = contract(x, y, cx, cy, swap_larger_to_y=False)
    budget = MemoryBudget("256K")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        par = parallel_sparta(
            x, y, cx, cy, threads=8, memory_budget=budget,
            force_spill=True,
        ).result
    finally:
        sys.setswitchinterval(interval)
    assert par.profile.flags["ooc"] == "spill"
    assert par.profile.counters["partition_ranges"] >= 8
    assert par.tensor.fingerprint() == ref.tensor.fingerprint()
    for name in ("products", "accum_probes", "nnz_z"):
        assert par.profile.counters[name] == ref.profile.counters[name]
    def cells(profile):
        out = {}
        for t in profile.traffic:
            key = (t.obj, t.stage, t.kind, t.pattern)
            out[key] = out.get(key, 0) + t.nbytes
        return out

    assert cells(par.profile) == cells(ref.profile)
    assert budget.used == 0
