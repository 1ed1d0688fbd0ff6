"""ooc_contract and its spill sink: flags, counters, spill placement,
range order, cleanup, and where the writeback time and bytes go."""

from __future__ import annotations

import glob
import os
import tempfile
import time

import numpy as np
import pytest

from repro.core import contract
from repro.core.common import partition_subtensors
from repro.core.kernels import write_z_rows
from repro.core.looped import InlineExecutor, looped_contract
from repro.core.stages import Stage
from repro.ooc import DEFAULT_BLOCK_ROWS, MemoryBudget, ooc_contract
from repro.ooc.engine import SpillSink, budget_sink
from repro.tensor import SparseTensor
from repro.tensor.random import random_tensor_fibered


@pytest.fixture(scope="module")
def pair():
    x = random_tensor_fibered((12, 14, 16, 18), 1200, 2, 48, seed=91)
    y = random_tensor_fibered((16, 18, 10, 12), 2000, 2, 200, seed=92)
    return x, y, (2, 3), (0, 1)


def _no_orphans(root):
    return not glob.glob(os.path.join(root, "sptc-ooc-*"))


class TestOocEngine:
    def test_spill_flags_and_counters(self, pair):
        x, y, cx, cy = pair
        res = ooc_contract(
            x, y, cx, cy, memory_budget="1M", force_spill=True
        )
        prof = res.profile
        assert prof.flags["ooc"] == "spill"
        assert prof.counters["ooc_plan_out_of_core"] == 1
        assert prof.counters["ooc_spill_bytes"] > 0
        assert prof.counters["ooc_run_files"] >= 1
        assert prof.counters["ooc_budget_cap_bytes"] == 1 << 20
        assert prof.counters["ooc_budget_peak_bytes"] > 0

    def test_shared_budget_instance_accumulates(self, pair):
        x, y, cx, cy = pair
        budget = MemoryBudget("8M")
        ooc_contract(
            x, y, cx, cy, memory_budget=budget, force_spill=True
        )
        first = budget.charges
        assert first > 0
        ooc_contract(
            x, y, cx, cy, memory_budget=budget, force_spill=True
        )
        assert budget.charges > first
        assert budget.used == 0, "runs must release what they charge"

    def test_spill_root_honored_and_cleaned(self, pair, tmp_path):
        x, y, cx, cy = pair
        root = str(tmp_path)
        res = ooc_contract(
            x, y, cx, cy, memory_budget="1M", force_spill=True,
            spill_root=root,
        )
        assert res.profile.counters["ooc_spill_bytes"] > 0
        assert _no_orphans(root), "spill dir leaked under spill_root"
        assert os.listdir(root) == []

    def test_no_orphans_in_default_tmp(self, pair):
        x, y, cx, cy = pair
        before = set(glob.glob(
            os.path.join(tempfile.gettempdir(), "sptc-ooc-*")
        ))
        ooc_contract(x, y, cx, cy, memory_budget="1M", force_spill=True)
        after = set(glob.glob(
            os.path.join(tempfile.gettempdir(), "sptc-ooc-*")
        ))
        assert after <= before, "orphaned spill dirs left in tmp"

    def test_empty_x(self):
        x = SparseTensor(
            np.empty((0, 3), dtype=np.int64),
            np.empty(0, dtype=np.float64),
            (4, 5, 6),
        )
        y = random_tensor_fibered((6, 7), 20, 1, 5, seed=3)
        res = ooc_contract(
            x, y, (2,), (0,), memory_budget="1M", force_spill=True
        )
        assert res.tensor.nnz == 0

    def test_nosort_matches_in_core(self, pair):
        x, y, cx, cy = pair
        base = contract(
            x, y, cx, cy, method="sparta", swap_larger_to_y=False,
            sort_output=False,
        )
        ooc = ooc_contract(
            x, y, cx, cy, memory_budget="1M", force_spill=True,
            sort_output=False,
        )
        np.testing.assert_array_equal(
            ooc.tensor.indices, base.tensor.indices
        )
        np.testing.assert_array_equal(
            ooc.tensor.values, base.tensor.values
        )

    @pytest.mark.faults
    def test_parallel_worker_crash_leaves_no_run_files(self, tmp_path):
        # A killed worker abandons an unsealed run file; recovery must
        # still remove the whole spill tree at the end of the run.
        from repro.faults import ANY, FaultPlan, FaultSpec
        from repro.parallel import parallel_sparta

        x = random_tensor_fibered((12, 14, 16, 18), 1200, 2, 48, seed=91)
        y = random_tensor_fibered((16, 18, 10, 12), 2000, 2, 200, seed=92)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    "kill", worker=0, stage="index_search", unit=ANY
                ),
            )
        )
        root = str(tmp_path)
        par = parallel_sparta(
            x, y, (2, 3), (0, 1), threads=2, backend="process",
            fault_plan=plan, memory_budget="1M", force_spill=True,
            spill_root=root,
        )
        assert par.result.profile.counters["ft_worker_failures"] >= 1
        assert os.listdir(root) == [], "run files leaked after crash"


def _traffic_cells(profile):
    cells = {}
    for rec in profile.traffic:
        key = (rec.obj, rec.stage, rec.kind, rec.pattern)
        cells[key] = cells.get(key, 0) + rec.nbytes
    return cells


class OrderedExecutor(InlineExecutor):
    """Runs *ranges* sub-tensor ranges in the calling thread, handing
    them to the sink in ``order(num_ranges)``."""

    def __init__(self, ranges, order=lambda n: list(range(n))):
        self.ranges = ranges
        self.order = order

    def run(self, px, source, sink, accept, profile, kernel):
        spans = partition_subtensors(
            px.ptr, max(self.ranges, sink.min_ranges)
        )
        view = source.probe_view()
        for i in self.order(len(spans)):
            lo, hi = spans[i]
            accept(i, sink.compute(px, view, profile, lo, hi, kernel))
        return view.table.probes


def _spill_run(x, y, cx, cy, executor, *, spill_root=None):
    sink = budget_sink(
        "1M", x, y, cx, cy, force_spill=True, spill_root=spill_root
    )
    res = looped_contract(
        x, y, cx, cy, engine_name="sparta", y_structure="hash",
        accumulator="hash", executor=executor, sink=sink,
    )
    return res, sink


class TestSpillSinkOrder:
    """Z rows go to disk in arrival order; Z comes back in range order."""

    @pytest.mark.parametrize("order", ["reverse", "shuffled"])
    def test_out_of_order_ranges_bit_identical(self, pair, order):
        x, y, cx, cy = pair
        base = contract(
            x, y, cx, cy, method="sparta", swap_larger_to_y=False
        )
        perm = {
            "reverse": lambda n: list(range(n))[::-1],
            "shuffled": lambda n: list(
                np.random.default_rng(5).permutation(n)
            ),
        }[order]
        res, _ = _spill_run(x, y, cx, cy, OrderedExecutor(5, perm))
        assert res.profile.counters["ooc_ranges_moved"] >= 2
        assert res.tensor.indices.tobytes() == base.tensor.indices.tobytes()
        assert res.tensor.values.tobytes() == base.tensor.values.tobytes()
        assert _traffic_cells(res.profile) == _traffic_cells(base.profile)

    def test_in_order_ranges_move_nothing(self, pair):
        x, y, cx, cy = pair
        res, _ = _spill_run(x, y, cx, cy, OrderedExecutor(5))
        assert res.profile.counters["ooc_ranges_moved"] == 0
        assert res.profile.counters["ooc_spill_bytes"] > 0

    def test_writer_failure_closes_files_and_cleans_up(
        self, pair, tmp_path, monkeypatch
    ):
        x, y, cx, cy = pair
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("disk gone")
            return write_z_rows(*args)

        monkeypatch.setattr("repro.ooc.engine.write_z_rows", failing)
        sink = budget_sink(
            "1M", x, y, cx, cy, force_spill=True,
            spill_root=str(tmp_path),
        )
        with pytest.raises(RuntimeError, match="disk gone"):
            looped_contract(
                x, y, cx, cy, engine_name="sparta", y_structure="hash",
                accumulator="hash", executor=OrderedExecutor(4),
                sink=sink,
            )
        assert len(calls) == 2
        assert os.listdir(tmp_path) == []
        assert all(fh.closed for fh in sink.z_files)
        assert sink.budget.used == 0


class TestSpillSinkAccounting:
    def test_budget_peak_includes_z_row_block(self, monkeypatch):
        from repro.datasets import make_case

        case = make_case("chicago", 2, scale=0.5, seed=1)
        seen = []
        put = SpillSink.put

        def spy(self, index, fr, tracer):
            out = fr.out_fgrp.nbytes + fr.out_fy.nbytes + fr.out_vals.nbytes
            seen.append((self.budget.used, out, fr.nnz))
            return put(self, index, fr, tracer)

        monkeypatch.setattr(SpillSink, "put", spy)
        res = contract(
            case.x, case.y, case.cx, case.cy, memory_budget="16M"
        )
        c = res.profile.counters
        assert res.profile.flags["ooc"] == "spill"
        row_bytes = 8 * res.tensor.order
        held = max(
            used + out + min(nnz, DEFAULT_BLOCK_ROWS) * row_bytes
            for used, out, nnz in seen
        )
        assert c["ooc_budget_peak_bytes"] >= held
        assert c["ooc_budget_overruns"] == 0

    @pytest.mark.parametrize("backend", ["inline", "thread"])
    def test_streamed_writeback_seconds_charged_to_writeback(
        self, pair, monkeypatch, backend
    ):
        x, y, cx, cy = pair
        sleep = 0.03

        def run():
            if backend == "inline":
                return _spill_run(x, y, cx, cy, OrderedExecutor(3))[0]
            from repro.parallel import parallel_sparta

            return parallel_sparta(
                x, y, cx, cy, threads=3, backend="thread",
                memory_budget="1M", force_spill=True,
            ).result

        def compute(prof):
            return (prof.stage_seconds[Stage.INDEX_SEARCH]
                    + prof.stage_seconds[Stage.ACCUMULATION])

        fast = [run().profile for _ in range(2)]
        calls = []

        def slow(*args):
            calls.append(1)
            time.sleep(sleep)
            return write_z_rows(*args)

        monkeypatch.setattr("repro.ooc.engine.write_z_rows", slow)
        prof = run().profile
        n = len(calls)
        assert n == 3
        # Every sleep is stage-4 time, and none of it is search or
        # accumulation time.
        assert prof.stage_seconds[Stage.WRITEBACK] >= n * sleep
        assert compute(prof) < (
            max(compute(p) for p in fast) + 0.5 * n * sleep
        )
