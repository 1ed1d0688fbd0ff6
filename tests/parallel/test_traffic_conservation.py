"""Traffic conservation: parallel profiles charge exactly serial traffic.

Every Table-2 traffic record of the parallel engine is derived from run
totals (nnz_x, products, created entries, probe counts) that partition
across workers, so the merged profile must charge the *same bytes* per
(object, stage, kind, pattern) cell as the serial fused engine — for any
backend and any worker count. A drift here would silently skew the
heterogeneous-memory simulation for parallel runs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Tuple

import pytest

from repro.core import contract
from repro.core.profile import RunProfile
from repro.parallel import parallel_sparta
from repro.tensor import random_tensor_fibered


def traffic_by_cell(profile: RunProfile) -> Dict[Tuple, int]:
    """Total bytes per (object, stage, kind, pattern) cell."""
    cells: Dict[Tuple, int] = defaultdict(int)
    for rec in profile.traffic:
        cells[(rec.obj, rec.stage, rec.kind, rec.pattern)] += rec.nbytes
    return dict(cells)


@pytest.fixture(scope="module")
def pair():
    x = random_tensor_fibered((12, 14, 16, 18), 1200, 2, 48, seed=91)
    y = random_tensor_fibered((16, 18, 10, 12), 2000, 2, 200, seed=92)
    return x, y


@pytest.fixture(scope="module")
def serial_cells(pair):
    x, y = pair
    serial = contract(
        x, y, (2, 3), (0, 1), method="sparta", swap_larger_to_y=False
    )
    return traffic_by_cell(serial.profile)


class TestTrafficConservation:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("workers", [1, 2, 5])
    def test_parallel_traffic_equals_serial(
        self, pair, serial_cells, backend, workers
    ):
        x, y = pair
        par = parallel_sparta(
            x, y, (2, 3), (0, 1), threads=workers, backend=backend
        )
        cells = traffic_by_cell(par.result.profile)
        assert cells.keys() == serial_cells.keys()
        for cell, nbytes in serial_cells.items():
            assert cells[cell] == nbytes, (
                f"{backend}/{workers}w drifts on {cell}: "
                f"{cells[cell]} != serial {nbytes}"
            )

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_probe_counters_equal_serial(self, pair, backend):
        x, y = pair
        serial = contract(
            x, y, (2, 3), (0, 1), method="sparta", swap_larger_to_y=False
        )
        par = parallel_sparta(
            x, y, (2, 3), (0, 1), threads=3, backend=backend
        )
        for counter in ("hash_probes", "search_probes", "products"):
            assert (
                par.result.profile.counters.get(counter)
                == serial.profile.counters.get(counter)
            ), counter

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("parallel_stage1", [False, True])
    def test_stage15_flags_keep_traffic_and_probes(
        self, pair, serial_cells, backend, parallel_stage1
    ):
        # The parallel stage-1 build must charge byte-exactly the serial
        # Table-2 cells and the serial hash_probes, either way on both
        # backends.
        x, y = pair
        serial = contract(
            x, y, (2, 3), (0, 1), method="sparta", swap_larger_to_y=False
        )
        par = parallel_sparta(
            x, y, (2, 3), (0, 1),
            threads=3, backend=backend, parallel_stage1=parallel_stage1,
        )
        cells = traffic_by_cell(par.result.profile)
        assert cells == serial_cells
        for counter in ("hash_probes", "search_probes", "products"):
            assert (
                par.result.profile.counters.get(counter)
                == serial.profile.counters.get(counter)
            ), counter


class TestStageAccounting:
    def test_serial_stage_times_sum_to_total(self, pair):
        x, y = pair
        serial = contract(
            x, y, (2, 3), (0, 1), method="sparta", swap_larger_to_y=False
        )
        prof = serial.profile
        assert sum(prof.stage_seconds.values()) == pytest.approx(
            prof.total_seconds
        )

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_stages_all_present_and_bounded(self, pair, backend):
        from repro.core.stages import Stage

        x, y = pair
        par = parallel_sparta(
            x, y, (2, 3), (0, 1), threads=3, backend=backend
        )
        prof = par.result.profile
        expected = {
            Stage.INPUT_PROCESSING,
            Stage.INDEX_SEARCH,
            Stage.ACCUMULATION,
            Stage.WRITEBACK,
            Stage.OUTPUT_SORTING,
        }
        assert expected <= set(prof.stage_seconds)
        # Parent-side wall-clock stages (1, 4, 5) can never exceed the
        # end-to-end wall time of the call.
        parent_side = (
            prof.stage_seconds[Stage.INPUT_PROCESSING]
            + prof.stage_seconds[Stage.WRITEBACK]
            + prof.stage_seconds[Stage.OUTPUT_SORTING]
        )
        assert parent_side <= par.wall_seconds + 1e-6

    def test_process_backend_reports_stage1_worker_seconds(self, pair):
        x, y = pair
        par = parallel_sparta(
            x, y, (2, 3), (0, 1), threads=2, backend="process"
        )
        assert all(s.stage1_seconds >= 0.0 for s in par.thread_stats)
        assert sum(s.stage1_seconds for s in par.thread_stats) > 0.0

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_stage_seconds_are_wall_clock_not_summed(self, pair, backend):
        # Regression: the compute stages used to charge the *sum* of
        # per-worker timers, so with N workers the profile's stage total
        # could exceed wall time by up to Nx. Stages are now parent
        # wall-clock intervals, so their sum must stay within the
        # end-to-end wall time (small tolerance for clock jitter).
        x, y = pair
        par = parallel_sparta(
            x, y, (2, 3), (0, 1), threads=4, backend=backend
        )
        prof = par.result.profile
        assert sum(prof.stage_seconds.values()) <= 1.1 * par.wall_seconds
