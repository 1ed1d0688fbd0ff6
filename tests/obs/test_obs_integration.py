"""End-to-end tracing through the real engines.

Covers the tentpole's acceptance behaviors: the serial engine emits all
five stage spans nested under the contraction root; the parallel
backends ship per-worker chunk spans back to the parent timeline; the
recovery machinery surfaces worker failures and respawn rounds as
instant events; and a run with tracing *disabled* is observably
identical to an untraced run.
"""

from __future__ import annotations

import pytest

from repro.core import contract
from repro.core.stages import STAGE_ORDER, Stage
from repro.obs import Tracer
from repro.parallel import parallel_sparta
from repro.tensor import random_tensor, random_tensor_fibered

MODES = ((2, 3), (0, 1))


@pytest.fixture(scope="module")
def pair():
    x = random_tensor_fibered((12, 14, 16, 18), 1200, 2, 48, seed=91)
    y = random_tensor_fibered((16, 18, 10, 12), 2000, 2, 200, seed=92)
    return x, y


STAGE_NAMES = [s.value for s in STAGE_ORDER]


class TestSerialEngines:
    @pytest.mark.parametrize("engine", ["sparta", "spa", "coo_hta"])
    def test_five_stage_spans_under_root(self, pair, engine):
        x, y = pair
        tracer = Tracer()
        contract(
            x, y, *MODES, method=engine, tracer=tracer,
            **({"swap_larger_to_y": False} if engine == "sparta" else {}),
        )
        spans = tracer.spans()
        names = [r.name for r in spans]
        for stage in STAGE_NAMES:
            assert stage in names, f"{engine} missing {stage} span"
        root = spans[0]
        assert root.cat == "contraction"
        stage_spans = [r for r in spans if r.name in STAGE_NAMES]
        for rec in stage_spans:
            assert rec.ts >= root.ts - 1e-9
            assert rec.end <= root.end + 1e-9
        # stage spans tile the root in pipeline order without overlap
        ordered = sorted(stage_spans, key=lambda r: r.ts)
        assert [r.name for r in ordered] == STAGE_NAMES
        for a, b in zip(ordered, ordered[1:]):
            assert a.end <= b.ts + 1e-9

    def test_untraced_engine_lists_fall_back_to_root_span(self, pair):
        # engines outside _TRACED_ENGINES still get a root span from
        # the dispatcher, so every `contract` call is visible
        x = random_tensor((6, 5, 4), 30, seed=11)
        y = random_tensor((4, 7), 20, seed=12)
        tracer = Tracer()
        contract(x, y, (2,), (0,), method="dense", tracer=tracer)
        (root,) = tracer.spans()
        assert root.name == "dense"
        assert root.cat == "contraction"


class TestParallelBackends:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_worker_chunk_spans_on_worker_tracks(self, pair, backend):
        x, y = pair
        tracer = Tracer()
        par = parallel_sparta(
            x, y, *MODES, threads=4, backend=backend, tracer=tracer,
        )
        names = [r.name for r in tracer.spans()]
        for stage in STAGE_NAMES:
            assert stage in names, f"{backend} missing {stage} span"
        chunks = [r for r in tracer.spans() if r.name == "chunk"]
        assert chunks, f"{backend}: no worker chunk spans"
        assert {r.tid for r in chunks} <= set(range(1, 5))
        root = next(
            r for r in tracer.spans() if r.cat == "contraction"
        )
        assert root.args.get("backend") == backend
        assert par.result.tensor.nnz == root.args.get("nnz_out")

    def test_process_backend_covers_every_chunk(self, pair):
        x, y = pair
        tracer = Tracer()
        parallel_sparta(
            x, y, *MODES, threads=4, backend="process", tracer=tracer,
        )
        chunks = [r for r in tracer.spans() if r.name == "chunk"]
        units = sorted(r.args["unit"] for r in chunks)
        # every chunk unit computed exactly once, 0..n-1 with no gaps
        assert units == list(range(len(units)))
        assert len(units) >= 4
        assert all(r.dur > 0.0 for r in chunks)
        # claims precede their chunk's completion on the same track
        claims = [r for r in tracer.events() if r.name == "claim"]
        assert {r.args["unit"] for r in claims} >= set(units)
        # stage-1 partial builds also land on worker tracks
        partials = [
            r for r in tracer.spans() if r.name == "stage1_partial"
        ]
        assert partials and all(r.tid >= 1 for r in partials)

    def test_output_sorting_span_present(self, pair):
        # Stage 5 of a parallel run is the driver's order check, traced
        # as the same stage span a serial run records.
        x, y = pair
        tracer = Tracer()
        par = parallel_sparta(
            x, y, *MODES, threads=2, backend="thread", tracer=tracer,
        )
        assert par.result.profile.flags["output_sorting"] == "presorted"
        spans = [
            r for r in tracer.spans()
            if r.name == Stage.OUTPUT_SORTING.value and r.cat == "stage"
        ]
        assert len(spans) == 1 and spans[0].dur >= 0.0


class TestTracingDisabledDifferential:
    """tracer=None must be observably identical to an untraced run."""

    def test_serial_profile_identical(self, pair):
        x, y = pair
        base = contract(
            x, y, *MODES, method="sparta", swap_larger_to_y=False
        )
        traced = contract(
            x, y, *MODES, method="sparta", swap_larger_to_y=False,
            tracer=Tracer(),
        )
        off = contract(
            x, y, *MODES, method="sparta", swap_larger_to_y=False,
            tracer=None,
        )
        def strip(profile):
            d = profile.to_dict()
            d.pop("stage_seconds")  # timing is never bit-reproducible
            return d

        assert strip(off.profile) == strip(base.profile)
        assert strip(traced.profile) == strip(base.profile)
        assert off.tensor.allclose(base.tensor)
        assert traced.tensor.allclose(base.tensor)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_profile_identical(self, pair, backend):
        x, y = pair
        base = parallel_sparta(
            x, y, *MODES, threads=4, backend=backend
        )
        traced = parallel_sparta(
            x, y, *MODES, threads=4, backend=backend, tracer=Tracer(),
        )
        def strip(profile):
            d = profile.to_dict()
            d.pop("stage_seconds")
            # work stealing makes chunk ownership (hence the imbalance
            # statistic) nondeterministic between ANY two process runs
            d["counters"].pop("load_imbalance_x1000", None)
            return d

        assert strip(traced.result.profile) == strip(base.result.profile)
        assert traced.result.tensor.allclose(base.result.tensor)


@pytest.mark.faults
class TestRecoveryEvents:
    def test_respawn_events_under_injected_kill(self, pair):
        from repro.faults import ANY, FaultPlan, FaultSpec

        x, y = pair
        tracer = Tracer()
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    "kill", worker=0, stage="index_search", unit=ANY
                ),
            )
        )
        par = parallel_sparta(
            x, y, *MODES, threads=3, backend="process",
            fault_plan=plan, tracer=tracer,
        )
        events = {r.name for r in tracer.events()}
        assert "worker_failure" in events
        assert "respawn_round" in events
        failures = [
            r for r in tracer.events() if r.name == "worker_failure"
        ]
        assert all(r.cat == "recovery" for r in failures)
        # the recovered run still computed every chunk
        chunks = [r for r in tracer.spans() if r.name == "chunk"]
        units = sorted({r.args["unit"] for r in chunks})
        assert units == list(range(len(units)))
        assert par.result.profile.counters["ft_worker_failures"] >= 1

    def test_thread_backend_fault_instants(self, pair):
        from repro.faults import FaultPlan, FaultSpec

        x, y = pair
        tracer = Tracer()
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    "delay", worker=0, stage="accumulation",
                    seconds=0.01,
                ),
            )
        )
        parallel_sparta(
            x, y, *MODES, threads=2, backend="thread",
            fault_plan=plan, tracer=tracer,
        )
        delays = [
            r for r in tracer.events() if r.name == "fault_delay"
        ]
        assert delays and delays[0].cat == "fault"
        assert delays[0].args["seconds"] == 0.01
