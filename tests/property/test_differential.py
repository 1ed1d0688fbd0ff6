"""Cross-engine differential fuzzing.

Every engine in the repository computes the same contraction Z = X x Y,
so for any randomized case they must agree. For coalesced inputs the
hash-family engines (element / fused / subtensor_loop, SPA, COO+HtA,
vectorized, and both parallel backends) reduce each output key in the
same X-row order and are therefore *bit-identical*: same sorted index
array, same value bytes. The dense tensordot reference sums in a
different order, so it is held to allclose only.

Each case is a deterministic function of an explicit seed; the seed is
part of the test id, so a failure report names the exact reproducing
case ("seed 17" reruns as ``-k 'seed17'``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import contract
from repro.core.sparta import sparta
from repro.faults import FaultPlan
from repro.parallel import parallel_sparta
from repro.tensor import SparseTensor, random_tensor

#: explicit fuzz seeds — each is one randomized shape/density/mode case
SEEDS = tuple(range(12))

#: engines held to bit-identity against the element-wise reference
EXACT_ENGINES = (
    "fused",
    "subtensor_loop",
    "spa",
    "coo_hta",
    "vectorized",
    "parallel_thread",
    "parallel_process",
)


def make_case(seed: int):
    """Randomized contraction case: tensors, contract modes, density."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 3))  # number of contract modes
    fx = int(rng.integers(1, 3))  # free modes of X
    fy = int(rng.integers(1, 3))  # free modes of Y
    contract_dims = tuple(int(d) for d in rng.integers(2, 8, size=m))
    x_shape = tuple(int(d) for d in rng.integers(2, 8, size=fx)) \
        + contract_dims
    y_shape = contract_dims + tuple(
        int(d) for d in rng.integers(2, 8, size=fy)
    )
    # Vary density per case: from nearly empty to fairly dense.
    x_cap = int(np.prod(x_shape))
    y_cap = int(np.prod(y_shape))
    x_nnz = int(rng.integers(0, max(x_cap // 2, 2)))
    y_nnz = int(rng.integers(1, max(y_cap // 2, 2)))
    x = random_tensor(x_shape, x_nnz, seed=rng)
    y = random_tensor(y_shape, y_nnz, seed=rng)
    cx = tuple(range(fx, fx + m))
    cy = tuple(range(m))
    return x, y, cx, cy


def run_engine(name: str, x, y, cx, cy) -> SparseTensor:
    """Run one engine by differential-suite name, return sorted Z."""
    if name == "element":
        res = sparta(x, y, cx, cy, granularity="element")
    elif name == "fused":
        res = contract(
            x, y, cx, cy, method="sparta", swap_larger_to_y=False
        )
    elif name == "subtensor_loop":
        res = sparta(x, y, cx, cy, granularity="subtensor_loop")
    elif name in ("spa", "coo_hta", "vectorized"):
        res = contract(x, y, cx, cy, method=name)
    elif name == "parallel_thread":
        res = parallel_sparta(
            x, y, cx, cy, threads=3
        ).result
    elif name == "parallel_process":
        res = parallel_sparta(
            x, y, cx, cy, threads=2, backend="process"
        ).result
    else:  # pragma: no cover - guard against typos in ENGINE lists
        raise ValueError(name)
    return res.tensor.sort()


def assert_bit_identical(z: SparseTensor, ref: SparseTensor, label: str):
    assert z.shape == ref.shape, label
    np.testing.assert_array_equal(
        z.indices, ref.indices, err_msg=f"{label}: index mismatch"
    )
    np.testing.assert_array_equal(
        z.values, ref.values, err_msg=f"{label}: value bytes differ"
    )


class TestDifferential:
    @pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
    def test_engines_bit_identical_to_element_reference(self, seed):
        x, y, cx, cy = make_case(seed)
        ref = run_engine("element", x, y, cx, cy)
        for name in EXACT_ENGINES:
            z = run_engine(name, x, y, cx, cy)
            assert_bit_identical(z, ref, f"seed={seed} engine={name}")

    @pytest.mark.parametrize(
        "seed", SEEDS[:6], ids=[f"seed{s}" for s in SEEDS[:6]]
    )
    def test_dense_reference_allclose(self, seed):
        x, y, cx, cy = make_case(seed)
        ref = run_engine("element", x, y, cx, cy)
        res = contract(x, y, cx, cy, method="dense")
        assert res.tensor.allclose(ref, atol=1e-10), f"seed={seed}"

    def test_parallel_backends_identical_across_worker_counts(self):
        x, y, cx, cy = make_case(3)
        ref = run_engine("element", x, y, cx, cy)
        for backend in ("thread", "process"):
            for workers in (1, 2, 5):
                par = parallel_sparta(
                    x, y, cx, cy, threads=workers, backend=backend,
                )
                assert_bit_identical(
                    par.result.tensor.sort(), ref,
                    f"backend={backend} workers={workers}",
                )

    @pytest.mark.parametrize(
        "seed", SEEDS[:8], ids=[f"seed{s}" for s in SEEDS[:8]]
    )
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_stage15_flags_bit_identical(self, seed, backend):
        # The parallel stage-1 HtY build must not perturb a single byte,
        # on or off.
        x, y, cx, cy = make_case(seed)
        ref = run_engine("element", x, y, cx, cy)
        for parallel_stage1 in (False, True):
            par = parallel_sparta(
                x, y, cx, cy,
                threads=3, backend=backend,
                parallel_stage1=parallel_stage1,
            )
            assert_bit_identical(
                par.result.tensor.sort(), ref,
                f"seed={seed} backend={backend} stage1={parallel_stage1}",
            )

    def test_parallel_stage1_worker_count_sweep(self):
        # Partial-build spans shift with the worker count; the merged
        # HtY — and thus the output — must not.
        x, y, cx, cy = make_case(7)
        ref = run_engine("element", x, y, cx, cy)
        for workers in (1, 2, 3, 4, 6):
            par = parallel_sparta(
                x, y, cx, cy, threads=workers, backend="thread",
                parallel_stage1=True,
            )
            assert_bit_identical(
                par.result.tensor.sort(), ref, f"workers={workers}"
            )


def traffic_cells(profile):
    """Table-2 cells: (object, stage, kind, pattern) → total bytes."""
    cells = {}
    for rec in profile.traffic:
        key = (rec.obj, rec.stage, rec.kind, rec.pattern)
        cells[key] = cells.get(key, 0) + rec.nbytes
    return cells


class TestCodegenDifferential:
    """Generated-kernel axis: specialization must be unobservable.

    The per-signature kernels (packed quicksort, dense workspace,
    specialized delinearizer) are pure wall-clock optimizations — the
    output bytes AND every Table-2 traffic cell must match the generic
    fused path and the element reference exactly, on every fuzz case
    and on both sides of the dense-workspace threshold.
    """

    @pytest.mark.parametrize(
        "seed", SEEDS, ids=[f"seed{s}" for s in SEEDS]
    )
    def test_codegen_bit_identical_and_traffic_exact(self, seed):
        x, y, cx, cy = make_case(seed)
        ref = run_engine("element", x, y, cx, cy)
        runs = {
            "generic": contract(
                x, y, cx, cy, method="sparta", codegen=False
            ),
            "codegen": contract(
                x, y, cx, cy, method="sparta", codegen=True
            ),
            "dense": contract(
                x, y, cx, cy, method="sparta", codegen=True,
                dense_threshold=0.0,
            ),
            "never_dense": contract(
                x, y, cx, cy, method="sparta", codegen=True,
                dense_threshold=float("inf"),
            ),
        }
        base = traffic_cells(runs["generic"].profile)
        for label, res in runs.items():
            assert_bit_identical(
                res.tensor.sort(), ref, f"seed={seed} {label}"
            )
            assert traffic_cells(res.profile) == base, (
                f"seed={seed} {label}: Table-2 traffic cells differ"
            )
        if x.nnz and y.nnz and runs["codegen"].tensor.nnz:
            c = runs["dense"].profile.counters
            assert c.get("codegen_dense_chunks", 0) > 0
            c = runs["never_dense"].profile.counters
            assert c.get("codegen_dense_chunks", 0) == 0

    @pytest.mark.parametrize(
        "seed", SEEDS[:6], ids=[f"seed{s}" for s in SEEDS[:6]]
    )
    def test_codegen_parallel_thread_bit_identical(self, seed):
        x, y, cx, cy = make_case(seed)
        ref = run_engine("element", x, y, cx, cy)
        for codegen in (False, True):
            par = parallel_sparta(
                x, y, cx, cy, threads=3, codegen=codegen,
            )
            assert_bit_identical(
                par.result.tensor.sort(), ref,
                f"seed={seed} parallel codegen={codegen}",
            )

    def test_kill_switch_disables_specialization(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CODEGEN", "1")
        x, y, cx, cy = make_case(2)
        ref = run_engine("element", x, y, cx, cy)
        res = contract(x, y, cx, cy, method="sparta", codegen=True)
        assert_bit_identical(res.tensor.sort(), ref, "kill-switch")
        counters = res.profile.counters
        assert not any(k.startswith("codegen_") for k in counters)
        assert "kernel_cache_hits" not in counters
        assert "kernel_cache_misses" not in counters


#: fault-fuzz seeds — each derives one random (kind, stage, worker,
#: unit) fault via FaultPlan.from_seed plus one contraction case
FAULT_SEEDS = tuple(range(10))


@pytest.mark.faults
class TestFaultDifferential:
    """Fuzz axis over fault plans: a disturbed run must equal serial.

    Each seed draws a random fault (crash, delay, or corruption at a
    random stage/worker/chunk) and a random contraction case, and the
    recovered run is held to the same bit-identity bar as the
    undisturbed engines. Plans from ``FaultPlan.from_seed`` pin a
    concrete worker, so every fault is recoverable without degrading —
    recovery itself must reproduce the exact bytes.
    """

    @pytest.mark.parametrize(
        "backend,workers", [("thread", 3), ("process", 2)]
    )
    @pytest.mark.parametrize(
        "fseed", FAULT_SEEDS, ids=[f"fault{s}" for s in FAULT_SEEDS]
    )
    def test_faulty_run_bit_identical_to_serial(
        self, fseed, backend, workers
    ):
        x, y, cx, cy = make_case(fseed % len(SEEDS))
        ref = run_engine("element", x, y, cx, cy)
        plan = FaultPlan.from_seed(fseed, workers=workers)
        par = parallel_sparta(
            x, y, cx, cy,
            threads=workers, backend=backend, fault_plan=plan,
        )
        assert_bit_identical(
            par.result.tensor.sort(), ref,
            f"fseed={fseed} backend={backend} "
            f"plan={plan.specs[0].to_dict()}",
        )
        assert "degraded" not in par.result.profile.flags

    @pytest.mark.parametrize(
        "fseed", FAULT_SEEDS[:5], ids=[f"fault{s}" for s in FAULT_SEEDS[:5]]
    )
    def test_faulty_run_identical_with_serial_fallback_allowed(
        self, fseed
    ):
        # on_failure="serial" must also be bit-identical when recovery
        # does degrade (and when it doesn't need to).
        x, y, cx, cy = make_case((fseed + 3) % len(SEEDS))
        ref = run_engine("element", x, y, cx, cy)
        plan = FaultPlan.from_seed(fseed, workers=2)
        par = parallel_sparta(
            x, y, cx, cy,
            threads=2, backend="process",
            fault_plan=plan, on_failure="serial",
        )
        assert_bit_identical(
            par.result.tensor.sort(), ref, f"fseed={fseed} serial-ok"
        )


class TestPlannerDifferential:
    """Planner axis: ``plan="auto"`` must be unobservable in the bytes.

    The cost model may only pick *which* engine runs — the output index
    array, the value bytes, and every Table-2 traffic cell must equal
    the explicit-knob run of whatever schedule it chose (and therefore
    the element-wise reference, since every hash-family engine is
    already pinned bit-identical above).
    """

    @pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
    def test_auto_bit_identical_and_traffic_exact(self, seed):
        x, y, cx, cy = make_case(seed)
        ref = run_engine("element", x, y, cx, cy)
        auto = contract(
            x, y, cx, cy, method="sparta", plan="auto", max_workers=4
        )
        assert_bit_identical(
            auto.tensor.sort(), ref, f"seed={seed} plan=auto"
        )
        chosen = auto.profile.flags["planner"]
        assert chosen.startswith("auto:")
        engine = chosen.split(":", 1)[1]
        if engine == "serial":
            explicit = contract(
                x, y, cx, cy, method="sparta", swap_larger_to_y=False
            )
        else:
            workers = auto.profile.counters["planner_workers"]
            explicit = parallel_sparta(
                x, y, cx, cy,
                threads=workers, backend=engine,
            ).result
        assert_bit_identical(
            auto.tensor.sort(), explicit.tensor.sort(),
            f"seed={seed} auto vs explicit {chosen}",
        )
        auto_cells = {
            k: v for k, v in traffic_cells(auto.profile).items()
        }
        explicit_cells = traffic_cells(explicit.profile)
        assert auto_cells == explicit_cells, (
            f"seed={seed}: plan=auto Table-2 cells differ from the "
            f"explicit {chosen} run"
        )

    @pytest.mark.parametrize(
        "seed", SEEDS[:6], ids=[f"seed{s}" for s in SEEDS[:6]]
    )
    def test_auto_traffic_equals_every_explicit_schedule(self, seed):
        # stronger: auto's cells equal every explicit hash-family
        # schedule's cells, not just the chosen one — the traffic
        # accounting is schedule-invariant, so the planner can never
        # shift a single byte between Table-2 cells
        x, y, cx, cy = make_case(seed)
        auto = contract(
            x, y, cx, cy, method="sparta", plan="auto", max_workers=4
        )
        base = traffic_cells(auto.profile)
        for label, res in (
            ("serial", contract(
                x, y, cx, cy, method="sparta", swap_larger_to_y=False
            )),
            ("thread3", parallel_sparta(
                x, y, cx, cy, threads=3
            ).result),
            ("process2", parallel_sparta(
                x, y, cx, cy, threads=2, backend="process",
            ).result),
        ):
            assert traffic_cells(res.profile) == base, (
                f"seed={seed} {label}"
            )

    def test_auto_records_decision_counters(self):
        x, y, cx, cy = make_case(4)
        res = contract(
            x, y, cx, cy, method="sparta", plan="auto", max_workers=4
        )
        assert res.profile.flags["planner"].startswith("auto:")
        assert res.profile.counters["planner_candidates"] >= 2
        assert res.profile.counters["planner_workers"] >= 1
        assert "planner_est_products" in res.profile.counters


class TestOocDifferential:
    """Out-of-core axis: a memory budget must be unobservable in bytes.

    ``contract(memory_budget=...)`` routes through the spill layer —
    fused chunks go to run files and stage 5 becomes a streaming merge
    over mmaps — yet the output index array, the value bytes AND every
    Table-2 traffic cell must equal the in-core run's exactly, for the
    serial engine and both parallel backends. ``force_spill=True`` pins
    the spilling path even for these small fuzz cases.
    """

    @pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
    def test_serial_ooc_bit_identical_and_traffic_exact(self, seed):
        x, y, cx, cy = make_case(seed)
        base = contract(
            x, y, cx, cy, method="sparta", swap_larger_to_y=False
        )
        ooc = contract(
            x, y, cx, cy, method="sparta", swap_larger_to_y=False,
            memory_budget="256K", force_spill=True,
        )
        assert ooc.profile.flags.get("ooc") == "spill", f"seed={seed}"
        assert_bit_identical(
            ooc.tensor, base.tensor, f"seed={seed} serial-ooc"
        )
        assert traffic_cells(ooc.profile) == traffic_cells(
            base.profile
        ), f"seed={seed}: Table-2 traffic cells differ under spilling"

    @pytest.mark.parametrize(
        "backend,workers", [("thread", 3), ("process", 2)]
    )
    @pytest.mark.parametrize(
        "seed", SEEDS[:4], ids=[f"seed{s}" for s in SEEDS[:4]]
    )
    def test_parallel_ooc_bit_identical_and_traffic_exact(
        self, seed, backend, workers
    ):
        x, y, cx, cy = make_case(seed)
        base = parallel_sparta(
            x, y, cx, cy, threads=workers, backend=backend,
        )
        ooc = parallel_sparta(
            x, y, cx, cy, threads=workers, backend=backend,
            memory_budget="256K", force_spill=True,
        )
        assert ooc.result.profile.flags.get("ooc") == "spill"
        assert_bit_identical(
            ooc.result.tensor.sort(), base.result.tensor.sort(),
            f"seed={seed} backend={backend} ooc",
        )
        assert traffic_cells(ooc.result.profile) == traffic_cells(
            base.result.profile
        ), f"seed={seed} backend={backend}: traffic differs"

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_in_core_budget_changes_nothing_but_counters(self, seed):
        # A generous budget must stay fully in-core: identical bytes,
        # identical traffic, just the budget counters added on top.
        x, y, cx, cy = make_case(seed)
        base = contract(
            x, y, cx, cy, method="sparta", swap_larger_to_y=False
        )
        res = contract(
            x, y, cx, cy, method="sparta", swap_larger_to_y=False,
            memory_budget="4G",
        )
        assert res.profile.flags.get("ooc") == "in_core"
        assert res.profile.counters["ooc_plan_out_of_core"] == 0
        assert_bit_identical(res.tensor, base.tensor, f"seed={seed}")
        assert traffic_cells(res.profile) == traffic_cells(
            base.profile
        )


@pytest.mark.faults
class TestOocFaultDifferential:
    """Spilled runs must survive worker kills and payload corruption."""

    @pytest.mark.parametrize("kind", ["kill", "corrupt"])
    def test_ooc_process_fault_recovery_bit_identical(self, kind):
        from repro.faults import ANY, FaultSpec

        x, y, cx, cy = make_case(5)
        ref = run_engine("element", x, y, cx, cy)
        # Kill fires on the stage grouping; corrupt perturbs the
        # payload at the accumulation site (see repro.faults).
        stage = "index_search" if kind == "kill" else "accumulation"
        plan = FaultPlan(
            specs=(FaultSpec(kind, worker=0, stage=stage, unit=ANY),)
        )
        par = parallel_sparta(
            x, y, cx, cy, threads=2, backend="process",
            fault_plan=plan, memory_budget="256K", force_spill=True,
        )
        prof = par.result.profile
        assert prof.flags.get("ooc") == "spill"
        counter = (
            "ft_worker_failures" if kind == "kill"
            else "ft_corrupt_payloads"
        )
        assert prof.counters.get(counter, 0) >= 1, (
            f"{kind} fault never fired"
        )
        assert "degraded" not in prof.flags
        assert_bit_identical(
            par.result.tensor.sort(), ref, f"ooc-{kind}-recovery"
        )

    @pytest.mark.parametrize("fseed", FAULT_SEEDS[:5])
    def test_ooc_random_fault_bit_identical(self, fseed):
        x, y, cx, cy = make_case(fseed % len(SEEDS))
        ref = run_engine("element", x, y, cx, cy)
        plan = FaultPlan.from_seed(fseed, workers=2)
        par = parallel_sparta(
            x, y, cx, cy, threads=2, backend="process",
            fault_plan=plan, memory_budget="256K", force_spill=True,
        )
        assert_bit_identical(
            par.result.tensor.sort(), ref, f"ooc-fault fseed={fseed}"
        )
        assert "degraded" not in par.result.profile.flags


SERVE_OPTION_SETS = (
    ("default", {}),
    ("plan_auto", {"plan": "auto"}),
    (
        "parallel",
        {
            "method": "parallel",
            "threads": 2,
            "backend": "thread",
        },
    ),
)


class TestServeDifferential:
    """Served contractions vs direct ``contract()`` — same options.

    The server routes the request (registry pin, fair queue, warm
    worker) but the worker runs the literal public ``contract()``, so
    every served result must be bit-identical and Table-2-traffic
    byte-exact to a direct call. Operands ride shared-memory handles
    when non-empty to exercise the zero-copy path.
    """

    @pytest.fixture(scope="class")
    def serve_server(self):
        from repro.serve import ServeConfig, SpTCServer

        with SpTCServer(
            ServeConfig(workers=2, tracing=False)
        ) as server:
            yield server

    @pytest.mark.parametrize(
        "optname,options",
        SERVE_OPTION_SETS,
        ids=[name for name, _ in SERVE_OPTION_SETS],
    )
    @pytest.mark.parametrize(
        "seed", SEEDS[:6], ids=[f"seed{s}" for s in SEEDS[:6]]
    )
    def test_served_bit_identical_and_traffic_exact(
        self, serve_server, seed, optname, options
    ):
        x, y, cx, cy = make_case(seed)
        direct = contract(x, y, cx, cy, **options)
        handles = []
        refs = []
        for tensor, suffix in ((x, "x"), (y, "y")):
            if tensor.nnz:  # zero-size segments cannot be pinned
                name = f"df-{optname}-s{seed}-{suffix}"
                serve_server.pin(name, tensor)
                handles.append(name)
                refs.append(name)
            else:
                refs.append(tensor)
        try:
            resp = serve_server.submit_and_wait(
                refs[0], refs[1], cx, cy,
                options=dict(options), timeout=120.0,
            )
        finally:
            for name in handles:
                serve_server.unpin(name)
        label = f"seed={seed} options={optname}"
        assert_bit_identical(
            resp.tensor.sort(), direct.tensor.sort(), label
        )
        assert traffic_cells(resp.profile) == traffic_cells(
            direct.profile
        ), label
        assert resp.retries == 0 and not resp.degraded
