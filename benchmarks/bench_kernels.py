"""Kernel micro-benchmarks: TTM, TTV, MTTKRP and the contraction engines.

Baseline throughput numbers for the sparse-tensor x dense kernels the
paper's intro contrasts SpTC against, plus a vectorized-vs-sparta engine
comparison on the same workload.

Also home of the PR-6 codegen gates: the per-signature generated
kernels (``repro/core/codegen/``) must beat the generic fused kernel by
a >=2x geometric mean on the ``bench_fastpath`` workloads, measured on
the kernel region itself (stages 2–4 on pre-built ``px``/HtY — input
processing is identical either way and would dilute the ratio), and
the planner-lite guard must bring the small uracil-3mode contraction
back to >=1.0x vs serial. Run directly
(``python benchmarks/bench_kernels.py``) to write ``BENCH_PR6.json`` at
the repo root; under pytest the same measurements run as assertions.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import contract
from repro.core.common import prepare_x
from repro.core.htycache import cached_plan
from repro.core.kernels import assemble_fused, fused_compute
from repro.core.profile import RunProfile
from repro.hashtable.tensor_table import HashTensor
from repro.tensor import random_tensor_fibered
from repro.tensor.ops import mttkrp, ttm, ttv


@pytest.fixture(scope="module")
def tensor():
    return random_tensor_fibered((80, 90, 100), 40_000, 1, 60, seed=241)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


def test_ttm(benchmark, tensor, rng):
    m = rng.standard_normal((16, tensor.shape[1]))
    out = benchmark(ttm, tensor, m, 1)
    assert out.shape == (80, 16, 100)


def test_ttv(benchmark, tensor, rng):
    v = rng.standard_normal(tensor.shape[2])
    out = benchmark(ttv, tensor, v, 2)
    assert out.order == 2


def test_mttkrp(benchmark, tensor, rng):
    factors = [rng.standard_normal((d, 8)) for d in tensor.shape]
    out = benchmark(mttkrp, tensor, factors, 0)
    assert out.shape == (80, 8)


def test_engine_vectorized(benchmark, chicago2):
    res = benchmark.pedantic(
        lambda: contract(
            chicago2.x, chicago2.y, chicago2.cx, chicago2.cy,
            method="vectorized",
        ),
        rounds=3,
        iterations=1,
    )
    assert res.nnz > 0


def test_engine_sparta_element_granularity(benchmark, chicago2):
    """The faithful per-element loop — slower, kept for semantics."""
    res = benchmark.pedantic(
        lambda: contract(
            chicago2.x, chicago2.y, chicago2.cx, chicago2.cy,
            method="sparta", swap_larger_to_y=False,
            granularity="element",
        ),
        rounds=1,
        iterations=1,
    )
    assert res.nnz > 0


def test_two_phase_symbolic(benchmark, chicago2):
    from repro.core import two_phase_contract

    res = benchmark.pedantic(
        lambda: two_phase_contract(
            chicago2.x, chicago2.y, chicago2.cx, chicago2.cy
        ),
        rounds=2,
        iterations=1,
    )
    assert res.result.nnz > 0


# ----------------------------------------------------------------------
# PR-6 codegen gates


def _kernel_region(case):
    """Pre-build px/HtY once; return a stages-2–4 runner per codegen."""
    plan = cached_plan(case.x, case.y, case.cx, case.cy)
    px = prepare_x(case.x, plan, RunProfile("bench-prep"))
    hty = HashTensor.from_coo(case.y, plan.cy)

    def run(codegen):
        profile = RunProfile("bench")
        fr = fused_compute(
            px,
            hty,
            y_structure="hash",
            accumulator="hash",
            profile=profile,
            codegen=codegen,
        )
        z = assemble_fused(
            fr.out_fgrp,
            fr.out_fy,
            fr.out_vals,
            px.fx_rows,
            plan,
            profile,
        )
        return z, profile

    return run


def measure_codegen():
    """Kernel-region timings, generic fused vs generated kernels."""
    # Both pytest and direct execution put benchmarks/ on sys.path.
    from bench_fastpath import FUSED_CASES, _best_of, _fused_case

    rows = []
    for dataset, n_modes in FUSED_CASES:
        case = _fused_case(dataset, n_modes)
        run = _kernel_region(case)
        z_gen, _ = run(False)
        z_cg, p_cg = run(True)  # warm the kernel cache before timing
        assert np.array_equal(z_cg.indices, z_gen.indices)
        assert np.array_equal(
            z_cg.values.view(np.uint64), z_gen.values.view(np.uint64)
        ), f"{case.label}: codegen kernel not bit-identical"
        t_generic = _best_of(lambda: run(False), repeats=3)
        t_codegen = _best_of(lambda: run(True), repeats=3)
        strategies = {
            k: v for k, v in p_cg.counters.items()
            if k.startswith("codegen_")
        }
        rows.append(
            {
                "case": case.label,
                "nnz_x": case.x.nnz,
                "nnz_y": case.y.nnz,
                "nnz_z": int(z_cg.nnz),
                "generic_seconds": t_generic,
                "codegen_seconds": t_codegen,
                "speedup": t_generic / t_codegen,
                "strategies": strategies,
            }
        )
    return rows


def measure_planner_uracil():
    """Small uracil-3mode: the ``plan="auto"`` route vs the serial engine.

    The 4-worker parallel engine once ran this case at 0.81x of serial —
    the parallel machinery's start-up outweighed the tiny contraction. ``contract(plan="auto")``,
    the one routing point, must send a 4-worker parallel request to the
    serial fused path and recover >=1.0x.
    """
    from repro.datasets import make_case

    case = make_case("uracil", 3, scale=0.2, seed=0)

    def serial():
        return contract(
            case.x, case.y, case.cx, case.cy,
            method="sparta", swap_larger_to_y=False,
        )

    def parallel():
        return contract(
            case.x, case.y, case.cx, case.cy,
            method="parallel", plan="auto", threads=4,
        )

    ref = serial()
    par = parallel()
    assert np.array_equal(
        par.tensor.sort().values.view(np.uint64),
        ref.tensor.sort().values.view(np.uint64),
    )
    t_serial = _best_of_n(serial, 7)
    t_parallel = _best_of_n(parallel, 7)
    planner = par.profile.flags.get("planner", "")
    return {
        "case": case.label,
        "planner": planner,
        "backend": planner.split(":", 1)[-1],
        "est_products": int(
            par.profile.counters.get("planner_est_products", 0)
        ),
        "serial_seconds": t_serial,
        "parallel_seconds": t_parallel,
        "speedup_vs_serial": t_serial / t_parallel,
    }


def _best_of_n(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _geomean(values):
    return float(np.exp(np.mean(np.log(values))))


def test_codegen_speedup_geomean():
    rows = measure_codegen()
    g = _geomean([r["speedup"] for r in rows])
    detail = ", ".join(
        f"{r['case']}: {r['speedup']:.2f}x" for r in rows
    )
    assert g >= 2.0, f"codegen geomean {g:.2f}x < 2x ({detail})"


def test_planner_restores_uracil_small_case():
    row = measure_planner_uracil()
    assert row["planner"] == "auto:serial", row
    assert row["speedup_vs_serial"] >= 1.0, (
        f"uracil-3mode planner route {row['speedup_vs_serial']:.2f}x "
        f"< 1.0x vs serial"
    )


def main():
    codegen_rows = measure_codegen()
    planner_row = measure_planner_uracil()
    payload = {
        "codegen_kernel_region": codegen_rows,
        "codegen_geomean": _geomean(
            [r["speedup"] for r in codegen_rows]
        ),
        "planner_uracil": planner_row,
    }
    path = Path(__file__).resolve().parent.parent / "BENCH_PR6.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    for row in codegen_rows:
        print(
            f"{row['case']:<24} generic {row['generic_seconds']:.4f}s  "
            f"codegen {row['codegen_seconds']:.4f}s  "
            f"{row['speedup']:.2f}x  {row['strategies']}"
        )
    print(f"codegen geomean: {payload['codegen_geomean']:.2f}x")
    print(
        f"{planner_row['case']:<24} serial "
        f"{planner_row['serial_seconds']:.4f}s  planner-auto "
        f"{planner_row['parallel_seconds']:.4f}s  "
        f"{planner_row['speedup_vs_serial']:.2f}x "
        f"({planner_row['planner']})"
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
