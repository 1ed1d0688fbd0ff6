"""Figure 6 bench — parallel executor and scalability model.

Benchmarks the thread-pool engine (4 workers), checks the model's
12-thread predictions stay in the paper's reported band, and — on
multi-core hosts — measures the shared-memory process backend's real
wall-clock speedup over the serial fused engine.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import contract
from repro.parallel import ScalabilityModel, parallel_sparta


def test_fig6_parallel_executor(benchmark, nips1):
    res = benchmark.pedantic(
        lambda: parallel_sparta(
            nips1.x, nips1.y, nips1.cx, nips1.cy, threads=4
        ),
        rounds=2,
        iterations=1,
    )
    assert res.threads == 4
    assert res.load_imbalance < 2.0


def test_fig6_process_backend(benchmark, nips1):
    """Measured process-backend run; correct on any host, timed on all."""
    res = benchmark.pedantic(
        lambda: parallel_sparta(
            nips1.x, nips1.y, nips1.cx, nips1.cy,
            threads=4, backend="process",
        ),
        rounds=2,
        iterations=1,
    )
    assert res.backend == "process"
    assert res.wall_seconds > 0.0
    serial = contract(
        nips1.x, nips1.y, nips1.cx, nips1.cy,
        method="sparta", swap_larger_to_y=False,
    )
    assert res.result.tensor.allclose(serial.tensor)


def test_fig6_process_speedup_multicore(nips1):
    """Measured >1.5x wall-clock at 4 workers — multi-core hosts only.

    Process-pool overhead (spawn + shm export) dominates on few cores,
    so the speedup claim is only checked where the paper's experiment is
    physically possible.
    """
    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip(f"needs >= 4 CPU cores to measure scaling, have {cores}")
    t0 = time.perf_counter()
    serial = contract(
        nips1.x, nips1.y, nips1.cx, nips1.cy,
        method="sparta", swap_larger_to_y=False,
    )
    serial_wall = time.perf_counter() - t0
    # Best-of-2 to smooth pool start-up jitter.
    walls = []
    for _ in range(2):
        par = parallel_sparta(
            nips1.x, nips1.y, nips1.cx, nips1.cy,
            threads=4, backend="process",
        )
        walls.append(par.wall_seconds)
    assert par.result.tensor.allclose(serial.tensor)
    speedup = serial_wall / max(min(walls), 1e-12)
    assert speedup > 1.5, (
        f"process backend speedup {speedup:.2f}x at 4 workers "
        f"(serial {serial_wall:.3f}s, parallel best {min(walls):.3f}s)"
    )


def test_fig6_allstage_speedup_multicore(nips1):
    """All-stage pipeline >2.0x at 4 workers — multi-core hosts only.

    The seed configuration (serial stage 1) is held back by Amdahl's
    law on this workload; with partitioned HtY builds the same 4
    workers must clear 2.0x and beat it. Stage 5 is the same presorted
    order check on both paths, so the margin rests on stage 1 alone.
    """
    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip(f"needs >= 4 CPU cores to measure scaling, have {cores}")
    t0 = time.perf_counter()
    serial = contract(
        nips1.x, nips1.y, nips1.cx, nips1.cy,
        method="sparta", swap_larger_to_y=False,
    )
    serial_wall = time.perf_counter() - t0

    def best_of(flags):
        walls = []
        for _ in range(2):
            par = parallel_sparta(
                nips1.x, nips1.y, nips1.cx, nips1.cy,
                threads=4, backend="process", **flags,
            )
            walls.append(par.wall_seconds)
        return min(walls), par

    seed_wall, _ = best_of(dict(parallel_stage1=False))
    all_wall, par = best_of({})
    assert par.result.tensor.allclose(serial.tensor)
    seed_speedup = serial_wall / max(seed_wall, 1e-12)
    all_speedup = serial_wall / max(all_wall, 1e-12)
    assert all_speedup > 2.0, (
        f"all-stage speedup {all_speedup:.2f}x at 4 workers "
        f"(seed path {seed_speedup:.2f}x, serial {serial_wall:.3f}s)"
    )
    assert all_speedup > seed_speedup, (
        f"all-stage {all_speedup:.2f}x should beat the serial-stage "
        f"seed path {seed_speedup:.2f}x"
    )


def test_fig6_model_predictions(nips1):
    serial = contract(
        nips1.x, nips1.y, nips1.cx, nips1.cy,
        method="sparta", swap_larger_to_y=False,
    )
    model = ScalabilityModel()
    speedups = [
        model.predict(serial.profile, t).speedup for t in (1, 2, 4, 8, 12)
    ]
    # Monotonic, and the 12-thread point lands in the paper's band
    # (9.3x-10.7x measured; model within ~25% below accounts for our
    # workloads' different stage mix).
    assert all(b >= a for a, b in zip(speedups, speedups[1:]))
    assert speedups[0] == 1.0
    assert 6.0 < speedups[-1] <= 12.0
