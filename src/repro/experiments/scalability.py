"""Figure 6 + §5.4 — thread scalability of parallel Sparta.

The paper reports 10.2x / 9.3x / 10.7x at 12 threads for NIPS 1-mode,
Vast 2-mode and NIPS 3-mode, with per-stage speedups of 10.4x (search),
10.9x (accumulation), 9.5x (writeback), 6.8x (input processing) and 6.2x
(output sorting).

On a single-core host the curves come from the scalability model: the
measured one-thread stage breakdown of each workload (this repository's
own run) combined with per-stage Amdahl fractions calibrated to the
paper's per-stage numbers, plus the measured load imbalance of the actual
sub-tensor partition. The thread-pool executor is run as well to verify
the parallel decomposition computes identical results.

With ``--measure-process`` the experiment additionally runs the
shared-memory process backend (``backend="process"``) and reports the
*measured* wall-clock speedup next to the modeled curve — the real
Figure-6 mode on multi-core hosts (it is meaningless on one core, where
process overhead makes the ratio < 1). The measured run exercises the
full all-stage pipeline: workers build HtY partials from Y spans while
the parent sorts X, and the parent k-way merges the workers' presorted
chunk outputs instead of re-sorting Z (see ``benchmarks/bench_pr3.py``
for the seed-vs-all-stage comparison).

Run as ``python -m repro.experiments.scalability [--scale S]``.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import contract
from repro.core.stages import STAGE_ORDER
from repro.datasets import make_case
from repro.parallel import (
    ScalabilityModel,
    parallel_sparta,
    partition_imbalance,
    partition_subtensors,
)

#: the three workloads of Figure 6
FIGURE6_CASES: Tuple[Tuple[str, int], ...] = (
    ("nips", 1),
    ("vast", 2),
    ("nips", 3),
)

THREAD_COUNTS = (1, 2, 4, 8, 12)


@dataclass
class ScalabilityRow:
    """Predicted speedups for one workload."""

    label: str
    serial_seconds: float
    speedups: Dict[int, float]
    parallel_matches: bool
    load_imbalance: float
    #: measured process-backend wall-clock speedup at ``process_workers``
    #: (None unless ``run(measure_process=True)``)
    measured_speedup: Optional[float] = None
    #: True when the measured process run lost workers and degraded to
    #: serial recomputation — the result is still exact, but its wall
    #: clock is not a fair speedup sample
    measured_degraded: bool = False


def run(
    *,
    cases: Sequence[Tuple[str, int]] = FIGURE6_CASES,
    threads: Sequence[int] = THREAD_COUNTS,
    scale: float = 0.5,
    seed: int = 0,
    measure_process: bool = False,
    process_workers: int = 4,
    max_retries: int = 2,
    on_failure: str = "serial",
) -> List[ScalabilityRow]:
    """Predict Figure-6 curves and validate the parallel decomposition."""
    rows: List[ScalabilityRow] = []
    for name, n in cases:
        case = make_case(name, n, scale=scale, seed=seed)
        t0 = time.perf_counter()
        serial = contract(
            case.x, case.y, case.cx, case.cy,
            method="sparta", swap_larger_to_y=False,
        )
        serial_wall = time.perf_counter() - t0
        # Load imbalance of the real partition at the largest thread count.
        from repro.core.common import prepare_x
        from repro.core.plan import ContractionPlan
        from repro.core.profile import RunProfile

        plan = ContractionPlan.create(case.x, case.y, case.cx, case.cy)
        px = prepare_x(case.x, plan, RunProfile("partition-probe"))
        ranges = partition_subtensors(px.ptr, max(threads))
        imbalance = partition_imbalance(px.ptr, ranges)

        model = ScalabilityModel(load_imbalance=imbalance)
        speedups = {
            t: model.predict(serial.profile, t).speedup for t in threads
        }
        par = parallel_sparta(
            case.x, case.y, case.cx, case.cy, threads=4,
        )
        measured = None
        degraded = False
        if measure_process:
            proc = parallel_sparta(
                case.x, case.y, case.cx, case.cy,
                threads=process_workers, backend="process",
                max_retries=max_retries, on_failure=on_failure,
            )
            measured = serial_wall / max(proc.wall_seconds, 1e-12)
            degraded = (
                proc.result.profile.flags.get("degraded") == "serial"
            )
        rows.append(
            ScalabilityRow(
                label=case.label,
                serial_seconds=serial.profile.total_seconds,
                speedups=speedups,
                parallel_matches=bool(
                    par.result.tensor.allclose(serial.tensor)
                ),
                load_imbalance=imbalance,
                measured_speedup=measured,
                measured_degraded=degraded,
            )
        )
    return rows


def stage_speedup_report(threads: int = 12) -> str:
    """Per-stage model speedups at *threads* (the §5.4 numbers)."""
    from repro.experiments.fmt import format_table

    model = ScalabilityModel()
    return format_table(
        ["stage", f"speedup @{threads}T"],
        [
            [s.value, f"{model.stage_speedup(s, threads):.1f}x"]
            for s in STAGE_ORDER
        ],
        title="§5.4 — per-stage parallel speedups (model)",
    )


def main(argv: Sequence[str] | None = None) -> str:
    """CLI entry point; returns (and prints) the report."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--measure-process", action="store_true",
        help="also run the shared-memory process backend and report its "
             "measured wall-clock speedup (meaningful on multi-core hosts)",
    )
    parser.add_argument(
        "--process-workers", type=int, default=4,
        help="worker count for --measure-process (default 4)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2,
        help="respawn rounds before the measured process run degrades "
             "(default 2)",
    )
    parser.add_argument(
        "--on-failure", choices=("raise", "serial"), default="serial",
        help="measured-run policy once retries exhaust: keep the "
             "experiment alive with a serial recomputation (default) "
             "or raise",
    )
    args = parser.parse_args(argv)

    rows = run(
        scale=args.scale,
        seed=args.seed,
        measure_process=args.measure_process,
        process_workers=args.process_workers,
        max_retries=args.max_retries,
        on_failure=args.on_failure,
    )
    from repro.experiments.fmt import format_table

    headers = (
        ["case", "1T (s)", "imbalance", "verified"]
        + [f"{t}T" for t in THREAD_COUNTS]
    )
    if args.measure_process:
        headers.append(f"measured {args.process_workers}P")
    table = format_table(
        headers,
        [
            [
                r.label,
                r.serial_seconds,
                f"{r.load_imbalance:.3f}",
                "yes" if r.parallel_matches else "NO",
                *[f"{r.speedups[t]:.1f}x" for t in THREAD_COUNTS],
                *(
                    [
                        f"{r.measured_speedup:.1f}x"
                        + (" (degraded)" if r.measured_degraded else "")
                    ]
                    if r.measured_speedup is not None
                    else []
                ),
            ]
            for r in rows
        ],
        title="Figure 6 — thread scalability (model over measured breakdown)",
    )
    print(table)
    print()
    print(stage_speedup_report())
    return table


if __name__ == "__main__":  # pragma: no cover
    main()
