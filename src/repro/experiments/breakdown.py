"""Figure 2 + §5.2 stage shares: execution-time breakdown per stage.

Figure 2 shows where SpTC-SPA spends its time across the five tensors and
1/2/3-mode contractions (the computation stages dominate; input/output
processing is <1-few %). §5.2's text gives Sparta's own shares (index
search 4.7%, accumulation 61.6%, writeback 9.6%, input processing 3.3%,
output sorting 20.8%).

Run as ``python -m repro.experiments.breakdown [--engine
spa|sparta|parallel] [--scale S]``. With ``--engine parallel`` the same
breakdown comes from the all-stage parallel executor (``--threads``,
``--backend``): stage 1 is the partitioned HtY build, stages 2-4 are the
fused worker chunks, and stage 5 checks the gathered Z's order as on a
serial run — so the table shows how parallelism shifts the Figure-2
shares.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core import Stage, contract
from repro.core.stages import STAGE_ORDER
from repro.datasets import FIGURE4_DATASETS, make_case
from repro.obs import Tracer


@dataclass
class BreakdownRow:
    """Stage shares for one SpTC case."""

    label: str
    n_modes: int
    total_seconds: float
    fractions: Dict[Stage, float]


def run(
    *,
    engine: str = "spa",
    datasets: Sequence[str] = FIGURE4_DATASETS,
    modes: Sequence[int] = (1, 2, 3),
    scale: float = 0.25,
    seed: int = 0,
    threads: int = 4,
    backend: str = "thread",
    tracer: Optional[Tracer] = None,
) -> List[BreakdownRow]:
    """Measure per-stage time shares for every (dataset, n-mode) case.

    With ``tracer`` set, every case's stage spans land on the one
    tracer — the whole sweep becomes a single Perfetto timeline.
    """
    rows: List[BreakdownRow] = []
    for n in modes:
        for name in datasets:
            case = make_case(name, n, scale=scale, seed=seed)
            if engine == "parallel":
                from repro.parallel import parallel_sparta

                res = parallel_sparta(
                    case.x, case.y, case.cx, case.cy,
                    threads=threads, backend=backend, tracer=tracer,
                ).result
            else:
                res = contract(
                    case.x, case.y, case.cx, case.cy, method=engine,
                    tracer=tracer,
                    **(
                        {"swap_larger_to_y": False}
                        if engine == "sparta" else {}
                    ),
                )
            rows.append(
                BreakdownRow(
                    label=case.label,
                    n_modes=n,
                    total_seconds=res.profile.total_seconds,
                    fractions=res.profile.stage_fractions(),
                )
            )
    return rows


def main(argv: Sequence[str] | None = None) -> str:
    """CLI entry point; returns (and prints) the report."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--engine", default="spa", choices=("spa", "sparta", "parallel")
    )
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--threads", type=int, default=4,
        help="worker count for --engine parallel (default 4)",
    )
    parser.add_argument(
        "--backend", choices=("thread", "process"), default="thread",
        help="parallel backend for --engine parallel",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a Chrome trace-event JSON of the whole sweep and "
             "print the span tree (open the JSON in Perfetto)",
    )
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    rows = run(
        engine=args.engine, scale=args.scale, seed=args.seed,
        threads=args.threads, backend=args.backend, tracer=tracer,
    )
    from repro.experiments.fmt import format_table

    table = format_table(
        ["case", "total (s)"] + [s.value for s in STAGE_ORDER],
        [
            [
                r.label,
                r.total_seconds,
                *[
                    f"{100 * r.fractions.get(s, 0.0):.1f}%"
                    for s in STAGE_ORDER
                ],
            ]
            for r in rows
        ],
        title=(
            f"Figure 2 — stage breakdown of {args.engine} "
            f"(scale={args.scale})"
        ),
    )
    print(table)
    if tracer is not None:
        tracer.write(args.trace)
        print(f"\nspan tree ({len(tracer.records)} records, "
              f"trace: {args.trace}):")
        print(tracer.summary())
    return table


if __name__ == "__main__":  # pragma: no cover
    main()
