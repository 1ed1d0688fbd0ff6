"""Figure-9 successor — dynamic placement under multi-contraction load.

The paper's Figure 9 shows memory usage exceeding DRAM on the large
SpTCs, which is *why* placement matters; Figure 7 then compares static
placements on one contraction at a time. This experiment extends that
to the regime the serve layer creates: a stream of contractions whose
aggregate working set exceeds DRAM, with registry-pinned operands
eating fast-tier capacity across requests. Four managements compete:

* **static** — Sparta's §4.2 priority placement, recomputed per
  request (one mapping for all five stages);
* **ial** — the reactive hotness comparator with migration lag;
* **dynamic:**\\ *policy* — the :class:`~repro.memory.migration.
  MigrationEngine` (lookahead | ewma), which
  time-multiplexes DRAM across stage boundaries with explicit,
  overlap-timed migrations.

Two scenarios per workload:

* **pressured** — DRAM holds any one placement-sensitive object but
  not a big request's full placeable set, and the serve registry pins
  a slice of it across requests: no static mapping can keep every
  stage's hot object resident.
* **fits** — DRAM comfortably holds everything: the guard scenario
  where dynamic policies must not lose to static (no gratuitous
  migration churn).

Run as ``python -m repro.experiments.dynamic_placement [--scale S]``.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core import contract
from repro.datasets import make_case
from repro.memory import (
    DEFAULT_IAL_LAG,
    DYNAMIC_POLICIES,
    HMSimulator,
    MigrationEngine,
    StreamRequest,
    dram,
    ial_schedule,
    pmm,
    simulate_stream,
    static_stream_scheduler,
)
from repro.memory.devices import HeterogeneousMemory
from repro.memory.objects import ALWAYS_PMM
from repro.core.profile import DataObject

#: the request mix: (dataset, n_modes) per request, round-robin
STREAM_CASES: Tuple[Tuple[str, int], ...] = (
    ("chicago", 2),
    ("nips", 2),
    ("vast", 2),
    ("chicago", 1),
)

#: pressured DRAM capacity, as a multiple of the stream's largest
#: single placeable object: any one stage's hot object fits (so
#: placement decisions, not raw capacity, decide the outcome) but the
#: full placeable set of a big request does not
PRESSURE_FACTOR = 1.6

#: fraction of pressured DRAM the serve registry pins across requests
PIN_FRACTION = 0.3

#: all compared managements, static baseline first
POLICIES = ("static", "ial") + tuple(
    f"dynamic:{p}" for p in DYNAMIC_POLICIES
)


@dataclass
class StreamRow:
    """One scenario's totals for every management."""

    scenario: str
    dram_bytes: int
    pinned_bytes: int
    requests: int
    seconds: Dict[str, float] = field(default_factory=dict)
    migration_seconds: Dict[str, float] = field(default_factory=dict)

    def win_over_static(self, policy: str) -> float:
        """Fractional improvement of *policy* over the static baseline."""
        static = self.seconds["static"]
        return 1.0 - self.seconds[policy] / static if static else 0.0

    @property
    def best_dynamic(self) -> str:
        return min(
            (p for p in self.seconds if p.startswith("dynamic:")),
            key=lambda p: self.seconds[p],
        )


def build_stream(
    *,
    cases: Sequence[Tuple[str, int]] = STREAM_CASES,
    repeats: int = 2,
    scale: float = 0.3,
    seed: int = 0,
) -> List:
    """Contract every case once and return the profiles, in stream order."""
    profiles = []
    for name, n in cases:
        case = make_case(name, n, scale=scale, seed=seed)
        res = contract(
            case.x, case.y, case.cx, case.cy,
            method="sparta", swap_larger_to_y=False,
        )
        profiles.append(res.profile)
    return profiles * repeats


def run_scenario(
    profiles: Sequence,
    *,
    scenario: str,
    dram_bytes: int,
    pinned_bytes: int,
) -> StreamRow:
    """Simulate every management over one request stream."""
    hm = HeterogeneousMemory(
        dram=dram(max(dram_bytes, 1)),
        pmm=pmm(max(dram_bytes, 1) * 50),
    )
    sim = HMSimulator(hm)
    requests = [
        StreamRequest(profile, pinned_bytes) for profile in profiles
    ]
    row = StreamRow(
        scenario=scenario,
        dram_bytes=dram_bytes,
        pinned_bytes=pinned_bytes,
        requests=len(requests),
    )

    def ial_scheduler(profile, pinned):
        return ial_schedule(
            profile, max(hm.dram.capacity_bytes - pinned, 0)
        )

    schedulers = {"static": static_stream_scheduler(hm)}
    schedulers["ial"] = ial_scheduler
    for pol in DYNAMIC_POLICIES:
        schedulers[f"dynamic:{pol}"] = MigrationEngine(
            hm, policy=pol
        ).schedule_run
    for name, scheduler in schedulers.items():
        result = simulate_stream(
            sim,
            requests,
            scheduler,
            lag_fraction=DEFAULT_IAL_LAG if name == "ial" else 0.0,
            overlap=name.startswith("dynamic:"),
            policy=name,
        )
        row.seconds[name] = result.total_seconds
        row.migration_seconds[name] = result.migration_seconds
    return row


def run(
    *,
    cases: Sequence[Tuple[str, int]] = STREAM_CASES,
    repeats: int = 2,
    scale: float = 0.3,
    seed: int = 0,
) -> List[StreamRow]:
    """Both scenarios over the same request stream."""
    profiles = build_stream(
        cases=cases, repeats=repeats, scale=scale, seed=seed
    )
    largest_object = max(
        p.object_bytes.get(o, 0)
        for p in profiles
        for o in DataObject
        if o not in ALWAYS_PMM
    )
    total = max(
        sum(p.object_bytes.get(o, 0) for o in DataObject)
        for p in profiles
    )
    pressured_dram = max(int(largest_object * PRESSURE_FACTOR), 1)
    pinned = int(pressured_dram * PIN_FRACTION)
    return [
        run_scenario(
            profiles,
            scenario="pressured",
            dram_bytes=pressured_dram,
            pinned_bytes=pinned,
        ),
        run_scenario(
            profiles,
            scenario="fits",
            dram_bytes=total * 2,
            pinned_bytes=0,
        ),
    ]


def main(argv: Sequence[str] | None = None) -> str:
    """CLI entry point; returns (and prints) the report."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rows = run(
        scale=args.scale, repeats=args.repeats, seed=args.seed
    )
    from repro.experiments.fmt import format_table

    out = []
    for row in rows:
        table = format_table(
            ["policy", "total s", "migrating s", "vs static"],
            [
                [
                    p,
                    f"{row.seconds[p]:.4f}",
                    f"{row.migration_seconds[p]:.4f}",
                    f"{row.win_over_static(p):+.1%}",
                ]
                for p in POLICIES
            ],
            title=(
                f"{row.scenario}: {row.requests} requests, "
                f"DRAM {row.dram_bytes} B, pinned {row.pinned_bytes} B"
            ),
        )
        print(table)
        out.append(table)
        best = row.best_dynamic
        print(
            f"best dynamic ({row.scenario}): {best}, "
            f"{row.win_over_static(best):+.1%} vs static\n"
        )
    return "\n".join(out)


if __name__ == "__main__":  # pragma: no cover
    main()
