"""``ttt`` — tensor-times-tensor command line, mirroring the artifact.

The paper's artifact exposes ``build/ttt`` with these options
(Appendix B.3); this module reproduces the interface over ``.tns`` files:

    -X FIRST INPUT TENSOR
    -Y SECOND INPUT TENSOR
    -Z OUTPUT TENSOR (optional)
    -m NUMBER OF CONTRACT MODES
    -x CONTRACT MODES FOR TENSOR X (0-based)
    -y CONTRACT MODES FOR TENSOR Y (0-based)
    -t NTHREADS (optional)

and the artifact's ``EXPERIMENT_MODES`` environment variable selects the
engine: ``0`` = COOY+SPA, ``1`` = COOY+HtA, ``3`` = HtY+HtA (Sparta),
``4`` = HtY+HtA with the heterogeneous-memory simulation report.

Run: ``python -m repro.ttt -X x.tns -Y y.tns -m 2 -x 2 3 -y 0 1``
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.core import contract
from repro.core.stages import STAGE_ORDER
from repro.tensor import read_tns, write_tns

#: EXPERIMENT_MODES values of the artifact mapped to engine names
EXPERIMENT_MODES = {
    "0": "spa",
    "1": "coo_hta",
    "3": "sparta",
    "4": "sparta",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttt",
        description="Sparse tensor contraction (Sparta reproduction)",
    )
    parser.add_argument("-X", required=True, help="first input tensor (.tns)")
    parser.add_argument("-Y", required=True, help="second input tensor (.tns)")
    parser.add_argument("-Z", default=None, help="output tensor (optional)")
    parser.add_argument(
        "-m", type=int, required=True, help="number of contract modes"
    )
    parser.add_argument(
        "-x", type=int, nargs="+", required=True,
        help="contract modes for tensor X (0-based)",
    )
    parser.add_argument(
        "-y", type=int, nargs="+", required=True,
        help="contract modes for tensor Y (0-based)",
    )
    parser.add_argument(
        "-t", "--nt", type=int, default=1, help="number of threads"
    )
    parser.add_argument(
        "--backend", choices=("thread", "process"), default="thread",
        help="parallel worker backend when -t > 1 (process = "
             "shared-memory worker processes, real multi-core scaling)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2,
        help="respawn rounds for failed parallel workers before the "
             "pool is declared irrecoverable (default: 2)",
    )
    parser.add_argument(
        "--on-failure", choices=("raise", "serial"), default="raise",
        help="after retries are exhausted, either raise "
             "PoolDegradedError or degrade to a serial recomputation "
             "of the missing chunks (default: raise)",
    )
    parser.add_argument(
        "--plan", choices=("off", "auto"), default="off",
        help="'auto' lets the cost-model planner (repro.planner) pick "
             "the schedule — serial vs thread/process workers, bounded "
             "by -t — instead of running the engine exactly as given "
             "(sparta engine only)",
    )
    parser.add_argument(
        "--explain-plan", action="store_true",
        help="print the planner's per-candidate cost table for this "
             "contraction (implies consulting the planner; combine "
             "with --plan auto to also execute its choice)",
    )
    parser.add_argument(
        "--memory-budget", default=None, metavar="BYTES",
        help="hard cap on live contraction allocations (int bytes or "
             "'512M'/'2G'); when the working set exceeds it, execution "
             "goes out-of-core — HtY's partials spill to run files "
             "and Z's rows are written to disk as each range "
             "finishes. Results are bit-identical either way (sparta "
             "engine only)",
    )
    parser.add_argument(
        "--spill-root", default=None, metavar="DIR",
        help="directory for out-of-core spill files (default: system "
             "temp dir); created per run and removed on completion",
    )
    parser.add_argument(
        "--serve-url", default=None, metavar="URL",
        help="route the contraction through a running contraction "
             "server (python -m repro.serve) at tcp://host:port "
             "instead of executing locally; operands are pinned in "
             "the server's registry, results are bit-identical to a "
             "local run",
    )
    parser.add_argument(
        "--placement", default="sparta", metavar="POLICY",
        choices=(
            "sparta", "ial", "dynamic:lookahead", "dynamic:ewma",
        ),
        help="placement policy for the heterogeneous-memory simulation "
             "(EXPERIMENT_MODES=4): 'sparta' (static §4.2 priority, "
             "default), 'ial' (reactive hotness comparator) or "
             "'dynamic:<policy>' for the migration engine "
             "(lookahead | ewma); non-default "
             "policies print their per-stage schedule, migrations and "
             "simulated seconds next to the static references",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a span trace of the run and write it as Chrome "
             "trace-event JSON (open in Perfetto: ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the run's unified metrics (profile counters, stage "
             "seconds, Table-2 traffic aggregates) as JSON",
    )
    return parser


def _served_options(args, method: str) -> dict:
    """The ``contract()`` options a served run passes through.

    Mirrors the local execution branches of :func:`main` exactly, so a
    served run computes the same bytes a local invocation would.
    """
    options: dict = {"method": method}
    if args.plan == "auto":
        options["plan"] = "auto"
        options["max_workers"] = args.nt
    elif args.nt > 1 and method == "sparta":
        options = {
            "method": "parallel",
            "threads": args.nt,
            "backend": args.backend,
            "max_retries": args.max_retries,
            "on_failure": args.on_failure,
        }
    if args.memory_budget is not None:
        options["memory_budget"] = args.memory_budget
        if args.spill_root is not None:
            options["spill_root"] = args.spill_root
    return options


def _run_served(args, x, y, method: str) -> int:
    """Execute the request on a remote contraction server."""
    from repro.serve import ServeClient

    client = ServeClient.connect(args.serve_url)
    try:
        hx = f"ttt-{x.fingerprint()[:12]}"
        hy = f"ttt-{y.fingerprint()[:12]}"
        client.pin(hx, x)
        client.pin(hy, y)
        resp = client.submit(
            hx, hy, tuple(args.x), tuple(args.y),
            options=_served_options(args, method),
        )
    finally:
        client.close()
    print(
        f"served via {args.serve_url} (request {resp.request_id}, "
        f"worker {resp.worker}, queue {resp.queue_seconds:.6f} s)"
    )
    if args.plan == "auto":
        print(f"planner chose: {resp.profile.flags['planner']}")
    print(f"Z: {resp.tensor}")
    print("stage seconds:")
    for stage in STAGE_ORDER:
        seconds = resp.profile.stage_seconds.get(stage, 0.0)
        print(f"  {stage.value:18s} {seconds:.6f}")
    print(f"total: {resp.profile.total_seconds:.6f} s")
    if args.Z:
        write_tns(resp.tensor, args.Z)
        print(f"wrote {args.Z}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one contraction; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if len(args.x) != args.m or len(args.y) != args.m:
        print(
            f"error: -m {args.m} but got {len(args.x)} X modes and "
            f"{len(args.y)} Y modes",
            file=sys.stderr,
        )
        return 2

    mode = os.environ.get("EXPERIMENT_MODES", "3")
    try:
        method = EXPERIMENT_MODES[mode]
    except KeyError:
        print(
            f"error: EXPERIMENT_MODES={mode!r} not in "
            f"{sorted(EXPERIMENT_MODES)}",
            file=sys.stderr,
        )
        return 2

    if (args.plan == "auto" or args.explain_plan) and method != "sparta":
        print(
            f"error: --plan auto/--explain-plan need the sparta engine "
            f"(EXPERIMENT_MODES=3), not {method!r}",
            file=sys.stderr,
        )
        return 2
    if args.memory_budget is not None and method != "sparta":
        print(
            f"error: --memory-budget needs the sparta engine "
            f"(EXPERIMENT_MODES=3), not {method!r}",
            file=sys.stderr,
        )
        return 2

    if args.placement != "sparta" and mode != "4":
        print(
            f"error: --placement {args.placement} needs the "
            "heterogeneous-memory simulation (EXPERIMENT_MODES=4)",
            file=sys.stderr,
        )
        return 2

    if args.serve_url is not None:
        if args.trace or args.metrics or args.explain_plan:
            print(
                "error: --trace/--metrics/--explain-plan run locally "
                "and are not available with --serve-url",
                file=sys.stderr,
            )
            return 2
        if mode == "4":
            print(
                "error: EXPERIMENT_MODES=4 (heterogeneous-memory "
                "simulation) is a local-run mode; not available with "
                "--serve-url",
                file=sys.stderr,
            )
            return 2

    x = read_tns(args.X)
    y = read_tns(args.Y)
    print(f"X: {x}")
    print(f"Y: {y}")
    print(f"engine: {method} (EXPERIMENT_MODES={mode}), threads: {args.nt}")

    if args.serve_url is not None:
        return _run_served(args, x, y, method)

    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()

    rss_sampler = None
    if args.metrics:
        from repro.obs import PeakRssSampler

        rss_sampler = PeakRssSampler().start()

    if args.explain_plan:
        from repro.planner import plan_contraction

        decision = plan_contraction(
            x, y, tuple(args.x), tuple(args.y), max_workers=args.nt
        )
        print(decision.explain())

    if args.plan == "auto":
        result = contract(
            x, y, tuple(args.x), tuple(args.y), method=method,
            plan="auto", max_workers=args.nt, tracer=tracer,
            memory_budget=args.memory_budget,
            spill_root=args.spill_root,
        )
        print(f"planner chose: {result.profile.flags['planner']}")
    elif args.nt > 1 and method == "sparta":
        from repro.parallel import parallel_sparta

        par = parallel_sparta(
            x, y, tuple(args.x), tuple(args.y),
            threads=args.nt, backend=args.backend,
            max_retries=args.max_retries, on_failure=args.on_failure,
            tracer=tracer,
            memory_budget=args.memory_budget,
            spill_root=args.spill_root,
        )
        print(f"backend: {par.backend}, wall: {par.wall_seconds:.6f} s")
        result = par.result
        if result.profile.flags.get("degraded") == "serial":
            failures = result.profile.counters.get(
                "ft_worker_failures", 0
            )
            print(
                f"warning: pool degraded to serial recomputation after "
                f"{failures} worker failure(s); results are exact but "
                f"timings are not representative",
                file=sys.stderr,
            )
    else:
        kwargs = {}
        if args.memory_budget is not None:
            kwargs["memory_budget"] = args.memory_budget
            kwargs["spill_root"] = args.spill_root
        result = contract(
            x, y, tuple(args.x), tuple(args.y), method=method,
            tracer=tracer, **kwargs,
        )

    if args.memory_budget is not None:
        spilled = result.profile.counters.get("ooc_spill_bytes", 0)
        print(
            f"memory budget: {args.memory_budget} "
            f"({result.profile.flags.get('ooc', 'in_core')}, "
            f"{spilled} bytes spilled, "
            f"{result.profile.counters.get('ooc_run_files', 0)} "
            f"run files)"
        )

    print(f"Z: {result.tensor}")
    print("stage seconds:")
    for stage in STAGE_ORDER:
        seconds = result.profile.stage_seconds.get(stage, 0.0)
        print(f"  {stage.value:18s} {seconds:.6f}")
    print(f"total: {result.profile.total_seconds:.6f} s")

    migration_engine = None
    if mode == "4":
        from repro.memory import (
            HMSimulator,
            MigrationEngine,
            all_dram_placement,
            all_pmm_placement,
            dram,
            ial_schedule,
            pmm,
        )
        from repro.memory.devices import HeterogeneousMemory
        from repro.memory.policies import sparta_policy_characterized
        from repro.memory.policies.ial import DEFAULT_IAL_LAG

        peak = max(result.profile.peak_bytes(), 1)
        hm = HeterogeneousMemory(
            dram=dram(max(peak // 2, 1)), pmm=pmm(peak * 20)
        )
        sim = HMSimulator(hm)
        policy = sparta_policy_characterized(
            result.profile, sim, hm.dram.capacity_bytes
        )
        t_sp = sim.simulate(result.profile, policy).total_seconds
        t_opt = sim.simulate(
            result.profile, all_pmm_placement()
        ).total_seconds
        t_dram = sim.simulate(
            result.profile, all_dram_placement()
        ).total_seconds
        print("heterogeneous-memory simulation (DRAM = 1/2 footprint):")
        print(f"  sparta placement {t_sp:.6f} s")
        print(f"  optane-only      {t_opt:.6f} s "
              f"({t_opt / t_sp:.2f}x of sparta)")
        print(f"  dram-only        {t_dram:.6f} s")
        if args.placement == "ial":
            schedule = ial_schedule(
                result.profile, hm.dram.capacity_bytes
            )
            run = sim.simulate_schedule(
                result.profile, schedule,
                lag_fraction=DEFAULT_IAL_LAG,
            )
        elif args.placement.startswith("dynamic:"):
            migration_engine = MigrationEngine(
                hm, policy=args.placement.split(":", 1)[1]
            )
            schedule = migration_engine.schedule_run(result.profile)
            run = sim.simulate_schedule(
                result.profile, schedule, overlap=True
            )
        else:
            schedule = run = None
        if run is not None:
            mig_s = sum(st.migration_seconds for st in run.stages)
            print(f"  {schedule.policy:16s} {run.total_seconds:.6f} s "
                  f"({run.total_seconds / t_sp:.2f}x of sparta, "
                  f"{len(schedule.migrations)} migrations, "
                  f"{mig_s:.6f} s moving)")

    if tracer is not None:
        tracer.write(args.trace)
        print(f"wrote trace: {args.trace} "
              f"({len(tracer.records)} records; open in Perfetto)")
    if args.metrics:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry.from_profile(
            result.profile
        ).record_caches()
        if migration_engine is not None:
            registry.record_migration(migration_engine)
        if rss_sampler is not None:
            rss_sampler.stop()
            rss_sampler.record(registry)
        registry.write(args.metrics)
        print(f"wrote metrics: {args.metrics}")
    if args.Z:
        write_tns(result.tensor, args.Z)
        print(f"wrote {args.Z}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
