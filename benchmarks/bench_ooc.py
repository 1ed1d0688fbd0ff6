"""PR8 bench: out-of-core execution under a hard memory budget.

Demonstrates the tentpole property: with ``memory_budget=`` set, the
contraction's resident-set growth stays pinned near the budget while
the input grows 10x — HtY's partials spill to run files and Z's rows
go to disk as each range finishes — and a budget that *fits* in core costs
almost nothing over the unbudgeted run.

Gates (written to ``BENCH_PR8.json``; the job fails when one fails):

* ``ooc_rss_within_1_2x_budget`` — for every input size, peak RSS
  growth of the spilling run stays <= 1.2x the budget;
* ``in_core_budget_wall_within_1_3x`` — when the working set fits,
  running with a budget costs <= 1.3x the unbudgeted wall time;
* ``no_leaked_run_files`` — the spill tree is removed after clean runs
  AND after a run whose worker was force-killed mid-chunk.

Skipped gates are recorded as the string ``"skipped"``, never null —
``check_gates`` fails on null so a silently dropped gate cannot pass
CI (same contract as ``bench_planner.check_gates``).

Usage: ``python benchmarks/bench_ooc.py [--quick]``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

#: budget sized to cover the final COO output of the 10x case (which
#: must be resident no matter the strategy) plus working-set headroom
#: against allocator jitter; the in-core pipeline needs ~1.8x this
#: (recorded in the artifact as ``in_core_rss_at_10x``)
BUDGET = "128M"
BUDGET_BYTES = 128 << 20
RSS_FACTOR = 1.2
WALL_FACTOR = 1.3

#: (label, nnz_x) pairs — the second input is 10x the first
SIZES_FULL = (("base", 100_000), ("10x", 1_000_000))
SIZES_QUICK = (("base", 50_000), ("10x", 500_000))


def workload(nnz_x: int, seed: int = 1):
    """A contraction whose operands share a contract-key pool.

    The pool keeps X probes landing on real Y fibers, so products (and
    spill volume) scale with ``nnz_x`` — the axis the RSS gate grows.
    """
    from repro.datasets import make_large_tensor

    dims_c = (24, 28)
    pool = 600
    x = make_large_tensor(
        (nnz_x * 4,) + dims_c, nnz_x, seed=seed,
        pool_modes=2, pool_at="trail", pool_size=pool, pool_seed=7,
    )
    y = make_large_tensor(
        dims_c + (nnz_x * 6,), 2 * pool, seed=seed + 1,
        pool_modes=2, pool_at="lead", pool_size=pool, pool_seed=7,
    )
    return x, y, (1, 2), (0, 1)


def measure_ooc_rss(nnz_x: int):
    """One spilling run: peak RSS growth, wall, spill counters."""
    from repro.obs import PeakRssSampler, read_rss_bytes
    from repro.ooc import ooc_contract

    x, y, cx, cy = workload(nnz_x)
    rss_before = read_rss_bytes()
    with PeakRssSampler(interval=0.002) as sampler:
        t0 = time.perf_counter()
        res = ooc_contract(
            x, y, cx, cy, memory_budget=BUDGET, force_spill=True
        )
        wall = time.perf_counter() - t0
    delta = max(sampler.peak_bytes - rss_before, 0)
    c = res.profile.counters
    return {
        "nnz_x": nnz_x,
        "nnz_z": int(res.tensor.nnz),
        "wall_seconds": wall,
        "rss_before_bytes": int(rss_before),
        "peak_rss_bytes": int(sampler.peak_bytes),
        "rss_growth_bytes": int(delta),
        "rss_growth_vs_budget": delta / BUDGET_BYTES,
        "spill_bytes": int(c["ooc_spill_bytes"]),
        "run_files": int(c["ooc_run_files"]),
        "budget_peak_bytes": int(c["ooc_budget_peak_bytes"]),
        "within_gate": delta <= RSS_FACTOR * BUDGET_BYTES,
    }


def measure_in_core_rss(nnz_x: int):
    """RSS growth of the plain in-core run, for comparison only."""
    from repro.core import contract
    from repro.obs import PeakRssSampler, read_rss_bytes

    x, y, cx, cy = workload(nnz_x)
    rss_before = read_rss_bytes()
    with PeakRssSampler(interval=0.002) as sampler:
        contract(
            x, y, cx, cy, method="sparta", swap_larger_to_y=False
        )
    delta = max(sampler.peak_bytes - rss_before, 0)
    return {
        "nnz_x": nnz_x,
        "rss_growth_bytes": int(delta),
        "rss_growth_vs_budget": delta / BUDGET_BYTES,
    }


def measure_in_core_overhead(nnz_x: int, repeats: int):
    """Budgeted-but-fitting vs. unbudgeted wall time (best-of)."""
    from repro.core import contract

    x, y, cx, cy = workload(nnz_x)

    def best(**kwargs):
        walls = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = contract(
                x, y, cx, cy, method="sparta",
                swap_larger_to_y=False, **kwargs,
            )
            walls.append(time.perf_counter() - t0)
        return min(walls), res

    plain_wall, _ = best()
    budget_wall, budgeted = best(memory_budget="4G")
    assert budgeted.profile.flags["ooc"] == "in_core"
    ratio = budget_wall / max(plain_wall, 1e-12)
    return {
        "nnz_x": nnz_x,
        "repeats": repeats,
        "plain_wall_seconds": plain_wall,
        "budgeted_wall_seconds": budget_wall,
        "overhead_ratio": ratio,
        "within_gate": ratio <= WALL_FACTOR,
    }


def check_leaks(nnz_x: int):
    """No orphaned run files after a clean run or a worker crash."""
    import glob
    import tempfile

    from repro.faults import ANY, FaultPlan, FaultSpec
    from repro.ooc import ooc_contract
    from repro.parallel import parallel_sparta

    x, y, cx, cy = workload(nnz_x)
    with tempfile.TemporaryDirectory(prefix="bench-ooc-") as root:
        ooc_contract(
            x, y, cx, cy, memory_budget=BUDGET, force_spill=True,
            spill_root=root,
        )
        clean_ok = os.listdir(root) == []
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    "kill", worker=0, stage="index_search", unit=ANY
                ),
            )
        )
        par = parallel_sparta(
            x, y, cx, cy, threads=2, backend="process",
            fault_plan=plan, memory_budget="16M", force_spill=True,
            spill_root=root,
        )
        crash_fired = (
            par.result.profile.counters.get("ft_worker_failures", 0)
            >= 1
        )
        crash_ok = os.listdir(root) == []
    stray = glob.glob(
        os.path.join(tempfile.gettempdir(), "sptc-ooc-*")
    )
    return {
        "clean_run_no_orphans": clean_ok,
        "crash_fired": crash_fired,
        "crash_run_no_orphans": crash_ok,
        "tmp_dir_strays": len(stray),
        "ok": clean_ok and crash_fired and crash_ok and not stray,
    }


def check_gates(gates):
    """Validate the gates dict; returns failure strings.

    Values may be measurements, booleans or ``"skipped"``; ``None``
    always fails (a dropped gate must never read as a pass).
    """
    failures = []
    for name, value in gates.items():
        if value is None:
            failures.append(
                f"{name}: null gate value (skipped gates must be "
                f"recorded as 'skipped')"
            )
            continue
        if value is False:
            failures.append(f"{name}: False")
    return failures


def run(*, quick: bool = False):
    sizes = SIZES_QUICK if quick else SIZES_FULL
    rss_rows = [
        dict(label=label, **measure_ooc_rss(nnz))
        for label, nnz in sizes
    ]
    # Reference point: what the in-core pipeline's RSS growth looks
    # like at the 10x size (not gated — it is *expected* to exceed the
    # budget; that is the point of spilling).
    in_core_ref = measure_in_core_rss(sizes[-1][1])
    overhead = measure_in_core_overhead(
        sizes[0][1], repeats=3 if quick else 7
    )
    leaks = check_leaks(sizes[0][1])
    return {
        "bench": "pr8_out_of_core_budget",
        "quick": quick,
        "budget": BUDGET,
        "budget_bytes": BUDGET_BYTES,
        "rss_factor": RSS_FACTOR,
        "wall_factor": WALL_FACTOR,
        "ooc_runs": rss_rows,
        "in_core_rss_at_10x": in_core_ref,
        "in_core_overhead": overhead,
        "leak_check": leaks,
        "gates": {
            "ooc_rss_within_1_2x_budget": all(
                r["within_gate"] for r in rss_rows
            ),
            "in_core_budget_wall_within_1_3x": overhead["within_gate"],
            "no_leaked_run_files": leaks["ok"],
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller inputs, fewer repeats (CI smoke mode)",
    )
    args = parser.parse_args(argv)
    payload = run(quick=args.quick)
    root = Path(__file__).resolve().parent.parent
    path = root / "BENCH_PR8.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    for row in payload["ooc_runs"]:
        print(
            f"  {row['label']:<5} nnz_x={row['nnz_x']:>9,} "
            f"rss-growth {row['rss_growth_bytes'] / 2**20:7.1f} MiB "
            f"({row['rss_growth_vs_budget']:.2f}x budget) "
            f"spill {row['spill_bytes'] / 2**20:7.1f} MiB "
            f"wall {row['wall_seconds']:.3f}s"
        )
    ref = payload["in_core_rss_at_10x"]
    print(
        f"  in-core reference at 10x: "
        f"{ref['rss_growth_bytes'] / 2**20:7.1f} MiB "
        f"({ref['rss_growth_vs_budget']:.2f}x budget)"
    )
    ov = payload["in_core_overhead"]
    print(
        f"  in-core budget overhead: {ov['overhead_ratio']:.3f}x "
        f"(gate <= {WALL_FACTOR}x)"
    )
    print(f"  leak check: {payload['leak_check']}")
    print(f"wrote {path}")
    failures = check_gates(payload["gates"])
    if failures:
        for failure in failures:
            print(f"gate failure: {failure}", file=sys.stderr)
        raise SystemExit(1)
    print(
        "gates: "
        + " ".join(f"{k}={v}" for k, v in payload["gates"].items())
    )


if __name__ == "__main__":
    main()
