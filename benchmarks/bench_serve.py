"""PR9 bench: the contraction service vs one-shot invocation.

Demonstrates the tentpole property: a persistent server amortizes
stage-1 HtY builds (worker-resident caches, batch affinity) and runs
requests on a warm process pool, so a stream of same-signature
requests clears at a multiple of the throughput of cold one-shot
``contract()`` calls — while staying bit-identical to them.

Measurements (written to ``BENCH_PR9.json``; the job fails when a
gate fails):

* a concurrency ladder (1/4/16) over the deterministic
  :class:`~repro.serve.loadgen.LoadSpec` mix, recording p50/p99
  latency and req/sec, with the concurrency-1 run verified
  bit-identical + Table-2-traffic-byte-exact against direct calls;
* ``warm_pool_2x_oneshot`` — at client concurrency 4, the warm
  service (pinned operands + HtY cache) sustains >= 2x the req/sec of
  cold one-shot ``contract()`` calls on the same Y-heavy workload;
* ``tracing_overhead_under_5pct`` — on one warmed server, the median
  latency of serial requests with request tracing on is within 5% of
  the median with it off, the two kinds of request alternating.

A sample request timeline is exported to ``SERVE_TRACE_SAMPLE.json``
(Chrome trace-event format, loadable in Perfetto). Skipped gates are
recorded as the string ``"skipped"``, never null — ``check_gates``
fails on null so a silently dropped gate cannot pass CI.

Usage: ``python benchmarks/bench_serve.py [--quick]``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import threading
import time
from pathlib import Path

WARM_FACTOR = 2.0
TRACE_FACTOR = 1.05
LADDER = (1, 4, 16)


def ladder_spec(quick: bool):
    from repro.serve import LoadSpec

    return LoadSpec(
        seed=9,
        requests=16 if quick else 32,
        datasets=("uber", "nips"),
        n_modes=3,
        scale=0.02 if quick else 0.08,
        tenants=("alpha", "beta"),
        distinct_cases=3,
    )


def service_pair(quick: bool):
    """A Y-heavy contraction: the HtY build dominates a cold call.

    This is the service's best case — and the honest one: a server
    exists precisely so that repeated requests against a pinned Y pay
    the stage-1 build once per worker instead of once per call.
    """
    from repro.tensor import random_tensor

    y_nnz = 250_000 if quick else 400_000
    x = random_tensor((12, 30, 40), 600, seed=91)
    y = random_tensor((30, 40, 24, 20), y_nnz, seed=92)
    return x, y, (1, 2), (0, 1)


def measure_ladder(quick: bool):
    """Latency quantiles + throughput across client concurrency."""
    from repro.serve import (
        LoadGenerator,
        ServeClient,
        ServeConfig,
        SpTCServer,
    )

    spec = ladder_spec(quick)
    rows = []
    cfg = ServeConfig(workers=2, execution="worker", tracing=False)
    with SpTCServer(cfg) as server:
        gen = LoadGenerator(ServeClient(server), spec=spec)
        gen.pin_all()
        verified = 0
        for concurrency in LADDER:
            report = gen.run(concurrency=concurrency)
            if report.failed:
                raise SystemExit(
                    f"ladder c={concurrency} failed requests: "
                    f"{report.errors}"
                )
            if concurrency == 1:
                verified = gen.verify(report)
            rows.append(report.summary())
        gen.unpin_all()
    return rows, verified


def measure_warm_vs_oneshot(quick: bool):
    """Warm-service vs cold one-shot req/sec at client concurrency 4."""
    from repro.core import contract
    from repro.serve import ServeConfig, SpTCServer

    x, y, cx, cy = service_pair(quick)
    concurrency = 4
    served_n = 16 if quick else 40
    oneshot_n = 8 if quick else 12

    def fan_out(n, fire):
        counter = iter(range(n))
        lock = threading.Lock()

        def loop():
            while True:
                with lock:
                    i = next(counter, None)
                if i is None:
                    return
                fire(i)

        threads = [
            threading.Thread(target=loop) for _ in range(concurrency)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - t0

    # cold one-shot: every call rebuilds HtY from scratch, the way a
    # CLI invocation (ttt) would
    oneshot_wall = fan_out(
        oneshot_n, lambda i: contract(x, y, cx, cy)
    )
    oneshot_rps = oneshot_n / oneshot_wall

    cfg = ServeConfig(workers=2, execution="worker", tracing=False)
    options = {"use_hty_cache": True}
    with SpTCServer(cfg) as server:
        server.pin("bench-x", x)
        server.pin("bench-y", y)

        def served(_):
            server.submit_and_wait(
                "bench-x", "bench-y", cx, cy, options=options,
                timeout=300.0,
            )

        # warm-up: populate each worker's HtY cache (untimed)
        for _ in range(4):
            served(None)
        served_wall = fan_out(served_n, served)
    served_rps = served_n / served_wall
    speedup = served_rps / max(oneshot_rps, 1e-12)
    return {
        "concurrency": concurrency,
        "oneshot_requests": oneshot_n,
        "oneshot_wall_seconds": oneshot_wall,
        "oneshot_rps": round(oneshot_rps, 2),
        "served_requests": served_n,
        "served_wall_seconds": served_wall,
        "served_rps": round(served_rps, 2),
        "speedup": round(speedup, 3),
        "within_gate": speedup >= WARM_FACTOR,
    }


def measure_tracing_overhead(quick: bool, trace_path: Path):
    """Request latency with tracing on vs off, requests alternated.

    One warmed server runs both sides, choosing tracing per request:
    a second server's worker can run the same contraction at another
    speed (the first worker a process forks has run 1.5-2x slower than
    the next), which would decide the gate. Off and on requests
    alternate, the side that goes first swaps every round, and the
    gate compares the two sides' median latencies.
    """
    from repro.serve import ServeConfig, SpTCServer

    x, y, cx, cy = service_pair(quick)
    rounds = 60
    latencies = {False: [], True: []}
    with SpTCServer(ServeConfig(workers=1, execution="worker")) as server:
        server.pin("trace-x", x)
        server.pin("trace-y", y)

        def submit(tracing: bool):
            return server.submit_and_wait(
                "trace-x", "trace-y", cx, cy, trace=tracing,
                timeout=300.0,
            )

        submit(False)  # warm-up, untimed
        submit(True)
        for r in range(rounds):
            for tracing in (False, True) if r % 2 == 0 else (True, False):
                t0 = time.perf_counter()
                resp = submit(tracing)
                latencies[tracing].append(time.perf_counter() - t0)
                if tracing:
                    sample = resp
    off = statistics.median(latencies[False])
    on = statistics.median(latencies[True])
    sample.write_trace(trace_path)
    ratio = on / max(off, 1e-12)
    return {
        "requests_per_side": rounds,
        "median_tracing_off_seconds": off,
        "median_tracing_on_seconds": on,
        "overhead_ratio": round(ratio, 4),
        "trace_sample": trace_path.name,
        "span_count": len(sample.records),
        "within_gate": ratio <= TRACE_FACTOR,
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


def run(*, quick: bool = False, trace_path: Path):
    ladder_rows, verified = measure_ladder(quick)
    warm = measure_warm_vs_oneshot(quick)
    tracing = measure_tracing_overhead(quick, trace_path)
    return {
        "bench": "pr9_contraction_service",
        "quick": quick,
        "warm_factor": WARM_FACTOR,
        "trace_factor": TRACE_FACTOR,
        "ladder": ladder_rows,
        "ladder_verified_requests": verified,
        "warm_vs_oneshot": warm,
        "tracing_overhead": tracing,
        "gates": {
            "served_results_verified": verified > 0,
            "warm_pool_2x_oneshot": warm["within_gate"],
            "tracing_overhead_under_5pct": tracing["within_gate"],
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller operands, fewer requests (CI smoke mode)",
    )
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    trace_path = root / "SERVE_TRACE_SAMPLE.json"
    payload = run(quick=args.quick, trace_path=trace_path)
    path = root / "BENCH_PR9.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    for row in payload["ladder"]:
        print(
            f"  c={row['concurrency']:<3} "
            f"p50 {row['p50_ms']:8.2f} ms  "
            f"p99 {row['p99_ms']:8.2f} ms  "
            f"{row['rps']:8.2f} req/s"
        )
    warm = payload["warm_vs_oneshot"]
    print(
        f"  warm service {warm['served_rps']} req/s vs one-shot "
        f"{warm['oneshot_rps']} req/s -> {warm['speedup']}x "
        f"(gate >= {WARM_FACTOR}x)"
    )
    tracing = payload["tracing_overhead"]
    print(
        f"  tracing overhead {tracing['overhead_ratio']}x "
        f"(gate <= {TRACE_FACTOR}x), "
        f"{tracing['span_count']} spans in {tracing['trace_sample']}"
    )
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
