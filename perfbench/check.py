"""Check the benchmark itself: run-to-run spread and the slowed-kernel test.

From the repository root::

    python3 perfbench/check.py spread --workloads small-z --seeds 1 2 3 4 5
    python3 perfbench/check.py slowed --seeds 1 2 3

``spread`` runs each workload once per seed (untraced) and prints, per
end-to-end metric, the median and the distance between the first and
third quartile as a share of the median, next to the metric's bound in
BENCHMARK.json. It exits 1 if any spread exceeds its bound.

``slowed`` runs small-z and spill with and without ``--slow-from-coo``
(alternating which goes first) and compares the medians of
``call_p50_rel``: small-z must rise by more than the bound, spill must
stay within it. It exits 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec() -> dict:
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload: str, seed: int, seconds: int, *extra) -> dict:
    """One untraced run; its end-to-end metric values."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", *extra],
        capture_output=True, text=True, check=True,
    )
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run: {res}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def cmd_spread(args, spec) -> int:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    bad = 0
    for w in args.workloads:
        runs = [run_once(w, s, seconds) for s in args.seeds]
        for name, bound in bounds.items():
            vals = [r[name] for r in runs]
            sp = spread(vals)
            flag = "ok"
            if sp > bound:
                flag = "OVER"
                bad += 1
            elif sp > bound / 3:
                flag = "above bound/3"
            print(f"{w:10s} {name:14s} median {statistics.median(vals):10.4f}"
                  f"  spread {sp:6.3f}  bound {bound:.2f}  {flag}")
            print(f"{'':10s} {'':14s} values " + " ".join(
                f"{v:.4f}" for v in vals))
    return 1 if bad else 0


def cmd_slowed(args, spec) -> int:
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "call_p50_rel")
    seconds = spec["run_seconds"]
    verdict = 0
    for w in ("small-z", "spill"):
        base, slow = [], []
        for i, s in enumerate(args.seeds):
            order = [False, True] if i % 2 == 0 else [True, False]
            for slowed in order:
                extra = ("--slow-from-coo",) if slowed else ()
                v = run_once(w, s, seconds, *extra)["call_p50_rel"]
                (slow if slowed else base).append(v)
        change = statistics.median(slow) / statistics.median(base) - 1.0
        want_move = w == "small-z"
        passed = change > bound if want_move else change <= bound
        verdict |= not passed
        print(f"{w:8s} call_p50_rel median {statistics.median(base):.4f}"
              f" -> {statistics.median(slow):.4f} with slowed from_coo:"
              f" {change:+.3f} (bound {bound:.2f}; must "
              f"{'exceed' if want_move else 'stay within'} it) "
              f"{'PASS' if passed else 'FAIL'}")
    return verdict


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--workloads", nargs="+", required=True)
    sp.add_argument("--seeds", nargs="+", type=int, required=True)
    sl = sub.add_parser("slowed")
    sl.add_argument("--seeds", nargs="+", type=int, required=True)
    args = p.parse_args(argv)
    spec = load_spec()
    return cmd_spread(args, spec) if args.cmd == "spread" else cmd_slowed(
        args, spec)


if __name__ == "__main__":
    sys.exit(main())
