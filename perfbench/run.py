"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload big-z --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same stream with the layers' entry points wrapped and reports the
per-layer metrics instead. ``--slow-from-coo`` adds busy work equal to
its own duration to every ``HashTensor.from_coo`` call, for the
benchmark's self-check (see README.md). The last line of standard output
is ``{"correct": ..., "attempted": ..., "failed": ..., "metrics": ...}``;
the lines before it give context. The run also writes a JSON record and,
when traced, a Chrome trace under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from common import peak_rss_bytes, reset_peak_rss
from probe import HostProbe, normalisers, probed_samples

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("big-z", "small-z", "spill", "serve-tcp")
#: fresh-process set-ups per run; ``setup_s`` is their median
SETUP_SAMPLES = 9
#: untimed calls between set-up and the timed stream
WARM_CALLS = 2
#: the probe's extra part per workload (see probe.py)
PROBE_EXTRA = {"spill": "stream", "serve-tcp": "json"}

STAGES = ("input_processing", "index_search", "accumulation",
          "writeback", "output_sorting")


@dataclass
class Row:
    """One timed operation."""

    call_s: float
    ok: bool
    traced: bool = False
    error: Optional[str] = None
    self_s: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    profile: object = None
    serve: object = None  # servework.Served on serve-tcp


def timed_stream(work, probe, seconds: float, recorder=None):
    """Probe, call, check — until *seconds* have passed.

    With a recorder, every second call is traced. Returns the rows and
    the probe times (one before each call, one after the last).
    """
    rows: List[Row] = []
    probes: List[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        probes.append(probe())
        traced = recorder is not None and len(rows) % 2 == 1
        if traced:
            recorder.install()
        t0 = time.perf_counter()
        try:
            res, err = work.call(), None
        except Exception as exc:  # counted as a failed operation
            res, err = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        row = Row(call_s=t1 - t0, ok=False, traced=traced, error=err)
        if traced:
            recorder.uninstall()
            recorder.add_call(t0, t1)
            row.self_s, row.counts = recorder.take()
        if res is not None:
            row.ok = work.check(res)
            row.profile, row.serve = work.summary(res)
        del res  # so the next call's peak RSS does not include this Z
        rows.append(row)
        if t1 >= deadline:
            break
    probes.append(probe())
    return rows, probes


def _ratios(rows, norms, traced: bool) -> List[float]:
    return [
        r.call_s / n for r, n in zip(rows, norms)
        if r.ok and r.traced == traced
    ]


def _med(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


# ----------------------------------------------------------------------
# per-layer metrics (traced run)
# ----------------------------------------------------------------------
def layer_metrics(rows, norms, compile_s: float, plan: dict) -> dict:
    traced = [r for r in rows if r.ok and r.traced]
    if not traced:
        raise RuntimeError("no traced call completed")
    m: Dict[str, float] = {}

    def self_ms(key):
        return _med(r.self_s.get(key, 0.0) * 1e3 for r in traced)

    def share(*keys):
        return _med(
            sum(r.self_s.get(k, 0.0) for k in keys) / r.call_s
            for r in traced
        )

    def counter(name):
        return _med(r.profile.counters.get(name, 0) for r in traced)

    m["tensor.sort_ms"] = self_ms("tensor.sort")
    m["tensor.sort_share"] = share("tensor.sort")
    m["tensor.sort_calls"] = _med(
        r.counts.get("tensor.sort", 0) for r in traced)
    m["hashtable.build_ms"] = self_ms("hashtable.build")
    m["hashtable.build_share"] = share("hashtable.build")
    m["hashtable.probes_per_lookup"] = _med(
        r.profile.counters.get("hash_probes", 0)
        / max(r.profile.counters.get("search_probes", 0), 1)
        for r in traced
    )
    m["core.prepare_x_ms"] = self_ms("core.prepare_x")
    m["core.compute_ms"] = self_ms("core.compute")
    m["core.compute_share"] = share("core.compute")
    m["core.writeback_ms"] = self_ms("core.writeback")
    m["core.writeback_share"] = share("core.writeback")
    m["core.products"] = counter("products")
    m["core.nnz_z"] = counter("nnz_z")
    m["core.products_per_nnz_z"] = m["core.products"] / max(
        m["core.nnz_z"], 1)
    for st in STAGES:
        m[f"core.traffic.{st}_bytes"] = _med(
            sum(t.nbytes for t in r.profile.traffic if t.stage.value == st)
            for r in traced
        )
    for st in STAGES:
        m[f"stage.{st}_ms"] = _med(
            sum(v for s, v in r.profile.stage_seconds.items()
                if s.value == st) * 1e3
            for r in traced
        )
    m["codegen.compile_ms"] = compile_s * 1e3
    m["codegen.compiles"] = float(sum(
        r.profile.counters.get("kernel_compiles", 0) for r in traced))
    m["planner.ooc_ms"] = self_ms("planner.ooc")
    untraced_s = _med(r.call_s for r in rows if r.ok and not r.traced)
    predicted = plan.get("serial_predicted_s")
    m["planner.residual"] = (
        untraced_s / predicted - 1.0 if predicted else 0.0
    )
    m["ooc.write_ms"] = self_ms("ooc.write")
    m["ooc.write_share"] = share("ooc.write")
    m["ooc.merge_ms"] = self_ms("ooc.merge")
    m["ooc.merge_share"] = share("ooc.merge")
    m["ooc.spill_bytes"] = counter("ooc_spill_bytes")
    m["ooc.runs"] = counter("ooc_runs")
    m["ooc.budget_peak_bytes"] = counter("ooc_budget_peak_bytes")
    m["ooc.budget_overruns"] = counter("ooc_budget_overruns")

    served = [r.serve for r in traced if r.serve is not None]
    calls = [r.call_s for r in traced if r.serve is not None]
    wire = [c - sv.queue_s - sv.service_s for c, sv in zip(calls, served)]
    m["serve.queue_ms"] = _med(sv.queue_s * 1e3 for sv in served)
    m["serve.service_ms"] = _med(sv.service_s * 1e3 for sv in served)
    m["serve.wire_ms"] = _med(w * 1e3 for w in wire)
    m["serve.wire_share"] = _med(w / c for w, c in zip(wire, calls))
    m["serve.decode_ms"] = self_ms("serve.decode") if served else 0.0
    cached = [sv.hit for sv in served if sv.cache]
    m["serve.hty_hit_rate"] = sum(cached) / len(cached) if cached else 0.0
    m["serve.retries"] = float(sum(sv.retries for sv in served))
    m["serve.degraded"] = float(sum(sv.degraded for sv in served))
    m["other.share"] = _med(
        1.0 - sum(_layer_shares(r).values()) for r in traced)
    untraced = _ratios(rows, norms, traced=False)
    traced_rel = _ratios(rows, norms, traced=True)
    m["trace.overhead"] = _med(traced_rel) / _med(untraced) - 1.0
    return m


#: metric keys of the wrapped spans that make up each layer
LAYERS = {
    "tensor": ("tensor.sort",),
    "hashtable": ("hashtable.build",),
    "core": ("core.prepare_x", "core.compute", "core.writeback"),
    "codegen": ("codegen.compile",),
    "planner": ("planner.ooc",),
    "ooc": ("ooc.write", "ooc.merge"),
}


def _layer_shares(r: Row) -> Dict[str, float]:
    """Share of one traced call per layer.

    On serve-tcp the call splits into the server-reported queue and
    service times and the client-side rest, the wire; the decode span is
    part of the wire.
    """
    out = {
        layer: sum(r.self_s.get(k, 0.0) for k in keys) / r.call_s
        for layer, keys in LAYERS.items()
    }
    if r.serve is not None:
        queue, service = r.serve.queue_s, r.serve.service_s
        out["serve.queue"] = queue / r.call_s
        out["serve.service"] = service / r.call_s
        out["serve.wire"] = 1.0 - (queue + service) / r.call_s
    return out


def layer_table(rows) -> Dict[str, float]:
    """Median share of call time per layer, printed for each traced run."""
    traced = [_layer_shares(r) for r in rows if r.ok and r.traced]
    table = {k: _med(t[k] for t in traced) for k in traced[0]}
    table["other"] = _med(1.0 - sum(t.values()) for t in traced)
    return table


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def library_setup(name, seed, root, workdir):
    """One cold set-up in a fresh interpreter: seconds and Z's fingerprint."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_child.py"),
         name, str(seed), workdir],
        cwd=root, capture_output=True, text=True, timeout=150, check=True,
    )
    rec = json.loads(out.stdout.strip().splitlines()[-1])
    return rec["import_s"] + rec["cold_s"], rec["digest"]


def slow_from_coo():
    """Make every ``HashTensor.from_coo`` take twice as long; returns undo."""
    from repro.hashtable.tensor_table import HashTensor

    raw = HashTensor.__dict__["from_coo"]
    fn = raw.__func__

    @functools.wraps(fn)
    def slowed(cls, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(cls, *args, **kwargs)
        t1 = time.perf_counter()
        end = t1 + (t1 - t0)
        while time.perf_counter() < end:
            pass
        return out

    HashTensor.from_coo = classmethod(slowed)
    return lambda: setattr(HashTensor, "from_coo", raw)


def run_context(root: str, probe_ms: float) -> dict:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "probe_ms": probe_ms,
    }


# ----------------------------------------------------------------------
def run(args, root: str, outdir: str) -> dict:
    name, trace = args.workload, bool(args.trace)
    kind = "serve" if name == "serve-tcp" else "library"
    workdir = os.path.join(outdir, f"{name}-seed{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    probe = HostProbe(PROBE_EXTRA.get(name))
    mismatches = 0
    setup: List[float] = []  # probe-scaled set-up seconds
    compile_s = 0.0
    undo_slow = slow_from_coo() if args.slow_from_coo else None
    recorder = None
    if trace:
        from spans import SpanRecorder

        recorder = SpanRecorder(name)
    if kind == "serve":
        from servework import ServeWorkload

        work = ServeWorkload(args.seed, root, workdir)
    else:
        from libwork import LibraryWorkload

        work = LibraryWorkload(name, args.seed, workdir)
    try:
        early = []  # set-up and warm-up results, checked once refs exist
        if kind == "serve":
            if trace:
                early.extend(work.launch()[1])
            else:
                setup, colds = probed_samples(
                    probe, work.launch, SETUP_SAMPLES)
                early.extend(r for cold in colds for r in cold)
        else:
            digests = []
            if not trace:
                setup, digests = probed_samples(
                    probe,
                    lambda: library_setup(name, args.seed, root, workdir),
                    SETUP_SAMPLES)
            if recorder is not None:
                recorder.install()
            early.append(work.call())
            if recorder is not None:
                recorder.uninstall()
                compile_s = recorder.take()[0].get("codegen.compile", 0.0)
        early.extend(work.call() for _ in range(WARM_CALLS))
        work.build_reference()
        mismatches += sum(not work.check(r) for r in early)
        if kind == "library":
            mismatches += sum(d != work.ref_digest for d in digests)
        del early

        pids = work.rss_pids()
        reset_peak_rss(pids)
        rows, probes = timed_stream(work, probe, args.seconds, recorder)
        peak = peak_rss_bytes(pids)
        norms = normalisers(probes, len(rows))
        plan = work.plan_context()
    finally:
        work.stop()
        if undo_slow is not None:
            undo_slow()

    ok = [r for r in rows if r.ok]
    mismatches += sum(1 for r in rows if not r.ok and r.error is None)
    ratios = _ratios(rows, norms, traced=False)
    probe_ms = _med(probes) * 1e3
    record = {
        "workload": name,
        "seed": args.seed,
        "trace": int(trace),
        "context": dict(run_context(root, probe_ms), **plan),
        "calls": len(rows),
        "call_ms_p50": _med(r.call_s * 1e3 for r in ok),
        "call_ms_p90": float(np.percentile([r.call_s * 1e3 for r in ok],
                                           90)) if ok else 0.0,
        "setup_samples_s": setup,
        "errors": sorted({r.error for r in rows if r.error}),
    }
    if trace:
        metrics = layer_metrics(rows, norms, compile_s, plan)
        record["layers"] = layer_table(rows)
        record["uncovered"] = recorder.uncovered()
        trace_path = os.path.join(
            outdir, f"{name}-seed{args.seed}.trace.json")
        recorder.tracer.write(trace_path)
        record["trace_file"] = os.path.relpath(trace_path, root)
    else:
        metrics = {
            "call_p50_rel": float(np.percentile(ratios, 50)) if ratios
            else 0.0,
            "call_p90_rel": float(np.percentile(ratios, 90)) if ratios
            else 0.0,
            "peak_rss_mb": peak / 1e6,
            "setup_s": _med(setup),
        }
    record["metrics"] = metrics
    record["correct"] = mismatches == 0 and bool(ok)
    record["attempted"] = len(rows)
    record["failed"] = len(rows) - len(ok)
    with open(os.path.join(outdir, f"{name}-seed{args.seed}-trace"
                           f"{int(trace)}.json"), "w") as f:
        json.dump(record, f, indent=1, default=str)
    return record


def declared_metrics(root: str, trace: bool) -> Dict[str, str]:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--slow-from-coo", action="store_true")
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("run.py: no src/repro here; run from the repository root",
              file=sys.stderr)
        return 2
    units = declared_metrics(root, bool(args.trace))
    sys.path.insert(0, src)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    outdir = os.path.join(HERE, "out")
    # keep every scratch file the program makes inside the checkout
    tmp = os.path.join(outdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None
    # One CPU for this process and every process it starts, so that the
    # probe times the CPU doing the work. Left free, serve-tcp's server
    # and worker run on the other vCPU, whose slow spells the client's
    # probe cannot see.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    rec = run(args, root, outdir)
    if rec.get("uncovered"):
        print("run.py: wrapped entry points never called: "
              + ", ".join(rec["uncovered"]), file=sys.stderr)
        return 1
    if set(rec["metrics"]) != set(units):
        print("run.py: metrics differ from BENCHMARK.json: "
              f"{sorted(set(rec['metrics']) ^ set(units))}",
              file=sys.stderr)
        return 1
    print("context: " + json.dumps(rec["context"]))
    print(f"calls: {rec['calls']}  call_ms p50 {rec['call_ms_p50']:.3f} "
          f"p90 {rec['call_ms_p90']:.3f}  probe_ms "
          f"{rec['context']['probe_ms']:.4f}")
    if rec["setup_samples_s"]:
        print("setup_s samples: " + " ".join(
            f"{s:.4f}" for s in rec["setup_samples_s"]))
    if rec["errors"]:
        print("errors: " + "; ".join(rec["errors"]))
    if "layers" in rec:
        print("layer shares: " + "  ".join(
            f"{k} {v:.3f}" for k, v in rec["layers"].items()))
        print(f"trace: {rec['trace_file']}")
    print(json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {
            k: {"value": v, "unit": units[k]}
            for k, v in rec["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
