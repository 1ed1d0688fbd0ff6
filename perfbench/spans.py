"""Outside-in span recorder for the traced run.

Each entry point is wrapped where its caller looks it up (a module
global or a class attribute), so the program itself is not edited.
Spans go to a ``repro.obs.Tracer`` used as a plain in-memory store and
are written as Chrome-trace JSON when the run ends. Self time is span
time minus the time of the wrapped spans nested inside it.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Dict, List, Tuple

LIB = ("big-z", "small-z", "spill")

#: (module, attribute, metric key, workloads on which it must be called)
ENTRIES: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("repro.tensor.coo", "SparseTensor.sort", "tensor.sort", LIB),
    ("repro.hashtable.tensor_table", "HashTensor.from_coo",
     "hashtable.build", ("big-z", "small-z")),
    ("repro.hashtable.tensor_table", "build_partial_groups",
     "hashtable.build", ("big-z", "small-z")),
    ("repro.hashtable.tensor_table", "HashTensor.merge_partials",
     "hashtable.build", LIB),
    ("repro.core.looped", "prepare_x", "core.prepare_x",
     ("big-z", "small-z")),
    ("repro.core.looped", "fused_compute", "core.compute",
     ("big-z", "small-z")),
    ("repro.core.looped", "assemble_fused", "core.writeback",
     ("big-z", "small-z")),
    ("repro.core.codegen.cache", "compile_kernel", "codegen.compile", LIB),
    ("repro.ooc.engine", "plan_ooc", "planner.ooc", ("spill",)),
    ("repro.ooc.engine", "prepare_x", "core.prepare_x", ("spill",)),
    ("repro.ooc.engine", "build_partial_groups", "hashtable.build",
     ("spill",)),
    ("repro.ooc.engine", "fused_compute", "core.compute", ("spill",)),
    ("repro.ooc.runfile", "RunFileWriter.append_run", "ooc.write",
     ("spill",)),
    ("repro.ooc.engine", "stream_finalize", "ooc.merge", ("spill",)),
    ("repro.serve.net", "tensor_from_wire", "serve.decode",
     ("serve-tcp",)),
)


def entries_for(workload: str):
    """Entry points wrapped on *workload*: the library set or the client."""
    if workload == "serve-tcp":
        return [e for e in ENTRIES if "serve-tcp" in e[3]]
    return [e for e in ENTRIES if "serve-tcp" not in e[3]]


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class SpanRecorder:
    """Wraps entry points and accumulates per-call self time by metric."""

    def __init__(self, workload: str) -> None:
        from repro.obs import Tracer

        self.tracer = Tracer()
        self.entries = entries_for(workload)
        self.workload = workload
        self.calls: Dict[str, int] = defaultdict(int)
        self._self: Dict[str, float] = defaultdict(float)
        self._counts: Dict[str, int] = defaultdict(int)
        self._stack: List[float] = []
        self._saved: list = []

    def _wrap(self, fn, label: str, metric: str):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                child = rec._stack.pop()
                dur = t1 - t0
                if rec._stack:
                    rec._stack[-1] += dur
                rec._self[metric] += dur - child
                rec._counts[metric] += 1
                rec.calls[label] += 1
                rec.tracer.add_span(label, start=t0, end=t1,
                                    cat=metric.split(".")[0])

        return wrapper

    def install(self) -> None:
        # Import every module before patching any: a module imported
        # while another is patched would bind the wrapper as its own name.
        targets = [(_resolve(module, attr), f"{module}.{attr}", metric)
                   for module, attr, metric, _ in self.entries]
        for (owner, name), label, metric in targets:
            raw = owner.__dict__[name] if isinstance(owner, type) else (
                getattr(owner, name)
            )
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, label, metric))
            else:
                new = self._wrap(raw, label, metric)
            self._saved.append((owner, name, raw))
            setattr(owner, name, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    def take(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Self seconds and span counts per metric since the last take."""
        out = dict(self._self), dict(self._counts)
        self._self.clear()
        self._counts.clear()
        return out

    def add_call(self, t0: float, t1: float) -> None:
        """Root span of one traced call."""
        self.tracer.add_span("call", start=t0, end=t1, cat="call")

    def uncovered(self) -> List[str]:
        """Entry points required on this workload that never ran."""
        return [
            f"{m}.{a}" for m, a, _, need in self.entries
            if self.workload in need and not self.calls[f"{m}.{a}"]
        ]
