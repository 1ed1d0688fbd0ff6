"""The process runtime: one worker pool behind the process backend and
the server (§3.5), with fault-tolerant execution.

The thread executor in :mod:`repro.parallel.executor` shares one
interpreter across its workers, so it can only *model* multi-core
scaling. This module runs work on genuinely concurrent
``multiprocessing`` workers. Every worker runs :func:`worker_main`, one
loop over its duplex pipe that executes three kinds of task:

* ``"span"`` — stage 1: group one span of Y's COO rows into a
  :class:`~repro.hashtable.tensor_table.PartialGroups`;
* ``"chunk"`` — stages 2–4: run the fused kernel over one sub-tensor
  chunk of the shared operands;
* ``"contract"`` — one whole public :func:`~repro.core.contract` call,
  the unit :class:`~repro.serve.server.SpTCServer` runs per request.

Span and chunk operands live in :mod:`multiprocessing.shared_memory`
blocks: the prepared X arrays (``ptr``, ``fx_rows``, ``cx_ln``, values)
and HtY's backing arrays are copied once, and workers attach zero-copy
views through :meth:`~repro.hashtable.tensor_table.HashTensor.
from_shared_buffers`, so per-worker memory stays O(its output). A worker
keeps its attachment while consecutive units name the same operands.

The parent hands out the units (:meth:`SpartaProcessPool.wait`): each
idle worker gets the next one, so a worker that drew a light chunk
takes more work instead of idling (which beats static per-worker ranges
when fiber sizes are skewed, ``partition_imbalance``), and the parent
always knows which worker owns which unit. Every result ships back
tagged with its unit id and the caller hands it to the pipeline's sink
under that id, so the gathered output is bit-identical to the serial
fused engine no matter which worker computed which chunk (chunks snap
to sub-tensor boundaries, so no output key ever spans two chunks).

Fault tolerance (the recovery half of :mod:`repro.faults`). Worker
failures split into three classes:

* a Python **exception** in a worker is deterministic — recomputing the
  unit would raise again — so it surfaces immediately as
  :class:`~repro.errors.WorkerCrashError`; the worker keeps serving;
* a **hard death** (killed process), a **hang** (holding one unit
  longer than ``unit_timeout`` — the worker is force-killed) or a
  **corrupt payload** (the shipped digest does not match the received
  arrays) loses only the unit that worker held: the parent respawns the
  worker under a fresh id and hands the unit out again, up to
  ``max_retries`` times per unit, with exponential backoff;
* a unit still failing after its retries is **irrecoverable**:
  ``on_failure="serial"`` recomputes it in the parent (recording
  ``flags["degraded"]="serial"`` on the run profile), while the default
  ``on_failure="raise"`` raises :class:`~repro.errors.PoolDegradedError`.

Recovery preserves the bit-identical-to-serial guarantee and the
byte-exact Table-2 traffic accounting: unit results are pure functions
of the shared operands and the unit's original ``[lo, hi)`` bounds,
results are keyed by unit id with first-accepted-wins dedup, and
per-chunk counters/probes fold into the profile exactly once.

Messaging uses one duplex :func:`multiprocessing.Pipe` per worker, not
a shared queue, and that choice is load-bearing for fault tolerance: a
shared ``mp.Queue`` holds its reader/writer locks *while a process is
blocked on it*, so force-killing one worker (hang, corrupt payload)
would leave the lock orphaned and deadlock every survivor on a futex.
With per-worker pipes each connection has exactly one reader and one
writer, a kill can only sever that worker's own channel (the parent
sees EOF after draining anything it managed to send), and the parent
multiplexes with :func:`multiprocessing.connection.wait`. Workers share
no other primitive.

Lifetime rules: the caller that exports shared blocks owns them — it
creates them and closes *and unlinks* them, including on error paths;
workers only attach and close. Workers are not daemonic, so a worker
may start a pool of its own (a served ``contract(backend="process")``);
each pool registers its teardown with
:class:`multiprocessing.util.Finalize`, so an open pool is still stopped
before the interpreter joins its children at exit. Under the ``fork``
start method (the default where available) children inherit the
parent's address space and environment; under ``spawn`` they re-import
:mod:`repro`, for which the parent temporarily extends ``PYTHONPATH``
with its own package root.
"""

from __future__ import annotations

import itertools
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import multiprocessing as mp
from multiprocessing import connection as mp_connection
from multiprocessing import shared_memory
from multiprocessing import util as mp_util

import numpy as np

from repro.core.common import PreparedX
from repro.core.kernels import fused_compute
from repro.core.profile import RunProfile
from repro.errors import (
    ContractionError,
    ParallelError,
    PoolDegradedError,
    WorkerCrashError,
)
from repro.faults import ANY, FaultInjector, FaultPlan, payload_digest
from repro.obs.tracer import CAT_WORKER, Tracer
from repro.hashtable.tensor_table import HashTensor, build_partial_groups

#: chunks per worker the process executor cuts; >1 so a worker that drew
#: a light chunk takes more work instead of idling
DEFAULT_CHUNKS_PER_WORKER = 4

#: seconds between liveness checks while waiting on worker pipes
_POLL_SECONDS = 0.25

#: absolute path of the directory containing the ``repro`` package,
#: prepended to PYTHONPATH for spawn-mode children
PACKAGE_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)

#: accepted values of :attr:`RecoveryPolicy.on_failure`
ON_FAILURE = ("raise", "serial")


# ----------------------------------------------------------------------
# recovery policy + log
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RecoveryPolicy:
    """How the pool reacts to worker failure.

    ``max_retries`` bounds how often one unit is handed out again after
    its worker failed (0 disables retries); ``on_failure`` picks
    raise-vs-serial for a unit past its retries; ``unit_timeout`` is the
    per-unit hang detector (a worker that holds one unit longer than
    this is force-killed and the unit handed out again); ``timeout`` is
    the deadline of one :meth:`SpartaProcessPool.wait`, which is *not*
    recoverable — it raises :class:`~repro.errors.ParallelError` naming
    the still-pending unit ids.
    """

    max_retries: int = 2
    on_failure: str = "raise"
    unit_timeout: Optional[float] = None
    timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.on_failure not in ON_FAILURE:
            raise ContractionError(
                f"unknown on_failure {self.on_failure!r}; "
                f"choose from {ON_FAILURE}"
            )
        if self.max_retries < 0:
            raise ContractionError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )

    def backoff(self, attempt: int) -> float:
        """Exponential backoff before retry *attempt* (1-based)."""
        return min(
            self.backoff_base * (2.0 ** (attempt - 1)),
            self.backoff_cap,
        )


@dataclass
class RecoveryLog:
    """Observability record of one run's recovery activity.

    ``counters`` fold into the run profile (``ft_*`` names); ``failures``
    keeps human-readable reasons; ``degraded`` flips when the serial
    fallback ran (surfaced as ``profile.flags["degraded"]``).

    ``tracer`` (a :class:`repro.obs.Tracer`, attached by the executor
    when the caller asked for a trace) additionally receives recovery
    instant events and the span records workers ship back over their
    pipes; it stays ``None`` — and everything here is a no-op — on
    untraced runs.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    degraded: bool = False
    tracer: Optional[object] = None

    def bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def note_event(self, name: str, **args) -> None:
        """Record a recovery instant on the attached tracer, if any."""
        if self.tracer is not None:
            self.tracer.instant(name, cat="recovery", **args)

    def ingest_spans(self, records) -> None:
        """Fold worker-shipped trace records into the attached tracer."""
        if self.tracer is not None and records:
            self.tracer.ingest(records)

    def worker_failed(self, wid: int, reason: str) -> None:
        """Record one worker failure: counter, reason and event."""
        self.bump("ft_worker_failures")
        self.failures.append(f"worker {wid}: {reason}")
        self.note_event("worker_failure", worker=int(wid), reason=reason)


# ----------------------------------------------------------------------
# shared-memory export / attach
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedArraySpec:
    """Where one operand array lives: shm block name, shape, dtype."""

    shm_name: str
    shape: Tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class SharedOperandSpec:
    """Everything a worker needs to reattach the operands.

    ``arrays`` maps logical names (``ptr``, ``cx_ln``, ``x_values``,
    ``fx_rows``, ``ht_heads``, ``ht_keys``, ``ht_nxt``, ``group_ptr``,
    ``free_ln``, ``y_values``) to their shared blocks; the scalars are
    what the zero-copy constructors cannot infer from the arrays.
    """

    arrays: Dict[str, SharedArraySpec]
    free_dims: Tuple[int, ...]
    contract_dims: Tuple[int, ...]


def block_view(
    spec: SharedArraySpec, shm: shared_memory.SharedMemory
) -> np.ndarray:
    """The array *spec* describes, as a view over its block *shm*."""
    return np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)


def export_array(
    arr: np.ndarray,
    blocks: List[shared_memory.SharedMemory],
    name: Optional[str] = None,
) -> SharedArraySpec:
    """Copy *arr* into a fresh shared block owned by the caller.

    The block is appended to *blocks*; *name* names the segment (default:
    a fresh ``psm_`` name).
    """
    arr = np.ascontiguousarray(arr)
    shm = shared_memory.SharedMemory(
        create=True, size=max(arr.nbytes, 1), name=name
    )
    blocks.append(shm)
    spec = SharedArraySpec(shm.name, tuple(arr.shape), arr.dtype.str)
    block_view(spec, shm)[...] = arr
    return spec


def attach_array(
    spec: SharedArraySpec, blocks: List[shared_memory.SharedMemory]
) -> np.ndarray:
    """Attach *spec*'s block without taking ownership (a zero-copy view).

    Python 3.13+ supports ``track=False`` so the attach never touches
    the resource tracker. On older versions the attach re-registers the
    name, which is harmless here: workers share the parent's tracker
    process (:func:`start_worker` starts it before any fork, its fd is
    inherited under fork and passed through spawn preparation data) and
    registration is idempotent per name, so the owner's single
    ``unlink()`` still cleans the entry exactly once — even when a
    worker is killed between attach and detach.
    """
    try:
        shm = shared_memory.SharedMemory(name=spec.shm_name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        shm = shared_memory.SharedMemory(name=spec.shm_name)
    blocks.append(shm)
    return block_view(spec, shm)


def release_blocks(
    blocks: List[shared_memory.SharedMemory], *, unlink: bool
) -> None:
    """Close (and optionally unlink) blocks, leaking none on error.

    ``close`` and ``unlink`` are attempted independently per block: a
    failed ``close`` (e.g. exported buffer still referenced) must not
    skip the ``unlink`` that actually removes the segment from
    ``/dev/shm`` — that was the one teardown path that could leak.
    *blocks* is emptied.
    """
    for shm in blocks:
        try:
            shm.close()
        except Exception:  # pragma: no cover - teardown best-effort
            pass
        if unlink:
            try:
                shm.unlink()
            except Exception:  # already gone, or teardown best-effort
                pass
    blocks.clear()


@dataclass(frozen=True)
class SharedYSpec:
    """Raw Y operand plus mode split for worker-side partial builds.

    Stage-1 workers group spans of Y's COO rows without materializing a
    :class:`~repro.tensor.coo.SparseTensor`; the mode split is computed
    once in the parent (same validation as the serial build).
    """

    indices: SharedArraySpec
    values: SharedArraySpec
    contract_modes: Tuple[int, ...]
    free_modes: Tuple[int, ...]
    contract_dims: Tuple[int, ...]
    free_dims: Tuple[int, ...]


def export_y(
    y_indices: np.ndarray,
    y_values: np.ndarray,
    contract_modes: Sequence[int],
    free_modes: Sequence[int],
    contract_dims: Sequence[int],
    free_dims: Sequence[int],
    blocks: List[shared_memory.SharedMemory],
) -> SharedYSpec:
    """Copy Y's COO arrays into shared blocks for stage-1 workers."""
    return SharedYSpec(
        indices=export_array(y_indices, blocks),
        values=export_array(y_values, blocks),
        contract_modes=tuple(int(m) for m in contract_modes),
        free_modes=tuple(int(m) for m in free_modes),
        contract_dims=tuple(int(d) for d in contract_dims),
        free_dims=tuple(int(d) for d in free_dims),
    )


def export_operands(
    px: PreparedX,
    hty: HashTensor,
    blocks: List[shared_memory.SharedMemory],
) -> SharedOperandSpec:
    """Place the prepared X and HtY backing arrays into shared memory.

    The HtY arrays are *copied* into fresh blocks — the source HtY (which
    may live in an :class:`~repro.core.htycache.HtYCache`) is never
    rebound to shared buffers, so cached entries stay valid after the
    owner unlinks its blocks.
    """
    table = hty.table
    arrays = {
        "ptr": export_array(px.ptr, blocks),
        "fx_rows": export_array(px.fx_rows, blocks),
        "cx_ln": export_array(px.cx_ln, blocks),
        "x_values": export_array(px.values, blocks),
        "ht_heads": export_array(table.heads, blocks),
        "ht_keys": export_array(table.keys[: table.size], blocks),
        "ht_nxt": export_array(table.nxt[: table.size], blocks),
        "group_ptr": export_array(hty.group_ptr, blocks),
        "free_ln": export_array(hty.free_ln, blocks),
        "y_values": export_array(hty.values, blocks),
    }
    return SharedOperandSpec(
        arrays=arrays,
        free_dims=tuple(hty.free_dims),
        contract_dims=tuple(hty.contract_dims),
    )


def attach_operands(
    spec: SharedOperandSpec, blocks: List[shared_memory.SharedMemory]
) -> Tuple[PreparedX, HashTensor]:
    """Worker-side inverse of :func:`export_operands` (zero-copy)."""
    arrs = {
        name: attach_array(aspec, blocks)
        for name, aspec in spec.arrays.items()
    }
    px = PreparedX(
        arrs["ptr"], arrs["fx_rows"], arrs["cx_ln"], arrs["x_values"]
    )
    hty = HashTensor.from_shared_buffers(
        heads=arrs["ht_heads"],
        keys=arrs["ht_keys"],
        nxt=arrs["ht_nxt"],
        group_ptr=arrs["group_ptr"],
        free_ln=arrs["free_ln"],
        values=arrs["y_values"],
        free_dims=spec.free_dims,
        contract_dims=spec.contract_dims,
    )
    return px, hty


def _attach_y(spec: SharedYSpec, blocks) -> Tuple[np.ndarray, np.ndarray]:
    return attach_array(spec.indices, blocks), attach_array(
        spec.values, blocks
    )


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _Held:
    """The shared operands a worker keeps attached between units."""

    def __init__(self) -> None:
        self.spec = None
        self.value = None
        self.blocks: List[shared_memory.SharedMemory] = []

    def get(self, spec, attach):
        """Operands of *spec*; attaches only when the spec changed."""
        if spec != self.spec:
            self.release()
            self.value = attach(spec, self.blocks)
            self.spec = spec
        return self.value

    def release(self) -> None:
        self.spec = self.value = None
        release_blocks(self.blocks, unlink=False)


def _span_task(wid, unit, arg, held, tracer):
    """Stage 1: one Y span's partial grouping, plus its seconds."""
    yspec, lo, hi = arg
    y_idx, y_val = held.get(yspec, _attach_y)
    t0 = time.perf_counter()
    pg = build_partial_groups(
        y_idx, y_val, yspec.contract_modes, yspec.free_modes,
        yspec.contract_dims, yspec.free_dims, lo, hi,
    )
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.add_span(
            "stage1_partial", start=t0, end=t1, cat=CAT_WORKER,
            unit=int(unit), nnz=int(hi - lo),
        )
    return pg, t1 - t0


def run_chunk(px: PreparedX, hty: HashTensor, lo: int, hi: int,
              name: str) -> tuple:
    """Stages 2–4 over sub-tensors ``[lo, hi)``: the fused range, its
    counters, its HtY probes and its seconds (a chunk's reply)."""
    clock = time.perf_counter
    t0 = clock()
    view = hty.probe_view()
    profile = RunProfile(name)
    fr = fused_compute(
        px, view, y_structure="hash", accumulator="hash",
        profile=profile, lo=lo, hi=hi, clock=clock,
    )
    return fr, dict(profile.counters), view.table.probes, clock() - t0


def _chunk_task(wid, unit, arg, held, tracer):
    """Stages 2–4 over one chunk of the shared operands."""
    spec, lo, hi = arg
    px, hty = held.get(spec, attach_operands)
    t0 = time.perf_counter()
    reply = run_chunk(px, hty, lo, hi, f"sparta_parallel-p{wid}")
    if tracer is not None:
        tracer.add_span(
            "chunk", start=t0, end=t0 + reply[3], cat=CAT_WORKER,
            unit=int(unit), subtensors=int(hi - lo),
            products=int(reply[0].products),
        )
    return reply


def _contract_task(wid, unit, payload, held, tracer):
    """One served request: the exact public ``contract()`` call.

    Operands are registry-pinned descriptors (attached zero-copy) or
    inline tensors. Because the call is literally ``contract()``, served
    results are bit-identical and Table-2-traffic-byte-exact to a direct
    call by construction. The reply carries Z's arrays, the profile (a
    lossless JSON round trip) and the request's trace records.
    """
    from repro.core import contract
    from repro.serve.registry import attach_pinned

    blocks: List[shared_memory.SharedMemory] = []
    try:
        x, y = (
            attach_pinned(d, blocks) if d[0] == "shm" else d[1]
            for d in (payload["x"], payload["y"])
        )
        rtracer = (
            Tracer(default_tid=wid + 1) if payload.get("trace") else None
        )
        t0 = time.perf_counter()
        res = contract(
            x, y, tuple(payload["cx"]), tuple(payload["cy"]),
            tracer=rtracer, **payload.get("options", {}),
        )
        seconds = time.perf_counter() - t0
        z = res.tensor
        return {
            "indices": np.ascontiguousarray(z.indices),
            "values": np.ascontiguousarray(z.values),
            "shape": tuple(z.shape),
            "profile": res.profile.to_json(),
            "records": rtracer.drain() if rtracer is not None else [],
            "seconds": seconds,
        }
    finally:
        # close (never unlink — the registry owns the segments) before
        # the reply is shipped; the result arrays are fresh engine
        # output, not views into the operands
        release_blocks(blocks, unlink=False)


#: task kind -> (function, fault site before it, site after it, site
#: after its reply shipped); see the site table in repro.faults
_TASKS = {
    "span": (_span_task, "input_processing", None, None),
    "chunk": (_chunk_task, "index_search", "accumulation", "writeback"),
    "contract": (
        _contract_task, "index_search", "accumulation", "writeback"
    ),
}


def _digested(kind: str, reply) -> Tuple[np.ndarray, ...]:
    """The arrays of a *kind* reply that its digest covers."""
    if kind == "span":
        pg = reply[0]
        return pg.group_keys, pg.group_ptr, pg.free_ln, pg.values
    if kind == "chunk":
        fr = reply[0]
        return fr.out_fgrp, fr.out_fy, fr.out_vals
    return reply["indices"], reply["values"]


def _send(conn, msg) -> None:
    """Ship one message to the parent; die quietly if it is gone."""
    try:
        conn.send(msg)
    except (BrokenPipeError, OSError):  # parent exited mid-run
        os._exit(1)


def worker_main(
    wid: int,
    conn,
    fault_plan: Optional[FaultPlan] = None,
    trace: bool = False,
) -> None:
    """The runtime's one worker: run each unit the parent sends.

    A message is ``(kind, unit, arg)`` for a kind of :data:`_TASKS`;
    ``None`` stops the worker. A finished unit ships back as ``("ok",
    wid, unit, reply, digest, spans)``: the digest is taken before a
    ``corrupt`` fault can perturb the reply, and *spans* are this
    worker's trace records (with *trace*). A unit that raised ships
    ``("error", wid, unit, traceback)`` and the worker keeps serving.
    A ``contract`` payload's own fault plan overrides the pool's.

    The worker also exits when its parent dies without stopping it. The
    pipe alone cannot tell: under fork a worker inherits the parent's
    end of its own pipe, so it never reads EOF; the parent sentinel
    fires instead. An orphan would otherwise wait forever, and hold the
    resource tracker open so the parent's segments are never cleaned.
    """
    tracer = None
    if trace:
        tracer = Tracer(default_tid=wid + 1)
        tracer.instant("worker_start", cat=CAT_WORKER, worker=wid)
    injector = FaultInjector(fault_plan, wid, tracer=tracer)
    held = _Held()
    watch = [conn, mp.parent_process().sentinel]
    try:
        while True:
            try:
                if conn not in mp_connection.wait(watch):
                    return  # the parent died
                msg = conn.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                return  # the parent tore the pool down
            if msg is None:
                injector.fire("output_sorting", ANY)
                return
            kind, unit, arg = msg
            task, before, after, shipped = _TASKS[kind]
            inj = injector
            if kind == "contract" and arg.get("fault_plan") is not None:
                inj = FaultInjector(arg["fault_plan"], wid)
            try:
                if tracer is not None:
                    tracer.instant("claim", cat=CAT_WORKER, unit=int(unit))
                inj.fire(before, unit)
                reply = task(wid, unit, arg, held, tracer)
                if after is not None:
                    inj.fire(after, unit)
                arrays = _digested(kind, reply)
                digest = payload_digest(*arrays)
                inj.maybe_corrupt(after or before, unit, arrays[::-1])
            except Exception:
                _send(conn, ("error", wid, unit, traceback.format_exc()))
                continue
            spans = tracer.drain() if tracer is not None else None
            _send(conn, ("ok", wid, unit, reply, digest, spans))
            if shipped is not None:
                inj.fire(shipped, unit)
    finally:
        held.release()


# ----------------------------------------------------------------------
# worker start
# ----------------------------------------------------------------------
def resolve_start_method(start_method: Optional[str] = None) -> str:
    """``fork`` where available (cheap, inherits state), else ``spawn``."""
    if start_method is not None:
        if start_method not in mp.get_all_start_methods():
            raise ParallelError(
                f"start method {start_method!r} unavailable on this "
                f"platform; choose from {mp.get_all_start_methods()}"
            )
        return start_method
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def start_worker(ctx, method: str, target, args) -> mp.process.BaseProcess:
    """Start one worker process the way every pool worker starts.

    The parent's shared-memory resource tracker starts first. A child
    forked without one starts a private tracker on its first attach
    (Python < 3.13 registers attaches), and that tracker unlinks the
    parent's segments when the child exits. Spawned children re-import
    :mod:`repro`, so ``PYTHONPATH`` is extended with
    :data:`PACKAGE_ROOT` for the start — they can then import it even
    when the parent was launched with a relative PYTHONPATH from another
    working directory. Workers are not daemonic, so they may start
    workers of their own.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except (ImportError, AttributeError):  # pragma: no cover - no tracker
        pass
    old_pythonpath = os.environ.get("PYTHONPATH")
    if method == "spawn":
        os.environ["PYTHONPATH"] = PACKAGE_ROOT + (
            os.pathsep + old_pythonpath if old_pythonpath else ""
        )
    try:
        p = ctx.Process(target=target, args=args, daemon=False)
        p.start()
        return p
    finally:
        if method == "spawn":
            if old_pythonpath is None:
                os.environ.pop("PYTHONPATH", None)
            else:
                os.environ["PYTHONPATH"] = old_pythonpath


def _close(conn) -> None:
    if conn is not None:
        try:
            conn.close()
        except OSError:  # pragma: no cover - teardown best-effort
            pass


def _kill(p: Optional[mp.process.BaseProcess]) -> None:
    if p is not None:
        if p.is_alive():
            p.kill()
        p.join(timeout=5.0)


class Worker:
    """One worker slot: its process, its pipe end, the unit it holds.

    A respawn replaces the process under a fresh worker id but keeps the
    slot, so whoever holds the slot (a server dispatch slot) keeps it.
    """

    def __init__(self) -> None:
        self.wid = -1
        self.proc: Optional[mp.process.BaseProcess] = None
        self.conn: Optional[mp_connection.Connection] = None
        self.unit: Optional[int] = None
        self.since = 0.0


def _stop_workers(workers: List[Worker], log=None) -> None:
    """Stop idle workers, kill busy ones, close every pipe (idempotent).

    An idle worker gets ``None`` and exits on its own. One that exits
    with a positive code died after its last unit (a fault at the
    ``output_sorting`` site); with a *log* that counts as a worker
    failure, though no unit is lost.
    """
    for w in workers:
        if w.proc is not None and w.unit is None:
            try:
                w.conn.send(None)
            except (OSError, ValueError):
                pass  # already gone
    for w in workers:
        if w.proc is None:
            continue
        if w.unit is None:
            w.proc.join(timeout=5.0)
        _kill(w.proc)
        code = w.proc.exitcode
        if log is not None and w.unit is None and code and code > 0:
            log.worker_failed(w.wid, f"died (exit code {code})")
        _close(w.conn)
        w.proc = w.conn = w.unit = None


@dataclass
class _Job:
    """The units of one :meth:`SpartaProcessPool.submit` and their state."""

    kind: str
    args: Dict[int, object]
    workers: List[Worker]
    todo: deque
    done: set = field(default_factory=set)
    tries: Dict[int, int] = field(default_factory=dict)
    lost: set = field(default_factory=set)
    rounds: int = 0

    @property
    def pending(self) -> bool:
        """Some unit is neither accepted nor given up."""
        return len(self.done) + len(self.lost) < len(self.args)


class SpartaProcessPool:
    """Workers that all run :func:`worker_main`, and the loop that
    drives them.

    :meth:`submit` hands the units of one task kind to the idle workers;
    :meth:`wait` runs the parent-side loop until every unit was accepted
    once — handing out the rest, verifying each reply's digest, killing
    workers past ``unit_timeout``, respawning dead ones under fresh ids,
    and retrying, degrading or raising as the :class:`RecoveryPolicy`
    says. The process executor runs one pool per ``parallel_sparta``
    call (a span job, then a chunk job); the server runs one per server,
    each dispatch slot driving a one-unit ``contract`` job on its own
    worker. :meth:`close` stops the workers; a pool that is never
    closed is stopped when it is collected or at interpreter exit.
    """

    def __init__(
        self,
        workers: int,
        *,
        start_method: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
        trace: bool = False,
    ) -> None:
        self._method = resolve_start_method(start_method)
        self._ctx = mp.get_context(self._method)
        self.fault_plan = fault_plan
        #: workers record and ship their own spans
        self.trace = trace
        self._wids = itertools.count()
        self.workers: List[Worker] = []
        self._finalizer = mp_util.Finalize(
            self, _stop_workers, args=(self.workers,), exitpriority=10
        )
        try:
            for _ in range(int(workers)):
                self.workers.append(Worker())
                self._start(self.workers[-1])
        except BaseException:
            self.close()
            raise

    def _start(self, w: Worker) -> None:
        """(Re)start slot *w*'s process under a fresh worker id.

        The parent closes its copy of the child end right after the
        start, so the worker's exit (clean or killed) severs the
        connection and the parent observes EOF instead of blocking.
        """
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        wid = next(self._wids)
        try:
            proc = start_worker(
                self._ctx, self._method, worker_main,
                (wid, child_conn, self.fault_plan, self.trace),
            )
        except BaseException:
            _close(parent_conn)
            raise
        finally:
            _close(child_conn)
        w.wid, w.proc, w.conn, w.unit = wid, proc, parent_conn, None

    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        units: Sequence[Tuple[int, object]],
        workers: Optional[List[Worker]] = None,
    ) -> _Job:
        """Start a job of ``(unit_id, arg)`` *units* on *workers*.

        Each idle worker (of the pool, or of *workers*) gets its first
        unit now, so the caller can overlap its own work with theirs.
        """
        job = _Job(
            kind, dict(units), self.workers if workers is None else workers,
            deque(u for u, _ in units),
        )
        for w in job.workers:
            if w.unit is None and job.todo:
                self._hand(job, w, job.todo.popleft())
        return job

    def wait(
        self,
        job: _Job,
        accept: Callable[[int, int, object], None],
        policy: RecoveryPolicy,
        log: RecoveryLog,
        serial: Optional[Callable[[int, object], None]] = None,
    ) -> None:
        """Drive *job* until each unit was accepted once.

        ``accept(wid, unit, reply)`` takes each digest-checked reply the
        first time one arrives. A unit past its retries goes to
        ``serial(unit, arg)`` in the parent under
        ``on_failure="serial"``, and raises
        :class:`~repro.errors.PoolDegradedError` otherwise. A worker
        exception raises :class:`~repro.errors.WorkerCrashError`;
        blowing ``policy.timeout`` raises
        :class:`~repro.errors.ParallelError` naming the pending units.
        """
        deadline = (
            None if policy.timeout is None
            else time.monotonic() + policy.timeout
        )
        while job.pending:
            if deadline is not None and time.monotonic() > deadline:
                busy = [w for w in job.workers if w.unit is not None]
                for w in busy:
                    _kill(w.proc)
                raise ParallelError(
                    f"parallel pool timed out after {policy.timeout:.1f}s "
                    f"with workers {[w.wid for w in busy]} still running "
                    f"and {job.kind}s {sorted(set(job.args) - job.done)} "
                    f"pending"
                )
            # Checked only while units are pending: a worker that dies
            # once its job is done fails the next job it is handed (or
            # exits non-zero when the pool stops it).
            self._check(job, accept, policy, log)
            if not job.pending:
                break
            watch = {w.conn: w for w in job.workers}
            for conn in mp_connection.wait(list(watch), _POLL_SECONDS):
                self._receive(job, watch[conn], accept, policy, log)
        if not job.lost:
            return
        if policy.on_failure != "serial" or serial is None:
            raise PoolDegradedError(
                f"{job.kind}s {sorted(job.lost)} still unfinished after "
                f"{policy.max_retries} retry round(s); worker failures: "
                f"{'; '.join(log.failures) or 'none recorded'}"
            )
        log.degraded = True
        log.bump("ft_degraded_serial")
        log.note_event("serial_fallback", units=len(job.lost), tag=job.kind)
        for unit in sorted(job.lost):
            serial(unit, job.args[unit])

    def _hand(self, job: _Job, w: Worker, unit: int) -> None:
        w.unit, w.since = unit, time.monotonic()
        try:
            w.conn.send((job.kind, unit, job.args[unit]))
        except (OSError, ValueError):
            pass  # the worker is gone; the liveness check reports it

    def _receive(self, job, w, accept, policy, log) -> None:
        """Take one message from *w*: a reply, an error or its EOF."""
        try:
            msg = w.conn.recv()
        except (EOFError, OSError):
            self._fail(job, w, None, policy, log)
            return
        unit = msg[2]
        if msg[0] == "error":
            w.unit = None
            raise WorkerCrashError(
                f"parallel worker {msg[1]} failed on {job.kind} "
                f"{unit}:\n{msg[3]}"
            )
        reply, digest, spans = msg[3:]
        if payload_digest(*_digested(job.kind, reply)) != digest:
            log.bump("ft_corrupt_payloads")
            self._fail(
                job, w, f"sent corrupt payload for {job.kind} {unit}",
                policy, log,
            )
            return
        w.unit = None
        if job.todo:  # its next unit before the sink sees this one
            self._hand(job, w, job.todo.popleft())
        if unit not in job.done:
            job.done.add(unit)
            log.ingest_spans(spans)
            accept(msg[1], unit, reply)

    def _check(self, job, accept, policy, log) -> None:
        """Fail workers that died or held one unit past unit_timeout."""
        now = time.monotonic()
        for w in job.workers:
            proc = w.proc
            if proc.exitcode is not None:
                # Its last reply may still sit in the pipe; draining to
                # EOF fails and respawns it.
                while job.pending and w.proc is proc and w.conn.poll(0):
                    self._receive(job, w, accept, policy, log)
                if job.pending and w.proc is proc:
                    self._fail(job, w, None, policy, log)
            elif (
                policy.unit_timeout is not None and w.unit is not None
                and now - w.since > policy.unit_timeout
            ):
                log.bump("ft_hung_workers")
                self._fail(
                    job, w,
                    f"hung >{policy.unit_timeout:.1f}s on {job.kind} "
                    f"{w.unit}",
                    policy, log,
                )

    def _fail(self, job, w, reason, policy, log) -> None:
        """Kill *w*, requeue or give up its unit, respawn it afresh."""
        _kill(w.proc)
        _close(w.conn)
        log.worker_failed(
            w.wid, reason or f"died (exit code {w.proc.exitcode})"
        )
        unit, attempt = w.unit, 1
        if unit is not None and unit not in job.done:
            attempt = job.tries[unit] = job.tries.get(unit, 0) + 1
            if attempt > policy.max_retries:
                job.lost.add(unit)
            else:
                job.todo.appendleft(unit)
                log.bump("ft_reassigned_units")
                if attempt > job.rounds:
                    job.rounds = attempt
                    log.bump("ft_recovery_rounds")
        time.sleep(policy.backoff(attempt))
        self._start(w)
        log.bump("ft_respawned_workers")
        log.note_event("respawn_round", round=attempt, worker=w.wid)
        if job.todo:
            self._hand(job, w, job.todo.popleft())

    # ------------------------------------------------------------------
    def close(self, log: Optional[RecoveryLog] = None) -> None:
        """Stop every worker (idempotent); see :func:`_stop_workers`."""
        self._finalizer.cancel()
        _stop_workers(self.workers, log)
