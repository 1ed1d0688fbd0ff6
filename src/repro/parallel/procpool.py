"""Process-parallel Sparta backend over shared-memory operands (§3.5),
with fault-tolerant execution.

The thread executor in :mod:`repro.parallel.executor` shares one
interpreter across its workers, so it can only *model* multi-core
scaling. This module runs the same fused sub-tensor decomposition on
genuinely concurrent ``multiprocessing`` workers:

* the prepared X arrays (``ptr``, ``fx_rows``, ``cx_ln``, values) and
  HtY's backing arrays (bucket heads, chain links, table keys, group
  pointer, free keys, values) are copied once into
  :mod:`multiprocessing.shared_memory` blocks; workers attach zero-copy
  views through :meth:`~repro.hashtable.tensor_table.HashTensor.
  from_shared_buffers`, so per-worker memory stays O(its output);
* sub-tensor chunks (several per worker) are claimed dynamically
  through a shared index counter — work stealing, which beats static
  per-worker ranges when fiber sizes are skewed
  (``partition_imbalance``);
* each chunk's :class:`~repro.core.kernels.FusedRange` ships back
  tagged with its chunk id and the parent hands it to the pipeline's
  sink under that id, so the gathered output is bit-identical to the
  serial fused engine no matter which worker computed which chunk
  (chunks snap to sub-tensor boundaries, so no output key ever spans
  two chunks).

Fault tolerance (the recovery half of :mod:`repro.faults`): every
worker *announces* each claim on the result queue before computing it,
so the parent always knows which chunk a worker owns. Worker failures
split into three classes:

* a Python **exception** in a worker is deterministic — recomputing the
  chunk would raise again — so it surfaces immediately as
  :class:`~repro.errors.WorkerCrashError`;
* a **hard death** (killed process), a **hang** (no result within
  ``unit_timeout`` of a claim — the worker is force-killed) or a
  **corrupt payload** (the shipped digest does not match the received
  arrays) loses only the chunks that worker owned; the parent respawns
  up to ``max_retries`` rounds of replacement workers (fresh worker
  ids, exponential backoff) that recompute exactly the missing chunks
  over their original boundaries;
* if chunks are still missing after the retry budget, the pool is
  **irrecoverable**: ``on_failure="serial"`` recomputes them with the
  serial fused kernel in the parent (recording
  ``flags["degraded"]="serial"`` on the run profile), while the default
  ``on_failure="raise"`` raises
  :class:`~repro.errors.PoolDegradedError`.

Recovery preserves the bit-identical-to-serial guarantee and the
byte-exact Table-2 traffic accounting: chunk results are pure functions
of the shared operands and the chunk's original ``[lo, hi)`` bounds,
results are keyed by chunk id with first-accepted-wins dedup (a chunk
reported just before its worker died is never recomputed or
double-counted), and per-chunk counters/probes fold into the profile
exactly once.

Messaging uses one duplex :func:`multiprocessing.Pipe` per worker, not
a shared queue, and that choice is load-bearing for fault tolerance: a
shared ``mp.Queue`` holds its reader/writer locks *while a process is
blocked on it*, so force-killing one worker (hang, corrupt payload)
would leave the lock orphaned and deadlock every survivor on a futex.
With per-worker pipes each connection has exactly one reader and one
writer, a kill can only sever that worker's own channel (the parent
sees EOF after draining anything it managed to send), and the parent
multiplexes with :func:`multiprocessing.connection.wait`. The only
remaining shared primitive is the claim counter, held for two bytecode
ops per claim — injected kills always fire outside it, and the phase
``timeout`` backstops the astronomically narrow kill-during-claim race.

Lifetime rules: the **parent** owns the shared blocks — it creates them
before the workers start and closes *and unlinks* them after the pool
drains, including on error paths. Workers only attach and close. Under
the ``fork`` start method (the default where available) children
inherit the parent's address space and environment; under ``spawn``
they re-import :mod:`repro`, for which the parent temporarily extends
``PYTHONPATH`` with its own package root.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import multiprocessing as mp
from dataclasses import replace as _dc_replace
from multiprocessing import connection as mp_connection
from multiprocessing import shared_memory

import numpy as np

from repro.core.common import PreparedX
from repro.core.kernels import FusedRange, fused_compute
from repro.core.profile import RunProfile
from repro.errors import (
    ContractionError,
    ParallelError,
    PoolDegradedError,
    WorkerCrashError,
)
from repro.faults import ANY, FaultInjector, FaultPlan, payload_digest
from repro.obs.tracer import CAT_WORKER, Tracer
from repro.hashtable.tensor_table import (
    HashTensor,
    PartialGroups,
    build_partial_groups,
    split_contract_modes,
)
from repro.parallel.partition import even_spans, select_units, tag_units
from repro.tensor.coo import SparseTensor

#: chunks per worker claimed through the shared counter; >1 so a worker
#: that drew a light chunk steals more work instead of idling
DEFAULT_CHUNKS_PER_WORKER = 4

#: seconds between liveness checks while waiting on worker pipes
_POLL_SECONDS = 0.25

#: absolute path of the directory containing the ``repro`` package,
#: prepended to PYTHONPATH for spawn-mode children
_PACKAGE_ROOT = os.path.abspath(
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

    ``max_retries`` bounds respawn rounds (0 disables respawn);
    ``on_failure`` picks raise-vs-serial once retries are exhausted;
    ``unit_timeout`` is the per-claim hang detector (a worker that sits
    on one claimed unit longer than this is force-killed and its units
    reassigned); ``timeout`` is the whole-phase deadline, which is
    *not* recoverable — it raises :class:`~repro.errors.ParallelError`
    naming the still-pending chunk ids.
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

    def backoff(self, round_index: int) -> float:
        """Exponential backoff before respawn round *round_index* (1-based)."""
        return min(
            self.backoff_base * (2.0 ** (round_index - 1)),
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
    result pipes; it stays ``None`` — and everything here is a no-op —
    on untraced runs.
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


def _export_array(
    arr: np.ndarray, blocks: List[shared_memory.SharedMemory]
) -> SharedArraySpec:
    """Copy *arr* into a fresh shared block owned by the caller."""
    arr = np.ascontiguousarray(arr)
    shm = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
    blocks.append(shm)
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[...] = arr
    return SharedArraySpec(shm.name, tuple(arr.shape), arr.dtype.str)


def _attach_block(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block without taking ownership.

    Python 3.13+ supports ``track=False`` so the attach never touches
    the resource tracker. On older versions the attach re-registers the
    name, which is harmless here: ``multiprocessing`` children share
    the parent's tracker process (its fd is inherited under fork and
    passed through spawn preparation data) and registration is
    idempotent per name, so the parent's single ``unlink()`` still
    cleans the entry exactly once — even when a worker is killed
    between attach and detach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        return shared_memory.SharedMemory(name=name)


def _attach_array(
    spec: SharedArraySpec, blocks: List[shared_memory.SharedMemory]
) -> np.ndarray:
    shm = _attach_block(spec.shm_name)
    blocks.append(shm)
    return np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)


def _release_blocks(
    blocks: List[shared_memory.SharedMemory], *, unlink: bool
) -> None:
    """Close (and optionally unlink) blocks, leaking none on error.

    ``close`` and ``unlink`` are attempted independently per block: a
    failed ``close`` (e.g. exported buffer still referenced) must not
    skip the ``unlink`` that actually removes the segment from
    ``/dev/shm`` — that was the one teardown path that could leak.
    """
    for shm in blocks:
        try:
            shm.close()
        except Exception:  # pragma: no cover - teardown best-effort
            pass
        if unlink:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            except Exception:  # pragma: no cover - teardown best-effort
                pass


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
        indices=_export_array(y_indices, blocks),
        values=_export_array(y_values, blocks),
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
    pool unlinks its blocks.
    """
    table = hty.table
    arrays = {
        "ptr": _export_array(px.ptr, blocks),
        "fx_rows": _export_array(px.fx_rows, blocks),
        "cx_ln": _export_array(px.cx_ln, blocks),
        "x_values": _export_array(px.values, blocks),
        "ht_heads": _export_array(table.heads, blocks),
        "ht_keys": _export_array(table.keys[: table.size], blocks),
        "ht_nxt": _export_array(table.nxt[: table.size], blocks),
        "group_ptr": _export_array(hty.group_ptr, blocks),
        "free_ln": _export_array(hty.free_ln, blocks),
        "y_values": _export_array(hty.values, blocks),
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
        name: _attach_array(aspec, blocks)
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


# ----------------------------------------------------------------------
# worker-side claim loops
# ----------------------------------------------------------------------
def _claim_next(counter) -> int:
    with counter.get_lock():
        idx = int(counter.value)
        counter.value = idx + 1
    return idx


def _send(conn, msg) -> None:
    """Ship one message to the parent; die quietly if it is gone."""
    try:
        conn.send(msg)
    except (BrokenPipeError, OSError):  # parent exited mid-run
        os._exit(1)


def _run_span_units(
    wid: int,
    y_idx: np.ndarray,
    y_val: np.ndarray,
    yspec: SharedYSpec,
    units: Sequence[Tuple[int, int, int]],
    counter,
    conn,
    inj: FaultInjector,
    tracer: Optional[Tracer] = None,
) -> None:
    """Claim tagged Y spans and ship stage-1 partial groupings.

    With a *tracer*, each claim leaves an instant event and each build a
    ``stage1_partial`` span on this worker's track; the records ride the
    ``partial`` message (``tracer.drain()``) so the parent folds them
    into its own timeline as they arrive.
    """
    clock = time.perf_counter
    while True:
        idx = _claim_next(counter)
        if idx >= len(units):
            break
        unit, lo, hi = units[idx]
        _send(conn, ("claim", wid, unit))
        if tracer is not None:
            tracer.instant("claim", cat=CAT_WORKER, unit=int(unit))
        inj.fire("input_processing", unit)
        t0 = clock()
        pg = build_partial_groups(
            y_idx,
            y_val,
            yspec.contract_modes,
            yspec.free_modes,
            yspec.contract_dims,
            yspec.free_dims,
            lo,
            hi,
        )
        t1 = clock()
        digest = payload_digest(
            pg.group_keys, pg.group_ptr, pg.free_ln, pg.values
        )
        inj.maybe_corrupt("input_processing", unit, (pg.values,))
        spans = None
        if tracer is not None:
            tracer.add_span(
                "stage1_partial",
                start=t0,
                end=t1,
                cat=CAT_WORKER,
                unit=int(unit),
                nnz=int(hi - lo),
            )
            spans = tracer.drain()
        _send(
            conn, ("partial", wid, unit, pg, t1 - t0, digest, spans)
        )


def _run_chunk_units(
    wid: int,
    px: PreparedX,
    hty: HashTensor,
    units: Sequence[Tuple[int, int, int]],
    counter,
    conn,
    inj: FaultInjector,
    tracer: Optional[Tracer] = None,
) -> None:
    """Claim tagged chunks, run the fused kernel, ship tagged results.

    With a *tracer*, each claim leaves an instant event and each fused
    computation a ``chunk`` span on this worker's track, shipped with
    the chunk result (``tracer.drain()``).
    """
    clock = time.perf_counter
    while True:
        idx = _claim_next(counter)
        if idx >= len(units):
            break
        unit, lo, hi = units[idx]
        _send(conn, ("claim", wid, unit))
        if tracer is not None:
            tracer.instant("claim", cat=CAT_WORKER, unit=int(unit))
        inj.fire("index_search", unit)
        t0 = clock()
        view = hty.probe_view()
        wprofile = RunProfile(f"sparta_parallel-p{wid}")
        fr = fused_compute(
            px,
            view,
            y_structure="hash",
            accumulator="hash",
            profile=wprofile,
            lo=lo,
            hi=hi,
            clock=clock,
        )
        t1 = clock()
        inj.fire("accumulation", unit)
        digest = payload_digest(fr.out_fgrp, fr.out_fy, fr.out_vals)
        inj.maybe_corrupt("accumulation", unit, (fr.out_vals,))
        spans = None
        if tracer is not None:
            tracer.add_span(
                "chunk",
                start=t0,
                end=t1,
                cat=CAT_WORKER,
                unit=int(unit),
                subtensors=int(hi - lo),
                products=int(fr.products),
            )
            spans = tracer.drain()
        _send(
            conn,
            (
                "chunk",
                wid,
                unit,
                fr,
                dict(wprofile.counters),
                view.table.probes,
                t1 - t0,
                digest,
                spans,
            ),
        )
        inj.fire("writeback", unit)
    inj.fire("output_sorting", ANY)


def _worker_tracer(wid: int, trace: bool) -> Optional[Tracer]:
    """Per-worker tracer on track ``wid + 1``, with a spawn marker."""
    if not trace:
        return None
    tracer = Tracer(default_tid=wid + 1)
    tracer.instant("worker_start", cat=CAT_WORKER, worker=wid)
    return tracer


def _pool_worker_main(
    wid: int,
    yspec: Optional[SharedYSpec],
    span_units: Sequence[Tuple[int, int, int]],
    span_counter,
    chunk_counter,
    conn,
    fault_plan: Optional[FaultPlan] = None,
    trace: bool = False,
) -> None:
    """The pool's one worker: stage-1 spans, then fused chunks.

    With a *yspec*, the worker first claims tagged Y spans through
    *span_counter* and ships each span's
    :class:`~repro.hashtable.tensor_table.PartialGroups` back to the
    parent (which merges them into HtY while this worker idles on its
    pipe), then reports ``phase_done``. With a *chunk_counter*, it then
    waits for the parent to send the exported operands and tagged chunk
    list over the same duplex pipe, and claims chunks through the
    counter until none remain. Respawned workers run one phase each:
    spans only (no *chunk_counter*) or chunks only (no *yspec*).
    """
    blocks: List[shared_memory.SharedMemory] = []
    tracer = _worker_tracer(wid, trace)
    try:
        inj = FaultInjector(fault_plan, wid, tracer=tracer)
        if yspec is not None:
            y_idx = _attach_array(yspec.indices, blocks)
            y_val = _attach_array(yspec.values, blocks)
            _run_span_units(
                wid, y_idx, y_val, yspec, span_units, span_counter, conn,
                inj, tracer,
            )
            _send(
                conn,
                ("phase_done", wid, tracer.drain() if tracer else None),
            )
        if chunk_counter is not None:
            try:
                _, spec, chunk_units = conn.recv()
            except (EOFError, OSError):  # parent tore the pool down
                return
            if spec is not None and chunk_units:
                px, hty = attach_operands(spec, blocks)
                _run_chunk_units(
                    wid, px, hty, chunk_units, chunk_counter, conn, inj,
                    tracer,
                )
        _send(
            conn,
            ("done", wid, tracer.drain() if tracer else None),
        )
    except BaseException:
        _send(conn, ("error", wid, traceback.format_exc()))
    finally:
        _release_blocks(blocks, unlink=False)


# ----------------------------------------------------------------------
# parent-side pool driver
# ----------------------------------------------------------------------
@dataclass
class WorkerChunk:
    """One accepted chunk's statistics, tagged with who computed it.

    The output arrays went to the caller's ``accept`` when the chunk
    was accepted; only the numbers stay here.
    """

    worker: int
    chunk: int
    products: int
    nnz: int
    counters: Dict[str, int]
    hash_probes: int
    seconds: float


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


def _start_worker(ctx, method: str, target, args) -> mp.process.BaseProcess:
    """Start a daemon worker, with the spawn-mode PYTHONPATH fix.

    Spawned children re-import :mod:`repro`; make sure they can even
    when the parent was launched with a relative PYTHONPATH from
    another working directory.
    """
    old_pythonpath = os.environ.get("PYTHONPATH")
    if method == "spawn":
        os.environ["PYTHONPATH"] = _PACKAGE_ROOT + (
            os.pathsep + old_pythonpath if old_pythonpath else ""
        )
    try:
        p = ctx.Process(target=target, args=args, daemon=True)
        p.start()
        return p
    finally:
        if method == "spawn":
            if old_pythonpath is None:
                os.environ.pop("PYTHONPATH", None)
            else:
                os.environ["PYTHONPATH"] = old_pythonpath


def _start_piped_worker(
    ctx, method: str, target, pre_args, fault_plan, trace: bool = False,
) -> Tuple[mp.process.BaseProcess, mp_connection.Connection]:
    """Start a worker with its own duplex pipe; return (proc, conn).

    The worker receives ``(*pre_args, child_end, fault_plan, trace)``.
    The parent closes its copy of the child end immediately after the
    start so that the worker's exit (clean or killed) severs the
    connection and the parent observes EOF instead of blocking forever.
    """
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    try:
        p = _start_worker(
            ctx,
            method,
            target,
            (*pre_args, child_conn, fault_plan, trace),
        )
    except BaseException:
        _close_conn(parent_conn)
        _close_conn(child_conn)
        raise
    _close_conn(child_conn)
    return p, parent_conn


def _close_conn(conn) -> None:
    if conn is None:
        return
    try:
        conn.close()
    except OSError:  # pragma: no cover - teardown best-effort
        pass


def _kill_worker(p: mp.process.BaseProcess) -> None:
    if p.is_alive():
        try:
            p.kill()
        except AttributeError:  # pragma: no cover - py<3.7 fallback
            p.terminate()
    p.join(timeout=5.0)


def _drain_phase(
    procs: Dict[int, mp.process.BaseProcess],
    conns: Dict[int, mp_connection.Connection],
    pending: Set[int],
    expected: Set[int],
    completed: Set[int],
    handle: Callable[[tuple], bool],
    payload_tag: str,
    done_tag: str,
    log: RecoveryLog,
    *,
    deadline: Optional[float] = None,
    timeout: Optional[float] = None,
    unit_timeout: Optional[float] = None,
) -> Dict[int, str]:
    """Consume the worker pipes until every pending worker resolved.

    Multiplexes the per-worker connections with
    :func:`multiprocessing.connection.wait`, tracks per-chunk ownership
    through the workers' ``claim`` messages, checks worker liveness
    between polls (a dead worker can never hang the parent — its pipe
    reports EOF once drained), force-kills workers that sit on one
    claim longer than *unit_timeout*, and verifies payload integrity
    through *handle* (which returns ``False`` on a digest mismatch,
    marking the sender faulty). Failed workers' connections are closed
    and removed from *conns*. Returns ``{wid: reason}`` for every
    worker that failed — their unreported claims are simply absent from
    *completed* and the caller reassigns them. Worker exceptions raise
    :class:`~repro.errors.WorkerCrashError` immediately; blowing the
    *deadline* raises :class:`~repro.errors.ParallelError` naming the
    still-pending chunk ids.
    """
    claims: Dict[int, Tuple[int, float]] = {}
    failures: Dict[int, str] = {}
    pending = set(pending)

    def fail(wid: int, reason: str) -> None:
        failures[wid] = reason
        pending.discard(wid)
        claims.pop(wid, None)
        _close_conn(conns.pop(wid, None))
        log.bump("ft_worker_failures")
        log.note_event("worker_failure", worker=int(wid), reason=reason)

    def process(msg) -> None:
        tag = msg[0]
        if tag == "claim":
            _, wid, unit = msg
            claims[wid] = (int(unit), time.monotonic())
        elif tag == done_tag:
            pending.discard(msg[1])
            claims.pop(msg[1], None)
            if len(msg) > 2:
                log.ingest_spans(msg[2])
        elif tag == "error":
            raise WorkerCrashError(
                f"parallel worker {msg[1]} failed:\n{msg[2]}"
            )
        elif tag == payload_tag:
            wid, unit = msg[1], int(msg[2])
            if handle(msg):
                completed.add(unit)
                if claims.get(wid, (None,))[0] == unit:
                    claims.pop(wid, None)
            else:
                log.bump("ft_corrupt_payloads")
                p = procs.get(wid)
                if p is not None:
                    _kill_worker(p)
                fail(
                    wid,
                    f"sent corrupt payload for {payload_tag} {unit}",
                )
        # other phases' stray done tags are ignored

    def drain_conn(wid: int) -> None:
        """Process whatever a (possibly dead) worker managed to send."""
        conn = conns.get(wid)
        if conn is None:
            return
        try:
            while conn.poll(0):
                process(conn.recv())
        except (EOFError, OSError):
            _close_conn(conns.pop(wid, None))

    while pending:
        if deadline is not None and time.monotonic() > deadline:
            missing = sorted(expected - completed)
            for wid in sorted(pending):
                _kill_worker(procs[wid])
            raise ParallelError(
                f"parallel pool timed out after {timeout:.1f}s with "
                f"workers {sorted(pending)} still running and "
                f"{payload_tag}s {missing} pending"
            )
        watch = {
            conns[wid]: wid for wid in pending if wid in conns
        }
        got_message = False
        if watch:
            for conn in mp_connection.wait(
                list(watch), timeout=_POLL_SECONDS
            ):
                wid = watch[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    # Worker end gone; the exit-code check below turns
                    # this into a failure if it never reported done.
                    _close_conn(conns.pop(wid, None))
                    continue
                got_message = True
                process(msg)
        if got_message:
            continue
        now = time.monotonic()
        if unit_timeout is not None:
            for wid in list(pending):
                claim = claims.get(wid)
                if claim is not None and now - claim[1] > unit_timeout:
                    _kill_worker(procs[wid])
                    fail(
                        wid,
                        f"hung >{unit_timeout:.1f}s on "
                        f"{payload_tag} {claim[0]}",
                    )
                    log.bump("ft_hung_workers")
        dead = [
            wid for wid in pending if procs[wid].exitcode is not None
        ]
        for wid in dead:
            # The worker exited; drain anything still buffered in its
            # pipe (its done message may be in flight) before declaring
            # it lost.
            drain_conn(wid)
            if wid in pending and procs[wid].exitcode is not None:
                fail(
                    wid,
                    f"died (exit code {procs[wid].exitcode})",
                )
    return failures


def _recover_units(
    *,
    units: Sequence[Tuple[int, int, int]],
    completed: Set[int],
    handle: Callable[[tuple], bool],
    payload_tag: str,
    round0_procs: Dict[int, mp.process.BaseProcess],
    round0_conns: Dict[int, mp_connection.Connection],
    round0_done_tag: str,
    spawn_worker: Callable[
        [int, Sequence[Tuple[int, int, int]], object],
        Tuple[mp.process.BaseProcess, mp_connection.Connection],
    ],
    serial_unit: Callable[[int, int, int], None],
    policy: RecoveryPolicy,
    ctx,
    log: RecoveryLog,
    next_wid: Optional[int] = None,
) -> int:
    """Drive one phase to completion: drain, reassign, respawn, degrade.

    Round 0 drains *round0_procs* (already running, one pipe each in
    *round0_conns*). While units are missing and retries remain, a
    round of replacement workers (fresh ids starting at *next_wid*,
    exponential backoff) recomputes exactly the missing units over
    their original boundaries. Replacement ids never reuse any prior
    worker id — that is what makes pinned-worker fault specs one-shot
    across respawns. Exhausted retries either degrade to *serial_unit*
    in the parent (``on_failure="serial"``) or raise
    :class:`~repro.errors.PoolDegradedError`. Returns the next unused
    worker id, for callers running several phases.
    """
    deadline = (
        None
        if policy.timeout is None
        else time.monotonic() + policy.timeout
    )
    expected = {u[0] for u in units}
    failures: Dict[int, str] = {}
    failures.update(
        _drain_phase(
            round0_procs,
            round0_conns,
            set(round0_procs),
            expected,
            completed,
            handle,
            payload_tag,
            round0_done_tag,
            log,
            deadline=deadline,
            timeout=policy.timeout,
            unit_timeout=policy.unit_timeout,
        )
    )
    if next_wid is None:
        next_wid = max(round0_procs, default=-1) + 1
    spawned: Dict[int, mp.process.BaseProcess] = {}
    spawned_conns: List[mp_connection.Connection] = []
    try:
        rounds = 0
        while expected - completed and rounds < policy.max_retries:
            rounds += 1
            log.bump("ft_recovery_rounds")
            log.note_event(
                "respawn_round",
                round=rounds,
                missing=len(expected - completed),
            )
            time.sleep(policy.backoff(rounds))
            subset = select_units(units, expected - completed)
            log.bump("ft_reassigned_units", len(subset))
            counter = ctx.Value("q", 0)
            n_workers = max(
                1, min(len(round0_procs) or 1, len(subset))
            )
            procs: Dict[int, mp.process.BaseProcess] = {}
            conns: Dict[int, mp_connection.Connection] = {}
            for _ in range(n_workers):
                wid = next_wid
                next_wid += 1
                p, conn = spawn_worker(wid, subset, counter)
                procs[wid] = p
                spawned[wid] = p
                conns[wid] = conn
                spawned_conns.append(conn)
            log.bump("ft_respawned_workers", n_workers)
            failures.update(
                _drain_phase(
                    procs,
                    conns,
                    set(procs),
                    expected,
                    completed,
                    handle,
                    payload_tag,
                    "done",
                    log,
                    deadline=deadline,
                    timeout=policy.timeout,
                    unit_timeout=policy.unit_timeout,
                )
            )
            for p in procs.values():
                p.join(timeout=5.0)
    finally:
        for p in spawned.values():
            _kill_worker(p)
        for conn in spawned_conns:
            _close_conn(conn)
    log.failures.extend(
        f"worker {wid}: {reason}"
        for wid, reason in sorted(failures.items())
    )
    missing = expected - completed
    if not missing:
        return next_wid
    why = "; ".join(
        f"worker {wid}: {reason}"
        for wid, reason in sorted(failures.items())
    )
    if policy.on_failure == "serial":
        log.degraded = True
        log.bump("ft_degraded_serial")
        log.note_event(
            "serial_fallback", units=len(missing), tag=payload_tag
        )
        for unit, lo, hi in select_units(units, missing):
            serial_unit(unit, lo, hi)
            completed.add(unit)
        return next_wid
    raise PoolDegradedError(
        f"{payload_tag}s {sorted(missing)} still unfinished after "
        f"{policy.max_retries} retry round(s); worker failures: "
        f"{why or 'none recorded'}"
    )


def _make_chunk_handler(
    results: Dict[int, WorkerChunk],
    log: RecoveryLog,
    accept: Callable[[int, FusedRange], None],
) -> Callable[[tuple], bool]:
    """Digest-checking, first-accepted-wins handler for chunk messages."""

    def handle(msg) -> bool:
        _, wid, unit, fr, counters, probes, secs, digest, spans = msg
        unit = int(unit)
        if unit in results:
            return True  # duplicate of an accepted chunk: ignore
        if payload_digest(fr.out_fgrp, fr.out_fy, fr.out_vals) != digest:
            return False
        accept(unit, fr)
        results[unit] = WorkerChunk(
            worker=int(wid),
            chunk=unit,
            products=int(fr.products),
            nnz=fr.nnz,
            counters=counters,
            hash_probes=int(probes),
            seconds=float(secs),
        )
        log.ingest_spans(spans)
        return True

    return handle


class SpartaProcessPool:
    """Persistent worker pool for the parallel pipeline.

    Construction starts the workers. Given *y* (and its contract modes
    *cy*), it first exports Y's COO arrays to shared memory and the
    workers immediately begin claiming stage-1 spans — so the parent
    overlaps its own X preparation with the partial builds — and the
    parent collects them with :meth:`build_hty`. Without *y* the
    workers wait for chunks. :meth:`run_chunks` then broadcasts the
    exported operands, runs stages 2–4 and hands every accepted chunk
    to the caller; :meth:`close` (always, in a ``finally``) tears the
    pool down. One pool start-up cost covers all five stages.

    *policy* governs failure recovery in both phases (see
    :class:`RecoveryPolicy`); *fault_plan* injects deterministic faults
    into the workers (see :mod:`repro.faults`); *recovery_log*
    accumulates the observability counters the executor folds into the
    run profile.
    """

    def __init__(
        self,
        *,
        workers: int,
        y: Optional[SparseTensor] = None,
        cy: Sequence[int] = (),
        start_method: Optional[str] = None,
        policy: Optional[RecoveryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        recovery_log: Optional[RecoveryLog] = None,
    ) -> None:
        self.workers = int(workers)
        self.policy = policy or RecoveryPolicy()
        self.fault_plan = fault_plan
        self.log = recovery_log or RecoveryLog()
        #: workers record + ship their own spans iff the attached log
        #: carries a tracer (the executor sets log.tracer)
        self._trace = getattr(self.log, "tracer", None) is not None
        self._blocks: List[shared_memory.SharedMemory] = []
        self._procs: Dict[int, mp.process.BaseProcess] = {}
        self._conns: Dict[int, mp_connection.Connection] = {}
        self._next_wid = self.workers
        # Kept for the serial stage-1 fallback (degraded mode rebuilds
        # missing spans in the parent from the original arrays).
        self._y = y
        self._yspec: Optional[SharedYSpec] = None
        self._span_units: List[Tuple[int, int, int]] = []
        self._method = resolve_start_method(start_method)
        self._ctx = ctx = mp.get_context(self._method)
        try:
            if y is not None:
                self._yspec = export_y(
                    y.indices, y.values,
                    *split_contract_modes(y.order, y.shape, cy),
                    self._blocks,
                )
                self._span_units = tag_units(even_spans(y.nnz, workers))
            # Both counters must stay referenced for the pool's lifetime:
            # spawn/forkserver children unpickle their args *after*
            # __init__ returns, and a collected Value unlinks its
            # semaphore out from under them.
            self._counter_a = ctx.Value("q", 0)
            self._counter_b = ctx.Value("q", 0)
            for wid in range(self.workers):
                p, conn = _start_piped_worker(
                    ctx,
                    self._method,
                    _pool_worker_main,
                    (
                        wid,
                        self._yspec,
                        self._span_units,
                        self._counter_a,
                        self._counter_b,
                    ),
                    self.fault_plan,
                    self._trace,
                )
                self._procs[wid] = p
                self._conns[wid] = conn
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    def _alive(self) -> Dict[int, mp.process.BaseProcess]:
        return {
            wid: p
            for wid, p in self._procs.items()
            if p.exitcode is None
        }

    def _policy(self, timeout: Optional[float]) -> RecoveryPolicy:
        if timeout is None:
            return self.policy
        return _dc_replace(self.policy, timeout=timeout)

    # ------------------------------------------------------------------
    def build_hty(
        self,
        num_buckets: Optional[int] = None,
        *,
        timeout: Optional[float] = None,
    ) -> Tuple[HashTensor, Dict[int, float]]:
        """Collect every span's partial grouping and merge them into HtY.

        Returns ``(hty, seconds)`` where ``seconds[wid]`` is the stage-1
        compute time worker *wid* spent across its claimed spans. Spans
        owned by failed workers are reassigned (respawned stage-1
        workers, then — policy permitting — a serial rebuild in the
        parent); the merged HtY is bit-identical either way because
        partials are pure functions of their span bounds.
        """
        partials: Dict[int, PartialGroups] = {}
        seconds: Dict[int, float] = {wid: 0.0 for wid in self._procs}

        def handle(msg) -> bool:
            _, wid, unit, pg, secs, digest, spans = msg
            unit = int(unit)
            if unit in partials:
                return True
            if (
                payload_digest(
                    pg.group_keys, pg.group_ptr, pg.free_ln, pg.values
                )
                != digest
            ):
                return False
            partials[unit] = pg
            seconds[wid] = seconds.get(wid, 0.0) + float(secs)
            self.log.ingest_spans(spans)
            return True

        yspec = self._yspec

        def spawn(wid, subset, counter):
            return _start_piped_worker(
                self._ctx,
                self._method,
                _pool_worker_main,
                (wid, yspec, subset, counter, None),
                self.fault_plan,
                self._trace,
            )

        def serial(unit, lo, hi):
            partials[unit] = build_partial_groups(
                self._y.indices,
                self._y.values,
                yspec.contract_modes,
                yspec.free_modes,
                yspec.contract_dims,
                yspec.free_dims,
                lo,
                hi,
            )

        self._next_wid = _recover_units(
            units=self._span_units,
            completed=set(partials),
            handle=handle,
            payload_tag="partial",
            round0_procs=dict(self._procs),
            round0_conns=self._conns,
            round0_done_tag="phase_done",
            spawn_worker=spawn,
            serial_unit=serial,
            policy=self._policy(timeout),
            ctx=self._ctx,
            log=self.log,
            next_wid=self._next_wid,
        )
        hty = HashTensor.merge_partials(
            [partials[i] for i in range(len(self._span_units))],
            yspec.free_dims,
            yspec.contract_dims,
            num_buckets=num_buckets,
        )
        return hty, seconds

    # ------------------------------------------------------------------
    def run_chunks(
        self,
        px: PreparedX,
        hty: HashTensor,
        chunks: Sequence[Tuple[int, int]],
        accept: Callable[[int, FusedRange], None],
        *,
        timeout: Optional[float] = None,
    ) -> List[WorkerChunk]:
        """Broadcast operands, run stages 2–4, accept chunks once each.

        Must be called exactly once, after :meth:`build_hty` when the
        pool has a stage-1 phase; the workers exit when their claim
        loop drains. An empty *chunks* still releases the workers (they
        exit without computing). Each chunk's output goes to
        ``accept(chunk_id, fused_range)`` the first time a
        digest-checked copy of it arrives. Chunks owned by failed
        workers are recomputed by respawned workers (or serially in the
        parent once retries exhaust, policy permitting) over their
        original boundaries, so the output stays bit-identical
        regardless of who computed what. Returns per-chunk statistics
        in chunk order.
        """
        units = tag_units(chunks)
        spec = (
            export_operands(px, hty, self._blocks) if units else None
        )
        task = ("chunks", spec, units)
        alive = self._alive()
        for wid in list(alive):
            conn = self._conns.get(wid)
            if conn is None:
                del alive[wid]  # failed earlier; pipe already closed
                continue
            try:
                conn.send(task)
            except (BrokenPipeError, OSError):
                pass  # exited since the liveness check; drain handles it
        results: Dict[int, WorkerChunk] = {}
        handle = _make_chunk_handler(results, self.log, accept)
        clock = time.perf_counter

        def spawn(wid, subset, counter):
            p, conn = _start_piped_worker(
                self._ctx,
                self._method,
                _pool_worker_main,
                (wid, None, (), None, counter),
                self.fault_plan,
                self._trace,
            )
            try:
                conn.send(("chunks", spec, subset))
            except (BrokenPipeError, OSError):
                pass  # died at start-up; the drain reports it
            return p, conn

        def serial(unit, lo, hi):
            t0 = clock()
            view = hty.probe_view()
            wprofile = RunProfile("sparta_parallel-serial-fallback")
            fr = fused_compute(
                px,
                view,
                y_structure="hash",
                accumulator="hash",
                profile=wprofile,
                lo=lo,
                hi=hi,
                clock=clock,
            )
            accept(unit, fr)
            results[unit] = WorkerChunk(
                worker=-1,
                chunk=unit,
                products=int(fr.products),
                nnz=fr.nnz,
                counters=dict(wprofile.counters),
                hash_probes=view.table.probes,
                seconds=clock() - t0,
            )

        self._next_wid = _recover_units(
            units=units,
            completed=set(results),
            handle=handle,
            payload_tag="chunk",
            round0_procs=alive,
            round0_conns=self._conns,
            round0_done_tag="done",
            spawn_worker=spawn,
            serial_unit=serial,
            policy=self._policy(timeout),
            ctx=self._ctx,
            log=self.log,
            next_wid=self._next_wid,
        )
        for p in self._procs.values():
            p.join(timeout=10.0)
        return [results[i] for i in range(len(units))]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down workers, pipes and shared blocks (idempotent)."""
        for p in self._procs.values():
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        for conn in self._conns.values():
            _close_conn(conn)
        self._conns = {}
        _release_blocks(self._blocks, unlink=True)
        self._blocks = []
