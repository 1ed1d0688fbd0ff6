"""Parallel Sparta (paper §3.5) — the thread and process executors.

The outer loop over X's mode-F sub-tensors is embarrassingly parallel
once each worker owns a private accumulator and Z_local buffer.
:func:`parallel_sparta` runs the shared five-stage driver
(:func:`repro.core.looped.looped_contract`) with one of two executors
for that loop:

* ``backend="thread"`` — :class:`ThreadExecutor`, a
  ``ThreadPoolExecutor`` over static balanced ranges. Python threads
  share one interpreter, so this backend models the parallel structure
  (per-worker statistics feed the scalability model) but cannot measure
  true multi-core wall-clock scaling;
* ``backend="process"`` — :class:`ProcessExecutor` over a
  :class:`~repro.parallel.procpool.SpartaProcessPool`: operands are
  exported to shared memory, the parent hands each idle worker process
  its next sub-tensor chunk, and it gathers per-chunk outputs in
  deterministic chunk order. With ``parallel_stage1`` the same pool
  first builds HtY partials while the parent sorts X — one pool
  start-up for all five stages. This backend measures *real*
  wall-clock scaling on multi-core hosts
  (:attr:`ParallelResult.wall_seconds`).

Stage 1 is parallel too: it partitions Y's non-zeros into per-worker
spans whose partial groupings merge deterministically into the exact
HtY ``from_coo`` would build (``parallel_stage1``). Stage 5 has no
parallel form: the ranges are disjoint ascending sub-tensor spans,
gathered in range order, so Z arrives sorted and the driver's order
check skips the sort exactly as on a serial run.

Both executors run the fused flat-batch kernel per range, and every
flag combination is bit-identical to the serial fused engine:
ranges/chunks cut at sub-tensor boundaries, so every output key is
reduced inside a single range in X-row order, and the stage-1 merge
reorders whole groups without touching within-group row order. Stage
order, the Table-2 traffic and the memory budget belong to the driver,
so parallel runs charge exactly what serial runs charge (pinned by
``tests/parallel/test_traffic_conservation.py``).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor as _ThreadPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.htycache import HtYCache
from repro.core.looped import MemorySink, looped_contract
from repro.core.profile import RunProfile
from repro.core.result import ContractionResult
from repro.errors import ContractionError, PoolDegradedError, ShapeError
from repro.faults import (
    ANY,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    payload_digest,
)
from repro.hashtable.tensor_table import (
    HashTensor,
    build_partial_groups,
    split_contract_modes,
)
from repro.obs.tracer import CAT_WORKER, Tracer
from repro.parallel.partition import (
    even_spans,
    partition_imbalance,
    partition_subtensors,
)
from repro.parallel.procpool import (
    DEFAULT_CHUNKS_PER_WORKER,
    RecoveryLog,
    RecoveryPolicy,
    SpartaProcessPool,
    export_operands,
    export_y,
    release_blocks,
    run_chunk,
)
from repro.tensor.coo import SparseTensor

ENGINE_NAME = "sparta_parallel"

BACKENDS = ("thread", "process")


@dataclass
class ThreadStats:
    """Work done by one worker (thread or process)."""

    worker: int
    subtensors: int
    nnz_x: int
    products: int
    output_nnz: int
    seconds: float
    #: stage-1 partial-build seconds (0.0 when stage 1 ran serially)
    stage1_seconds: float = 0.0


@dataclass
class ParallelResult:
    """Contraction result plus per-worker accounting."""

    result: ContractionResult
    threads: int
    thread_stats: List[ThreadStats] = field(default_factory=list)
    #: which executor ran the workers ("thread" or "process")
    backend: str = "thread"
    #: measured end-to-end wall-clock seconds of the parallel_sparta call
    #: (the real multi-core number on the process backend)
    wall_seconds: float = 0.0

    @property
    def load_imbalance(self) -> float:
        """max worker products / mean worker products."""
        loads = [s.products for s in self.thread_stats] or [0]
        mean = sum(loads) / len(loads)
        return (max(loads) / mean) if mean else 1.0


def parallel_sparta(
    x: SparseTensor,
    y: SparseTensor,
    cx: Sequence[int],
    cy: Sequence[int],
    *,
    threads: int = 4,
    backend: str = "thread",
    sort_output: bool = True,
    num_buckets: Optional[int] = None,
    hty_cache: Optional[HtYCache] = None,
    start_method: Optional[str] = None,
    parallel_stage1: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    max_retries: int = 2,
    on_failure: str = "raise",
    unit_timeout: Optional[float] = None,
    timeout: Optional[float] = None,
    codegen: Optional[bool] = None,
    tracer: Optional[Tracer] = None,
    memory_budget=None,
    spill_root: Optional[str] = None,
    force_spill: bool = False,
) -> ParallelResult:
    """Run Sparta with *threads* workers over the sub-tensor loop.

    The call runs exactly the configuration it asks for (choosing one
    is ``contract(plan="auto")``'s job; ``flags["planner"]`` is
    ``"off"`` here). ``backend="process"`` runs the workers as separate
    processes over shared-memory operands (see
    :mod:`repro.parallel.procpool`); ``start_method``
    ("fork"/"spawn"/"forkserver") applies only there. That backend cuts
    :data:`~repro.parallel.procpool.DEFAULT_CHUNKS_PER_WORKER` chunks
    per worker and hands each idle worker the next one.

    ``parallel_stage1`` builds HtY from per-worker partial groupings
    merged in the parent (stage 1 parallel; skipped when an
    ``hty_cache`` serves the build, or when an operand is empty).
    Worker ranges balance cumulative non-zeros, and the parent gathers
    them in range order, so stage 5 finds Z sorted and skips the sort
    (``flags["output_sorting"] = "presorted"``). Output is
    bit-identical across backends, worker counts and both settings of
    ``parallel_stage1``.

    Fault tolerance: a worker failure (hard death, hang past
    ``unit_timeout``, corrupt payload) loses only the chunk the worker
    held; the worker is respawned and the chunk handed out again — up
    to ``max_retries`` times per chunk, after which
    ``on_failure="serial"`` recomputes it with the serial fused kernel
    in the parent (setting ``profile.flags["degraded"]``) while the
    default ``"raise"`` raises :class:`~repro.errors.PoolDegradedError`.
    ``timeout`` bounds each parallel phase end to end (not recoverable
    — raises :class:`~repro.errors.ParallelError` naming the pending
    chunks).
    Recovered runs stay bit-identical to serial, including the Table-2
    traffic accounting. ``fault_plan`` injects deterministic faults for
    testing (see :mod:`repro.faults`); when omitted, the
    ``REPRO_FAULTS`` environment variable is consulted so faults can be
    activated without touching call sites.

    ``codegen`` controls the per-signature generated kernels of the
    fused path (see :func:`repro.core.kernels.fused_compute`). The
    thread backend honors the per-call value; process-pool workers
    resolve it from the inherited ``REPRO_NO_CODEGEN`` environment
    instead (code objects never cross a pipe — workers compile from the
    shipped operands' signature).

    ``memory_budget`` (bytes, a ``"64M"``-style string, or a shared
    :class:`repro.ooc.MemoryBudget`) lets
    :func:`repro.ooc.engine.budget_sink` decide in-core vs.
    out-of-core: a working set that fits keeps its ranges in memory
    (``flags["ooc"] = "in_core"``); otherwise each accepted range's Z
    rows are written to Z's spill files as it arrives, under one spill
    directory (``flags["ooc"] = "spill"``).
    ``force_spill`` pins the spill path for tests; ``spill_root``
    overrides the spill directory's parent (default: the system temp
    dir).

    ``tracer`` (a :class:`repro.obs.Tracer`) records the five stage
    spans on the parent track plus per-worker timelines — spawn/claim
    instants, per-chunk compute spans, fault and recovery events —
    merged from the workers' own records (process backend: shipped back
    over the worker pipes). ``None`` records nothing and adds no
    measurable overhead.
    """
    if threads <= 0:
        raise ShapeError(f"threads must be positive, got {threads}")
    if backend not in BACKENDS:
        raise ContractionError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    if fault_plan is None:
        fault_plan = FaultPlan.from_env()
    policy = RecoveryPolicy(
        max_retries=max_retries,
        on_failure=on_failure,
        unit_timeout=unit_timeout,
        timeout=timeout,
    )
    log = RecoveryLog(tracer=tracer)
    if backend == "thread":
        executor = ThreadExecutor(
            threads, parallel_stage1=parallel_stage1, policy=policy,
            log=log, fault_plan=fault_plan, tracer=tracer,
        )
    else:
        executor = ProcessExecutor(
            threads, parallel_stage1=parallel_stage1, policy=policy,
            log=log, fault_plan=fault_plan, start_method=start_method,
        )
    if memory_budget is None:
        sink = MemorySink()
    else:
        # Imported lazily: repro.ooc imports repro.parallel, so a
        # top-level import here would cycle through its __init__.
        from repro.ooc.engine import budget_sink

        sink = budget_sink(
            memory_budget, x, y, cx, cy, workers=threads,
            force_spill=force_spill, spill_root=spill_root,
        )
    wall0 = time.perf_counter()
    res = looped_contract(
        x, y, cx, cy,
        engine_name=ENGINE_NAME,
        y_structure="hash",
        accumulator="hash",
        sort_output=sort_output,
        num_buckets=num_buckets,
        hty_cache=hty_cache,
        codegen=codegen,
        tracer=tracer,
        executor=executor,
        sink=sink,
    )
    wall = time.perf_counter() - wall0
    res.profile.set_flag("planner", "off")
    return ParallelResult(
        result=res,
        threads=threads,
        thread_stats=executor.stats,
        backend=backend,
        wall_seconds=wall,
    )


def _fold_worker_counters(profile, counter_dicts, imbalance, log) -> None:
    """Fold per-worker counters and the recovery log into *profile*."""
    for counters in counter_dicts:
        profile.bump_many(counters)
    profile.counters["load_imbalance_x1000"] = int(imbalance * 1000)
    if log.counters:
        profile.bump_many(log.counters)
    if log.degraded:
        profile.set_flag("degraded", "serial")


def _fault_retry(
    unit: int,
    policy: RecoveryPolicy,
    log: RecoveryLog,
    attempt,
    serial_attempt,
    what: str,
):
    """In-process analogue of the pool's respawn-and-retry loop.

    Thread-backend faults surface as :class:`~repro.faults.InjectedFault`
    (a hard kill makes no sense in-process); each retry re-runs the same
    unit. Pinned-worker specs are one-shot in the shared injector, so a
    single fault recovers on the first retry; ``worker=ANY`` specs
    refire every attempt and exhaust the budget — then *serial_attempt*
    (injection disabled) runs under ``on_failure="serial"`` or
    :class:`~repro.errors.PoolDegradedError` propagates. Mirrors the
    process backend's failure semantics so tests can fuzz both.
    """
    tries = 0
    while True:
        try:
            return attempt()
        except InjectedFault as exc:
            tries += 1
            log.bump("ft_worker_failures")
            log.failures.append(f"thread {what} {unit}: {exc}")
            if tries > policy.max_retries:
                if policy.on_failure == "serial":
                    log.degraded = True
                    log.bump("ft_degraded_serial")
                    return serial_attempt()
                raise PoolDegradedError(
                    f"thread {what} {unit} still failing after "
                    f"{policy.max_retries} retry round(s): {exc}"
                ) from exc
            log.bump("ft_recovery_rounds")
            log.bump("ft_reassigned_units")
            time.sleep(policy.backoff(tries))


def _build_hty_threads(
    y: SparseTensor,
    cy: Sequence[int],
    threads: int,
    num_buckets: Optional[int],
    *,
    injector: Optional[FaultInjector] = None,
    policy: Optional[RecoveryPolicy] = None,
    log: Optional[RecoveryLog] = None,
) -> HashTensor:
    """Parallel stage 1 on the thread backend: partial builds + merge.

    NumPy releases the GIL inside the argsorts that dominate the partial
    builds, so even Python threads overlap the heavy part; the merge is
    bit-identical to a serial :meth:`HashTensor.from_coo`.
    """
    cmodes, fmodes, cdims, fdims = split_contract_modes(
        y.order, y.shape, cy
    )
    spans = even_spans(y.nnz, threads)

    def build_span(lo: int, hi: int):
        return build_partial_groups(
            y.indices, y.values, cmodes, fmodes, cdims, fdims, lo, hi
        )

    def build(args: Tuple[int, Tuple[int, int]]):
        wid, (lo, hi) = args
        if injector is None:
            return build_span(lo, hi)

        def attempt():
            injector.fire("input_processing", wid, worker=wid)
            pg = build_span(lo, hi)
            digest = payload_digest(
                pg.group_keys, pg.group_ptr, pg.free_ln, pg.values
            )
            if injector.maybe_corrupt(
                "input_processing", wid, (pg.values,), worker=wid
            ) and payload_digest(
                pg.group_keys, pg.group_ptr, pg.free_ln, pg.values
            ) != digest:
                log.bump("ft_corrupt_payloads")
                raise InjectedFault(
                    f"corrupt partial payload (span {wid})"
                )
            return pg

        return _fault_retry(
            wid, policy, log, attempt, lambda: build_span(lo, hi),
            "span",
        )

    tasks = list(enumerate(spans))
    if len(tasks) <= 1:
        partials = [build(t) for t in tasks]
    else:
        with _ThreadPool(max_workers=threads) as tpool:
            partials = list(tpool.map(build, tasks))
    return HashTensor.merge_partials(
        partials, fdims, cdims, num_buckets=num_buckets
    )


class ThreadExecutor:
    """Static balanced ranges on a thread pool sharing one HtY.

    Each range attempt probes through its own zero-copy view of the
    table (:meth:`HashTensor.probe_view`): concurrent ranges lose no
    probe counts, and with a fault plan only accepted attempts count
    probes and only accepted outputs reach the sink.
    """

    concurrent = True

    def __init__(self, threads: int, *, parallel_stage1: bool,
                 policy: RecoveryPolicy, log: RecoveryLog,
                 fault_plan: Optional[FaultPlan], tracer=None) -> None:
        self.threads = int(threads)
        self.parallel_stage1 = parallel_stage1
        self.policy = policy
        self.log = log
        self.injector = (
            FaultInjector(fault_plan, kill_mode="raise", tracer=tracer)
            if fault_plan else None
        )
        self.tracer = tracer
        self.span_args = {"backend": "thread", "threads": self.threads}
        self.stats: List[ThreadStats] = []

    def start_hty(self, x, y, plan, num_buckets):
        if not (self.parallel_stage1 and self.threads > 1 and y.nnz > 0):
            return None
        return lambda: _build_hty_threads(
            y, plan.cy, self.threads, num_buckets,
            injector=self.injector, policy=self.policy, log=self.log,
        )

    def run(self, px, hty, sink, accept, profile, kernel):
        ranges = partition_subtensors(
            px.ptr, max(self.threads, sink.min_ranges)
        )
        profile.counters["partition_ranges"] = len(ranges)
        clock = kernel["clock"]
        injector, tracer = self.injector, self.tracer

        def run_range(wid: int, lo: int, hi: int):
            view = hty.probe_view()
            t_start = clock()
            wprofile = RunProfile(f"{ENGINE_NAME}-w{wid}")
            fr = sink.compute(px, view, wprofile, lo, hi, kernel)
            t_end = clock()
            if tracer is not None:
                # list.append is atomic under the GIL, so worker threads
                # record straight onto the shared tracer.
                tracer.add_span(
                    "chunk",
                    start=t_start,
                    end=t_end,
                    cat=CAT_WORKER,
                    tid=wid + 1,
                    unit=wid,
                    subtensors=int(hi - lo),
                    products=int(fr.products),
                )
            return fr, wprofile, ThreadStats(
                worker=wid,
                subtensors=hi - lo,
                nnz_x=int(px.ptr[hi] - px.ptr[lo]),
                products=fr.products,
                output_nnz=fr.nnz,
                seconds=t_end - t_start,
            ), view.table.probes

        def worker(args: Tuple[int, int, int]):
            wid, lo, hi = args

            def attempt():
                injector.fire("index_search", wid, worker=wid)
                out = run_range(wid, lo, hi)
                fr = out[0]
                injector.fire("accumulation", wid, worker=wid)
                digest = payload_digest(fr.out_fgrp, fr.out_fy, fr.out_vals)
                if injector.maybe_corrupt(
                    "accumulation", wid, (fr.out_vals,), worker=wid
                ) and payload_digest(
                    fr.out_fgrp, fr.out_fy, fr.out_vals
                ) != digest:
                    self.log.bump("ft_corrupt_payloads")
                    raise InjectedFault(
                        f"corrupt chunk payload (range {wid})"
                    )
                injector.fire("writeback", wid, worker=wid)
                injector.fire("output_sorting", ANY, worker=wid)
                return out

            if injector is None:
                out = run_range(wid, lo, hi)
            else:
                out = _fault_retry(
                    wid, self.policy, self.log, attempt,
                    lambda: run_range(wid, lo, hi), "range",
                )
            fr, wprofile, stats, probes = out
            accept(wid, fr)
            return dict(wprofile.counters), stats, probes

        tasks = [(i, lo, hi) for i, (lo, hi) in enumerate(ranges)]
        if self.threads == 1 or len(tasks) <= 1:
            outputs = [worker(t) for t in tasks]
        else:
            with _ThreadPool(max_workers=self.threads) as pool:
                outputs = list(pool.map(worker, tasks))
        self.stats = [s for _, s, _ in outputs]
        _fold_worker_counters(
            profile, [c for c, _, _ in outputs],
            partition_imbalance(px.ptr, ranges), self.log,
        )
        return sum(p for _, _, p in outputs)

    def close(self) -> None:
        pass


@dataclass
class WorkerChunk:
    """One accepted chunk's statistics, tagged with who computed it.

    The output arrays went to the sink when the chunk was accepted; only
    the numbers stay here. The parent's serial fallback reports as
    worker ``-1``.
    """

    worker: int
    products: int
    nnz: int
    counters: Dict[str, int]
    hash_probes: int
    seconds: float


class ProcessExecutor:
    """Parent-assigned chunks on shared-memory worker processes.

    With ``parallel_stage1`` the pool starts before X is prepared and
    builds the HtY partials first; otherwise it starts when there are
    chunks to compute. The executor owns the shared blocks it exports
    and unlinks them when it closes.
    """

    concurrent = True

    def __init__(self, workers: int, *, parallel_stage1: bool,
                 policy: RecoveryPolicy, log: RecoveryLog,
                 fault_plan: Optional[FaultPlan],
                 start_method: Optional[str]) -> None:
        self.workers = int(workers)
        self.parallel_stage1 = parallel_stage1
        self.policy = policy
        self.log = log
        self.span_args = {"backend": "process", "threads": self.workers}
        self.stats: List[ThreadStats] = []
        self._pool_kwargs = dict(
            start_method=start_method, fault_plan=fault_plan,
            trace=log.tracer is not None,
        )
        self._pool: Optional[SpartaProcessPool] = None
        self._blocks: list = []
        self._stage1_secs: Dict[int, float] = {}

    def _started_pool(self) -> SpartaProcessPool:
        if self._pool is None:
            self._pool = SpartaProcessPool(self.workers, **self._pool_kwargs)
        return self._pool

    def start_hty(self, x, y, plan, num_buckets):
        if not (self.parallel_stage1 and x.nnz > 0 and y.nnz > 0):
            return None
        pool = self._started_pool()
        cmodes, fmodes, cdims, fdims = split_contract_modes(
            y.order, y.shape, plan.cy
        )
        yspec = export_y(y.indices, y.values, cmodes, fmodes, cdims, fdims,
                         self._blocks)
        spans = even_spans(y.nnz, self.workers)
        job = pool.submit(
            "span", [(i, (yspec, lo, hi)) for i, (lo, hi) in enumerate(spans)]
        )
        partials: Dict[int, object] = {}

        def accept(wid, unit, reply):
            partials[unit], secs = reply
            self._stage1_secs[wid] = self._stage1_secs.get(wid, 0.0) + secs

        def serial(unit, arg):
            partials[unit] = build_partial_groups(
                y.indices, y.values, cmodes, fmodes, cdims, fdims, *arg[1:]
            )

        def finish() -> HashTensor:
            pool.wait(job, accept, self.policy, self.log, serial)
            return HashTensor.merge_partials(
                [partials[i] for i in range(len(spans))], fdims, cdims,
                num_buckets=num_buckets,
            )

        return finish

    def run(self, px, hty, sink, accept, profile, kernel):
        chunks = partition_subtensors(
            px.ptr,
            max(self.workers * DEFAULT_CHUNKS_PER_WORKER, sink.min_ranges),
        )
        profile.counters["partition_ranges"] = len(chunks)
        results: Dict[int, WorkerChunk] = {}

        def take(wid, unit, reply):
            fr, counters, probes, secs = reply
            accept(unit, fr)
            results[unit] = WorkerChunk(
                int(wid), int(fr.products), fr.nnz, counters, int(probes),
                float(secs),
            )

        def serial(unit, arg):
            take(-1, unit, run_chunk(px, hty, arg[1], arg[2],
                                     f"{ENGINE_NAME}-serial-fallback"))

        try:
            if chunks:
                pool = self._started_pool()
                spec = export_operands(px, hty, self._blocks)
                job = pool.submit("chunk", [
                    (i, (spec, lo, hi)) for i, (lo, hi) in enumerate(chunks)
                ])
                pool.wait(job, take, self.policy, self.log, serial)
        finally:
            self.close()
        wchunks = [results[i] for i in range(len(chunks))]
        self.stats, imbalance = self._worker_stats(px, chunks, wchunks)
        _fold_worker_counters(
            profile, [wc.counters for wc in wchunks], imbalance, self.log
        )
        return sum(wc.hash_probes for wc in wchunks)

    def _worker_stats(self, px, chunks, wchunks):
        """Fold per-chunk results into per-worker statistics.

        Workers that computed nothing still get a zero row (the
        scalability experiments index stats by worker id). Fault
        recovery can add rows beyond the original worker count:
        respawned workers carry fresh ids past it, and the parent's
        serial fallback reports as worker ``-1``; they are appended after
        the original rows (``-1`` last), so an undisturbed run's stats
        are exactly one row per requested worker. Returns
        ``(stats, imbalance)``.
        """
        workers = self.workers
        rows: Dict[int, ThreadStats] = {}

        def row(wid: int) -> ThreadStats:
            return rows.setdefault(wid, ThreadStats(wid, 0, 0, 0, 0, 0.0))

        for wid in range(workers):
            row(wid)
        for wid, secs in self._stage1_secs.items():
            row(wid).stage1_seconds = float(secs)
        for chunk, wc in enumerate(wchunks):
            lo, hi = chunks[chunk]
            s = row(wc.worker)
            s.subtensors += hi - lo
            s.nnz_x += int(px.ptr[hi] - px.ptr[lo])
            s.products += wc.products
            s.output_nnz += wc.nnz
            s.seconds += wc.seconds
        order = list(range(workers))
        order += sorted(w for w in rows if w >= workers)
        if -1 in rows:
            order.append(-1)
        stats = [rows[wid] for wid in order]
        loads = [s.nnz_x for s in stats] or [0]
        mean = sum(loads) / len(loads)
        return stats, (max(loads) / mean) if mean else 1.0

    def close(self) -> None:
        """Stop the pool, then close and unlink the exported blocks."""
        if self._pool is not None:
            self._pool.close(self.log)
            self._pool = None
        release_blocks(self._blocks, unlink=True)
