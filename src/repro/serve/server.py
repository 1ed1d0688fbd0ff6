"""The SpTC contraction server — queueing, batching, tenancy, tracing.

:class:`SpTCServer` fronts the existing engines with a long-running
service:

- Requests enter through :meth:`~SpTCServer.submit` (thread-safe,
  returns a :class:`PendingResult`) or :meth:`~SpTCServer.submit_async`
  (awaitable bridge for the asyncio TCP front in
  :mod:`repro.serve.net`). Admission control and weighted-fair
  ordering live in :class:`~repro.serve.scheduler.FairScheduler`.
- One dispatcher thread per execution slot pops fair batches and runs
  them. ``execution="worker"`` (default) runs each request as a
  ``contract`` task on the slot's worker of one
  :class:`~repro.parallel.procpool.SpartaProcessPool`, whose processes
  and caches stay warm across requests; ``execution="inline"`` runs
  ``contract()`` on the dispatcher thread itself (no process boundary
  — handy for tests and single-process embedding).
- Batches group requests sharing a *signature* — same pinned Y handle,
  contract modes and options — onto one slot back-to-back, so the
  HtY/plan/kernel caches hit for every follower. A batch whose
  requests ask ``plan="auto"`` gets one parent-side
  :func:`~repro.planner.choose_plan` decision recorded as the batch's
  ``plan`` span (the worker's own cached decision governs execution
  and is identical by determinism).
- Failure isolation: a killed, hung or corrupting worker affects only
  the request it was running — the pool's recovery loop respawns the
  slot's worker (fresh worker id, so pinned fault specs never refire)
  and retries the request up to ``max_retries`` times, then recomputes
  it serially in the parent (``on_failure="serial"``, bit-identical by
  construction) or fails it (``"raise"``). Other slots, other tenants
  and the server itself never restart. Deterministic Python errors
  fail fast without burning the worker or a retry.
- Observability: every request gets a trace id and (when tracing is
  on) a private :class:`~repro.obs.Tracer` carrying
  ``request → queue_wait → plan → execute`` spans plus the engine's
  stage spans shipped back from the worker. Per-tenant counters and
  latency histograms export through
  :class:`~repro.obs.MetricsRegistry` as ``serve.<tenant>.*``.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.profile import RunProfile
from repro.errors import ServeError, ServiceOverloadedError
from repro.faults import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import CAT_CONTRACTION, Tracer
from repro.ooc.budget import MemoryBudget
from repro.parallel.procpool import (
    RecoveryLog,
    RecoveryPolicy,
    SpartaProcessPool,
    Worker,
)
from repro.serve.registry import OperandRegistry, PinnedOperand
from repro.serve.scheduler import FairScheduler, TenantQuota
from repro.serve.telemetry import TenantStats
from repro.tensor.coo import SparseTensor

__all__ = [
    "PendingResult",
    "ServeConfig",
    "ServeResponse",
    "SpTCServer",
]

#: contract() keywords a request's ``options`` may carry. Everything is
#: passed through verbatim — the served call *is* the direct call, so
#: results and Table-2 traffic match a local ``contract()`` with the
#: same options byte for byte.
ALLOWED_OPTIONS = frozenset(
    {
        "method",
        "plan",
        "threads",
        "backend",
        "max_workers",
        "sort_output",
        "num_buckets",
        "use_hty_cache",
        "max_retries",
        "on_failure",
        "memory_budget",
        "spill_root",
    }
)


@dataclass
class ServeConfig:
    """Server-wide knobs (all have serviceable defaults)."""

    workers: int = 2
    execution: str = "worker"  # "worker" | "inline"
    max_queue_depth: int = 64
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    quotas: Dict[str, TenantQuota] = field(default_factory=dict)
    memory_budget: Union[int, str, None] = "256M"
    max_batch: int = 8
    max_retries: int = 2
    on_failure: str = "serial"  # after retries: "serial" | "raise"
    unit_timeout: Optional[float] = 60.0
    start_method: Optional[str] = None
    fault_plan: Optional[FaultPlan] = None
    tracing: bool = True
    #: optional :class:`~repro.serve.telemetry.TrafficFeed`; every
    #: successful request's RunProfile is published here so a placement
    #: engine (``repro.memory.migration.MigrationEngine``) can learn
    #: cross-request hotness
    traffic_feed: Optional[object] = None

    def __post_init__(self) -> None:
        if self.execution not in ("worker", "inline"):
            raise ServeError(
                f"execution must be 'worker' or 'inline', "
                f"got {self.execution!r}"
            )
        if self.on_failure not in ("serial", "raise"):
            raise ServeError(
                f"on_failure must be 'serial' or 'raise', "
                f"got {self.on_failure!r}"
            )
        if self.workers < 1:
            raise ServeError(
                f"need at least one worker, got {self.workers}"
            )


class PendingResult:
    """Handle to an in-flight request; fulfilled by the dispatcher."""

    def __init__(self, request_id: str) -> None:
        self.request_id = request_id
        self._event = threading.Event()
        self._value: Optional["ServeResponse"] = None
        self._exc: Optional[BaseException] = None
        self._callbacks: List = []
        self._lock = threading.Lock()

    def _fulfill(
        self,
        value: Optional["ServeResponse"] = None,
        exc: Optional[BaseException] = None,
    ) -> None:
        with self._lock:
            if self._event.is_set():
                return
            self._value = value
            self._exc = exc
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    def done(self) -> bool:
        return self._event.is_set()

    def add_done_callback(self, fn) -> None:
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def result(
        self, timeout: Optional[float] = None
    ) -> "ServeResponse":
        if not self._event.wait(timeout):
            raise ServeError(
                f"request {self.request_id} did not complete within "
                f"{timeout}s"
            )
        if self._exc is not None:
            raise self._exc
        assert self._value is not None
        return self._value

    def exception(
        self, timeout: Optional[float] = None
    ) -> Optional[BaseException]:
        self._event.wait(timeout)
        return self._exc


@dataclass
class ServeResponse:
    """One completed request: the result plus service metadata."""

    request_id: str
    trace_id: str
    tenant: str
    tensor: SparseTensor
    profile: RunProfile
    worker: Optional[int]
    batch_id: int
    queue_seconds: float
    service_seconds: float
    retries: int = 0
    degraded: bool = False
    tracer: Optional[Tracer] = field(default=None, repr=False)

    @property
    def records(self) -> list:
        return [] if self.tracer is None else self.tracer.records

    def write_trace(self, path) -> None:
        """Chrome trace-event JSON of this request's timeline."""
        if self.tracer is None:
            raise ServeError(
                f"request {self.request_id} was served with tracing "
                f"off; submit with trace=True"
            )
        self.tracer.write(path)


@dataclass
class _Request:
    """Internal queue entry."""

    request_id: str
    trace_id: str
    tenant: str
    x: Union[str, SparseTensor]
    y: Union[str, SparseTensor]
    cx: Tuple[int, ...]
    cy: Tuple[int, ...]
    options: dict
    pending: PendingResult
    tracer: Optional[Tracer]
    fault_plan: Optional[FaultPlan]
    arrival: float
    x_entry: Optional[PinnedOperand] = None
    y_entry: Optional[PinnedOperand] = None


class _Slot:
    """One dispatch slot: a thread plus (optionally) its pool worker."""

    def __init__(self, index: int, worker: Optional[Worker]):
        self.index = index
        self.worker = worker
        self.thread: Optional[threading.Thread] = None
        self.respawns = 0


class SpTCServer:
    """Long-running contraction service over the existing engines."""

    def __init__(self, config: Optional[ServeConfig] = None, **over):
        config = config or ServeConfig()
        if over:
            config = dataclasses.replace(config, **over)
        self.config = config
        budget = (
            None
            if config.memory_budget is None
            else MemoryBudget(config.memory_budget)
        )
        tenant_budgets: Dict[str, MemoryBudget] = {}
        if budget is not None:
            fractions = {
                tenant: quota.memory_fraction
                for tenant, quota in config.quotas.items()
                if quota.memory_fraction is not None
            }
            if fractions:
                tenant_budgets = budget.subdivide(fractions)
        self.registry = OperandRegistry(
            budget, tenant_budgets=tenant_budgets
        )
        self.scheduler = FairScheduler(
            max_queue_depth=config.max_queue_depth,
            default_quota=config.default_quota,
        )
        for tenant, quota in config.quotas.items():
            self.scheduler.register(tenant, quota)
        self._slots: List[_Slot] = []
        self._pool: Optional[SpartaProcessPool] = None
        self._policy = RecoveryPolicy(
            max_retries=config.max_retries,
            on_failure=config.on_failure,
            unit_timeout=config.unit_timeout,
        )
        self._seq = itertools.count(1)
        self._batch_seq = itertools.count(1)
        self._stats_lock = threading.Lock()
        self._tenants: Dict[str, TenantStats] = {}
        self._service_ewma: Optional[float] = None
        self.batches = 0
        self.batched_requests = 0
        self.serial_fallbacks = 0
        self.planned_batches = 0
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SpTCServer":
        """Spawn workers and dispatcher threads. Idempotent."""
        if self._started:
            return self
        if self._closed:
            raise ServeError("server is closed")
        self._started = True
        workers: List[Optional[Worker]] = [None] * self.config.workers
        if self.config.execution == "worker":
            self._pool = SpartaProcessPool(
                self.config.workers,
                start_method=self.config.start_method,
                fault_plan=self.config.fault_plan,
            )
            workers = list(self._pool.workers)
        for i, worker in enumerate(workers):
            self._slots.append(_Slot(i, worker))
        for slot in self._slots:
            t = threading.Thread(
                target=self._dispatch_loop,
                args=(slot,),
                name=f"sptc-serve-slot-{slot.index}",
                daemon=True,
            )
            slot.thread = t
            t.start()
        return self

    def close(self) -> None:
        """Stop dispatchers, workers, and unlink every pinned segment.

        Queued requests that never dispatched are failed with
        :class:`~repro.errors.ServeError`; in-flight requests complete
        first (their dispatcher thread is joined).
        """
        if self._closed:
            return
        self._closed = True
        self.scheduler.close()
        for _, req in self.scheduler.drain():
            self._release_entries(req)
            req.pending._fulfill(
                exc=ServeError("server shut down before dispatch")
            )
        for slot in self._slots:
            if slot.thread is not None:
                slot.thread.join(timeout=30.0)
        if self._pool is not None:
            self._pool.close()
        self.registry.close()

    def __enter__(self) -> "SpTCServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # operand registry pass-throughs
    # ------------------------------------------------------------------
    def pin(
        self,
        name: str,
        tensor: SparseTensor,
        *,
        tenant: str = "default",
    ) -> str:
        return self.registry.pin(name, tensor, tenant=tenant)

    def unpin(self, name: str, *, force: bool = False) -> None:
        self.registry.unpin(name, force=force)

    def handles(self) -> Tuple[str, ...]:
        return self.registry.handles()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def _tenant_stats(self, tenant: str) -> TenantStats:
        with self._stats_lock:
            st = self._tenants.get(tenant)
            if st is None:
                st = self._tenants[tenant] = TenantStats(tenant)
            return st

    def _retry_after(self) -> float:
        with self._stats_lock:
            ewma = self._service_ewma or 0.05
        depth = self.scheduler.depth() + 1
        return max(depth * ewma / max(self.config.workers, 1), 0.05)

    def _release_entries(self, req: _Request) -> None:
        for entry in (req.x_entry, req.y_entry):
            if entry is not None:
                self.registry.release(entry.name)
        req.x_entry = req.y_entry = None

    def submit(
        self,
        x: Union[str, SparseTensor],
        y: Union[str, SparseTensor],
        cx: Sequence[int],
        cy: Sequence[int],
        *,
        tenant: str = "default",
        options: Optional[dict] = None,
        trace: Optional[bool] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> PendingResult:
        """Enqueue one contraction; returns a :class:`PendingResult`.

        *x*/*y* are pinned handle names (str) or literal tensors;
        *options* is a whitelist-checked ``contract()`` kwargs dict
        passed through verbatim. Raises
        :class:`~repro.errors.ServiceOverloadedError` when admission
        control rejects the request.
        """
        if self._closed:
            raise ServeError("server is closed")
        options = dict(options or {})
        unknown = set(options) - ALLOWED_OPTIONS
        if unknown:
            raise ServeError(
                f"unknown request option(s) {sorted(unknown)}; "
                f"allowed: {sorted(ALLOWED_OPTIONS)}"
            )
        rid = f"r{next(self._seq):06d}"
        traced = self.config.tracing if trace is None else bool(trace)
        req = _Request(
            request_id=rid,
            trace_id=f"{tenant}-{rid}",
            tenant=tenant,
            x=x,
            y=y,
            cx=tuple(int(m) for m in cx),
            cy=tuple(int(m) for m in cy),
            options=options,
            pending=PendingResult(rid),
            tracer=Tracer() if traced else None,
            fault_plan=fault_plan,
            arrival=time.perf_counter(),
        )
        stats = self._tenant_stats(tenant)
        # hold the handles from submission so LRU eviction can never
        # pull an operand out from under a queued request
        try:
            if isinstance(x, str):
                req.x_entry = self.registry.acquire(x)
            if isinstance(y, str):
                req.y_entry = self.registry.acquire(y)
            self.scheduler.submit(
                req, tenant=tenant, retry_after=self._retry_after()
            )
        except ServiceOverloadedError:
            stats.note_rejected()
            self._release_entries(req)
            raise
        except BaseException:
            self._release_entries(req)
            raise
        stats.note_submitted()
        return req.pending

    def submit_and_wait(
        self, *args, timeout: Optional[float] = None, **kwargs
    ) -> ServeResponse:
        return self.submit(*args, **kwargs).result(timeout)

    async def submit_async(self, *args, **kwargs) -> ServeResponse:
        """Awaitable submit — the asyncio front over the thread back."""
        import asyncio

        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()

        def _done(pending: PendingResult) -> None:
            exc = pending._exc

            def _resolve() -> None:
                if future.cancelled():
                    return
                if exc is not None:
                    future.set_exception(exc)
                else:
                    future.set_result(pending._value)

            loop.call_soon_threadsafe(_resolve)

        self.submit(*args, **kwargs).add_done_callback(_done)
        return await future

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    @staticmethod
    def _batch_key(req: "_Request"):
        """Requests batch when they share Y, modes and options.

        Only handle-referenced Y operands batch (an inline Y has no
        stable identity), and fault-plan-carrying requests never batch
        — a chaos kill must not take followers down with it.
        """
        if not isinstance(req.y, str) or req.fault_plan is not None:
            return None
        return (
            req.y,
            req.cy,
            req.cx,
            tuple(sorted(req.options.items())),
        )

    def _dispatch_loop(self, slot: _Slot) -> None:
        while True:
            batch = self.scheduler.pop_batch(
                key=self._batch_key,
                max_batch=self.config.max_batch,
                timeout=0.2,
            )
            if not batch:
                if self._closed:
                    return
                continue
            bid = next(self._batch_seq)
            with self._stats_lock:
                self.batches += 1
                self.batched_requests += len(batch)
            plan_decision = self._plan_batch(batch)
            for _, req in batch:
                self._execute(slot, req, bid, plan_decision)

    def _plan_batch(self, batch) -> Optional[object]:
        """One parent-side planner decision per ``plan="auto"`` batch.

        Annotation only (the worker's identical cached decision governs
        execution); skipped when the batch head asks for an explicit
        schedule.
        """
        _, head = batch[0]
        if head.options.get("plan") != "auto":
            return None
        try:
            from repro.planner import plan_contraction

            x = self._resolve_operand(head, head.x, head.x_entry)
            y = self._resolve_operand(head, head.y, head.y_entry)
            decision = plan_contraction(
                x,
                y,
                head.cx,
                head.cy,
                max_workers=head.options.get("max_workers")
                or head.options.get("threads"),
            )
            with self._stats_lock:
                self.planned_batches += 1
            return decision
        except Exception:
            return None  # planning is advisory; never fail a batch

    def _resolve_operand(
        self,
        req: "_Request",
        ref: Union[str, SparseTensor],
        entry: Optional[PinnedOperand],
    ) -> SparseTensor:
        if not isinstance(ref, str):
            return ref
        if entry is not None and entry.view is not None:
            return entry.view
        return self.registry.get(ref)

    def _worker_descriptor(
        self,
        ref: Union[str, SparseTensor],
        entry: Optional[PinnedOperand],
    ) -> tuple:
        if isinstance(ref, str) and entry is not None:
            return entry.worker_ref()
        assert not isinstance(ref, str)
        return ("obj", ref)

    def _execute(
        self, slot: _Slot, req: "_Request", bid: int, decision
    ) -> None:
        t_start = time.perf_counter()
        queue_seconds = t_start - req.arrival
        tracer = req.tracer
        try:
            if slot.worker is None:
                result = self._run_inline(req, tracer)
            else:
                result = self._run_on_worker(slot, req, tracer)
            tensor, profile, service_seconds, retries, degraded = result
            t_end = time.perf_counter()
            if tracer is not None:
                tracer.add_span(
                    "queue_wait",
                    start=req.arrival,
                    end=t_start,
                    cat=CAT_CONTRACTION,
                    tenant=req.tenant,
                )
                if decision is not None:
                    tracer.add_span(
                        "plan",
                        start=t_start,
                        end=t_start,
                        cat=CAT_CONTRACTION,
                        **decision.span_args(),
                    )
                tracer.add_span(
                    "request",
                    start=req.arrival,
                    end=t_end,
                    cat=CAT_CONTRACTION,
                    trace_id=req.trace_id,
                    request_id=req.request_id,
                    tenant=req.tenant,
                    batch_id=bid,
                    slot=slot.index,
                    retries=retries,
                )
            response = ServeResponse(
                request_id=req.request_id,
                trace_id=req.trace_id,
                tenant=req.tenant,
                tensor=tensor,
                profile=profile,
                worker=None
                if slot.worker is None
                else slot.worker.wid,
                batch_id=bid,
                queue_seconds=queue_seconds,
                service_seconds=service_seconds,
                retries=retries,
                degraded=degraded,
                tracer=tracer,
            )
            feed = self.config.traffic_feed
            if feed is not None:
                feed.publish(req.tenant, profile)
            latency = t_end - req.arrival
            self._tenant_stats(req.tenant).note_completed(
                latency_seconds=latency,
                queue_seconds=queue_seconds,
                retries=retries,
                degraded=degraded,
            )
            with self._stats_lock:
                ewma = self._service_ewma
                self._service_ewma = (
                    service_seconds
                    if ewma is None
                    else 0.8 * ewma + 0.2 * service_seconds
                )
            self._release_entries(req)
            req.pending._fulfill(response)
        except BaseException as exc:
            self._tenant_stats(req.tenant).note_failed()
            self._release_entries(req)
            req.pending._fulfill(exc=exc)

    # ------------------------------------------------------------------
    def _run_inline(
        self, req: "_Request", tracer: Optional[Tracer]
    ) -> tuple:
        from repro.core import contract

        x = self._resolve_operand(req, req.x, req.x_entry)
        y = self._resolve_operand(req, req.y, req.y_entry)
        t0 = time.perf_counter()
        res = contract(
            x, y, req.cx, req.cy, tracer=tracer, **req.options
        )
        seconds = time.perf_counter() - t0
        return res.tensor, res.profile, seconds, 0, False

    def _run_on_worker(
        self, slot: _Slot, req: "_Request", tracer: Optional[Tracer]
    ) -> tuple:
        payload = {
            "x": self._worker_descriptor(req.x, req.x_entry),
            "y": self._worker_descriptor(req.y, req.y_entry),
            "cx": req.cx,
            "cy": req.cy,
            "options": req.options,
            "trace": tracer is not None,
            "fault_plan": req.fault_plan,
        }
        out: dict = {}

        def accept(wid, unit, reply):
            out["reply"] = reply

        def serial(unit, arg):
            # recompute in the parent — same contract() call, same
            # bytes; only this request degrades, the pool and other
            # tenants are untouched
            out["serial"] = self._run_inline(req, tracer)

        log = RecoveryLog(tracer=tracer)
        pool = self._pool
        try:
            job = pool.submit("contract", [(0, payload)], [slot.worker])
            pool.wait(job, accept, self._policy, log, serial)
        finally:
            slot.respawns += log.counters.get("ft_respawned_workers", 0)
        retries = log.counters.get("ft_worker_failures", 0)
        if "serial" in out:
            tensor, profile, seconds, _, _ = out["serial"]
            profile.set_flag("serve_degraded", "serial")
            with self._stats_lock:
                self.serial_fallbacks += 1
            return tensor, profile, seconds, retries, True
        reply = out["reply"]
        tensor = SparseTensor(
            reply["indices"],
            reply["values"],
            reply["shape"],
            copy=False,
            validate=False,
        )
        profile = RunProfile.from_json(reply["profile"])
        if tracer is not None:
            tracer.ingest(reply["records"])
        return tensor, profile, reply["seconds"], retries, False

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def fold_metrics(self, registry: MetricsRegistry) -> None:
        """Export service metrics (``serve.*``) into *registry*."""
        with self._stats_lock:
            tenants = dict(self._tenants)
            registry.set("serve.pool.batches", self.batches)
            registry.set(
                "serve.pool.batched_requests", self.batched_requests
            )
            registry.set(
                "serve.pool.serial_fallbacks", self.serial_fallbacks
            )
            registry.set(
                "serve.pool.planned_batches", self.planned_batches
            )
        registry.set("serve.pool.workers", len(self._slots))
        registry.set("serve.pool.execution", self.config.execution)
        registry.set(
            "serve.pool.respawns",
            sum(slot.respawns for slot in self._slots),
        )
        for tenant, stats in tenants.items():
            stats.fold(registry, prefix=f"serve.{tenant}")
            registry.set(
                f"serve.{tenant}.queue_depth",
                self.scheduler.depth(tenant),
            )
        registry.set("serve.queue_depth", self.scheduler.depth())
        for name, value in self.registry.counters().items():
            registry.set(f"serve.registry.{name}", value)

    def metrics(self) -> MetricsRegistry:
        """A fresh registry holding service + process-wide cache stats."""
        registry = MetricsRegistry()
        self.fold_metrics(registry)
        registry.record_caches()
        return registry
