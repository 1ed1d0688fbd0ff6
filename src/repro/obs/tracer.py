"""Span tracing for SpTC runs — the timeline half of :mod:`repro.obs`.

A :class:`Tracer` records what one run *did* as a set of timed spans
(contraction → stage → worker chunk) and instant events (claims,
faults, respawns), on a shared monotonic clock. Every engine accepts
``tracer=``; the parallel backends additionally ship worker-side span
records back to the parent over the existing result pipes, so parent
and worker activity land on one timeline.

Clock model: records store raw :func:`time.perf_counter` values. On
Linux ``perf_counter`` is ``CLOCK_MONOTONIC``, which is system-wide,
so spans recorded in worker *processes* are directly comparable with
the parent's; export normalizes everything against the tracer's origin
timestamp. Track ids (``tid``) separate the actors: the parent is tid
0, worker *w* is tid ``w + 1``.

Tracing must never perturb a run it is not watching: the module-level
:data:`NULL_TRACER` (an instance of :class:`NullTracer`) implements
the whole API as no-ops, engines treat ``tracer=None`` as "use the
null tracer", and ``benchmarks/bench_obs.py`` gates the disabled-path
overhead at <2% and the profile at byte-identical.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

__all__ = ["NULL_TRACER", "NullTracer", "Span", "TraceRecord", "Tracer"]

#: category names used by the engines (free-form; these are conventions)
CAT_CONTRACTION = "contraction"
CAT_STAGE = "stage"
CAT_WORKER = "worker"
CAT_FAULT = "fault"
CAT_RECOVERY = "recovery"
CAT_SPILL = "spill"


@dataclass
class TraceRecord:
    """One timeline entry: a span (``dur is not None``) or an instant.

    ``ts``/``dur`` are seconds on the tracer's clock (raw
    ``perf_counter`` values; the exporter rebases them). Picklable, so
    worker processes ship lists of these over their result pipes.
    """

    name: str
    cat: str
    tid: int
    ts: float
    dur: Optional[float] = None
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def end(self) -> float:
        """End timestamp (== ``ts`` for instant events)."""
        return self.ts + (self.dur or 0.0)


class Span:
    """Mutable handle yielded by :meth:`Tracer.span` — add args mid-span."""

    __slots__ = ("record",)

    def __init__(self, record: TraceRecord) -> None:
        self.record = record

    def set(self, **args: object) -> None:
        """Attach key/value annotations to the span."""
        self.record.args.update(args)


class Tracer:
    """Collects :class:`TraceRecord` entries for one run.

    ``default_tid`` labels records that do not name a track explicitly
    (worker-side tracers are constructed with their worker's tid so
    every record they emit lands on that worker's row).
    """

    enabled = True

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.perf_counter,
        default_tid: int = 0,
    ) -> None:
        self.clock = clock
        self.default_tid = int(default_tid)
        self.records: List[TraceRecord] = []
        #: origin timestamp spans are rebased against at export time
        self.t0 = clock()

    # ------------------------------------------------------------------
    @contextmanager
    def span(
        self,
        name: str,
        *,
        cat: str = CAT_STAGE,
        tid: Optional[int] = None,
        **args: object,
    ):
        """Record a timed span around the enclosed block.

        The span is appended on exit (even if the block raises, so a
        failed chunk still shows its duration); nesting is implied by
        timestamp containment within one tid, not by explicit ids.
        """
        record = TraceRecord(
            name=name,
            cat=cat,
            tid=self.default_tid if tid is None else int(tid),
            ts=self.clock(),
            args=dict(args),
        )
        try:
            yield Span(record)
        finally:
            record.dur = self.clock() - record.ts
            self.records.append(record)

    def add_span(
        self,
        name: str,
        *,
        start: float,
        end: float,
        cat: str = CAT_STAGE,
        tid: Optional[int] = None,
        **args: object,
    ) -> None:
        """Record a span from already-measured timestamps.

        Used where a stage's time is known but its execution was
        interleaved (the fused kernel alternates search and
        accumulation chunk-by-chunk) — the engines lay such spans out
        back-to-back over the measured window.
        """
        self.records.append(
            TraceRecord(
                name=name,
                cat=cat,
                tid=self.default_tid if tid is None else int(tid),
                ts=float(start),
                dur=max(float(end) - float(start), 0.0),
                args=dict(args),
            )
        )

    def instant(
        self,
        name: str,
        *,
        cat: str = CAT_RECOVERY,
        tid: Optional[int] = None,
        **args: object,
    ) -> None:
        """Record a zero-duration event (claim, fault, respawn, ...)."""
        self.records.append(
            TraceRecord(
                name=name,
                cat=cat,
                tid=self.default_tid if tid is None else int(tid),
                ts=self.clock(),
                args=dict(args),
            )
        )

    # ------------------------------------------------------------------
    def drain(self) -> List[TraceRecord]:
        """Detach and return everything recorded so far.

        Worker loops call this after each unit so every result message
        carries only the records produced since the previous one.
        """
        out, self.records = self.records, []
        return out

    def ingest(self, records: Iterable[TraceRecord]) -> None:
        """Fold records shipped from another tracer (worker) in."""
        self.records.extend(records)

    # ------------------------------------------------------------------
    def spans(self) -> List[TraceRecord]:
        """Span records only, ordered by start time."""
        return sorted(
            (r for r in self.records if r.dur is not None),
            key=lambda r: (r.ts, -(r.dur or 0.0)),
        )

    def events(self) -> List[TraceRecord]:
        """Instant records only, ordered by timestamp."""
        return sorted(
            (r for r in self.records if r.dur is None),
            key=lambda r: r.ts,
        )

    def find(self, name: str) -> List[TraceRecord]:
        """All records with the given name (spans and instants)."""
        return [r for r in self.records if r.name == name]

    # ------------------------------------------------------------------
    # exports live in repro.obs.export; thin forwarding keeps call
    # sites short (tracer.write(path), tracer.summary()).
    def to_chrome(self) -> dict:
        """Chrome trace-event JSON object (Perfetto-loadable)."""
        from repro.obs.export import to_chrome_trace

        return to_chrome_trace(self)

    def write(self, path) -> None:
        """Write the Chrome trace-event JSON to *path*."""
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(self, path)

    def summary(self) -> str:
        """Human-readable span tree (one line per span, indented)."""
        from repro.obs.export import format_span_tree

        return format_span_tree(self)


class _NullSpan:
    """Reusable no-op context manager; also a no-op :class:`Span`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """Disabled tracer: every method is a constant-time no-op.

    Engines substitute this for ``tracer=None`` so tracing calls need
    no conditionals; the run's :class:`~repro.core.profile.RunProfile`
    is untouched either way.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(clock=lambda: 0.0)

    def span(self, name, **kwargs):  # type: ignore[override]
        return _NULL_SPAN

    def add_span(self, name, **kwargs) -> None:  # type: ignore[override]
        pass

    def instant(self, name, **kwargs) -> None:  # type: ignore[override]
        pass

    def ingest(self, records) -> None:  # type: ignore[override]
        pass


#: process-wide disabled tracer; safe to share (it never mutates)
NULL_TRACER = NullTracer()
