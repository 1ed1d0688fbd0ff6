"""Schedule enumeration and choice — the planner's decision layer.

:func:`enumerate_plans` spans the discrete schedule space the engines
expose: engine (fused serial / thread / process) and worker count,
stage-1 HtY build strategy (whole vs. partitioned partials), predicted
accumulator (hash vs. dense workspace, using the codegen gate), and the
§3.3 operand-swap mode permutation. :func:`choose_plan` scores every
candidate with the
:class:`~repro.planner.cost_model.CostModel` and returns an
explainable :class:`PlanDecision` — the chosen knobs plus the full
per-candidate cost table.

Swap candidates are scored but *ineligible* by default: swapping X and
Y permutes the operands' Table-2 roles, so a swapped run's traffic
cells differ byte-wise from the unswapped ones. The planner's contract
(pinned by the differential suite) is that ``plan="auto"`` may only
change *which engine runs, never what it computes or charges* — so the
swap column exists for explainability and stays ineligible unless the
caller opts in with ``allow_swap=True``.

Decisions are cached in an :class:`~repro.core.htycache.LRUCache`
beside the HtY/plan/kernel caches, keyed by the statistics fingerprint,
the search context and the calibration digest; stats surface through
``MetricsRegistry.record_caches()`` as ``cache.planner.*``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.core.htycache import CacheStats, LRUCache
from repro.core.kernels import (
    DEFAULT_DENSE_THRESHOLD,
    DEFAULT_WORKSPACE_CAP,
)
from repro.errors import ContractionError
from repro.planner.calibration import CALIBRATION_VERSION
from repro.planner.cost_model import CostEstimate, CostModel
from repro.planner.stats import ContractionStats, contraction_stats

__all__ = [
    "PlanCandidate",
    "ScoredCandidate",
    "PlanDecision",
    "enumerate_plans",
    "choose_plan",
    "plan_contraction",
    "default_planner_cache",
    "planner_cache_stats",
    "predicted_accumulator",
]

ENGINES = ("serial", "thread", "process")

#: default worker-count axis (bounded by ``max_workers``)
_WORKER_STEPS = (2, 4, 8)


@dataclass(frozen=True)
class PlanCandidate:
    """One point of the discrete schedule space."""

    engine: str                 # "serial" | "thread" | "process"
    workers: int = 1
    parallel_stage1: bool = True
    #: accumulation strategy the fused kernel is predicted to use
    accumulator: str = "hash"   # "hash" | "dense"
    #: §3.3 operand swap (mode permutation of the free/contract split)
    swap: bool = False

    @property
    def label(self) -> str:
        parts = [self.engine]
        if self.engine != "serial":
            parts.append(f"x{self.workers}")
            if not self.parallel_stage1:
                parts.append("serial-s1")
        if self.accumulator != "hash":
            parts.append(self.accumulator)
        if self.swap:
            parts.append("swap")
        return "+".join(parts)

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "workers": self.workers,
            "parallel_stage1": self.parallel_stage1,
            "accumulator": self.accumulator,
            "swap": self.swap,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "PlanCandidate":
        return cls(
            engine=str(d["engine"]),
            workers=int(d["workers"]),
            parallel_stage1=bool(d["parallel_stage1"]),
            accumulator=str(d["accumulator"]),
            swap=bool(d["swap"]),
        )


@dataclass(frozen=True)
class ScoredCandidate:
    """One table row: a candidate, its predicted cost, its eligibility."""

    candidate: PlanCandidate
    seconds: float
    eligible: bool
    #: why the candidate cannot be chosen ("" when eligible)
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "candidate": self.candidate.to_dict(),
            "seconds": self.seconds,
            "eligible": self.eligible,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "ScoredCandidate":
        return cls(
            candidate=PlanCandidate.from_dict(d["candidate"]),
            seconds=float(d["seconds"]),
            eligible=bool(d["eligible"]),
            reason=str(d.get("reason", "")),
        )


@dataclass(frozen=True)
class PlanDecision:
    """The chosen schedule plus the full scored candidate table."""

    chosen: PlanCandidate
    seconds: float
    table: Tuple[ScoredCandidate, ...]
    stats: ContractionStats
    model_version: int = CALIBRATION_VERSION
    #: whether this decision came from the process-wide LRU
    cached: bool = False

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Lossless plain-JSON form (golden-snapshot format)."""
        return {
            "chosen": self.chosen.to_dict(),
            "seconds": self.seconds,
            "table": [row.to_dict() for row in self.table],
            "stats": self.stats.to_dict(),
            "model_version": self.model_version,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "PlanDecision":
        return cls(
            chosen=PlanCandidate.from_dict(d["chosen"]),
            seconds=float(d["seconds"]),
            table=tuple(
                ScoredCandidate.from_dict(row) for row in d["table"]
            ),
            stats=ContractionStats.from_dict(d["stats"]),
            model_version=int(d["model_version"]),
        )

    def span_args(self) -> dict:
        """Compact decision summary for the tracer's ``plan`` span."""
        return {
            "engine": self.chosen.engine,
            "workers": self.chosen.workers,
            "accumulator": self.chosen.accumulator,
            "est_seconds": round(self.seconds, 9),
            "candidates": len(self.table),
            "cached": self.cached,
            "model_version": self.model_version,
        }

    def explain(self) -> str:
        """Human-readable cost table (``ttt --explain-plan`` output)."""
        lines = [
            f"planner decision (model v{self.model_version}, "
            f"{'cache hit' if self.cached else 'fresh'}):",
            f"  stats: nnz_x={self.stats.nnz_x} nnz_y={self.stats.nnz_y} "
            f"groups={self.stats.groups} "
            f"est_products={self.stats.est_products} "
            f"est_created={self.stats.est_created}",
            f"  {'candidate':24s} {'est seconds':>12s}  verdict",
        ]
        for row in self.table:
            mark = "chosen" if row.candidate == self.chosen else (
                "" if row.eligible else f"ineligible: {row.reason}"
            )
            lines.append(
                f"  {row.candidate.label:24s} {row.seconds:12.6f}  {mark}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------
def predicted_accumulator(stats: ContractionStats) -> str:
    """Which accumulation strategy codegen's gate would pick.

    Mirrors the generated kernel's dense-workspace condition
    (``wspace <= workspace_cap and n >= dense_threshold * wspace``) on
    the estimated per-chunk product count, and respects the
    ``REPRO_NO_CODEGEN`` kill-switch (the generic path is hash-only).
    """
    from repro.core.codegen import codegen_enabled

    if not codegen_enabled():
        return "hash"
    wspace = stats.fy_capacity
    if 0 < wspace <= DEFAULT_WORKSPACE_CAP and (
        stats.est_products >= DEFAULT_DENSE_THRESHOLD * wspace
    ):
        return "dense"
    return "hash"


def enumerate_plans(
    stats: ContractionStats,
    *,
    max_workers: Optional[int] = None,
) -> List[PlanCandidate]:
    """The candidate schedules scored for one contraction signature.

    Serial fused (with the codegen-predicted accumulator), its swapped
    mode permutation, and thread/process engines over a small
    worker-count ladder bounded by *max_workers* (default: CPU count).
    Deterministic order — ties in :func:`choose_plan` resolve to the
    earliest candidate, and serial comes first.
    """
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    max_workers = max(int(max_workers), 1)
    acc = predicted_accumulator(stats)
    cands = [
        PlanCandidate(engine="serial", workers=1, accumulator=acc),
        PlanCandidate(
            engine="serial", workers=1, accumulator=acc, swap=True
        ),
    ]
    ladder = sorted(
        {w for w in (*_WORKER_STEPS, max_workers) if 2 <= w <= max_workers}
    )
    for engine in ("thread", "process"):
        for w in ladder:
            cands.append(
                PlanCandidate(
                    engine=engine,
                    workers=w,
                    parallel_stage1=True,
                    accumulator=acc,
                )
            )
    return cands


def _eligibility(candidate: PlanCandidate) -> Tuple[bool, str]:
    """Whether *candidate* may be chosen, and why not if not."""
    if candidate.swap:
        return False, "swap changes Table-2 operand roles"
    return True, ""


# ----------------------------------------------------------------------
# choice + decision cache
# ----------------------------------------------------------------------
_PLANNER_CACHE = LRUCache(maxsize=256)


def default_planner_cache() -> LRUCache:
    """The shared process-wide decision cache."""
    return _PLANNER_CACHE


def planner_cache_stats() -> CacheStats:
    """Statistics of the shared decision cache."""
    return _PLANNER_CACHE.stats


#: sentinel distinguishing "missing" from a cached falsy value
_MISSING = object()


def choose_plan(
    stats: ContractionStats,
    *,
    model: Optional[CostModel] = None,
    max_workers: Optional[int] = None,
    sort_output: bool = True,
    cache: Optional[LRUCache] = _PLANNER_CACHE,
) -> PlanDecision:
    """Score the schedule space for *stats* and pick the cheapest.

    Every candidate from :func:`enumerate_plans` is costed with the
    model; the cheapest *eligible* one wins (ties resolve to the
    earliest, so serial beats an equal-cost parallel run). The full
    scored table rides on the returned decision for explainability.
    Pass ``cache=None`` to bypass the process-wide decision LRU.
    """
    if model is None:
        model = CostModel()
    key = None
    if cache is not None:
        key = (
            stats.fingerprint(),
            None if max_workers is None else int(max_workers),
            bool(sort_output),
            model.calibration.digest(),
        )
        hit = cache.get(key, _MISSING)
        if hit is not _MISSING:
            return hit
    table: List[ScoredCandidate] = []
    best: Optional[ScoredCandidate] = None
    for cand in enumerate_plans(stats, max_workers=max_workers):
        est: CostEstimate = model.estimate(
            stats,
            engine=cand.engine,
            workers=cand.workers,
            parallel_stage1=cand.parallel_stage1,
            accumulator=cand.accumulator,
            sort_output=sort_output,
        )
        eligible, reason = _eligibility(cand)
        row = ScoredCandidate(
            candidate=cand,
            seconds=est.seconds,
            eligible=eligible,
            reason=reason,
        )
        table.append(row)
        if eligible and (best is None or row.seconds < best.seconds):
            best = row
    if best is None:  # pragma: no cover - serial is always eligible
        raise ContractionError("no eligible schedule candidate")
    decision = PlanDecision(
        chosen=best.candidate,
        seconds=best.seconds,
        table=tuple(table),
        stats=stats,
        model_version=model.calibration.version,
    )
    if cache is not None:
        # store the hit-marked variant up front so cache hits are a
        # bare lookup on the planner's hot path
        cache.put(key, replace(decision, cached=True))
    return decision


def plan_contraction(
    x,
    y,
    cx: Sequence[int],
    cy: Sequence[int],
    *,
    model: Optional[CostModel] = None,
    max_workers: Optional[int] = None,
    sort_output: bool = True,
    exact: bool = False,
) -> PlanDecision:
    """Statistics + choice in one call, from live operands."""
    from repro.core.htycache import cached_plan

    plan = cached_plan(x, y, cx, cy)
    stats = contraction_stats(x, y, plan, exact=exact)
    return choose_plan(
        stats,
        model=model,
        max_workers=max_workers,
        sort_output=sort_output,
    )
