"""Public contraction API.

``contract(x, y, cx, cy)`` runs the requested engine and returns a
:class:`~repro.core.result.ContractionResult`. Engine names:

========== =============================================================
``sparta``      HtY + HtA, the paper's contribution (default)
``coo_hta``     sorted-COO Y + HtA (Figure 4's middle bar)
``spa``         sorted-COO Y + SPA, Algorithm 1 baseline
``vectorized``  NumPy group-merge engine (fast path for large inputs)
``dense``       ``tensordot`` reference (small inputs only)
``parallel``    multi-worker Sparta (§3.5): ``threads=N`` workers on
                ``backend="thread"`` or ``"process"`` (shared-memory
                worker processes; measures real multi-core scaling)
========== =============================================================
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.core.dense_ref import dense_contract
from repro.core.htycache import default_hty_cache
from repro.core.result import ContractionResult
from repro.core.sparta import sparta
from repro.core.sptc_hta import sptc_coo_hta
from repro.core.sptc_spa import sptc_spa
from repro.core.vectorized import vectorized_contract
from repro.errors import ContractionError
from repro.obs.tracer import CAT_CONTRACTION, Tracer
from repro.tensor.coo import SparseTensor

def _parallel_engine(
    x: SparseTensor,
    y: SparseTensor,
    cx: Sequence[int],
    cy: Sequence[int],
    *,
    sort_output: bool = True,
    **kwargs,
) -> ContractionResult:
    """Engine adapter for :func:`repro.parallel.parallel_sparta`.

    Imported lazily to keep the parallel layer optional at import time;
    per-worker statistics remain available through the profile counters
    (use :func:`repro.parallel.parallel_sparta` directly for the full
    :class:`~repro.parallel.ParallelResult`).
    """
    from repro.parallel.executor import parallel_sparta

    return parallel_sparta(
        x, y, cx, cy, sort_output=sort_output, **kwargs
    ).result


_ENGINES: Dict[str, Callable[..., ContractionResult]] = {
    "sparta": sparta,
    "coo_hta": sptc_coo_hta,
    "spa": sptc_spa,
    "vectorized": vectorized_contract,
    "dense": dense_contract,
    "parallel": _parallel_engine,
}

#: engines whose implementations accept ``tracer=`` and emit stage spans;
#: the rest get a single root span from the dispatcher instead.
_TRACED_ENGINES = frozenset({"sparta", "coo_hta", "spa", "parallel"})


def engines() -> tuple[str, ...]:
    """Names accepted by :func:`contract`'s ``method`` argument."""
    return tuple(_ENGINES)


def _contract_auto(
    x: SparseTensor,
    y: SparseTensor,
    cx: Sequence[int],
    cy: Sequence[int],
    *,
    method: str,
    sort_output: bool,
    use_hty_cache: bool,
    tracer: Optional[Tracer],
    memory_budget=None,
    spill_root: Optional[str] = None,
    **kwargs,
) -> ContractionResult:
    """``plan="auto"``: cost-model schedule choice, then dispatch.

    The planner (:mod:`repro.planner`) picks the engine (fused serial /
    thread / process), worker count and stage strategies from O(1)
    operand statistics. It may only change *which* engine runs — output
    and Table-2 traffic stay byte-identical to the explicit-knob
    configurations (the swap mode permutation is scored but never
    chosen; see :func:`repro.planner.enumerate_plans`). The decision is
    recorded as a ``plan`` span on the tracer,
    ``flags["planner"] = "auto:<engine>"`` and the
    ``planner_est_products``/``planner_candidates`` counters.
    """
    import time

    from repro.planner import plan_contraction

    if method not in ("sparta", "parallel"):
        raise ContractionError(
            f'plan="auto" plans the sparta-family schedule space; '
            f"method {method!r} is an explicit engine choice — drop "
            "plan= or use method='sparta'"
        )
    max_workers = kwargs.pop("max_workers", None)
    threads = kwargs.pop("threads", None)
    if threads is not None:
        max_workers = (
            int(threads) if max_workers is None
            else min(int(threads), int(max_workers))
        )
    t0 = time.perf_counter()
    decision = plan_contraction(
        x, y, cx, cy, max_workers=max_workers, sort_output=sort_output
    )
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.add_span(
            "plan", start=t0, end=t1, cat=CAT_CONTRACTION,
            **decision.span_args(),
        )
    if use_hty_cache:
        kwargs.setdefault("hty_cache", default_hty_cache())
    chosen = decision.chosen
    if chosen.engine == "serial":
        if memory_budget is not None:
            from repro.ooc.engine import ooc_contract

            res = ooc_contract(
                x, y, cx, cy,
                memory_budget=memory_budget,
                spill_root=spill_root,
                sort_output=sort_output,
                swap_larger_to_y=False,
                tracer=tracer,
                **kwargs,
            )
        else:
            res = sparta(
                x, y, cx, cy,
                sort_output=sort_output,
                swap_larger_to_y=False,
                tracer=tracer,
                **kwargs,
            )
    else:
        from repro.parallel.executor import parallel_sparta

        res = parallel_sparta(
            x, y, cx, cy,
            threads=chosen.workers,
            backend=chosen.engine,
            parallel_stage1=chosen.parallel_stage1,
            merge_output=chosen.merge_output,
            sort_output=sort_output,
            tracer=tracer,
            memory_budget=memory_budget,
            spill_root=spill_root,
            **kwargs,
        ).result
    res.profile.set_flag("planner", f"auto:{chosen.engine}")
    res.profile.counters["planner_est_products"] = (
        decision.stats.est_products
    )
    res.profile.counters["planner_candidates"] = len(decision.table)
    res.profile.counters["planner_workers"] = chosen.workers
    return res


def contract(
    x: SparseTensor,
    y: SparseTensor,
    cx: Sequence[int],
    cy: Sequence[int],
    *,
    method: str = "sparta",
    plan: Optional[str] = None,
    sort_output: bool = True,
    use_hty_cache: bool = False,
    tracer: Optional[Tracer] = None,
    memory_budget=None,
    spill_root: Optional[str] = None,
    **kwargs,
) -> ContractionResult:
    """Compute ``Z = X ×_{cx}^{cy} Y`` (paper Eq. 1).

    Parameters
    ----------
    x, y:
        Input sparse tensors.
    cx, cy:
        Contract modes, paired by position; ``x.shape[cx[i]]`` must equal
        ``y.shape[cy[i]]``.
    method:
        Engine name (see module docstring).
    plan:
        ``"auto"`` lets the cost-model planner (:mod:`repro.planner`)
        pick the schedule — engine (fused serial / thread / process),
        worker count (bounded by a ``max_workers=`` or ``threads=``
        keyword, default CPU count), stage-1/5 strategies — from O(1)
        operand statistics. Sparta-family methods only; output and
        Table-2 traffic are byte-identical to the explicit
        configurations. ``None``/``"off"`` (default) runs *method*
        exactly as given.
    sort_output:
        Run stage 5 (lexicographic sort of Z). The paper sorts by default
        "to get a thorough understanding of all stages".
    use_hty_cache:
        Reuse HtY builds across calls through the process-wide
        :func:`~repro.core.htycache.default_hty_cache` (sparta-family
        engines only). A
        hit requires a byte-identical Y, the same contract modes and the
        same bucket count, so results never change. Pass an explicit
        ``hty_cache=`` keyword instead for a private cache.
    tracer:
        Optional :class:`~repro.obs.Tracer`. The sparta-family and
        parallel engines emit their five stage spans (plus per-worker
        timelines for ``parallel``); the ``vectorized``/``dense``
        references get one root span, and ``plan="auto"`` prepends a
        ``plan`` span carrying the decision. ``None`` (the default)
        records nothing and adds no overhead.
    memory_budget:
        Hard cap on live contraction allocations — an int (bytes), a
        string like ``"512M"`` (see :func:`repro.ooc.parse_budget`) or a
        shared :class:`~repro.ooc.MemoryBudget`. When the planner's peak
        estimate exceeds the cap, execution goes out-of-core: fused
        chunks spill to mmap-readable run files and stage 5 becomes a
        streaming merge over them (:mod:`repro.ooc`). Results and
        Table-2 traffic stay byte-identical either way. Sparta-family
        methods only; combines with the HtY cache, whose HtY is then
        charged to the budget. ``None`` (default) never spills.
    spill_root:
        Directory for the run files of a spilling contraction (default
        the system temp dir). Created per run, removed on completion.
    kwargs:
        Engine-specific options (e.g. ``num_buckets`` for sparta,
        ``chunk_pairs`` for vectorized).
    """
    if plan not in (None, "off", "auto"):
        raise ContractionError(
            f"unknown plan {plan!r}; choose 'auto', 'off' or None"
        )
    if plan == "auto":
        return _contract_auto(
            x, y, cx, cy,
            method=method,
            sort_output=sort_output,
            use_hty_cache=use_hty_cache,
            tracer=tracer,
            memory_budget=memory_budget,
            spill_root=spill_root,
            **kwargs,
        )
    try:
        engine = _ENGINES[method]
    except KeyError:
        raise ContractionError(
            f"unknown method {method!r}; choose from {sorted(_ENGINES)}"
        ) from None
    if method not in ("sparta", "parallel"):
        if memory_budget is not None or use_hty_cache:
            what = ("memory_budget" if memory_budget is not None
                    else "use_hty_cache")
            raise ContractionError(
                f"{what} is only supported by the sparta-family "
                f"engines ('sparta', 'parallel'), not {method!r}"
            )
    elif use_hty_cache:
        kwargs.setdefault("hty_cache", default_hty_cache())
    if method == "sparta":
        kwargs.setdefault("swap_larger_to_y", True)
        if memory_budget is not None:
            from repro.ooc.engine import ooc_contract

            return ooc_contract(
                x, y, cx, cy,
                memory_budget=memory_budget,
                spill_root=spill_root,
                sort_output=sort_output,
                tracer=tracer,
                **kwargs,
            )
    elif memory_budget is not None:
        kwargs["memory_budget"] = memory_budget
        kwargs["spill_root"] = spill_root
    if tracer is not None:
        if method in _TRACED_ENGINES:
            kwargs["tracer"] = tracer
        else:
            with tracer.span(method, cat=CAT_CONTRACTION, engine=method):
                return engine(
                    x, y, cx, cy, sort_output=sort_output, **kwargs
                )
    return engine(x, y, cx, cy, sort_output=sort_output, **kwargs)
