"""Spill-aware planning: in-core vs. out-of-core and run sizing.

The out-of-core engine asks one question before stage 1: *would the
in-core pipeline's live working set fit the user's budget?* If yes,
spilling would only add disk traffic — run in core (this is what keeps
budgeted execution within the wall-time gate when the working set
fits). If no, size the pipeline's partitions from the budget:

* Y spans: the stage-1 partial builds are spilled per span, so a span's
  grouped arrays must fit a share of the budget;
* fused chunks: stages 3-4 bound their in-flight product temporaries by
  ``chunk_pairs`` (the same knob the kernels already have), sized so a
  chunk's gather/sort working set fits a share of the budget;
* the blocks of Z rows the spill sink writes are bounded separately
  by :data:`repro.ooc.engine.DEFAULT_BLOCK_ROWS`.

Everything derives from the planner's O(1)
:class:`~repro.planner.stats.ContractionStats` plus the §4.2 size
estimators — no operand pass is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.kernels import DEFAULT_CHUNK_PAIRS
from repro.hashtable.chaining import default_num_buckets
from repro.memory.estimate import hty_size
from repro.planner.stats import ContractionStats

__all__ = ["OocDecision", "plan_ooc"]

#: bytes of in-flight temporaries per materialized partial product in a
#: fused chunk (value, fy key, segment id, lexsort permutation, ~6 x 8 B)
_BYTES_PER_PRODUCT = 48

#: bytes per grouped Y non-zero in a stage-1 partial (free_ln + value +
#: group key/ptr amortized)
_BYTES_PER_Y_ROW = 32

#: bytes per Y non-zero of the merged HtY's demoted payload
#: (free_ln + value)
_BYTES_PER_Y_PAYLOAD = 16

#: spill throughput assumed for cost estimates (page-cache-buffered
#: sequential writes; deliberately conservative)
_SPILL_BYTES_PER_SEC = 500e6

_MIN_CHUNK_PAIRS = 1 << 16


@dataclass(frozen=True)
class OocDecision:
    """How (and whether) one contraction should execute out of core."""

    out_of_core: bool
    est_in_core_peak_bytes: int
    budget_bytes: int
    num_y_spans: int
    num_chunks: int
    chunk_pairs: int
    est_spill_bytes: int
    est_spill_seconds: float
    reason: str

    def counters(self) -> dict:
        """Profile-counter snapshot of the decision."""
        return {
            "ooc_plan_out_of_core": int(self.out_of_core),
            "ooc_plan_est_peak_bytes": int(self.est_in_core_peak_bytes),
            "ooc_plan_num_y_spans": int(self.num_y_spans),
            "ooc_plan_num_chunks": int(self.num_chunks),
            "ooc_plan_chunk_pairs": int(self.chunk_pairs),
        }


def estimate_in_core_peak(
    stats: ContractionStats, *, workers: int = 1
) -> int:
    """Rough peak live bytes of the in-core fused pipeline.

    Prepared X + HtY (Eq. 5) + the pre-sort fused output and its sorted
    copy + one chunk's product temporaries per worker. An estimate for
    *routing*, not accounting — the measured peak lands in the
    ``ooc_budget_peak_bytes`` counter.
    """
    order_x = len(stats.x_shape)
    order_y = len(stats.y_shape)
    px_bytes = stats.nnz_x * (8 * order_x + 16)
    hty_bytes = hty_size(
        max(stats.nnz_y, 1),
        max(order_y, 1),
        default_num_buckets(max(stats.nnz_y, 1)),
    )
    out_order = stats.nfx + stats.nfy
    created = stats.est_created
    # fused triple + assembled COO + sort working copy
    z_bytes = created * (24 + 2 * (8 * out_order + 8))
    chunk_bytes = (
        min(stats.est_products, DEFAULT_CHUNK_PAIRS)
        * _BYTES_PER_PRODUCT
        * max(int(workers), 1)
    )
    return int(px_bytes + hty_bytes + z_bytes + chunk_bytes)


def plan_ooc(
    stats: ContractionStats,
    budget_bytes: int,
    *,
    workers: int = 1,
    force_spill: bool = False,
) -> OocDecision:
    """Decide in-core vs. spill and size the spill partitions."""
    budget = int(budget_bytes)
    est_peak = estimate_in_core_peak(stats, workers=workers)
    out_of_core = bool(force_spill) or est_peak > budget

    # Partition sizing: give stages 3-4's product temporaries a quarter
    # of the budget (per worker), stage 1's partials another quarter.
    workers = max(int(workers), 1)
    chunk_budget = max(budget // 4 // workers, 1)
    chunk_pairs = min(
        max(chunk_budget // _BYTES_PER_PRODUCT, _MIN_CHUNK_PAIRS),
        DEFAULT_CHUNK_PAIRS,
    )
    num_chunks = max(
        math.ceil(max(stats.est_products, 1) / chunk_pairs), 1
    )
    span_budget = max(budget // 4, 1)
    num_y_spans = max(
        math.ceil(stats.nnz_y * _BYTES_PER_Y_ROW / span_budget), 1
    )

    # Spilled: Z's index rows and values, Y's partials and the demoted
    # HtY payload.
    out_order = stats.nfx + stats.nfy
    est_spill = int(
        stats.est_created * (8 * out_order + 8)
        + stats.nnz_y * (_BYTES_PER_Y_ROW + _BYTES_PER_Y_PAYLOAD)
        if out_of_core
        else 0
    )
    if force_spill:
        reason = "forced"
    elif out_of_core:
        reason = (
            f"estimated peak {est_peak} B exceeds budget {budget} B"
        )
    else:
        reason = f"working set {est_peak} B fits budget {budget} B"
    return OocDecision(
        out_of_core=out_of_core,
        est_in_core_peak_bytes=est_peak,
        budget_bytes=budget,
        num_y_spans=num_y_spans,
        num_chunks=num_chunks,
        chunk_pairs=int(chunk_pairs),
        est_spill_bytes=est_spill,
        est_spill_seconds=est_spill / _SPILL_BYTES_PER_SEC,
        reason=reason,
    )
