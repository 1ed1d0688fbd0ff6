"""Sparta — Algorithm 2: HtY + HtA with LN-compressed keys.

Y is converted to the hash table HtY (keys = LN(C_Y); values = contiguous
(LN(F_Y), val) group arrays), making stage-2 index search O(1) expected;
the accumulator is HtA, whose keys are taken directly from HtY's stored
LN(F_Y) so no index conversion happens inside the loop. Total complexity
(Eq. 4):

    O(nnz_X log nnz_X + nnz_Y)                    input processing
  + O(2 · nnz_X · nnz_Favg + nnz_Z)               computation
  + O(nnz_Z log nnz_Z)                            output sorting

where nnz_Favg is the average Y sub-tensor size.

By default the larger operand is treated as Y (§3.3, "we always treat the
larger input tensor as Y"), swapping operands and permuting the output
back when X is bigger.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.htycache import HtYCache
from repro.core.looped import Granularity, looped_contract
from repro.core.result import ContractionResult
from repro.obs.tracer import Tracer
from repro.tensor.coo import SparseTensor

ENGINE_NAME = "sparta"


def sparta(
    x: SparseTensor,
    y: SparseTensor,
    cx: Sequence[int],
    cy: Sequence[int],
    *,
    sort_output: bool = True,
    num_buckets: Optional[int] = None,
    accumulator_buckets: Optional[int] = None,
    swap_larger_to_y: bool = False,
    granularity: Granularity = "subtensor",
    x_format: str = "coo",
    hty_cache: Optional[HtYCache] = None,
    codegen: Optional[bool] = None,
    dense_threshold: Optional[float] = None,
    workspace_cap: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> ContractionResult:
    """Contract ``x`` and ``y`` with the full Sparta engine.

    Parameters
    ----------
    swap_larger_to_y:
        Apply the §3.3 rule: if ``x.nnz > y.nnz``, contract with the
        operands exchanged (fewer, cheaper index searches) and permute the
        output back to (Fx, Fy) mode order. Off by default so experiments
        measure exactly the expression they state; the dispatcher enables
        it for the public API.
    hty_cache:
        Optional :class:`~repro.core.htycache.HtYCache`; when the (post-
        swap) Y operand's content fingerprint matches a cached build, the
        O(nnz_Y) COO→HtY conversion is skipped.
    codegen / dense_threshold / workspace_cap:
        Per-signature generated-kernel knobs of the fused path (see
        :func:`repro.core.kernels.fused_compute`); bit-identical either
        way, only wall time changes. ``REPRO_NO_CODEGEN=1`` force-
        disables the generated kernels process-wide.
    """
    return looped_contract(
        x,
        y,
        cx,
        cy,
        engine_name=ENGINE_NAME,
        y_structure="hash",
        accumulator="hash",
        sort_output=sort_output,
        num_buckets=num_buckets,
        accumulator_buckets=accumulator_buckets,
        granularity=granularity,
        x_format=x_format,
        hty_cache=hty_cache,
        codegen=codegen,
        dense_threshold=dense_threshold,
        workspace_cap=workspace_cap,
        tracer=tracer,
        swap_larger_to_y=swap_larger_to_y,
    )
