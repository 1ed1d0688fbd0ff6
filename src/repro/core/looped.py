"""The five-stage looped SpTC driver behind the three paper engines.

Algorithm 1 (SpTC-SPA) and Algorithm 2 (Sparta) share their loop nest; the
engines differ only in

* how Y is searched — linear scan over sorted COO vs. HtY hash lookup;
* how partial products accumulate — SPA linear search vs. HtA hashing.

This module implements the common driver once, parameterised on those two
choices, and charges per-stage time, operation counts and Table-2 traffic.
The default ``"subtensor"`` granularity executes stages 2-4 through the
fused flat-batch kernel (:mod:`repro.core.kernels`); ``"subtensor_loop"``
keeps the historical one-Python-iteration-per-sub-tensor driver for
comparison, and ``"element"`` is the per-non-zero semantic reference.
"""

from __future__ import annotations

import time
from typing import Literal, Optional, Sequence

import numpy as np

from repro.core.common import (
    LocalOutput,
    _sort_passes,
    assemble_output,
    coo_row_bytes,
    expand_ranges,
    prepare_x,
    prepare_y_sorted,
)
from repro.core.htycache import HtYCache, cached_plan
from repro.core.kernels import (
    HTA_CACHE_HIT,
    assemble_fused,
    fused_compute,
    hta_model_nbytes,
    pairs_ascending,
    record_computation_traffic,
    record_hty_build,
)
from repro.core.profile import (
    AccessKind,
    AccessPattern,
    DataObject,
    RunProfile,
)
from repro.core.result import ContractionResult
from repro.core.stages import Stage
from repro.errors import ContractionError
from repro.obs.tracer import CAT_CONTRACTION, NULL_TRACER, Tracer
from repro.hashtable.accumulator import HashAccumulator
from repro.hashtable.spa import SparseAccumulator
from repro.hashtable.tensor_table import HashTensor
from repro.tensor.coo import SparseTensor

YStructure = Literal["coo", "coo_bsearch", "hash"]
AccumulatorKind = Literal["spa", "hash"]
Granularity = Literal["element", "subtensor", "subtensor_loop"]

__all__ = ["looped_contract", "HTA_CACHE_HIT"]


def looped_contract(
    x: SparseTensor,
    y: SparseTensor,
    cx: Sequence[int],
    cy: Sequence[int],
    *,
    engine_name: str,
    y_structure: YStructure,
    accumulator: AccumulatorKind,
    sort_output: bool = True,
    num_buckets: Optional[int] = None,
    accumulator_buckets: Optional[int] = None,
    granularity: Granularity = "subtensor",
    x_format: str = "coo",
    hty_cache: Optional[HtYCache] = None,
    codegen: Optional[bool] = None,
    dense_threshold: Optional[float] = None,
    workspace_cap: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> ContractionResult:
    """Run one SpTC through the shared five-stage loop nest.

    ``granularity`` chooses how the inner stages are driven:

    * ``"element"`` — one Python iteration per X non-zero, exactly
      Algorithm 1/2's loop nest (used by semantics tests);
    * ``"subtensor"`` — the fused flat-batch kernel: one batched search
      over every contract key and one segmented accumulation over every
      partial product (the measurement path; the paper's C loops run at
      this cost level). Output is identical to ``"element"``;
    * ``"subtensor_loop"`` — the historical one-batched-step-per-sub-
      tensor Python loop, kept for fused-vs-loop benchmarking.

    ``hty_cache`` (hash engines only) reuses a previously built HtY when
    Y, the contract modes and ``num_buckets`` all match a cached entry —
    the hit skips the O(nnz_Y) build and its input-processing traffic,
    and is counted in the ``hty_cache_hits``/``hty_cache_misses``
    profile counters.

    ``codegen``/``dense_threshold``/``workspace_cap`` control the
    per-signature generated kernels of the fused path (see
    :func:`repro.core.kernels.fused_compute`); they never change
    results, only wall time.

    The fused path with the hash accumulator emits Z already in sorted
    order. Stage 5 checks that order and, when it holds, skips the sort
    and sets ``flags["output_sorting"] = "presorted"``. The sort's
    Table-2 traffic is charged either way.
    """
    if granularity not in ("element", "subtensor", "subtensor_loop"):
        raise ContractionError(
            f"unknown granularity {granularity!r}; choose 'element', "
            "'subtensor' or 'subtensor_loop'"
        )
    plan = cached_plan(x, y, cx, cy)
    profile = RunProfile(engine_name)
    clock = time.perf_counter
    tr = NULL_TRACER if tracer is None else tracer
    t_root = clock()

    # ---------------- stage 1: input processing ----------------------
    t0 = clock()
    px = prepare_x(x, plan, profile, x_format=x_format)
    hty_probes0 = 0
    if y_structure in ("coo", "coo_bsearch"):
        sy = prepare_y_sorted(y, plan, profile)
        hty = None
    else:
        if hty_cache is not None:
            hty, hit = hty_cache.get_or_build(
                y, plan.cy, num_buckets=num_buckets
            )
            if not hit:
                profile.bump("hty_cache_misses")
        else:
            hty, hit = (
                HashTensor.from_coo(y, plan.cy, num_buckets=num_buckets),
                False,
            )
        sy = None
        record_hty_build(y, hty, profile, cached=hit)
        # A cached HtY arrives with probe counts from earlier runs;
        # charge only this contraction's chain walks.
        hty_probes0 = hty.table.probes
    t1 = clock()
    profile.add_time(Stage.INPUT_PROCESSING, t1 - t0)
    tr.add_span(Stage.INPUT_PROCESSING.value, start=t0, end=t1)

    profile.bump("num_subtensors", px.num_subtensors)

    # ---------------- stages 2-4: computation ------------------------
    tc0 = clock()
    # (fgrp, fy) of the fused hash path, which emits Z in sorted order
    order_keys = None
    if granularity == "subtensor":
        z, products, hta_peak_bytes, order_keys = _fused_stages(
            px,
            sy if sy is not None else hty,
            plan,
            profile,
            y_structure=y_structure,
            accumulator=accumulator,
            accumulator_buckets=accumulator_buckets,
            codegen=codegen,
            dense_threshold=dense_threshold,
            workspace_cap=workspace_cap,
            clock=clock,
        )
    else:
        z, products, hta_peak_bytes = _loop_stages(
            px,
            sy,
            hty,
            plan,
            profile,
            y_structure=y_structure,
            accumulator=accumulator,
            accumulator_buckets=accumulator_buckets,
            granularity=granularity,
            clock=clock,
        )
    created = z.nnz
    if tr.enabled:
        # Search/accumulation/writeback interleave inside the kernels;
        # the per-stage times are exact, so lay the three spans out
        # back-to-back over the measured compute window.
        t = tc0
        for st in (Stage.INDEX_SEARCH, Stage.ACCUMULATION,
                   Stage.WRITEBACK):
            d = float(profile.stage_seconds.get(st, 0.0))
            tr.add_span(st.value, start=t, end=t + d,
                        measured="aggregate")
            t += d

    # ---------------- stage 5: output sorting ------------------------
    if sort_output:
        t0 = clock()
        presorted = order_keys is not None and pairs_ascending(*order_keys)
        order_keys = None  # free the keys before a sort allocates
        if presorted:
            # The sort would be the identity; its Table-2 bytes below
            # are still charged, since they model the paper's quicksort.
            profile.set_flag("output_sorting", "presorted")
        else:
            z = z.sort()
        t1 = clock()
        profile.add_time(Stage.OUTPUT_SORTING, t1 - t0)
        tr.add_span(Stage.OUTPUT_SORTING.value, start=t0, end=t1)
        rowb = coo_row_bytes(plan.out_order)
        passes = _sort_passes(z.nnz)
        profile.record_traffic(
            DataObject.Z, Stage.OUTPUT_SORTING, AccessKind.READ,
            AccessPattern.RANDOM, int(z.nnz * rowb * passes),
        )
        profile.record_traffic(
            DataObject.Z, Stage.OUTPUT_SORTING, AccessKind.WRITE,
            AccessPattern.RANDOM, int(z.nnz * rowb * passes),
        )

    if hty is not None:
        profile.counters["hash_probes"] = hty.table.probes - hty_probes0
    record_computation_traffic(
        plan,
        profile,
        x,
        uses_hty=hty is not None,
        products=products,
        hta_peak_bytes=hta_peak_bytes,
        created=created,
    )
    tr.add_span(
        engine_name,
        start=t_root,
        end=clock(),
        cat=CAT_CONTRACTION,
        engine=engine_name,
        nnz_out=int(z.nnz),
    )
    return ContractionResult(z, profile, plan)


def _fused_stages(px, source, plan, profile, *, y_structure, accumulator,
                  accumulator_buckets, codegen=None, dense_threshold=None,
                  workspace_cap=None, clock=time.perf_counter):
    """Stages 2-4 through the fused flat-batch kernel.

    Also returns the output's ``(fgrp, fy)`` keys when the hash
    accumulator produced it (they are in Z's row order unless a kernel
    misbehaves), else None: the SPA emits each sub-tensor's keys in
    insertion order.
    """
    kernel_kwargs = {}
    if dense_threshold is not None:
        kernel_kwargs["dense_threshold"] = dense_threshold
    if workspace_cap is not None:
        kernel_kwargs["workspace_cap"] = workspace_cap
    fr = fused_compute(
        px,
        source,
        y_structure=y_structure,
        accumulator=accumulator,
        profile=profile,
        accumulator_buckets=accumulator_buckets,
        codegen=codegen,
        clock=clock,
        **kernel_kwargs,
    )
    profile.add_time(Stage.INDEX_SEARCH, fr.search_seconds)
    profile.add_time(Stage.ACCUMULATION, fr.accum_seconds)
    profile.bump("products", fr.products)
    profile.bump("accum_probes", fr.accum_probes)
    if accumulator == "hash":
        hta_peak_bytes = hta_model_nbytes(
            fr.max_group_output, accumulator_buckets
        )
    else:
        hta_peak_bytes = fr.spa_peak_bytes
    t0 = clock()
    # Z gets its own values buffer, copied out like Algorithm 2 line 17.
    # Aliasing out_vals would keep a buffer allocated among the kernel's
    # temporaries alive after them, and the allocator then cannot return
    # their heap to the OS (3-4 MB more peak RSS on a 234k-nnz Z).
    z = assemble_fused(
        fr.out_fgrp, fr.out_fy, fr.out_vals.copy(), px.fx_rows, plan,
        profile, codegen=codegen,
    )
    profile.add_time(Stage.WRITEBACK, clock() - t0)
    order_keys = (fr.out_fgrp, fr.out_fy) if accumulator == "hash" else None
    return z, fr.products, hta_peak_bytes, order_keys


def _loop_stages(px, sy, hty, plan, profile, *, y_structure, accumulator,
                 accumulator_buckets, granularity, clock):
    """Stages 2-4 through the per-sub-tensor / per-element Python loop."""

    def make_accumulator() -> SparseAccumulator | HashAccumulator:
        if accumulator == "spa":
            return SparseAccumulator()
        return HashAccumulator(accumulator_buckets)

    search_time = 0.0
    accum_time = 0.0
    write_time = 0.0
    products = 0
    accum_probe_base = 0
    hta_peak_bytes = 0
    local = LocalOutput()

    ptr = px.ptr
    cx_ln = px.cx_ln
    xvals = px.values
    if sy is not None:
        src_ptr = sy.group_ptr
        src_vals = sy.values
    else:
        src_ptr = hty.group_ptr  # type: ignore[union-attr]
        src_vals = hty.values  # type: ignore[union-attr]
    src_free = sy.free_ln if sy is not None else hty.free_ln  # type: ignore[union-attr]

    for f in range(px.num_subtensors):
        acc = make_accumulator()
        s, e = int(ptr[f]), int(ptr[f + 1])
        if granularity == "subtensor_loop":
            t = clock()
            keys = cx_ln[s:e]
            if sy is not None:
                if y_structure == "coo_bsearch":
                    gids = sy.binary_search_many(keys, profile)
                else:
                    gids = sy.linear_search_many(keys, profile)
            else:
                gids = hty.lookup_many(keys)  # type: ignore[union-attr]
                profile.bump("search_probes", int(keys.shape[0]))
            rows = np.flatnonzero(gids >= 0)
            grp = gids[rows]
            starts = src_ptr[grp]
            lens = (src_ptr[grp + 1] - starts).astype(np.int64)
            gather = expand_ranges(starts, lens)
            search_time += clock() - t
            if gather.size:
                t = clock()
                prod_vals = (
                    np.repeat(xvals[s + rows], lens) * src_vals[gather]
                )
                acc.add_many(src_free[gather], prod_vals)
                accum_time += clock() - t
                products += int(gather.shape[0])
        else:
            for i in range(s, e):
                key = int(cx_ln[i])
                t = clock()
                if sy is not None:
                    g = sy.linear_search(key, profile)
                    found = g is not None
                    if found:
                        fkeys, fvals = sy.group(g)  # type: ignore[arg-type]
                else:
                    hit = hty.lookup(key)  # type: ignore[union-attr]
                    found = hit is not None
                    if found:
                        fkeys, fvals = hit  # type: ignore[misc]
                    profile.bump("search_probes")
                search_time += clock() - t
                if not found:
                    continue
                t = clock()
                acc.add_many(fkeys, xvals[i] * fvals)
                accum_time += clock() - t
                products += int(fkeys.shape[0])
        t = clock()
        keys_out, vals_out = acc.export()
        local.append(px.fx_rows[f], keys_out, vals_out)
        write_time += clock() - t
        hta_peak_bytes = max(hta_peak_bytes, acc.nbytes)
        accum_probe_base += acc.probes if hasattr(acc, "probes") else 0

    profile.add_time(Stage.INDEX_SEARCH, search_time)
    profile.add_time(Stage.ACCUMULATION, accum_time)
    profile.bump("products", products)
    profile.bump("accum_probes", accum_probe_base)

    t0 = clock()
    z = assemble_output([local], plan, profile, sort_output=False)
    write_time += clock() - t0
    profile.add_time(Stage.WRITEBACK, write_time)
    return z, products, hta_peak_bytes
