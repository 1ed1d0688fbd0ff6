"""The five-stage SpTC driver behind every engine of the Sparta family.

Algorithm 1 (SpTC-SPA) and Algorithm 2 (Sparta) share their loop nest; the
engines differ only in

* how Y is searched — linear scan over sorted COO vs. HtY hash lookup;
* how partial products accumulate — SPA linear search vs. HtA hashing.

This module implements the loop nest once, parameterised on those two
choices, and charges per-stage time, operation counts and Table-2 traffic.
The default ``"subtensor"`` granularity executes stages 2-4 through the
fused flat-batch kernel (:mod:`repro.core.kernels`); ``"subtensor_loop"``
keeps the historical one-Python-iteration-per-sub-tensor driver for
comparison, and ``"element"`` is the per-non-zero semantic reference.

The fused path splits the sub-tensor loop into ranges (§3.5). An
*executor* runs them (:data:`INLINE` here, or the thread and process
executors of :mod:`repro.parallel.executor`) and a *sink* takes their
output (:class:`MemorySink` holds it until writeback;
:class:`repro.ooc.engine.SpillSink` writes each range's Z rows to disk
as it arrives). Everything else happens here once:
stage order, the §3.3 swap, the HtY build or cache hit and its budget
charge, the stage-5 sort or skip with its Table-2 bytes, the computation
traffic and the root span.
"""

from __future__ import annotations

import threading
import time
from typing import Literal, Optional, Sequence

import numpy as np

from repro.core.common import (
    LocalOutput,
    assemble_output,
    coo_row_bytes,
    expand_ranges,
    partition_subtensors,
    prepare_x,
    prepare_y_sorted,
    sort_passes,
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

__all__ = ["HTA_CACHE_HIT", "INLINE", "MemorySink", "looped_contract",
           "oriented_operands"]


def oriented_operands(x, y, cx, cy, swap_larger_to_y: bool):
    """The §3.3 rule: contract the larger operand as Y.

    Returns ``(x, y, cx, cy, swapped)``; with *swap_larger_to_y* and
    ``x.nnz > y.nnz`` the operands come back exchanged.
    """
    if swap_larger_to_y and x.nnz > y.nnz:
        return y, x, cy, cx, True
    return x, y, cx, cy, False


def _resident_nbytes(hty: HashTensor) -> int:
    """HtY bytes held in memory (a payload demoted to a spill file is not)."""
    payload = (hty.free_ln, hty.values)
    return int(hty.table.nbytes + hty.group_ptr.nbytes + sum(
        a.nbytes for a in payload if not isinstance(a, np.memmap)))


class InlineExecutor:
    """Runs the sub-tensor ranges one after another in the calling thread."""

    concurrent = False
    span_args: dict = {}

    def start_hty(self, x, y, plan, num_buckets):
        """No stage-1 work of its own: the sink builds HtY."""
        return None

    def run(self, px, source, sink, accept, profile, kernel):
        """Compute every range through *sink* and hand it to *accept*.

        Returns the run's HtY probe count: the ranges probe one private
        view of the table (0 when Y is searched as sorted COO).
        """
        n = sink.min_ranges
        ranges = (
            [(0, px.num_subtensors)] if n <= 1
            else partition_subtensors(px.ptr, n)
        )
        hashed = isinstance(source, HashTensor)
        if hashed:
            source = source.probe_view()
        for i, (lo, hi) in enumerate(ranges):
            accept(i, sink.compute(px, source, profile, lo, hi, kernel))
        return source.table.probes if hashed else 0

    def close(self) -> None:
        pass


#: the executor of every serial engine
INLINE = InlineExecutor()


class MemorySink:
    """Holds each range's output in memory until writeback.

    *budget* and *decision* are set when a memory budget planned the
    run in core.
    """

    streams = False
    min_ranges = 1
    span_args: dict = {}
    #: seconds :meth:`put` spent writing Z rows: none, Z is written at
    #: writeback
    write_seconds = 0.0

    def __init__(self, *, budget=None, decision=None) -> None:
        self.budget = budget
        self.decision = decision
        self._runs: dict = {}

    def prepare_x(self, x, plan, profile, x_format="coo"):
        return prepare_x(x, plan, profile, x_format=x_format)

    def build_hty(self, y, plan, num_buckets, tracer):
        return HashTensor.from_coo(y, plan.cy, num_buckets=num_buckets)

    def compute(self, px, source, profile, lo, hi, kernel):
        return fused_compute(px, source, profile=profile, lo=lo, hi=hi,
                             **kernel)

    def put(self, index, fr, tracer) -> None:
        self._runs[index] = fr

    def writeback(self, fx_rows, plan, profile, *, zlocal_peak_bytes,
                  tracer, clock):
        """Stage 4: gather the ranges, in range order, into Z.

        Returns ``(z, order)``: *order* is Z's ``(fgrp, fy)`` keys, for
        the driver's stage-5 order check.
        """
        runs = [self._runs[i] for i in sorted(self._runs)]
        self._runs = {}
        if len(runs) == 1:
            fr = runs[0]
            # Z gets its own values buffer, copied out like Algorithm 2
            # line 17. Aliasing out_vals would keep a buffer allocated
            # among the kernel's temporaries alive after them, and the
            # allocator then cannot return their heap to the OS (3-4 MB
            # more peak RSS on a 234k-nnz Z).
            fgrp, fy, vals = fr.out_fgrp, fr.out_fy, fr.out_vals.copy()
        else:
            empty = [np.empty(0, dtype=np.int64)]
            fgrp = np.concatenate([fr.out_fgrp for fr in runs] or empty)
            fy = np.concatenate([fr.out_fy for fr in runs] or empty)
            vals = np.concatenate([fr.out_vals for fr in runs] or empty)
        del runs
        z = assemble_fused(
            fgrp, fy, vals, fx_rows, plan, profile,
            zlocal_peak_bytes=zlocal_peak_bytes,
        )
        return z, (fgrp, fy)

    def note(self, profile) -> None:
        if self.budget is not None:
            profile.set_flag("ooc", "in_core")
            profile.counters.update(self.decision.counters())
            profile.counters.update(self.budget.counters())

    def close(self) -> None:
        self._runs = {}


class _Totals:
    """Scalars of every accepted range; ranges may arrive from threads."""

    def __init__(self, nfx: int) -> None:
        self.nfx = nfx
        self.products = self.accum_probes = self.max_group_output = 0
        self.spa_peak_bytes = self.zlocal_peak_bytes = 0
        self.search_seconds = self.accum_seconds = 0.0
        self._lock = threading.Lock()

    def add(self, fr) -> None:
        with self._lock:
            self.products += fr.products
            self.accum_probes += fr.accum_probes
            self.search_seconds += fr.search_seconds
            self.accum_seconds += fr.accum_seconds
            self.max_group_output = max(self.max_group_output,
                                        fr.max_group_output)
            self.spa_peak_bytes = max(self.spa_peak_bytes,
                                      fr.spa_peak_bytes)
            self.zlocal_peak_bytes = max(self.zlocal_peak_bytes,
                                         fr.nnz * (8 * self.nfx + 16))


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
    swap_larger_to_y: bool = False,
    executor=None,
    sink=None,
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

    ``swap_larger_to_y`` applies §3.3 (:func:`oriented_operands`): the
    run contracts the larger operand as Y, and stage 5 permutes Z back
    to (Fx, Fy) mode order before sorting it.

    ``executor`` and ``sink`` (fused path only; default :data:`INLINE`
    and a fresh :class:`MemorySink`) decide where the sub-tensor ranges
    run and where their output lives (see the module docstring).

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
    executor = INLINE if executor is None else executor
    sink = MemorySink() if sink is None else sink
    out_plan = cached_plan(x, y, cx, cy)
    x, y, cx, cy, swapped = oriented_operands(x, y, cx, cy,
                                              swap_larger_to_y)
    plan = cached_plan(x, y, cx, cy) if swapped else out_plan
    profile = RunProfile(engine_name)
    clock = time.perf_counter
    tr = NULL_TRACER if tracer is None else tracer
    budget = sink.budget
    held = {}
    t_root = clock()
    try:
        # ---------------- stage 1: input processing ------------------
        t0 = clock()
        build = None
        if y_structure == "hash" and hty_cache is None:
            # A parallel executor starts its HtY build before X is
            # prepared, so the two overlap.
            build = executor.start_hty(x, y, plan, num_buckets)
        px = sink.prepare_x(x, plan, profile, x_format=x_format)
        if budget is not None:
            held["prepared_x"] = budget.charge("prepared_x", px.nbytes)
        hty = sy = None
        if y_structure in ("coo", "coo_bsearch"):
            sy = prepare_y_sorted(y, plan, profile)
        else:
            if hty_cache is not None:
                hty, cached = hty_cache.get_or_build(
                    y, plan.cy, num_buckets=num_buckets
                )
                if not cached:
                    profile.bump("hty_cache_misses")
            else:
                hty = (build() if build is not None
                       else sink.build_hty(y, plan, num_buckets, tr))
                cached = False
            record_hty_build(y, hty, profile, cached=cached)
            if budget is not None:
                # A cached HtY is held for this run like a fresh one.
                held["hty"] = budget.charge("hty", _resident_nbytes(hty))
        t1 = clock()
        profile.add_time(Stage.INPUT_PROCESSING, t1 - t0)
        tr.add_span(Stage.INPUT_PROCESSING.value, start=t0, end=t1)
        profile.bump("num_subtensors", px.num_subtensors)

        # ---------------- stages 2-4: computation --------------------
        if granularity == "subtensor":
            kernel = dict(y_structure=y_structure, accumulator=accumulator,
                          accumulator_buckets=accumulator_buckets,
                          codegen=codegen, clock=clock)
            if dense_threshold is not None:
                kernel["dense_threshold"] = dense_threshold
            if workspace_cap is not None:
                kernel["workspace_cap"] = workspace_cap
            z, order, products, hta_peak_bytes, probes = _fused_stages(
                px, hty if sy is None else sy, plan, profile,
                executor=executor, sink=sink, kernel=kernel, tr=tr,
                clock=clock,
            )
            if accumulator != "hash":
                # The SPA emits each sub-tensor's keys in insertion order.
                order = False
        else:
            z, products, hta_peak_bytes, probes = _loop_stages(
                px, sy, hty, plan, profile,
                y_structure=y_structure, accumulator=accumulator,
                accumulator_buckets=accumulator_buckets,
                granularity=granularity, tr=tr, clock=clock,
            )
            order = False
        created = z.nnz

        # ---------------- stage 5: output sorting --------------------
        t0 = clock()
        if swapped:
            z = z.permute(out_plan.swap_output_permutation())
            order = False
            profile.counters["swapped_operands"] = 1
        if sort_output:
            if isinstance(order, tuple):
                presorted = pairs_ascending(*order)
                if presorted:
                    # The sort would be the identity; its Table-2 bytes
                    # below are still charged, since they model the
                    # paper's quicksort.
                    profile.set_flag("output_sorting", "presorted")
            else:
                presorted = order
            order = None  # free the keys before a sort allocates
            if not presorted:
                z = z.sort()
            t1 = clock()
            profile.add_time(Stage.OUTPUT_SORTING, t1 - t0)
            tr.add_span(Stage.OUTPUT_SORTING.value, start=t0, end=t1)
            sort_bytes = int(z.nnz * coo_row_bytes(plan.out_order)
                             * sort_passes(z.nnz))
            for kind in (AccessKind.READ, AccessKind.WRITE):
                profile.record_traffic(
                    DataObject.Z, Stage.OUTPUT_SORTING, kind,
                    AccessPattern.RANDOM, sort_bytes,
                )

        if hty is not None:
            profile.counters["hash_probes"] = probes
        record_computation_traffic(
            plan,
            profile,
            x,
            uses_hty=hty is not None,
            products=products,
            hta_peak_bytes=hta_peak_bytes,
            created=created,
        )
        sink.note(profile)
        tr.add_span(
            engine_name,
            start=t_root,
            end=clock(),
            cat=CAT_CONTRACTION,
            engine=engine_name,
            **executor.span_args,
            **sink.span_args,
            nnz_out=int(z.nnz),
        )
        return ContractionResult(z, profile, out_plan)
    finally:
        executor.close()
        sink.close()
        for label, nbytes in held.items():
            # Shared accountants outlive this run: return its residents.
            budget.release(label, nbytes)


def _fused_stages(px, source, plan, profile, *, executor, sink, kernel, tr,
                  clock):
    """Stages 2-4: the executor runs the ranges, the sink writes Z back.

    Returns ``(z, order, products, hta_peak_bytes, probes)``; *order* is
    the sink's (see :meth:`MemorySink.writeback`), *probes* the
    executor's HtY probe count.
    """
    totals = _Totals(len(plan.fx))

    def accept(index, fr):
        totals.add(fr)
        sink.put(index, fr, tr)

    tc0 = clock()
    probes = executor.run(px, source, sink, accept, profile, kernel)
    tc1 = clock()
    # Z rows a sink wrote as the ranges arrived: stage 4's work, done
    # inside the compute window.
    streamed = sink.write_seconds
    search, accum = totals.search_seconds, totals.accum_seconds
    if executor.concurrent:
        # Per-worker stage timers overlap in wall-clock time, so summing
        # them would charge N workers' concurrent seconds to one run.
        # Apportion the measured compute wall, less the streamed
        # writeback, between search and accumulation by the workers'
        # relative busy time instead.
        busy = search + accum
        fsearch = (search / busy) if busy > 0 else 0.5
        window = tc1 - tc0 - streamed
        search, accum = window * fsearch, window * (1 - fsearch)
        measured = "apportioned"
    else:
        measured = "aggregate"
    profile.add_time(Stage.INDEX_SEARCH, search)
    profile.add_time(Stage.ACCUMULATION, accum)
    profile.bump("products", totals.products)
    profile.bump("accum_probes", totals.accum_probes)
    if kernel["accumulator"] == "hash":
        hta_peak_bytes = hta_model_nbytes(
            totals.max_group_output, kernel["accumulator_buckets"]
        )
    else:
        hta_peak_bytes = totals.spa_peak_bytes

    t0 = clock()
    z, order = sink.writeback(
        px.fx_rows, plan, profile,
        zlocal_peak_bytes=(
            totals.zlocal_peak_bytes if executor.concurrent else None
        ),
        tracer=tr, clock=clock,
    )
    t1 = clock()
    write = t1 - t0
    profile.add_time(Stage.WRITEBACK, write + streamed)
    if tr.enabled:
        # Search and accumulation interleave inside the kernels, so
        # their spans are laid out back-to-back over the compute window.
        t = tc0
        for st, d in ((Stage.INDEX_SEARCH, search),
                      (Stage.ACCUMULATION, accum)):
            tr.add_span(st.value, start=t, end=t + d, measured=measured)
            t += d
        if sink.streams:
            # One span for the rows written during the compute window
            # and the close after it.
            tr.add_span(Stage.WRITEBACK.value, start=t0 - streamed,
                        end=t1, measured="streamed")
        elif executor.concurrent:
            tr.add_span(Stage.WRITEBACK.value, start=t0, end=t1)
        else:
            tr.add_span(Stage.WRITEBACK.value, start=t, end=t + write,
                        measured="aggregate")
    return z, order, totals.products, hta_peak_bytes, probes


def _loop_stages(px, sy, hty, plan, profile, *, y_structure, accumulator,
                 accumulator_buckets, granularity, tr, clock):
    """Stages 2-4 through the per-sub-tensor / per-element Python loop.

    Returns ``(z, products, hta_peak_bytes, probes)``; *probes* counts
    the chain walks of this run's private view of HtY.
    """

    def make_accumulator() -> SparseAccumulator | HashAccumulator:
        if accumulator == "spa":
            return SparseAccumulator()
        return HashAccumulator(accumulator_buckets)

    tc0 = clock()
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
        hty = hty.probe_view()  # type: ignore[union-attr]
        src_ptr = hty.group_ptr
        src_vals = hty.values
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
    z = assemble_output([local], plan, profile)
    write_time += clock() - t0
    profile.add_time(Stage.WRITEBACK, write_time)
    if tr.enabled:
        # Search/accumulation/writeback interleave in the loop; the
        # per-stage times are exact, so lay the three spans out
        # back-to-back over the measured compute window.
        t = tc0
        for st, d in ((Stage.INDEX_SEARCH, search_time),
                      (Stage.ACCUMULATION, accum_time),
                      (Stage.WRITEBACK, write_time)):
            tr.add_span(st.value, start=t, end=t + d, measured="aggregate")
            t += d
    return z, products, hta_peak_bytes, (
        0 if hty is None else hty.table.probes
    )
