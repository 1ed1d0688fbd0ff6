"""Budget-capped out-of-core Sparta: the spill sink of the pipeline.

:func:`ooc_contract` runs the five-stage driver
(:func:`repro.core.looped.looped_contract`) with a sink chosen by the
memory budget. :func:`budget_sink` asks
:func:`~repro.planner.ooc.plan_ooc` whether the working set fits: if
it does, the run keeps its output in memory and only charges X and HtY
to the budget (``flags["ooc"] = "in_core"``); if not, a
:class:`SpillSink` makes sure no stage ever holds the full working set
(``flags["ooc"] = "spill"``):

* **stage 1** — X is prepared as usual (the driver charges it to the
  budget); HtY is built *partition-by-partition*: each Y span's partial
  grouping is spilled to a run file as soon as it is built, then the
  partials are merged straight off their memory maps (the merge is
  ``merge_partials``, bit-identical to a serial ``from_coo``), and the
  merged table's bulk payload arrays (``free_ln``/``values``) are
  demoted back to disk and re-mapped read-only — only the hash chains,
  group pointers and X stay resident;
* **stages 2–4** — the sub-tensor loop runs in budget-sized ranges
  through the unmodified :func:`~repro.core.kernels.fused_compute`;
  as each range is accepted, :meth:`SpillSink.put` writes its Z rows
  with the in-memory sink's writer
  (:func:`~repro.core.kernels.write_z_rows`), block by block, appends
  them to two raw files (index rows, values) and drops the range — Z is
  written once, as Algorithm 2's writeback copies each Z_local into Z
  once;
* **stage 4's close** — :func:`stream_finalize` maps the two files and
  unlinks them: the returned tensor stays valid, the spill directory is
  removed without orphans, and neither Z nor the accumulator is ever
  whole in memory. Ranges that a thread or process executor delivered
  out of order are first copied back into range order.

Ranges cover disjoint ascending sub-tensor spans, so Z in range order is
exactly the serial fused output, already sorted; all probe/product
counters sum to the serial totals, and every Table-2 traffic cell is
charged by the same driver — results and traffic are byte-exact
against the in-core engines, with any executor.
"""

from __future__ import annotations

import os
import threading
import time
from typing import BinaryIO, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.common import prepare_x
from repro.core.htycache import HtYCache, cached_plan
from repro.core.kernels import fused_compute, record_writeback, write_z_rows
from repro.core.looped import MemorySink, looped_contract, oriented_operands
from repro.core.profile import RunProfile
from repro.core.result import ContractionResult
from repro.hashtable.tensor_table import (
    HashTensor,
    PartialGroups,
    build_partial_groups,
    split_contract_modes,
)
from repro.obs.tracer import CAT_SPILL, NULL_TRACER, Tracer
from repro.parallel.partition import even_spans
from repro.planner.ooc import OocDecision, plan_ooc
from repro.planner.stats import contraction_stats
from repro.tensor.coo import SparseTensor
from repro.types import INDEX_DTYPE, VALUE_DTYPE

from .budget import MemoryBudget
from .runfile import RunFileReader
from .spill import SpillManager

__all__ = ["DEFAULT_BLOCK_ROWS", "SpillSink", "budget_sink", "ooc_contract",
           "stream_finalize"]

ENGINE_NAME = "sparta"

#: most Z rows one spill write or reorder copy holds in memory at once
DEFAULT_BLOCK_ROWS = 1 << 18

#: Z's spill files: index rows, values
_Z_FILES = ("z_indices.bin", "z_values.bin")


def _build_hty_spilled(
    y: SparseTensor,
    cy: Sequence[int],
    decision: OocDecision,
    spill: SpillManager,
    budget: MemoryBudget,
    num_buckets: Optional[int],
    tr: Tracer,
    clock=time.perf_counter,
) -> HashTensor:
    """Stage 1 for Y: spill per-span partials, merge from their maps.

    The merge reproduces the exact serial ``from_coo`` build (partials
    cover consecutive disjoint spans; see
    :meth:`HashTensor.merge_partials`). The merged table's payload
    arrays — the O(nnz_Y) bulk — are then demoted to a spill file and
    re-mapped read-only, so stage 2's group streams are demand-paged
    while the chains and group pointers stay resident for O(1) lookup.
    """
    cmodes, fmodes, cdims, fdims = split_contract_modes(
        y.order, y.shape, cy
    )
    t0 = clock()
    writer = spill.writer("hty_partials.runs")
    for lo, hi in even_spans(y.nnz, decision.num_y_spans):
        pg = build_partial_groups(
            y.indices, y.values, cmodes, fmodes, cdims, fdims, lo, hi
        )
        pg_bytes = (
            pg.group_keys.nbytes + pg.group_ptr.nbytes
            + pg.free_ln.nbytes + pg.values.nbytes
        )
        with budget.hold("hty_partial", pg_bytes):
            writer.append_run(
                {
                    "group_keys": pg.group_keys,
                    "group_ptr": pg.group_ptr,
                    "free_ln": pg.free_ln,
                    "values": pg.values,
                }
            )
        del pg
    writer.close()
    spill.account(writer)
    tr.add_span(
        "spill_partials", start=t0, end=clock(), cat=CAT_SPILL,
        spans=int(decision.num_y_spans), bytes=int(writer.bytes_written),
    )
    reader = RunFileReader(writer.path)
    partials = []
    for i in range(reader.num_runs):
        arrs = reader.run(i)
        partials.append(
            PartialGroups(
                arrs["group_keys"], arrs["group_ptr"],
                arrs["free_ln"], arrs["values"],
            )
        )
    hty = HashTensor.merge_partials(
        partials, fdims, cdims, num_buckets=num_buckets
    )
    reader.close()
    payload_bytes = int(hty.free_ln.nbytes + hty.values.nbytes)
    # The merged table is whole in memory until its payload is demoted;
    # the driver then charges what stays resident.
    with budget.hold("hty", hty.nbytes):
        if payload_bytes:
            # Demote the payload bulk to disk; lookups stay O(1) in RAM.
            pw = spill.writer("hty_payload.run")
            pw.append_run({"free_ln": hty.free_ln, "values": hty.values})
            pw.close()
            spill.account(pw)
            arrs = RunFileReader(pw.path).run(0)
            hty.free_ln = arrs["free_ln"]
            hty.values = arrs["values"]
    return hty


def _copy_in_range_order(
    src: str,
    dst: str,
    spans: Sequence[Tuple[int, int]],
    width: int,
    budget: MemoryBudget,
) -> None:
    """Copy the ``(first row, rows)`` *spans* of *src* to *dst*, in list
    order, one block of at most :data:`DEFAULT_BLOCK_ROWS` rows of
    *width* bytes at a time; each block is charged to *budget* while it
    is held. Unlinks *src*."""
    step = DEFAULT_BLOCK_ROWS * width
    with open(src, "rb") as fin, open(dst, "wb") as fout:
        for first, n in spans:
            fin.seek(first * width)
            left = n * width
            while left:
                k = min(step, left)
                with budget.hold("z_reorder", k):
                    fout.write(fin.read(k))
                left -= k
    os.unlink(src)


def stream_finalize(
    z_files: Sequence[BinaryIO],
    segments: Dict[int, Tuple[int, int]],
    plan,
    profile: RunProfile,
    spill: SpillManager,
    budget: MemoryBudget,
    *,
    clock=time.perf_counter,
    tracer: Optional[Tracer] = None,
    zlocal_peak_bytes: Optional[int] = None,
) -> SparseTensor:
    """Close stage 4: map the Z rows that :meth:`SpillSink.put` wrote.

    *z_files* are the open index-row and value files; *segments* maps
    each range index to the ``(first row, rows)`` it holds in them. The
    files are closed, mapped and unlinked — the returned tensor owns the
    last references to their inodes, so the spill directory cleanup
    leaves nothing behind. Only when ranges arrived out of range order
    are both files first copied into range order
    (:func:`_copy_in_range_order`); the ranges it moved are counted in
    ``ooc_ranges_moved``. Charges ``assemble_fused``'s writeback traffic
    (:func:`record_writeback`); Z in range order is sorted, and the
    driver charges stage 5.
    """
    tr = NULL_TRACER if tracer is None else tracer
    out_order = plan.out_order
    widths = (8 * out_order, 8)
    for fh in z_files:
        fh.close()
    paths = [fh.name for fh in z_files]
    spans = [segments[i] for i in sorted(segments)]
    total = moved = 0
    for first, n in spans:
        if n and first != total:
            moved += 1
        total += n
    spill.spilled_bytes += total * sum(widths)
    if moved:
        t0 = clock()
        for k, width in enumerate(widths):
            dst = spill.path(_Z_FILES[k])
            _copy_in_range_order(paths[k], dst, spans, width, budget)
            paths[k] = dst
        spill.spilled_bytes += total * sum(widths)
        tr.add_span(
            "reorder_rows", start=t0, end=clock(), cat=CAT_SPILL,
            rows=int(total), ranges=int(moved),
        )
    if total:
        indices = np.memmap(
            paths[0], dtype=INDEX_DTYPE, mode="r", shape=(total, out_order)
        )
        values = np.memmap(
            paths[1], dtype=VALUE_DTYPE, mode="r", shape=(total,)
        )
    else:
        indices = np.empty((0, out_order), dtype=INDEX_DTYPE)
        values = np.empty(0, dtype=VALUE_DTYPE)
    # POSIX keeps the inodes alive while mapped: the tensor stays valid,
    # and the spill dir can be removed without orphans.
    for p in paths:
        os.unlink(p)
    z = SparseTensor(
        indices, values, plan.out_shape, copy=False, validate=False
    )
    profile.counters["ooc_ranges_moved"] = moved
    record_writeback(plan, profile, total, zlocal_peak_bytes)
    return z


class SpillSink:
    """Writes each range's Z rows to two spill files under a memory budget.

    Its steps are the ones a budget changes (see the module docstring).
    Ranges may arrive from worker threads, in any order; the lock
    serializes the writes and the budget accounting.
    """

    streams = True
    span_args = {"ooc": "spill"}

    def __init__(
        self,
        budget: MemoryBudget,
        decision: OocDecision,
        spill_root: Optional[str] = None,
    ) -> None:
        self.budget = budget
        self.decision = decision
        self.min_ranges = decision.num_chunks
        self.spill = SpillManager(spill_root)
        #: Z's index-row and value files, appended in arrival order
        self.z_files = tuple(
            open(self.spill.path(name), "wb", buffering=1 << 20)
            for name in _Z_FILES
        )
        #: range index -> (first row, rows) in the Z files
        self._segments: Dict[int, Tuple[int, int]] = {}
        self._rows = 0
        #: seconds :meth:`put` spent writing Z rows (stage 4's work)
        self.write_seconds = 0.0
        self._fx_rows = self._plan = None
        self._lock = threading.Lock()

    def prepare_x(self, x, plan, profile, x_format="coo"):
        px = prepare_x(x, plan, profile, x_format=x_format)
        self._fx_rows, self._plan = px.fx_rows, plan
        return px

    def build_hty(self, y, plan, num_buckets, tracer):
        return _build_hty_spilled(
            y, plan.cy, self.decision, self.spill, self.budget,
            num_buckets, tracer,
        )

    def compute(self, px, source, profile, lo, hi, kernel):
        return fused_compute(
            px, source, profile=profile, lo=lo, hi=hi,
            chunk_pairs=self.decision.chunk_pairs, **kernel,
        )

    def put(self, index, fr, tracer) -> None:
        """Stage 4 for one range: append its Z rows to the Z files."""
        nbytes = fr.out_fgrp.nbytes + fr.out_fy.nbytes + fr.out_vals.nbytes
        n, plan = fr.nnz, self._plan
        fi, fv = self.z_files
        with self._lock:
            ts = time.perf_counter()
            with self.budget.hold("fused_chunk", nbytes):
                for lo in range(0, n, DEFAULT_BLOCK_ROWS):
                    hi = min(lo + DEFAULT_BLOCK_ROWS, n)
                    rows = np.empty((hi - lo, plan.out_order),
                                    dtype=INDEX_DTYPE)
                    with self.budget.hold("z_rows", rows.nbytes):
                        write_z_rows(rows, fr.out_fgrp[lo:hi],
                                     fr.out_fy[lo:hi], self._fx_rows,
                                     plan.fy_dims)
                        fi.write(memoryview(rows).cast("B"))
                        del rows
                if n:
                    fv.write(memoryview(np.ascontiguousarray(
                        fr.out_vals, dtype=VALUE_DTYPE)).cast("B"))
            self._segments[index] = (self._rows, n)
            self._rows += n
            te = time.perf_counter()
            self.write_seconds += te - ts
            tracer.add_span(
                "spill_rows", start=ts, end=te, cat=CAT_SPILL,
                rows=int(n), bytes=int(n * (8 * plan.out_order + 8)),
            )

    def writeback(self, fx_rows, plan, profile, *, zlocal_peak_bytes,
                  tracer, clock):
        """Stage 4's close (:func:`stream_finalize`). Z comes back in
        range order, which is sorted, so stage 5 has nothing left to
        do."""
        z = stream_finalize(
            self.z_files, self._segments, plan, profile, self.spill,
            self.budget, clock=clock, tracer=tracer,
            zlocal_peak_bytes=zlocal_peak_bytes,
        )
        return z, True

    def note(self, profile) -> None:
        profile.set_flag("ooc", "spill")
        profile.counters.update(self.decision.counters())
        profile.counters.update(self.spill.counters())
        profile.counters.update(self.budget.counters())

    def close(self) -> None:
        try:
            for fh in self.z_files:
                fh.close()
        finally:
            self.spill.close()


def budget_sink(
    memory_budget: Union[int, str, MemoryBudget],
    x: SparseTensor,
    y: SparseTensor,
    cx: Sequence[int],
    cy: Sequence[int],
    *,
    workers: int = 1,
    force_spill: bool = False,
    spill_root: Optional[str] = None,
):
    """The sink *memory_budget* asks for when contracting *x* with *y*.

    A :class:`SpillSink` when :func:`~repro.planner.ooc.plan_ooc` finds
    the working set of *workers* workers over the cap (or
    ``force_spill``), else a budgeted ``MemorySink``.
    """
    budget = (
        memory_budget
        if isinstance(memory_budget, MemoryBudget)
        else MemoryBudget(memory_budget)
    )
    decision = plan_ooc(
        contraction_stats(x, y, cached_plan(x, y, cx, cy)),
        budget.cap,
        workers=workers,
        force_spill=force_spill,
    )
    if decision.out_of_core:
        return SpillSink(budget, decision, spill_root)
    return MemorySink(budget=budget, decision=decision)


def ooc_contract(
    x: SparseTensor,
    y: SparseTensor,
    cx: Sequence[int],
    cy: Sequence[int],
    *,
    memory_budget: Union[int, str, MemoryBudget],
    sort_output: bool = True,
    swap_larger_to_y: bool = False,
    num_buckets: Optional[int] = None,
    accumulator_buckets: Optional[int] = None,
    spill_root: Optional[str] = None,
    force_spill: bool = False,
    codegen: Optional[bool] = None,
    tracer: Optional[Tracer] = None,
    engine_name: str = ENGINE_NAME,
    hty_cache: Optional[HtYCache] = None,
) -> ContractionResult:
    """Contract under a hard memory budget, spilling when needed.

    ``memory_budget`` caps the engine's live working set (bytes, or a
    ``"64M"``-style string, or a pre-built :class:`MemoryBudget` —
    shared accountants let callers pool several contractions under one
    cap). :func:`budget_sink` routes the call: a working set that fits
    runs in memory (``flags["ooc"] = "in_core"``); otherwise the
    streaming spill pipeline runs (``flags["ooc"] = "spill"``).
    ``force_spill`` pins the spill path for tests and benchmarks.
    Results and Table-2 traffic are byte-exact against the in-core
    engine either way.

    ``swap_larger_to_y`` applies the §3.3 larger-operand rule exactly
    like :func:`repro.core.sparta.sparta` (the budget is planned for
    the swapped operands); note the post-swap output permutation+sort
    materializes Z in memory, so budget-critical callers should orient
    operands so no swap triggers. ``hty_cache`` reuses a cached HtY as
    :func:`~repro.core.sparta.sparta` does; its full bytes are charged
    to the budget for the run.
    """
    ox, oy, ocx, ocy, _ = oriented_operands(x, y, cx, cy, swap_larger_to_y)
    sink = budget_sink(
        memory_budget, ox, oy, ocx, ocy,
        force_spill=force_spill, spill_root=spill_root,
    )
    return looped_contract(
        x, y, cx, cy,
        engine_name=engine_name,
        y_structure="hash",
        accumulator="hash",
        sort_output=sort_output,
        num_buckets=num_buckets,
        accumulator_buckets=accumulator_buckets,
        hty_cache=hty_cache,
        codegen=codegen,
        tracer=tracer,
        swap_larger_to_y=swap_larger_to_y,
        sink=sink,
    )
