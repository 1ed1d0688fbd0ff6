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
  each range's sorted ``(fgrp, fy, vals)`` output is appended to a
  spill run and dropped from memory;
* **stage 5** — a streaming k-way merge over the mmapped runs
  (:func:`~repro.ooc.merge.stream_merge_fused`) assembles and writes
  the final COO arrays *incrementally* to two raw files, which are then
  mapped and immediately unlinked — the returned tensor stays valid,
  the spill directory is removed without orphans, and the full
  accumulator is never materialized.

Ranges cover disjoint ascending sub-tensor spans, so the concatenation
of their outputs is exactly the serial fused output, all probe/product
counters sum to the serial totals, and every Table-2 traffic cell is
charged by the same driver — results and traffic are byte-exact
against the in-core engines, with any executor.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.common import coo_row_bytes, prepare_x
from repro.core.htycache import HtYCache, cached_plan
from repro.core.kernels import fused_compute
from repro.core.looped import MemorySink, looped_contract, oriented_operands
from repro.core.profile import (
    AccessKind,
    AccessPattern,
    DataObject,
    RunProfile,
)
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
from repro.core.stages import Stage
from repro.tensor.coo import SparseTensor
from repro.tensor.linearize import delinearize
from repro.types import INDEX_DTYPE, VALUE_DTYPE

from .budget import MemoryBudget
from .merge import DEFAULT_BLOCK_ROWS, stream_merge_fused
from .runfile import RunFileReader
from .spill import SpillManager

__all__ = ["SpillSink", "budget_sink", "ooc_contract", "stream_finalize"]

ENGINE_NAME = "sparta"


def _fy_span(fy_dims: Sequence[int]) -> int:
    span = 1
    for d in fy_dims:
        span *= int(d)
    return max(span, 1)


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


def stream_finalize(
    runs: List[Dict[str, np.ndarray]],
    fx_rows: np.ndarray,
    plan,
    profile: RunProfile,
    spill: SpillManager,
    *,
    clock=time.perf_counter,
    tracer: Optional[Tracer] = None,
    zlocal_peak_bytes: Optional[int] = None,
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> SparseTensor:
    """Stage 4 as a streaming merge-assemble-append over sorted runs.

    Byte-identical replacement for ``merge_fused_runs`` +
    ``assemble_fused`` + ``z.sort()``: merged blocks are assembled to
    COO rows (same ``fx_rows`` gather and ``delinearize`` arithmetic)
    and appended to two raw files, which are mapped back and unlinked —
    the returned tensor owns the last references to their inodes, so
    the spill directory cleanup leaves nothing behind. Charges exactly
    the writeback traffic ``assemble_fused`` charges, with
    ``zlocal_peak_bytes`` overriding the Z_local object size for
    callers whose locals are per-worker, as in ``assemble_fused``. The
    merge leaves Z sorted; the driver charges stage 5.
    """
    tr = NULL_TRACER if tracer is None else tracer
    nfx = len(plan.fx)
    out_order = plan.out_order
    fy_span = _fy_span(plan.fy_dims)
    idx_path = spill.path("z_indices.bin")
    val_path = spill.path("z_values.bin")
    total = 0
    t0 = clock()
    with open(idx_path, "wb", buffering=1 << 20) as fi, open(
        val_path, "wb", buffering=1 << 20
    ) as fv:
        for fgrp_blk, fy_blk, vals_blk in stream_merge_fused(
            runs, fy_span, block_rows=block_rows
        ):
            n = int(fgrp_blk.shape[0])
            indices = np.empty((n, out_order), dtype=INDEX_DTYPE)
            indices[:, :nfx] = fx_rows[fgrp_blk]
            indices[:, nfx:] = delinearize(
                fy_blk.astype(INDEX_DTYPE, copy=False), plan.fy_dims
            )
            fi.write(memoryview(indices).cast("B"))
            fv.write(
                memoryview(
                    np.ascontiguousarray(
                        vals_blk.astype(VALUE_DTYPE, copy=False)
                    )
                ).cast("B")
            )
            total += n
    spill.spilled_bytes += total * (8 * out_order + 8)
    tr.add_span(
        "stream_merge", start=t0, end=clock(), cat=CAT_SPILL,
        rows=int(total), runs=len(runs),
    )
    if total:
        indices = np.memmap(
            idx_path, dtype=INDEX_DTYPE, mode="r",
            shape=(total, out_order),
        )
        values = np.memmap(
            val_path, dtype=VALUE_DTYPE, mode="r", shape=(total,)
        )
        # POSIX keeps the inodes alive while mapped: the tensor stays
        # valid, and the spill dir can be removed without orphans.
        os.unlink(idx_path)
        os.unlink(val_path)
    else:
        indices = np.empty((0, out_order), dtype=INDEX_DTYPE)
        values = np.empty(0, dtype=VALUE_DTYPE)
        for p in (idx_path, val_path):
            if os.path.exists(p):
                os.unlink(p)
    z = SparseTensor(
        indices, values, plan.out_shape, copy=False, validate=False
    )

    # --- assemble_fused's exact writeback accounting -------------------
    rowb = coo_row_bytes(out_order)
    profile.bump("nnz_z", total)
    profile.note_object_bytes(DataObject.Z, total * rowb)
    zl_bytes = total * (8 * nfx + 16)
    profile.note_object_bytes(
        DataObject.Z_LOCAL,
        zl_bytes if zlocal_peak_bytes is None else zlocal_peak_bytes,
    )
    profile.record_traffic(
        DataObject.Z_LOCAL, Stage.WRITEBACK, AccessKind.READ,
        AccessPattern.SEQUENTIAL, total * rowb,
    )
    profile.record_traffic(
        DataObject.Z, Stage.WRITEBACK, AccessKind.WRITE,
        AccessPattern.SEQUENTIAL, total * rowb,
    )
    return z


class SpillSink:
    """Holds each range's output as a spilled run under a memory budget.

    Its steps are the ones a budget changes (see the module docstring).
    Ranges may arrive from worker threads, in any order; the lock
    serializes the writer and the budget accounting.
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
        self._writer = self.spill.writer("fused.runs")
        #: range index -> run index in the writer's file
        self._run_of: Dict[int, int] = {}
        self._lock = threading.Lock()

    def prepare_x(self, x, plan, profile, x_format="coo"):
        return prepare_x(x, plan, profile, x_format=x_format)

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
        nbytes = fr.out_fgrp.nbytes + fr.out_fy.nbytes + fr.out_vals.nbytes
        with self._lock:
            ts = time.perf_counter()
            with self.budget.hold("fused_chunk", nbytes):
                self._run_of[index] = self._writer.append_run(
                    {"fgrp": fr.out_fgrp, "fy": fr.out_fy,
                     "vals": fr.out_vals}
                )
            tracer.add_span(
                "spill_run", start=ts, end=time.perf_counter(),
                cat=CAT_SPILL, rows=int(fr.nnz), bytes=int(nbytes),
            )

    def writeback(self, fx_rows, plan, profile, *, sort_output,
                  zlocal_peak_bytes, codegen, tracer, clock):
        """Stage 4 as the streaming merge of the spilled runs (in range
        order); the merge leaves Z sorted, so stage 5 has nothing left
        to do."""
        self._writer.close()
        self.spill.account(self._writer)
        reader = RunFileReader(self._writer.path)
        runs = [reader.run(self._run_of[i]) for i in sorted(self._run_of)]
        z = stream_finalize(
            runs, fx_rows, plan, profile, self.spill,
            clock=clock, tracer=tracer, zlocal_peak_bytes=zlocal_peak_bytes,
        )
        reader.close()
        if sort_output:
            profile.bump("output_merge_stream")
        return z, True, 0.0

    def note(self, profile) -> None:
        profile.set_flag("ooc", "spill")
        profile.counters.update(self.decision.counters())
        profile.counters.update(self.spill.counters())
        profile.counters.update(self.budget.counters())

    def close(self) -> None:
        self._writer.close()
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
    merge=None,
):
    """The sink *memory_budget* asks for when contracting *x* with *y*.

    A :class:`SpillSink` when :func:`~repro.planner.ooc.plan_ooc` finds
    the working set of *workers* workers over the cap (or
    ``force_spill``), else a budgeted ``MemorySink`` with *merge*.
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
    return MemorySink(merge=merge, budget=budget, decision=decision)


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
