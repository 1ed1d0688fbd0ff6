"""Shared machinery of the three paper engines.

All of SpTC-SPA, COOY+HtA and Sparta share stage 1 (input processing of X),
the sub-tensor outer loop structure, stage 4's Z_local layout and stage 5
(output sorting). This module implements those pieces once, plus the
traffic accounting that feeds the heterogeneous-memory simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.plan import ContractionPlan
from repro.core.profile import (
    AccessKind,
    AccessPattern,
    DataObject,
    RunProfile,
)
from repro.core.stages import Stage
from repro.errors import ShapeError
from repro.tensor.coo import SparseTensor
from repro.tensor.linearize import delinearize, linearize
from repro.types import INDEX_DTYPE, VALUE_DTYPE

#: bytes per COO non-zero of an order-N tensor (N int64 indices + 1 float64)
def coo_row_bytes(order: int) -> int:
    """Storage bytes of one COO non-zero for an order-*order* tensor."""
    return 8 * order + 8


#: bytes per hash-table entry: key + chain pointer + payload pointer/value
HT_ENTRY_BYTES = 24


def expand_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s+l)`` for each (s, l) pair, vectorized."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.repeat(
        starts - np.concatenate(([0], np.cumsum(lens)[:-1])), lens
    )
    return out + np.arange(total, dtype=np.int64)


def sort_passes(n: int) -> float:
    """Data-movement passes charged for a sort.

    Quicksort makes ~log2(n) comparison passes but they touch cached
    partitions; the memory-visible movement is ~one full pass (read the
    unsorted array, write the sorted permutation). The paper's
    input/output-processing stages are <1% of SpTC time, consistent with
    pass-level (not log-factor) traffic.
    """
    return 1.0


@dataclass
class PreparedX:
    """X after stage 1: permuted to (Fx, Cx) order and sorted.

    ``ptr`` delimits the mode-Fx sub-tensors (Algorithm 2's ``ptr_F``);
    ``fx_rows`` holds each sub-tensor's free indices (one row per
    sub-tensor); ``cx_ln`` holds the LN contract key of every non-zero.
    """

    ptr: np.ndarray
    fx_rows: np.ndarray
    cx_ln: np.ndarray
    values: np.ndarray

    @property
    def num_subtensors(self) -> int:
        """N_F, the outer-loop trip count."""
        return int(self.ptr.shape[0] - 1)

    @property
    def nbytes(self) -> int:
        """Bytes held by the four prepared arrays."""
        return int(
            self.ptr.nbytes + self.fx_rows.nbytes + self.cx_ln.nbytes
            + self.values.nbytes
        )


def partition_subtensors(
    ptr: np.ndarray,
    num_workers: int,
    *,
    weights: np.ndarray | None = None,
) -> List[Tuple[int, int]]:
    """Split sub-tensors ``0..len(ptr)-2`` into ≤ *num_workers* ranges.

    ``ptr`` is the fiber-pointer array: sub-tensor *f* holds
    ``ptr[f+1] - ptr[f]`` non-zeros. Ranges are contiguous (preserving the
    sorted-X locality) and balanced to ~equal non-zero counts. Returns
    ``(first_subtensor, last_subtensor_exclusive)`` pairs; fewer than
    *num_workers* ranges when there are fewer sub-tensors.

    *weights* replaces the per-sub-tensor cost model: when given (one
    non-negative weight per sub-tensor), ranges balance cumulative weight
    instead of cumulative nnz. ``weights=None`` is exactly the nnz
    behaviour.
    """
    if num_workers <= 0:
        raise ShapeError(f"num_workers must be positive, got {num_workers}")
    n_sub = int(ptr.shape[0] - 1)
    if n_sub <= 0:
        return []
    if weights is not None:
        weights = np.asarray(weights, dtype=np.int64)
        if weights.shape != (n_sub,):
            raise ShapeError(
                f"weights must have one entry per sub-tensor "
                f"({n_sub}), got shape {weights.shape}"
            )
        ptr = np.concatenate(([0], np.cumsum(weights)))
    total = int(ptr[-1] - ptr[0])
    num_workers = min(num_workers, n_sub)
    if num_workers == 1 or total == 0:
        return [(0, n_sub)]
    # Cut at sub-tensor boundaries closest to equal cumulative-weight
    # shares (nnz shares by default).
    targets = (np.arange(1, num_workers) * total) // num_workers
    cuts = np.searchsorted(ptr[1:], ptr[0] + targets, side="left") + 1
    bounds = np.unique(np.concatenate(([0], cuts, [n_sub])))
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(bounds.shape[0] - 1)
        if bounds[i + 1] > bounds[i]
    ]


def prepare_x(
    x: SparseTensor,
    plan: ContractionPlan,
    profile: RunProfile,
    *,
    x_format: str = "coo",
) -> PreparedX:
    """Stage 1 for X: permute to "correct mode order", sort, group.

    Permutation is a pointer exchange (free); sorting is the
    O(nnz_X log nnz_X) term of Eqs. (3)/(4).

    ``x_format="hicoo"`` stores X in HiCOO blocks (the paper's stated
    follow-up: "will adopt a more compressed format for the sparse
    tensor X"). The computation is unchanged — HiCOO expands to the
    same sorted stream — but X's footprint and stage-1/2 traffic shrink
    by the measured compression ratio, which the memory experiments see.
    """
    nfx = len(plan.fx)
    xp = x.permute(plan.x_mode_order()).sort()
    ptr = xp.fiber_pointers(nfx)
    fx_rows = xp.indices[ptr[:-1], :nfx]
    cx_ln = linearize(xp.indices[:, nfx:], plan.contract_dims)
    rowb = coo_row_bytes(x.order)
    profile.counters["nnz_x"] = x.nnz
    x_bytes = x.nnz * rowb
    if x_format == "hicoo":
        from repro.tensor.hicoo import HiCOOTensor

        hic = HiCOOTensor.from_coo(xp)
        x_bytes = hic.nbytes
        profile.counters["x_compression_x1000"] = int(
            hic.compression_ratio() * 1000
        )
    elif x_format != "coo":
        raise ShapeError(f"unknown x_format {x_format!r}")
    profile.note_object_bytes(DataObject.X, x_bytes)
    sort_bytes = int(x_bytes * sort_passes(x.nnz))
    profile.record_traffic(
        DataObject.X, Stage.INPUT_PROCESSING, AccessKind.READ,
        AccessPattern.RANDOM, sort_bytes,
    )
    profile.record_traffic(
        DataObject.X, Stage.INPUT_PROCESSING, AccessKind.WRITE,
        AccessPattern.RANDOM, sort_bytes,
    )
    return PreparedX(ptr, fx_rows, cx_ln, xp.values)


@dataclass
class SortedY:
    """Y after SpTC-SPA's stage 1: permuted to (Cy, Fy) order and sorted.

    ``group_keys[g]`` is the LN contract key of sub-tensor *g*, which
    occupies ``group_ptr[g]:group_ptr[g+1]`` of ``free_ln``/``values``.
    ``nz_keys`` holds the contract key of *every* non-zero: the baseline's
    index search "iterates non-zeros of Y until Y(i3, i4, :, :) is found",
    so each probe pays an O(nnz_Y) scan over this array.
    """

    group_keys: np.ndarray
    group_ptr: np.ndarray
    nz_keys: np.ndarray
    free_ln: np.ndarray
    values: np.ndarray
    #: extents of the free / contracted modes (in permuted order) — lets
    #: the codegen layer derive a kernel signature; empty tuples (the
    #: default, for hand-built instances) disable specialization
    free_dims: Tuple[int, ...] = ()
    contract_dims: Tuple[int, ...] = ()

    @property
    def num_groups(self) -> int:
        """Number of distinct contract-index sub-tensors."""
        return int(self.group_keys.shape[0])

    @property
    def nnz(self) -> int:
        """Stored non-zeros."""
        return int(self.nz_keys.shape[0])

    #: cap on the (batch x nnz) comparison matrix built at once
    _SCAN_BLOCK = 4_000_000

    def linear_search_many(
        self, keys: np.ndarray, profile: RunProfile
    ) -> np.ndarray:
        """Batched linear search: every key scans every Y non-zero.

        Genuine O(batch x nnz_Y) comparison work (blocked to bound
        temporaries) — Eq. 3's nnz_X x nnz_Y term, the cost HtY's O(1)
        lookup removes. Returns the group id per key, -1 where absent.
        """
        keys = np.asarray(keys, dtype=self.nz_keys.dtype)
        out = np.full(keys.shape[0], -1, dtype=np.int64)
        nnz = self.nnz
        profile.bump("search_probes", int(keys.shape[0]) * nnz)
        if nnz == 0 or keys.shape[0] == 0:
            return out
        block = max(1, self._SCAN_BLOCK // nnz)
        for lo in range(0, keys.shape[0], block):
            hi = min(lo + block, keys.shape[0])
            eq = keys[lo:hi, None] == self.nz_keys[None, :]
            any_hit = eq.any(axis=1)
            first_nz = eq.argmax(axis=1)[any_hit]
            # Map the first matching non-zero to its sub-tensor id.
            out[lo:hi][any_hit] = (
                np.searchsorted(self.group_ptr, first_nz, side="right") - 1
            )
        return out

    def binary_search_many(
        self, keys: np.ndarray, profile: RunProfile
    ) -> np.ndarray:
        """O(log num_groups)-per-probe search over the sorted group keys.

        This is what a CSF-style structure buys when the contract modes
        are the *leading* (root) modes: sorted order admits binary
        search. The ablation compares it against the linear scan and
        HtY's O(1) hash probe. Returns group ids, -1 where absent.
        """
        keys = np.asarray(keys, dtype=self.group_keys.dtype)
        out = np.full(keys.shape[0], -1, dtype=np.int64)
        n_groups = self.num_groups
        if n_groups == 0 or keys.shape[0] == 0:
            return out
        profile.bump(
            "search_probes",
            int(keys.shape[0])
            * max(int(np.ceil(np.log2(n_groups + 1))), 1),
        )
        pos = np.searchsorted(self.group_keys, keys)
        pos_c = np.minimum(pos, n_groups - 1)
        hit = self.group_keys[pos_c] == keys
        out[hit] = pos_c[hit]
        return out

    def linear_search(self, key: int, profile: RunProfile) -> Optional[int]:
        """Scan Y's non-zeros for *key*; O(nnz_Y) comparisons per probe."""
        hits = np.flatnonzero(self.nz_keys == key)
        profile.bump("search_probes", self.nnz)
        if hits.size:
            return int(
                np.searchsorted(self.group_ptr, hits[0], side="right") - 1
            )
        return None

    def group(self, g: int) -> Tuple[np.ndarray, np.ndarray]:
        """(free_ln, values) slice views of sub-tensor *g*."""
        s, e = int(self.group_ptr[g]), int(self.group_ptr[g + 1])
        return self.free_ln[s:e], self.values[s:e]


def prepare_y_sorted(
    y: SparseTensor, plan: ContractionPlan, profile: RunProfile
) -> SortedY:
    """Stage 1 for Y in the COO engines: permute+sort, then group.

    Costs the O(nnz_Y log nnz_Y) term of Eq. (3).
    """
    ncy = len(plan.cy)
    yp = y.permute(plan.y_mode_order()).sort()
    ptr = yp.fiber_pointers(ncy)
    nz_keys = linearize(yp.indices[:, :ncy], plan.contract_dims)
    ckeys = nz_keys[ptr[:-1]]
    fkeys = linearize(yp.indices[:, ncy:], plan.fy_dims)
    rowb = coo_row_bytes(y.order)
    profile.counters["nnz_y"] = y.nnz
    profile.note_object_bytes(DataObject.Y, y.nnz * rowb)
    sort_bytes = int(y.nnz * rowb * sort_passes(y.nnz))
    profile.record_traffic(
        DataObject.Y, Stage.INPUT_PROCESSING, AccessKind.READ,
        AccessPattern.SEQUENTIAL, sort_bytes,
    )
    profile.record_traffic(
        DataObject.Y, Stage.INPUT_PROCESSING, AccessKind.WRITE,
        AccessPattern.RANDOM, sort_bytes,
    )
    return SortedY(
        ckeys,
        ptr,
        nz_keys,
        fkeys,
        yp.values,
        free_dims=tuple(plan.fy_dims),
        contract_dims=tuple(plan.contract_dims),
    )


class LocalOutput:
    """Z_local — a thread-local dynamic output buffer (paper §3.5).

    Collects per-sub-tensor writeback results as (free-X row, LN free-Y
    keys, values) triples; :func:`assemble_output` gathers all locals
    into Z.
    """

    def __init__(self) -> None:
        self.fx_rows: List[np.ndarray] = []
        self.fy_keys: List[np.ndarray] = []
        self.values: List[np.ndarray] = []
        self.nnz = 0

    def append(
        self, fx_row: np.ndarray, fy_keys: np.ndarray, values: np.ndarray
    ) -> None:
        """Write back one sub-tensor's accumulator contents."""
        if fy_keys.shape[0] == 0:
            return
        self.fx_rows.append(fx_row)
        self.fy_keys.append(fy_keys)
        self.values.append(values)
        self.nnz += int(fy_keys.shape[0])

    def nbytes(self, nfx: int) -> int:
        """Approximate bytes held (per-entry fx row + fy key + value)."""
        return self.nnz * (8 * nfx + 8 + 8)


def assemble_output(
    locals_: List[LocalOutput],
    plan: ContractionPlan,
    profile: RunProfile,
) -> SparseTensor:
    """Stage 4 tail: gather Z_locals into Z.

    Mirrors Algorithm 2 line 17: sizes are known only after the locals are
    complete, then all locals are copied out in one pass.
    """
    out_shape = plan.out_shape
    nfx = len(plan.fx)
    total = sum(loc.nnz for loc in locals_)
    indices = np.empty((total, plan.out_order), dtype=INDEX_DTYPE)
    values = np.empty(total, dtype=VALUE_DTYPE)
    pos = 0
    for loc in locals_:
        for fx_row, fy_keys, vals in zip(loc.fx_rows, loc.fy_keys, loc.values):
            n = fy_keys.shape[0]
            indices[pos : pos + n, :nfx] = fx_row
            indices[pos : pos + n, nfx:] = delinearize(fy_keys, plan.fy_dims)
            values[pos : pos + n] = vals
            pos += n
    z = SparseTensor(indices, values, out_shape, copy=False, validate=False)

    rowb = coo_row_bytes(plan.out_order)
    profile.bump("nnz_z", total)
    profile.note_object_bytes(DataObject.Z, total * rowb)
    zl_bytes = max((loc.nbytes(nfx) for loc in locals_), default=0)
    profile.note_object_bytes(DataObject.Z_LOCAL, zl_bytes)
    profile.record_traffic(
        DataObject.Z_LOCAL, Stage.WRITEBACK, AccessKind.READ,
        AccessPattern.SEQUENTIAL, total * rowb,
    )
    profile.record_traffic(
        DataObject.Z, Stage.WRITEBACK, AccessKind.WRITE,
        AccessPattern.SEQUENTIAL, total * rowb,
    )
    return z
