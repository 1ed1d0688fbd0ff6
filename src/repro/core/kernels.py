"""Fused flat-batch SpTC kernels — stages 2-4 without the Python loop.

`looped_contract`'s ``granularity="subtensor"`` path historically drove one
Python iteration (and one fresh accumulator) per X sub-tensor, so runs with
many small fibers were dominated by interpreter overhead rather than the
paper's asymptotics. :func:`fused_compute` executes the same three stages
for *all* sub-tensors in one vectorized pass:

* one batched index search over all of X's contract keys (hash lookup,
  linear scan or binary search — unchanged probe accounting);
* one :func:`~repro.core.common.expand_ranges` gather of every partial
  product;
* segmented accumulation keyed by ``(fx_group, LN(Fy))`` via a stable
  ``np.lexsort`` + sequential segmented reduction (``np.bincount`` with
  weights; see the in-line note on why not ``np.add.reduceat``).

The hash-accumulator engines compute identical sums in identical order to
the per-element reference: ``np.add.at`` (element path), the per-sub-tensor
batched ``add_many`` and the fused weighted ``bincount`` all reduce
contributions in X-row-major order within each output key, so results are
bit-identical for coalesced inputs. The SPA engine is *not* fully vectorized on purpose: its
O(products x |SPA|) linear-search accumulation is the baseline quantity
Figure 4 measures, so only the search stage is fused and the genuine
:class:`~repro.hashtable.spa.SparseAccumulator` work is kept per sub-tensor.

Stage timers, operation counts and Table-2 traffic records are derived from
the measured counts, not from loop structure, so every experiment module
keeps working on fused profiles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.core.codegen import (
    KernelCache,
    KernelSignature,
    codegen_enabled,
    default_kernel_cache,
)
from repro.core.common import HT_ENTRY_BYTES, coo_row_bytes, expand_ranges
from repro.core.plan import ContractionPlan
from repro.core.profile import (
    AccessKind,
    AccessPattern,
    DataObject,
    RunProfile,
)
from repro.core.stages import Stage
from repro.hashtable.chaining import default_num_buckets
from repro.hashtable.spa import SparseAccumulator
from repro.tensor.coo import SparseTensor
from repro.tensor.linearize import delinearize
from repro.types import INDEX_DTYPE, VALUE_DTYPE

#: cap on partial products materialized per fused chunk (same budget as the
#: vectorized engine); chunk cuts snap to sub-tensor boundaries so each
#: output key is reduced in a single ``reduceat`` segment
DEFAULT_CHUNK_PAIRS = 4_000_000

#: fraction of HtA probes served by CPU caches (thread-private, 10-50 MB
#: per thread on the paper's machine — partially LLC-resident)
HTA_CACHE_HIT = 0.5

#: minimum chunk density (products per output-fiber-space cell) at which
#: the generated kernel switches from sort-based reduction to the dense
#: workspace: below it the O(workspace) zero-fill/compaction dominates
DEFAULT_DENSE_THRESHOLD = 0.5

#: cap on dense-workspace cells per chunk (two int64/float64 arrays of
#: this length are allocated), keeping the workspace LLC-sized
DEFAULT_WORKSPACE_CAP = 1 << 22


def _codegen_resolved(codegen: Optional[bool]) -> bool:
    """Resolve a per-call ``codegen`` flag against the env kill-switch.

    ``None`` means "use generated kernels when available"; an explicit
    ``True``/``False`` is honored — except that ``REPRO_NO_CODEGEN``
    dominates everything, so one environment variable reverts the whole
    process to the generic fused kernel.
    """
    if codegen is None:
        return codegen_enabled()
    return bool(codegen) and codegen_enabled()


@dataclass
class FusedRange:
    """Stages 2-4 output for a contiguous range of X sub-tensors.

    ``out_fgrp`` holds the *absolute* sub-tensor id of every output
    non-zero (sorted ascending, ``(fgrp, fy)`` lexicographic); callers
    index ``px.fx_rows`` with it directly.
    """

    out_fgrp: np.ndarray
    out_fy: np.ndarray
    out_vals: np.ndarray
    products: int
    accum_probes: int
    #: largest per-sub-tensor distinct-output count (sizes the modeled HtA)
    max_group_output: int
    #: measured peak SparseAccumulator bytes (SPA engine only, else 0)
    spa_peak_bytes: int
    search_seconds: float
    accum_seconds: float

    @property
    def nnz(self) -> int:
        return int(self.out_fy.shape[0])


#: rows compared per block by :func:`pairs_ascending`
_ORDER_CHECK_BLOCK = 1 << 16


def pairs_ascending(fgrp: np.ndarray, fy: np.ndarray) -> bool:
    """True when ``(fgrp, fy)`` rows never decrease lexicographically.

    The hash-accumulator kernels emit their output in this order, which
    is Z's row order, so a true result means stage 5's sort would be the
    identity. Compares neighbouring rows block by block, so the check
    allocates a few boolean arrays of one block each, never a key array.
    """
    n = int(fgrp.shape[0])
    for lo in range(0, n - 1, _ORDER_CHECK_BLOCK):
        hi = min(lo + _ORDER_CHECK_BLOCK, n - 1)
        g0, g1 = fgrp[lo:hi], fgrp[lo + 1:hi + 1]
        if (g1 < g0).any():
            return False
        if ((g1 == g0) & (fy[lo + 1:hi + 1] < fy[lo:hi])).any():
            return False
    return True


def hta_model_nbytes(
    max_distinct: int, accumulator_buckets: Optional[int] = None
) -> int:
    """Peak bytes of the per-sub-tensor :class:`HashAccumulator` the loop
    path would have allocated for its largest sub-tensor.

    Mirrors the accumulator's growth policy: bucket heads plus three
    entry arrays (key, next, value) at the next power-of-two capacity
    >= ``max_distinct`` (minimum 16).
    """
    num_buckets = accumulator_buckets or default_num_buckets(16)
    cap = 16
    while cap < max_distinct:
        cap *= 2
    return num_buckets * 8 + 3 * cap * 8


def _subtensor_chunks(
    fgrp: np.ndarray, lens: np.ndarray, chunk_pairs: int
) -> List[tuple]:
    """Cut the matched-row stream into chunks of ~*chunk_pairs* products,
    snapping each cut forward to the end of its sub-tensor so no output
    key spans two chunks (which would split its ``reduceat`` segment and
    change accumulation order)."""
    n = int(lens.shape[0])
    if n == 0:
        return []
    cum = np.cumsum(lens)
    cuts = []
    lo = 0
    base = 0
    while lo < n:
        hi = int(np.searchsorted(cum, base + chunk_pairs, side="right"))
        if hi <= lo:
            hi = lo + 1
        hi = int(np.searchsorted(fgrp, fgrp[hi - 1], side="right"))
        cuts.append((lo, hi))
        base = int(cum[hi - 1])
        lo = hi
    return cuts


def fused_compute(
    px,
    source,
    *,
    y_structure: str,
    accumulator: str,
    profile: RunProfile,
    accumulator_buckets: Optional[int] = None,
    lo: int = 0,
    hi: Optional[int] = None,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
    codegen: Optional[bool] = None,
    dense_threshold: float = DEFAULT_DENSE_THRESHOLD,
    workspace_cap: int = DEFAULT_WORKSPACE_CAP,
    kernel_cache: Optional[KernelCache] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> FusedRange:
    """Run stages 2-4 for sub-tensors ``[lo, hi)`` in one flat batch.

    ``source`` is the searched Y structure — a
    :class:`~repro.hashtable.tensor_table.HashTensor` when ``y_structure
    == "hash"``, else a :class:`~repro.core.common.SortedY`. Probe
    counters (``search_probes``) are bumped on *profile* exactly as the
    per-sub-tensor loop would: the batched searches issue one call over
    all keys, which charges the identical total.

    ``codegen`` selects a per-signature generated kernel for the hash
    accumulator's chunk reduction (:mod:`repro.core.codegen`): ``None``
    uses it when the signature is derivable (and ``REPRO_NO_CODEGEN``
    is unset), ``False`` forces the generic path. The generated kernel
    is bit-identical to the generic one; only wall time changes.
    ``dense_threshold`` and ``workspace_cap`` gate its dense-workspace
    strategy — a chunk accumulates through a flat dense array when its
    product density reaches the threshold and the workspace fits the
    cap. All counter/probe/traffic accounting is identical either way.
    """
    if hi is None:
        hi = px.num_subtensors
    ptr = px.ptr
    s0, e0 = int(ptr[lo]), int(ptr[hi])
    keys = px.cx_ln[s0:e0]

    # ---- stage 2: one batched index search over every contract key ----
    t = clock()
    if y_structure == "hash":
        gids = source.lookup_many(keys)
        profile.bump("search_probes", int(keys.shape[0]))
    elif y_structure == "coo_bsearch":
        gids = source.binary_search_many(keys, profile)
    else:
        gids = source.linear_search_many(keys, profile)
    rows = np.flatnonzero(gids >= 0)
    grp = gids[rows]
    src_ptr = source.group_ptr
    starts = src_ptr[grp]
    lens = (src_ptr[grp + 1] - starts).astype(np.int64)
    # Absolute sub-tensor id of every matched X non-zero (ascending).
    fgrp = (
        np.searchsorted(ptr, s0 + rows, side="right") - 1
        if rows.size
        else np.empty(0, dtype=np.int64)
    )
    search_seconds = clock() - t

    xvals = px.values
    src_free = source.free_ln
    src_vals = source.values
    out_fgrp_parts: List[np.ndarray] = []
    out_fy_parts: List[np.ndarray] = []
    out_val_parts: List[np.ndarray] = []
    products = 0
    accum_probes = 0
    max_out = 0
    spa_peak = 0
    accum_seconds = 0.0

    if accumulator == "hash":
        # ---- stages 3-4 fused: gather, multiply, segmented reduce -----
        kern = None
        if _codegen_resolved(codegen):
            sig = KernelSignature.from_operands(px, source, accumulator)
            if sig is not None:
                cache = kernel_cache or default_kernel_cache()
                kern = cache.get_fused_kernel(sig, profile)
        for a, b in _subtensor_chunks(fgrp, lens, chunk_pairs):
            t = clock()
            gather = expand_ranges(starts[a:b], lens[a:b])
            search_seconds += clock() - t
            if gather.shape[0] == 0:
                continue
            t = clock()
            ln = lens[a:b]
            vals = np.repeat(xvals[s0 + rows[a:b]], ln) * src_vals[gather]
            fy = src_free[gather]
            seg = np.repeat(fgrp[a:b], ln)
            if kern is not None:
                # Specialized chunk reduction (dense workspace / packed
                # quicksort / lexsort fallback) — bit-identical to the
                # generic path below; see repro.core.codegen.templates.
                o_seg, o_fy, o_vals, strategy = kern(
                    vals, fy, seg, dense_threshold, workspace_cap
                )
                profile.bump(f"codegen_{strategy}_chunks")
            else:
                # Stable sort keyed (sub-tensor, LN(Fy)) keeps
                # contributions in X-row order within each output key —
                # the same order the per-element np.add.at reference
                # sums in.
                perm = np.lexsort((fy, seg))
                seg_s = seg[perm]
                fy_s = fy[perm]
                mask = np.concatenate(
                    (
                        [True],
                        (seg_s[1:] != seg_s[:-1])
                        | (fy_s[1:] != fy_s[:-1]),
                    )
                )
                boundary = np.flatnonzero(mask)
                o_seg = seg_s[boundary]
                o_fy = fy_s[boundary]
                # Segmented reduction via bincount on the segment ids:
                # its C loop adds strictly in array order, so each
                # output key sums its contributions left-to-right
                # exactly like the reference np.add.at (np.add.reduceat
                # would be ~2x faster here but pairwise-sums segments
                # >= 8 elements, breaking bit-parity).
                inv = np.cumsum(mask) - 1
                o_vals = np.bincount(
                    inv, weights=vals[perm], minlength=boundary.shape[0]
                )
            out_fgrp_parts.append(o_seg)
            out_fy_parts.append(o_fy)
            out_val_parts.append(o_vals)
            products += int(gather.shape[0])
            sub_bnd = np.flatnonzero(
                np.concatenate(([True], o_seg[1:] != o_seg[:-1]))
            )
            max_out = max(
                max_out,
                int(
                    np.diff(
                        np.append(sub_bnd, o_seg.shape[0])
                    ).max()
                ),
            )
            accum_seconds += clock() - t
        # A fresh HtA per sub-tensor batch-inserts into an empty table:
        # zero chain-walk probes, matching the loop path's accounting.
        accum_probes = 0
    else:
        # ---- SPA: fuse the search, keep the genuine accumulation ------
        # The SPA's linear-search cost over its unsorted key list is the
        # baseline behaviour (Algorithm 1); vectorizing it away would
        # erase the very overhead Figure 4 measures.
        sub_bnd = (
            np.flatnonzero(
                np.concatenate(([True], fgrp[1:] != fgrp[:-1]))
            )
            if rows.size
            else np.empty(0, dtype=np.int64)
        )
        sub_end = np.append(sub_bnd[1:], rows.shape[0])
        for i in range(sub_bnd.shape[0]):
            a, b = int(sub_bnd[i]), int(sub_end[i])
            t = clock()
            gather = expand_ranges(starts[a:b], lens[a:b])
            search_seconds += clock() - t
            if gather.shape[0] == 0:
                continue
            t = clock()
            acc = SparseAccumulator()
            prod_vals = (
                np.repeat(xvals[s0 + rows[a:b]], lens[a:b])
                * src_vals[gather]
            )
            acc.add_many(src_free[gather], prod_vals)
            keys_out, vals_out = acc.export()
            out_fgrp_parts.append(
                np.full(keys_out.shape[0], int(fgrp[a]), dtype=np.int64)
            )
            out_fy_parts.append(keys_out)
            out_val_parts.append(vals_out)
            products += int(gather.shape[0])
            accum_probes += acc.probes
            spa_peak = max(spa_peak, acc.nbytes)
            max_out = max(max_out, int(keys_out.shape[0]))
            accum_seconds += clock() - t

    return FusedRange(
        out_fgrp=_concat(out_fgrp_parts, np.int64),
        out_fy=_concat(out_fy_parts, INDEX_DTYPE),
        out_vals=_concat(out_val_parts, VALUE_DTYPE),
        products=products,
        accum_probes=accum_probes,
        max_group_output=max_out,
        spa_peak_bytes=spa_peak,
        search_seconds=search_seconds,
        accum_seconds=accum_seconds,
    )


def _concat(parts: List[np.ndarray], dtype) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=dtype)
    out = np.concatenate(parts)
    return out.astype(dtype, copy=False)


def write_z_rows(
    indices: np.ndarray,
    fgrp: np.ndarray,
    fy: np.ndarray,
    fx_rows: np.ndarray,
    fy_dims,
) -> None:
    """Fill Z's index rows ``indices`` from output keys ``(fgrp, fy)``.

    The stage-4 writer of both sinks: each free-X column is one 1-D
    gather of that column of ``fx_rows`` (a 2-D fancy row gather copies
    through a strided temporary and takes several times as long), and
    the Fy columns are LN(Fy) delinearized straight into place.
    """
    nfx = fx_rows.shape[1]
    for j in range(nfx):
        indices[:, j] = fx_rows[:, j][fgrp]
    delinearize(fy, fy_dims, out=indices[:, nfx:])


def record_writeback(
    plan: ContractionPlan,
    profile: RunProfile,
    total: int,
    zlocal_peak_bytes: Optional[int] = None,
) -> None:
    """Stage-4 accounting for a Z of *total* non-zeros: one sequential
    read of Z_local and one sequential write of Z (Table 2).

    ``zlocal_peak_bytes`` overrides the recorded Z_local object size for
    callers whose locals are per-worker; the default is the single-local
    size, identical to the serial loop path.
    """
    rowb = coo_row_bytes(plan.out_order)
    profile.bump("nnz_z", total)
    profile.note_object_bytes(DataObject.Z, total * rowb)
    profile.note_object_bytes(
        DataObject.Z_LOCAL,
        total * (8 * len(plan.fx) + 16)
        if zlocal_peak_bytes is None else zlocal_peak_bytes,
    )
    profile.record_traffic(
        DataObject.Z_LOCAL, Stage.WRITEBACK, AccessKind.READ,
        AccessPattern.SEQUENTIAL, total * rowb,
    )
    profile.record_traffic(
        DataObject.Z, Stage.WRITEBACK, AccessKind.WRITE,
        AccessPattern.SEQUENTIAL, total * rowb,
    )


def assemble_fused(
    out_fgrp: np.ndarray,
    out_fy: np.ndarray,
    out_vals: np.ndarray,
    fx_rows: np.ndarray,
    plan: ContractionPlan,
    profile: RunProfile,
    *,
    zlocal_peak_bytes: Optional[int] = None,
) -> SparseTensor:
    """Vectorized stage-4 writeback with `assemble_output`'s accounting.

    Z's index rows are written once by :func:`write_z_rows`; Z adopts
    *out_vals* as its values. ``zlocal_peak_bytes`` is passed to
    :func:`record_writeback`.
    """
    total = int(out_fy.shape[0])
    indices = np.empty((total, plan.out_order), dtype=INDEX_DTYPE)
    write_z_rows(indices, out_fgrp, out_fy, fx_rows, plan.fy_dims)
    z = SparseTensor(
        indices, out_vals.astype(VALUE_DTYPE, copy=False), plan.out_shape,
        copy=False, validate=False,
    )
    record_writeback(plan, profile, total, zlocal_peak_bytes)
    return z


# ----------------------------------------------------------------------
# traffic accounting (Table 2 access signatures) — shared by the serial
# driver and the parallel executor
# ----------------------------------------------------------------------
def record_hty_build(
    y: SparseTensor, hty, profile: RunProfile, *, cached: bool = False
) -> None:
    """Input-processing traffic of the COO→HtY conversion (O(nnz_Y)).

    A cache hit (``cached=True``) skips the conversion entirely: the
    resident objects and counters are still noted (the simulator needs
    their footprints) but no Y read / HtY write traffic is charged, and
    the hit is counted in ``hty_cache_hits``.
    """
    rowb = coo_row_bytes(y.order)
    profile.counters["nnz_y"] = y.nnz
    profile.counters["hty_groups"] = hty.num_groups
    profile.counters["hty_max_group"] = hty.max_group_size
    profile.note_object_bytes(DataObject.Y, y.nnz * rowb)
    profile.note_object_bytes(DataObject.HTY, hty.nbytes)
    if cached:
        profile.bump("hty_cache_hits")
        return
    profile.record_traffic(
        DataObject.Y, Stage.INPUT_PROCESSING, AccessKind.READ,
        AccessPattern.SEQUENTIAL, y.nnz * rowb,
    )
    profile.record_traffic(
        DataObject.HTY, Stage.INPUT_PROCESSING, AccessKind.WRITE,
        AccessPattern.RANDOM, y.nnz * HT_ENTRY_BYTES,
    )
    profile.record_traffic(
        DataObject.HTY, Stage.INPUT_PROCESSING, AccessKind.READ,
        AccessPattern.RANDOM, hty.table.num_buckets * 8,
    )


def record_computation_traffic(
    plan: ContractionPlan,
    profile: RunProfile,
    x: SparseTensor,
    *,
    uses_hty: bool,
    products: int,
    hta_peak_bytes: int,
    created: int,
) -> None:
    """Stages 2-4 traffic per Table 2 from the run's measured counts.

    ``created`` is the pre-sort output non-zero count (Z_local entries).
    Derived purely from counters, so the loop driver, the fused kernel
    and the parallel executor all charge identical traffic for identical
    work.
    """
    # Index search: X streamed sequentially once (compressed size when
    # X is stored in HiCOO).
    x_bytes = profile.object_bytes.get(
        DataObject.X, x.nnz * coo_row_bytes(x.order)
    )
    profile.record_traffic(
        DataObject.X, Stage.INDEX_SEARCH, AccessKind.READ,
        AccessPattern.SEQUENTIAL, x_bytes,
    )
    if uses_hty:
        # Each lookup reads a bucket head (8 B) and walks chain entries
        # (HT_ENTRY_BYTES each); hits then stream the group's contiguous
        # (LN(Fy), val) arrays. Table 2 charges all of it to HtY in the
        # index-search stage as random reads.
        lookups = profile.counters.get("search_probes", 0)
        chain_reads = profile.counters.get("hash_probes", lookups)
        probe_bytes = lookups * 8 + chain_reads * HT_ENTRY_BYTES
        group_bytes = products * 16  # (LN(Fy), val) pairs
        profile.record_traffic(
            DataObject.HTY, Stage.INDEX_SEARCH, AccessKind.READ,
            AccessPattern.RANDOM, probe_bytes + group_bytes,
        )
    else:
        scan_bytes = profile.counters.get("search_probes", 0) * 8
        group_bytes = products * 16
        profile.record_traffic(
            DataObject.Y, Stage.INDEX_SEARCH, AccessKind.READ,
            AccessPattern.RANDOM, scan_bytes + group_bytes,
        )
    # Accumulation: each product probes the accumulator (random read of
    # the entry's key and value, 16 B); a hit updates the 8-byte value in
    # place, a miss creates a full entry. Created entries total the final
    # output count. HtA is thread-private and small (the paper: 10-50 MB
    # per thread) so a sizable share of its probes hit the CPU caches and
    # never reach memory — modeled by HTA_CACHE_HIT.
    profile.note_object_bytes(DataObject.HTA, hta_peak_bytes)
    miss = 1.0 - HTA_CACHE_HIT
    profile.record_traffic(
        DataObject.HTA, Stage.ACCUMULATION, AccessKind.READ,
        AccessPattern.RANDOM, int(products * 16 * miss),
    )
    profile.record_traffic(
        DataObject.HTA, Stage.ACCUMULATION, AccessKind.WRITE,
        AccessPattern.RANDOM,
        int(
            (max(products - created, 0) * 8 + created * HT_ENTRY_BYTES)
            * miss
        ),
    )
    # Z_local appended sequentially during computation (Table 2 row 3).
    nfx = len(plan.fx)
    profile.record_traffic(
        DataObject.Z_LOCAL, Stage.ACCUMULATION, AccessKind.WRITE,
        AccessPattern.SEQUENTIAL, created * (8 * nfx + 16),
    )
