"""HtY — the hash-table-represented second input tensor (paper §3.3).

Keys are ``LN(C_Y)`` (LN-compressed contract-mode indices); values are the
group of non-zeros sharing that key, stored as two *contiguous* dynamic
arrays: ``LN(F_Y)`` (LN-compressed free-mode indices, pre-converted so the
accumulator never re-linearizes — §3.4) and the non-zero values. Contiguous
group storage preserves the spatial locality Algorithm 1 gets from sorting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ContractionError
from repro.hashtable.chaining import ChainingHashTable, default_num_buckets
from repro.tensor.coo import SparseTensor
from repro.tensor.linearize import linearize
from repro.types import INDEX_DTYPE, VALUE_DTYPE


def split_contract_modes(
    order: int, shape: Sequence[int], contract_modes: Sequence[int]
) -> Tuple[List[int], List[int], Tuple[int, ...], Tuple[int, ...]]:
    """Validate *contract_modes* and split out the free modes.

    Returns ``(contract_modes, free_modes, contract_dims, free_dims)``.
    Shared by the serial COO→HtY conversion and the parallel partial
    builders so both reject exactly the same inputs.
    """
    contract_modes = [int(m) for m in contract_modes]
    free_modes = [m for m in range(order) if m not in contract_modes]
    if len(contract_modes) + len(free_modes) != order or not contract_modes:
        raise ContractionError(
            f"invalid contract modes {contract_modes} for order {order}"
        )
    if not free_modes:
        raise ContractionError(
            "Y must keep at least one free mode (full reduction of Y "
            "is a dot product; use the planner's scalar path)"
        )
    contract_dims = tuple(shape[m] for m in contract_modes)
    free_dims = tuple(shape[m] for m in free_modes)
    return contract_modes, free_modes, contract_dims, free_dims


@dataclass
class PartialGroups:
    """One span unit's grouped Y non-zeros (stage-1 partial build).

    A partial is the ckeys-argsort + group-boundary step of the COO→HtY
    conversion restricted to a contiguous span ``[lo, hi)`` of Y's rows:
    ``group_keys`` holds the span's distinct LN contract keys (ascending)
    and group *g* occupies rows ``group_ptr[g]:group_ptr[g+1]`` of
    ``free_ln``/``values``, in original Y-row order within the group.
    Partials over consecutive spans merge into the exact serial build
    (:meth:`HashTensor.merge_partials`).
    """

    group_keys: np.ndarray
    group_ptr: np.ndarray
    free_ln: np.ndarray
    values: np.ndarray

    @property
    def num_groups(self) -> int:
        return int(self.group_keys.shape[0])

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])


def _expand_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + l)`` for each range without a Python loop.

    Local copy of :func:`repro.core.common.expand_ranges` — the core layer
    imports the hashtable layer, so the dependency cannot point back.
    """
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lens)[:-1]))
    return (
        np.arange(total, dtype=np.int64)
        + np.repeat(starts.astype(np.int64) - offsets, lens)
    )


def build_partial_groups(
    indices: np.ndarray,
    values: np.ndarray,
    contract_modes: Sequence[int],
    free_modes: Sequence[int],
    contract_dims: Sequence[int],
    free_dims: Sequence[int],
    lo: int = 0,
    hi: Optional[int] = None,
) -> PartialGroups:
    """Group rows ``[lo, hi)`` of a COO index/value pair by contract key.

    The parallel stage-1 work unit: LN-linearize the span's contract and
    free indices, stable-argsort by contract key, and record the group
    boundaries. O(span log span); runs against raw (possibly
    shared-memory) arrays so process workers never materialize a
    :class:`~repro.tensor.coo.SparseTensor`.
    """
    if hi is None:
        hi = int(indices.shape[0])
    lo, hi = int(lo), int(hi)
    span = indices[lo:hi]
    n = int(span.shape[0])
    if n == 0:
        return PartialGroups(
            np.empty(0, dtype=INDEX_DTYPE),
            np.zeros(1, dtype=INDEX_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
            np.empty(0, dtype=VALUE_DTYPE),
        )
    ckeys = linearize(span[:, list(contract_modes)], contract_dims)
    fkeys = linearize(span[:, list(free_modes)], free_dims)
    perm = np.argsort(ckeys, kind="stable")
    ckeys_sorted = ckeys[perm]
    boundaries = np.flatnonzero(
        np.concatenate(([True], ckeys_sorted[1:] != ckeys_sorted[:-1]))
    )
    return PartialGroups(
        ckeys_sorted[boundaries],
        np.concatenate((boundaries, [n])).astype(INDEX_DTYPE),
        fkeys[perm].astype(INDEX_DTYPE, copy=False),
        values[lo:hi][perm].astype(VALUE_DTYPE, copy=False),
    )


class HashTensor:
    """Hash-table representation of Y for contraction (HtY)."""

    #: True when the backing arrays are views of shared-memory blocks
    #: whose lifetime is owned elsewhere (see :meth:`from_shared_buffers`)
    shared: bool = False

    def __init__(
        self,
        table: ChainingHashTable,
        group_ptr: np.ndarray,
        free_ln: np.ndarray,
        values: np.ndarray,
        free_dims: Tuple[int, ...],
        contract_dims: Tuple[int, ...],
        source_fingerprint: Optional[str] = None,
    ) -> None:
        self.table = table
        #: group g occupies rows group_ptr[g]:group_ptr[g+1] of free_ln/values
        self.group_ptr = group_ptr
        self.free_ln = free_ln
        self.values = values
        self.free_dims = free_dims
        self.contract_dims = contract_dims
        #: content digest of the source tensor this HtY was built from
        #: (see :meth:`repro.tensor.coo.SparseTensor.fingerprint`); None
        #: when the builder did not supply one
        self.source_fingerprint = source_fingerprint

    # ------------------------------------------------------------------
    @property
    def num_groups(self) -> int:
        """Number of distinct contract-index keys (mode-C sub-tensors)."""
        return len(self.table)

    @property
    def nnz(self) -> int:
        """Stored non-zeros."""
        return int(self.values.shape[0])

    @property
    def max_group_size(self) -> int:
        """Largest sub-tensor size — nnz^Y_Fmax in Eq. 6."""
        if self.num_groups == 0:
            return 0
        return int(np.diff(self.group_ptr).max())

    @property
    def avg_group_size(self) -> float:
        """Average sub-tensor size — nnz_Favg in Eq. 4."""
        if self.num_groups == 0:
            return 0.0
        return self.nnz / self.num_groups

    @property
    def nbytes(self) -> int:
        """Bytes held by the table plus group arrays (cf. Eq. 5)."""
        return int(
            self.table.nbytes
            + self.group_ptr.nbytes
            + self.free_ln.nbytes
            + self.values.nbytes
        )

    @property
    def identity(self) -> Tuple:
        """Stable identity of this build: what went in and how.

        Equal identities mean structurally interchangeable HtYs — the
        cache key the operand cache uses, exposed here so a cached HtY
        can be audited against the operands it claims to represent.
        """
        return (
            self.source_fingerprint,
            self.contract_dims,
            self.free_dims,
            self.table.num_buckets,
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        tensor: SparseTensor,
        contract_modes: Sequence[int],
        *,
        num_buckets: Optional[int] = None,
        source_fingerprint: Optional[str] = None,
    ) -> "HashTensor":
        """Build HtY from a COO tensor.

        The COO-to-hashtable conversion replaces the permutation+sort of Y
        in Algorithm 1, which the paper costs as "O(nnz_Y) versus
        O(nnz_Y log nnz_Y)". Here it runs one stable argsort of Y's LN
        contract keys, to store each group's rows contiguously, and then
        links the hash chains in linear time (see
        :meth:`ChainingHashTable.merge_partials`). Y's index tuples are
        never sorted.

        ``source_fingerprint`` stamps the build with the content digest of
        *tensor* (pass the already-computed digest to avoid rehashing);
        the operand cache uses it as part of the HtY's stable identity.
        """
        contract_modes, free_modes, contract_dims, free_dims = (
            split_contract_modes(tensor.order, tensor.shape, contract_modes)
        )
        if tensor.nnz == 0:
            return cls.merge_partials(
                [],
                free_dims,
                contract_dims,
                num_buckets=num_buckets,
                source_fingerprint=source_fingerprint,
            )
        partial = build_partial_groups(
            tensor.indices,
            tensor.values,
            contract_modes,
            free_modes,
            contract_dims,
            free_dims,
        )
        return cls.merge_partials(
            [partial],
            free_dims,
            contract_dims,
            num_buckets=num_buckets,
            source_fingerprint=source_fingerprint,
        )

    # ------------------------------------------------------------------
    @classmethod
    def merge_partials(
        cls,
        partials: Sequence[PartialGroups],
        free_dims: Sequence[int],
        contract_dims: Sequence[int],
        *,
        num_buckets: Optional[int] = None,
        source_fingerprint: Optional[str] = None,
    ) -> "HashTensor":
        """Merge per-worker partial groupings into one HtY (stage-1 merge).

        *partials* must cover consecutive, disjoint spans of the source
        tensor's rows in order (the natural output of partitioning Y's
        non-zeros). The merge is fully vectorized: one stable argsort over
        the concatenated per-partial group keys orders groups by
        ``(key, partial)``, which — because each partial preserves original
        row order within its groups — reproduces the exact row order a
        serial :meth:`from_coo` build produces. The merged keys are sorted
        and unique, so the hash chains are linked straight into an empty
        table, as a serial build links them: ``heads``/``keys``/``nxt``
        and all downstream probe counts are bit-identical to the serial
        path.
        """
        free_dims = tuple(int(d) for d in free_dims)
        contract_dims = tuple(int(d) for d in contract_dims)
        parts = [p for p in partials if p.nnz]
        if not parts:
            return cls(
                ChainingHashTable(num_buckets or 16),
                np.zeros(1, dtype=INDEX_DTYPE),
                np.empty(0, dtype=INDEX_DTYPE),
                np.empty(0, dtype=VALUE_DTYPE),
                free_dims,
                contract_dims,
                source_fingerprint,
            )
        if len(parts) == 1:
            pg = parts[0]
            table, _ = ChainingHashTable.merge_partials(
                [pg.group_keys], num_buckets=num_buckets
            )
            return cls(
                table,
                pg.group_ptr.astype(INDEX_DTYPE, copy=False),
                pg.free_ln,
                pg.values,
                free_dims,
                contract_dims,
                source_fingerprint,
            )
        all_keys = np.concatenate([p.group_keys for p in parts])
        sizes = np.concatenate([np.diff(p.group_ptr) for p in parts])
        data_lens = np.array([p.nnz for p in parts], dtype=np.int64)
        data_off = np.concatenate(([0], np.cumsum(data_lens)[:-1]))
        # absolute start of each group's rows in the concatenated data
        starts = np.concatenate(
            [p.group_ptr[:-1] + off for p, off in zip(parts, data_off)]
        )
        order = np.argsort(all_keys, kind="stable")
        keys_sorted = all_keys[order]
        uniq_starts = np.flatnonzero(
            np.concatenate(([True], keys_sorted[1:] != keys_sorted[:-1]))
        )
        merged_keys = keys_sorted[uniq_starts]
        sizes_ordered = sizes[order]
        group_sizes = np.add.reduceat(sizes_ordered, uniq_starts)
        group_ptr = np.concatenate(
            ([0], np.cumsum(group_sizes))
        ).astype(INDEX_DTYPE)
        gather = _expand_ranges(starts[order], sizes_ordered)
        free_ln = np.concatenate([p.free_ln for p in parts])[gather]
        values = np.concatenate([p.values for p in parts])[gather]
        table, _ = ChainingHashTable.merge_partials(
            [merged_keys], num_buckets=num_buckets
        )
        return cls(
            table,
            group_ptr,
            free_ln.astype(INDEX_DTYPE, copy=False),
            values.astype(VALUE_DTYPE, copy=False),
            free_dims,
            contract_dims,
            source_fingerprint,
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_shared_buffers(
        cls,
        *,
        heads: np.ndarray,
        keys: np.ndarray,
        nxt: np.ndarray,
        group_ptr: np.ndarray,
        free_ln: np.ndarray,
        values: np.ndarray,
        free_dims: Sequence[int],
        contract_dims: Sequence[int],
        source_fingerprint: Optional[str] = None,
    ) -> "HashTensor":
        """Reassemble an HtY from externally owned backing arrays.

        Zero-copy: the arrays (typically views of
        :mod:`multiprocessing.shared_memory` blocks exported by the
        process runtime, :func:`repro.parallel.procpool.export_operands`)
        are adopted as-is, so a worker process probes the exact bytes
        the parent built; a worker keeps the attachment for every chunk
        it is handed over the same operands. The caller owns
        the buffers' lifetime — the result is marked ``shared=True`` and
        must never outlive them (in particular it must not be stored in
        an :class:`~repro.core.htycache.HtYCache`, which refuses such
        entries).
        """
        table = ChainingHashTable.from_arrays(heads, keys, nxt)
        hty = cls(
            table,
            group_ptr,
            free_ln,
            values,
            tuple(int(d) for d in free_dims),
            tuple(int(d) for d in contract_dims),
            source_fingerprint,
        )
        hty.shared = True
        return hty

    def probe_view(self) -> "HashTensor":
        """Zero-copy view of this HtY with a private probe counter.

        Every run, and every worker range of a run, probes through its
        own view, so its ``table.probes`` counts exactly its own chain
        walks. Probing the shared table instead would mix the counts of
        runs that share a cached HtY, and lose updates when several
        threads ``+=`` one counter.
        """
        table = self.table
        return HashTensor.from_shared_buffers(
            heads=table.heads,
            keys=table.keys[: table.size],
            nxt=table.nxt[: table.size],
            group_ptr=self.group_ptr,
            free_ln=self.free_ln,
            values=self.values,
            free_dims=self.free_dims,
            contract_dims=self.contract_dims,
        )

    # ------------------------------------------------------------------
    def lookup(self, contract_key: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The stage-2 index search: O(1) expected.

        Returns ``(free_ln, values)`` views for the sub-tensor with the
        given LN contract key, or ``None`` when X's contract indices have
        no partner in Y (Algorithm 2 line 8-9).
        """
        slot = self.table.lookup(int(contract_key))
        if slot == -1:
            return None
        s, e = int(self.group_ptr[slot]), int(self.group_ptr[slot + 1])
        return self.free_ln[s:e], self.values[s:e]

    def lookup_many(self, contract_keys: np.ndarray) -> np.ndarray:
        """Vectorized stage-2 search; -1 group ids where absent."""
        return self.table.lookup_many(contract_keys)

    def group(self, slot: int) -> Tuple[np.ndarray, np.ndarray]:
        """Group arrays for a known slot (from :meth:`lookup_many`)."""
        s, e = int(self.group_ptr[slot]), int(self.group_ptr[slot + 1])
        return self.free_ln[s:e], self.values[s:e]
