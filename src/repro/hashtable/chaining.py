"""Separate-chaining hash table with fixed-size bucket array (paper §3.3).

Sparta stores HtY and HtA as separate-chaining hash tables whose keys are
LN-compressed (single int64) indices, "with fix-sized buckets to distribute
the keys". This module provides that structure as flat NumPy arrays:

* ``heads[b]`` — slot index of the first entry in bucket *b* (-1 if empty);
* ``nxt[s]``  — slot index of the next entry in the same chain;
* ``keys[s]`` — the int64 LN key stored in slot *s*.

Slots are allocated in insertion order, so slot indices double as payload
indices for whatever value arrays the caller maintains alongside.

The table counts key comparisons (``probes``) so the complexity experiments
can verify the O(1) expected-probe behaviour the paper relies on.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.types import INDEX_DTYPE

# Knuth multiplicative hashing constant for 64-bit keys (2^64 / phi).
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)
_EMPTY = np.int64(-1)


def _hash_keys(keys: np.ndarray, num_buckets: int) -> np.ndarray:
    """Map int64 keys to bucket indices via multiplicative hashing."""
    h = keys.astype(np.uint64) * _HASH_MULT
    # Fold the high bits down; avoids pathological behaviour for keys that
    # are small multiples of each other (LN keys often are).
    h ^= h >> np.uint64(32)
    return (h % np.uint64(num_buckets)).astype(np.int64)


def _bucket_order(buckets: np.ndarray, num_buckets: int) -> np.ndarray:
    """Stable permutation that groups *buckets* in ascending order.

    An LSD radix sort over 16-bit digits, one pass per digit that
    ``num_buckets`` needs (one pass up to 65,536 buckets, two up to
    2^32). numpy's stable argsort of ``uint16`` is itself a radix sort,
    so every pass is linear in the number of keys.
    """
    order = np.argsort((buckets & 0xFFFF).astype(np.uint16), kind="stable")
    shift = 16
    while (num_buckets - 1) >> shift:
        digit = ((buckets[order] >> shift) & 0xFFFF).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def default_num_buckets(expected_keys: int) -> int:
    """Bucket count targeting load factor ~1 (power of two, >= 16)."""
    n = 16
    while n < expected_keys:
        n <<= 1
    return n


class ChainingHashTable:
    """Int64-key separate-chaining hash table with insertion-order slots."""

    def __init__(self, num_buckets: int, *, capacity_hint: int = 16) -> None:
        if num_buckets <= 0:
            raise ShapeError(f"num_buckets must be positive, got {num_buckets}")
        self.num_buckets = int(num_buckets)
        self.heads = np.full(self.num_buckets, _EMPTY, dtype=INDEX_DTYPE)
        cap = max(int(capacity_hint), 4)
        self.keys = np.empty(cap, dtype=INDEX_DTYPE)
        self.nxt = np.empty(cap, dtype=INDEX_DTYPE)
        self.size = 0
        #: number of key comparisons performed by lookups/inserts
        self.probes = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        heads: np.ndarray,
        keys: np.ndarray,
        nxt: np.ndarray,
        *,
        size: int | None = None,
    ) -> "ChainingHashTable":
        """Adopt existing backing arrays without copying.

        The process-parallel backend rebuilds HtY's table from views of
        :mod:`multiprocessing.shared_memory` blocks; the arrays are used
        read-only (lookups never mutate them). ``size`` defaults to the
        full length of *keys*, i.e. the arrays are assumed trimmed to
        the stored entries.
        """
        table = cls.__new__(cls)
        table.num_buckets = int(heads.shape[0])
        table.heads = heads
        table.keys = keys
        table.nxt = nxt
        table.size = int(keys.shape[0] if size is None else size)
        table.probes = 0
        return table

    # ------------------------------------------------------------------
    @classmethod
    def merge_partials(
        cls,
        key_arrays: "list[np.ndarray]",
        *,
        num_buckets: int | None = None,
    ) -> "tuple[ChainingHashTable, np.ndarray]":
        """Build one table over the union of per-partial key arrays.

        ``key_arrays`` are the sorted, locally-unique key sets produced by
        per-worker partial builds (stage 1 of the parallel pipeline). The
        union is computed with one vectorized merge (concatenate + stable
        argsort + boundary mask — no Python per-key loop). The merged keys
        are sorted, unique and go into an empty table, so they are linked
        straight into their chains with no dedup and no lookup, through
        the same splice :meth:`insert_many` uses. The resulting
        ``heads``/``keys``/``nxt`` arrays — and therefore every future
        probe count — are bit-identical to inserting the keys one by one.

        Returns ``(table, merged_keys)`` where ``merged_keys[g]`` is the
        key stored in slot *g* (ascending).
        """
        arrays = [
            np.asarray(a, dtype=INDEX_DTYPE)
            for a in key_arrays
            if len(a)
        ]
        if not arrays:
            return cls(num_buckets or 16), np.empty(0, dtype=INDEX_DTYPE)
        if len(arrays) == 1:
            merged = arrays[0]
        else:
            allk = np.concatenate(arrays)
            allk = allk[np.argsort(allk, kind="stable")]
            merged = allk[
                np.concatenate(([True], allk[1:] != allk[:-1]))
            ]
        if num_buckets is None:
            num_buckets = default_num_buckets(merged.shape[0])
        table = cls(num_buckets, capacity_hint=merged.shape[0])
        table._append(merged)
        return table, merged

    # ------------------------------------------------------------------
    @property
    def load_factor(self) -> float:
        """Stored keys per bucket."""
        return self.size / self.num_buckets

    @property
    def nbytes(self) -> int:
        """Bytes held by bucket heads, chain links and keys."""
        return int(self.heads.nbytes + self.keys.nbytes + self.nxt.nbytes)

    def _grow(self) -> None:
        cap = self.keys.shape[0] * 2
        self.keys = np.resize(self.keys, cap)
        self.nxt = np.resize(self.nxt, cap)

    # ------------------------------------------------------------------
    # scalar operations
    # ------------------------------------------------------------------
    def lookup(self, key: int) -> int:
        """Slot index holding *key*, or -1."""
        bucket = int(_hash_keys(np.asarray([key], dtype=INDEX_DTYPE),
                                self.num_buckets)[0])
        slot = int(self.heads[bucket])
        while slot != -1:
            self.probes += 1
            if self.keys[slot] == key:
                return slot
            slot = int(self.nxt[slot])
        return -1

    def insert(self, key: int) -> tuple[int, bool]:
        """Insert *key* if absent.

        Returns ``(slot, created)``: the slot for the key, and whether a
        new slot was allocated.
        """
        bucket = int(_hash_keys(np.asarray([key], dtype=INDEX_DTYPE),
                                self.num_buckets)[0])
        slot = int(self.heads[bucket])
        while slot != -1:
            self.probes += 1
            if self.keys[slot] == key:
                return slot, False
            slot = int(self.nxt[slot])
        if self.size == self.keys.shape[0]:
            self._grow()
        new = self.size
        self.keys[new] = key
        self.nxt[new] = self.heads[bucket]
        self.heads[bucket] = new
        self.size += 1
        return new, True

    def __contains__(self, key: int) -> bool:
        return self.lookup(int(key)) != -1

    def __len__(self) -> int:
        return self.size

    # ------------------------------------------------------------------
    # vectorized operations (C-speed chain walking)
    # ------------------------------------------------------------------
    def insert_many(self, keys: np.ndarray) -> np.ndarray:
        """Insert a batch of keys; returns the slot of each input key.

        Duplicate keys (within the batch or vs. existing content) map to
        the same slot. Semantically identical to calling :meth:`insert`
        per key; the chain walks and the link updates are vectorized.
        """
        keys = np.asarray(keys, dtype=INDEX_DTYPE)
        if keys.ndim != 1:
            raise ShapeError(f"keys must be 1-D, got shape {keys.shape}")
        if keys.size == 0:
            return np.empty(0, dtype=INDEX_DTYPE)
        uniq, inverse = np.unique(keys, return_inverse=True)
        slots = self.lookup_many(uniq)
        missing = slots == -1
        if missing.any():
            slots[missing] = self._append(uniq[missing])
        return slots[inverse]

    def _append(self, keys: np.ndarray) -> np.ndarray:
        """Store *keys* (absent and distinct) in new slots; returns them.

        Each key is pushed onto the front of its bucket's chain in slot
        order, exactly as a run of scalar :meth:`insert` calls would do.
        The slots are grouped by bucket with a linear-time radix pass,
        each one is linked to its predecessor in the group, and the
        groups are spliced into the existing chains.
        """
        n_new = int(keys.shape[0])
        if n_new == 0:
            return np.empty(0, dtype=INDEX_DTYPE)
        needed = self.size + n_new
        if needed > self.keys.shape[0]:
            cap = self.keys.shape[0]
            while cap < needed:
                cap *= 2
            self.keys = np.resize(self.keys, cap)
            self.nxt = np.resize(self.nxt, cap)
        new_slots = np.arange(self.size, needed, dtype=INDEX_DTYPE)
        self.keys[self.size:needed] = keys
        buckets = _hash_keys(keys, self.num_buckets)
        order = _bucket_order(buckets, self.num_buckets)
        b_sorted = buckets[order]
        s_sorted = new_slots[order]
        starts = np.flatnonzero(
            np.concatenate(([True], b_sorted[1:] != b_sorted[:-1]))
        )
        is_start = np.zeros(n_new, dtype=bool)
        is_start[starts] = True
        self.nxt[s_sorted[starts]] = self.heads[b_sorted[starts]]
        rest = np.flatnonzero(~is_start)
        if rest.size:
            self.nxt[s_sorted[rest]] = s_sorted[rest - 1]
        ends = np.concatenate((starts[1:], [n_new])) - 1
        self.heads[b_sorted[starts]] = s_sorted[ends]
        self.size = needed
        return new_slots

    def lookup_many(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized lookup; -1 where a key is absent.

        Walks all chains in lock-step with NumPy so each chain level costs
        one vector operation rather than one Python iteration per key.
        """
        keys = np.asarray(keys, dtype=INDEX_DTYPE)
        if keys.ndim != 1:
            raise ShapeError(f"keys must be 1-D, got shape {keys.shape}")
        n = keys.shape[0]
        out = np.full(n, _EMPTY, dtype=INDEX_DTYPE)
        if n == 0 or self.size == 0:
            return out
        buckets = _hash_keys(keys, self.num_buckets)
        cursor = self.heads[buckets]
        active = cursor != -1
        while active.any():
            act_idx = np.flatnonzero(active)
            slots = cursor[act_idx]
            self.probes += int(act_idx.shape[0])
            hit = self.keys[slots] == keys[act_idx]
            hit_rows = act_idx[hit]
            out[hit_rows] = slots[hit]
            active[hit_rows] = False
            miss_rows = act_idx[~hit]
            cursor[miss_rows] = self.nxt[slots[~hit]]
            active[miss_rows] &= cursor[miss_rows] != -1
        return out

    def chain_lengths(self) -> np.ndarray:
        """Length of every bucket's chain (for load-balance diagnostics)."""
        lengths = np.zeros(self.num_buckets, dtype=np.int64)
        if self.size:
            buckets = _hash_keys(self.keys[: self.size], self.num_buckets)
            np.add.at(lengths, buckets, 1)
        return lengths
