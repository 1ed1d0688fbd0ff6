"""Partial-build + merge must be byte-identical to the serial HtY build."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hashtable.chaining import (
    ChainingHashTable,
    _bucket_order,
    _hash_keys,
)
from repro.hashtable.tensor_table import (
    HashTensor,
    PartialGroups,
    build_partial_groups,
    split_contract_modes,
)
from repro.tensor import random_tensor_fibered
from repro.errors import ContractionError


def make_y(seed: int = 7, nnz: int = 900):
    return random_tensor_fibered((14, 11, 9), nnz, 2, 40, seed=seed)


def span_partials(y, cy, spans):
    cmodes, fmodes, cdims, fdims = split_contract_modes(
        y.order, y.shape, cy
    )
    parts = [
        build_partial_groups(
            y.indices, y.values, cmodes, fmodes, cdims, fdims, lo, hi
        )
        for lo, hi in spans
    ]
    return parts, cdims, fdims


def assert_hty_byte_equal(a: HashTensor, b: HashTensor) -> None:
    np.testing.assert_array_equal(a.group_ptr, b.group_ptr)
    np.testing.assert_array_equal(a.free_ln, b.free_ln)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.table.num_buckets == b.table.num_buckets
    np.testing.assert_array_equal(a.table.heads, b.table.heads)
    np.testing.assert_array_equal(
        a.table.keys[: a.table.size], b.table.keys[: b.table.size]
    )
    np.testing.assert_array_equal(
        a.table.nxt[: a.table.size], b.table.nxt[: b.table.size]
    )
    assert a.free_dims == b.free_dims
    assert a.contract_dims == b.contract_dims


class TestChainingMergePartials:
    def test_union_of_sorted_runs(self):
        rng = np.random.default_rng(0)
        keys = rng.choice(10_000, size=600, replace=False).astype(np.int64)
        chunks = [np.sort(c) for c in np.array_split(keys, 4)]
        merged_table, merged_keys = ChainingHashTable.merge_partials(chunks)
        ref = ChainingHashTable(
            merged_table.num_buckets, capacity_hint=keys.shape[0]
        )
        ref.insert_many(np.sort(keys))
        np.testing.assert_array_equal(merged_keys, np.sort(keys))
        np.testing.assert_array_equal(merged_table.heads, ref.heads)
        np.testing.assert_array_equal(
            merged_table.keys[: merged_table.size], ref.keys[: ref.size]
        )
        np.testing.assert_array_equal(
            merged_table.nxt[: merged_table.size], ref.nxt[: ref.size]
        )

    def test_duplicates_across_partials_dedup(self):
        a = np.array([1, 5, 9], dtype=np.int64)
        b = np.array([5, 9, 12], dtype=np.int64)
        table, merged = ChainingHashTable.merge_partials([a, b])
        np.testing.assert_array_equal(merged, [1, 5, 9, 12])
        assert len(table) == 4

    def test_empty_inputs(self):
        table, merged = ChainingHashTable.merge_partials([])
        assert len(table) == 0 and merged.size == 0
        table, merged = ChainingHashTable.merge_partials(
            [np.empty(0, dtype=np.int64)]
        )
        assert len(table) == 0 and merged.size == 0

    def test_build_adds_zero_probes(self):
        # Serial from_coo measures hash_probes as a delta *after* the
        # build; the merged build must also leave probes at zero.
        chunks = [np.array([2, 4], dtype=np.int64),
                  np.array([1, 3], dtype=np.int64)]
        table, _ = ChainingHashTable.merge_partials(chunks)
        assert table.probes == 0


class TestHashTensorMergePartials:
    @pytest.mark.parametrize("num_spans", [1, 2, 3, 5, 8])
    def test_byte_identical_to_from_coo(self, num_spans):
        y = make_y()
        cy = (0, 1)
        ref = HashTensor.from_coo(y, cy)
        n = y.nnz
        bounds = [(i * n) // num_spans for i in range(num_spans + 1)]
        spans = list(zip(bounds[:-1], bounds[1:]))
        parts, cdims, fdims = span_partials(y, cy, spans)
        merged = HashTensor.merge_partials(parts, fdims, cdims)
        assert_hty_byte_equal(merged, ref)

    def test_uneven_and_empty_spans(self):
        y = make_y(seed=3)
        cy = (1, 2)
        ref = HashTensor.from_coo(y, cy)
        n = y.nnz
        spans = [(0, 1), (1, 1), (1, n - 2), (n - 2, n)]
        parts, cdims, fdims = span_partials(y, cy, spans)
        merged = HashTensor.merge_partials(parts, fdims, cdims)
        assert_hty_byte_equal(merged, ref)

    def test_no_partials_matches_empty_from_coo(self):
        from repro.tensor import SparseTensor

        y = SparseTensor.empty((6, 5))
        ref = HashTensor.from_coo(y, (0,))
        merged = HashTensor.merge_partials([], (5,), (6,))
        assert_hty_byte_equal(merged, ref)
        assert merged.nnz == 0 and merged.num_groups == 0

    def test_identical_probe_streams(self):
        # Identical structure must mean identical lookup cost, probe for
        # probe, under the same query stream.
        y = make_y(seed=11)
        cy = (0, 1)
        ref = HashTensor.from_coo(y, cy)
        parts, cdims, fdims = span_partials(
            y, cy, [(0, y.nnz // 3), (y.nnz // 3, y.nnz)]
        )
        merged = HashTensor.merge_partials(parts, fdims, cdims)
        rng = np.random.default_rng(5)
        queries = rng.integers(0, 14 * 11, size=500).astype(np.int64)
        p0_ref, p0_m = ref.table.probes, merged.table.probes
        slots_ref = ref.lookup_many(queries)
        slots_m = merged.lookup_many(queries)
        np.testing.assert_array_equal(slots_ref, slots_m)
        assert (
            ref.table.probes - p0_ref == merged.table.probes - p0_m
        )

    def test_num_buckets_override(self):
        y = make_y(seed=2, nnz=200)
        ref = HashTensor.from_coo(y, (0, 1), num_buckets=8)
        parts, cdims, fdims = span_partials(y, (0, 1), [(0, 100), (100, 200)])
        merged = HashTensor.merge_partials(
            parts, fdims, cdims, num_buckets=8
        )
        assert merged.table.num_buckets == 8
        assert_hty_byte_equal(merged, ref)


class TestBuildPartialGroups:
    def test_rejects_full_reduction(self):
        y = make_y()
        with pytest.raises(ContractionError):
            split_contract_modes(y.order, y.shape, (0, 1, 2))

    def test_group_rows_preserve_source_order(self):
        indices = np.array(
            [[0, 1], [1, 0], [0, 2], [1, 3], [0, 0]], dtype=np.int64
        )
        values = np.arange(5, dtype=np.float64)
        pg = build_partial_groups(
            indices, values, [0], [1], (2,), (4,), 0, 5
        )
        assert pg.num_groups == 2
        # key 0 rows in source order: rows 0, 2, 4 -> free 1, 2, 0
        np.testing.assert_array_equal(pg.free_ln[:3], [1, 2, 0])
        np.testing.assert_array_equal(pg.values[:3], [0.0, 2.0, 4.0])

    def test_empty_span(self):
        pg = build_partial_groups(
            np.empty((0, 2), dtype=np.int64),
            np.empty(0, dtype=np.float64),
            [0], [1], (2,), (4,),
        )
        assert pg.num_groups == 0 and pg.nnz == 0
        np.testing.assert_array_equal(pg.group_ptr, [0])

    def test_partials_are_picklable(self):
        import pickle

        y = make_y(seed=9, nnz=120)
        parts, _, _ = span_partials(y, (0, 1), [(0, 60), (60, 120)])
        clone = pickle.loads(pickle.dumps(parts[0]))
        assert isinstance(clone, PartialGroups)
        np.testing.assert_array_equal(clone.group_keys, parts[0].group_keys)


class TestProbeCounterConsistency:
    """Batch vs scalar probe accounting (satellite: bench assertion twin).

    ``lookup_many`` charges exactly what per-key ``lookup`` calls charge.
    ``insert_many`` matches scalar ``insert`` when the inserted keys land
    in distinct buckets (inside one bucket, scalar inserts walk the chain
    grown by their own batch — g(g-1)/2 extra comparisons — while the
    vectorized splice never re-walks its own batch).
    """

    def test_lookup_many_matches_scalar(self):
        rng = np.random.default_rng(1)
        keys = rng.choice(5000, size=300, replace=False).astype(np.int64)
        table = ChainingHashTable(64, capacity_hint=300)
        table.insert_many(np.sort(keys))
        queries = rng.integers(0, 6000, size=400).astype(np.int64)
        p0 = table.probes
        batch = table.lookup_many(queries)
        batch_probes = table.probes - p0
        p0 = table.probes
        scalar = np.array([table.lookup(int(k)) for k in queries])
        scalar_probes = table.probes - p0
        np.testing.assert_array_equal(batch, scalar)
        assert batch_probes == scalar_probes

    def test_insert_many_matches_scalar_distinct_buckets(self):
        rng = np.random.default_rng(2)
        num_buckets = 256
        cand = rng.choice(100_000, size=600, replace=False).astype(np.int64)
        buckets = _hash_keys(cand, num_buckets)
        _, first = np.unique(buckets, return_index=True)
        keys = np.sort(cand[first])  # ≤1 key per bucket
        batch = ChainingHashTable(num_buckets, capacity_hint=keys.size)
        batch.insert_many(keys)
        scalar = ChainingHashTable(num_buckets, capacity_hint=keys.size)
        for k in keys:
            scalar.insert(int(k))
        assert batch.probes == scalar.probes
        np.testing.assert_array_equal(batch.heads, scalar.heads)
        np.testing.assert_array_equal(
            batch.keys[: batch.size], scalar.keys[: scalar.size]
        )


def assert_tables_equal(a: ChainingHashTable, b: ChainingHashTable) -> None:
    assert a.num_buckets == b.num_buckets and a.size == b.size
    np.testing.assert_array_equal(a.heads, b.heads)
    np.testing.assert_array_equal(a.keys[: a.size], b.keys[: b.size])
    np.testing.assert_array_equal(a.nxt[: a.size], b.nxt[: b.size])


class TestLinearSplice:
    """The direct-link build and the shared radix splice.

    ``merge_partials`` links sorted, unique keys straight into an empty
    table, and ``insert_many`` splices through the same code. Both must
    leave ``heads``/``keys``/``nxt`` exactly as scalar ``insert`` calls
    leave them, on either side of the 65,536 buckets one 16-bit radix
    digit covers, so every later probe count matches too.
    """

    @pytest.mark.parametrize("num_buckets,n_keys", [
        (16, 400),
        (4_096, 6_000),
        (65_536, 30_000),
        (65_537, 30_000),
        (1 << 17, 30_000),
        (200_003, 30_000),
    ])
    def test_merge_partials_matches_scalar_inserts(self, num_buckets, n_keys):
        rng = np.random.default_rng(num_buckets)
        keys = np.sort(
            rng.choice(1 << 40, size=n_keys, replace=False)
        ).astype(np.int64)
        built, merged = ChainingHashTable.merge_partials(
            np.array_split(keys, 3), num_buckets=num_buckets
        )
        np.testing.assert_array_equal(merged, keys)
        scalar = ChainingHashTable(num_buckets)
        for k in keys.tolist():
            scalar.insert(k)
        assert_tables_equal(built, scalar)
        single, _ = ChainingHashTable.merge_partials(
            [keys], num_buckets=num_buckets
        )
        assert_tables_equal(single, scalar)
        assert built.probes == 0
        queries = np.concatenate(
            (keys[::7], rng.integers(0, 1 << 40, 500))
        ).astype(np.int64)
        p_built, p_scalar = built.probes, scalar.probes
        np.testing.assert_array_equal(
            built.lookup_many(queries), scalar.lookup_many(queries)
        )
        assert built.probes - p_built == scalar.probes - p_scalar

    @pytest.mark.parametrize("num_buckets", [64, 70_001])
    def test_insert_many_into_filled_table(self, num_buckets):
        rng = np.random.default_rng(5)
        first = rng.integers(0, 500_000, 3_000).astype(np.int64)
        second = rng.integers(0, 500_000, 3_000).astype(np.int64)
        second[:500] = first[:500]  # already stored
        batch = ChainingHashTable(num_buckets)
        scalar = ChainingHashTable(num_buckets)
        for chunk in (first, second):
            slots = batch.insert_many(chunk)
            expect = [scalar.insert(k)[0] for k in np.unique(chunk).tolist()]
            np.testing.assert_array_equal(
                np.unique(slots), np.sort(expect)
            )
            assert_tables_equal(batch, scalar)

    @pytest.mark.parametrize("num_buckets", [1, 300, 1 << 16, 1 << 17,
                                             (1 << 32) + 7, 1 << 40])
    def test_bucket_order_is_stable_argsort(self, num_buckets):
        rng = np.random.default_rng(num_buckets % 1000)
        buckets = rng.integers(0, num_buckets, 5_000).astype(np.int64)
        buckets[::3] = buckets[0]  # ties keep their input order
        np.testing.assert_array_equal(
            _bucket_order(buckets, num_buckets),
            np.argsort(buckets, kind="stable"),
        )
