"""Merge-based output sorting must equal a stable sort, byte for byte."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.parallel.merge import merge_fused_runs, merge_sorted_runs


@dataclass
class FakeRun:
    """Stand-in for FusedRange: just the three output arrays."""

    out_fgrp: np.ndarray
    out_fy: np.ndarray
    out_vals: np.ndarray


def make_run(fgrp, fy):
    fgrp = np.asarray(fgrp, dtype=np.int64)
    fy = np.asarray(fy, dtype=np.int64)
    vals = (fgrp * 1000 + fy).astype(np.float64)
    return FakeRun(fgrp, fy, vals)


class TestMergeSortedRuns:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_stable_sort_of_concatenation(self, k, seed):
        rng = np.random.default_rng(seed * 10 + k)
        runs = [
            np.sort(rng.integers(0, 200, size=int(rng.integers(0, 60))))
            .astype(np.int64)
            for _ in range(k)
        ]
        merged, gather = merge_sorted_runs(runs)
        cat = np.concatenate(runs) if runs else np.empty(0, np.int64)
        ref_perm = np.argsort(cat, kind="stable")
        np.testing.assert_array_equal(merged, cat[ref_perm])
        np.testing.assert_array_equal(gather, ref_perm)

    def test_empty(self):
        merged, gather = merge_sorted_runs([])
        assert merged.size == 0 and gather.size == 0

    def test_stability_ties_keep_run_order(self):
        a = np.array([5, 5], dtype=np.int64)
        b = np.array([5], dtype=np.int64)
        _, gather = merge_sorted_runs([a, b])
        np.testing.assert_array_equal(gather, [0, 1, 2])


def reference_sorted(runs):
    fgrp = np.concatenate([r.out_fgrp for r in runs])
    fy = np.concatenate([r.out_fy for r in runs])
    vals = np.concatenate([r.out_vals for r in runs])
    perm = np.lexsort((fy, fgrp))
    return fgrp[perm], fy[perm], vals[perm]


class TestMergeFusedRuns:
    def test_disjoint_ranges_take_concat_path(self):
        runs = [
            make_run([0, 0, 1], [2, 5, 0]),
            make_run([2, 3], [1, 1]),
            make_run([5, 5], [0, 9]),
        ]
        fgrp, fy, vals, presorted, path = merge_fused_runs(runs, (10,))
        assert path == "concat" and presorted
        rg, ry, rv = reference_sorted(runs)
        np.testing.assert_array_equal(fgrp, rg)
        np.testing.assert_array_equal(fy, ry)
        np.testing.assert_array_equal(vals, rv)

    def test_overlapping_runs_take_kway_path(self):
        runs = [
            make_run([0, 2, 4], [1, 1, 1]),
            make_run([1, 3, 5], [0, 0, 0]),
            make_run([0, 5], [9, 9]),
        ]
        fgrp, fy, vals, presorted, path = merge_fused_runs(runs, (10,))
        assert path == "kway" and presorted
        rg, ry, rv = reference_sorted(runs)
        np.testing.assert_array_equal(fgrp, rg)
        np.testing.assert_array_equal(fy, ry)
        np.testing.assert_array_equal(vals, rv)

    def test_unsorted_run_falls_back_to_lexsort(self):
        runs = [make_run([3, 1], [0, 0])]
        fgrp, fy, vals, presorted, path = merge_fused_runs(runs, (10,))
        assert path == "lexsort" and not presorted
        np.testing.assert_array_equal(fgrp, [3, 1])

    def test_key_overflow_falls_back_to_lexsort(self):
        runs = [make_run([2**40], [0])]
        _, _, _, presorted, path = merge_fused_runs(runs, (2**40,))
        assert path == "lexsort" and not presorted

    def test_empty_runs(self):
        fgrp, fy, vals, presorted, path = merge_fused_runs([], (10,))
        assert path == "empty" and presorted
        assert fgrp.size == fy.size == vals.size == 0
        runs = [make_run([], [])]
        _, _, _, presorted, path = merge_fused_runs(runs, (10,))
        assert path == "empty" and presorted

    @pytest.mark.parametrize("seed", range(5))
    def test_random_overlapping_runs_match_lexsort(self, seed):
        rng = np.random.default_rng(seed)
        runs = []
        for _ in range(int(rng.integers(2, 6))):
            n = int(rng.integers(1, 50))
            fgrp = np.sort(rng.integers(0, 30, size=n)).astype(np.int64)
            # fy sorted within each fgrp segment, unique per (fgrp, fy)
            fy = np.zeros(n, dtype=np.int64)
            for g in np.unique(fgrp):
                m = fgrp == g
                fy[m] = np.sort(
                    rng.choice(100, size=int(m.sum()), replace=False)
                )
            runs.append(make_run(fgrp, fy))
        fgrp, fy, vals, presorted, path = merge_fused_runs(runs, (100,))
        assert presorted and path in ("concat", "kway")
        rg, ry, rv = reference_sorted(runs)
        np.testing.assert_array_equal(fgrp, rg)
        np.testing.assert_array_equal(fy, ry)
        np.testing.assert_array_equal(vals, rv)


# ---------------------------------------------------------------------------
# Edge cases, byte-identical between in-core arrays and mmapped run files
# ---------------------------------------------------------------------------


def _edge_case_runs(which):
    """Key-run families the k-way merge must survive unchanged."""
    rng = np.random.default_rng(hash(which) % (2**32))
    if which == "single":
        return [np.sort(rng.integers(0, 500, size=300)).astype(np.int64)]
    if which == "empty_mixed":
        return [
            np.empty(0, dtype=np.int64),
            np.sort(rng.integers(0, 100, size=40)).astype(np.int64),
            np.empty(0, dtype=np.int64),
            np.sort(rng.integers(0, 100, size=25)).astype(np.int64),
            np.empty(0, dtype=np.int64),
        ]
    if which == "all_empty":
        return [np.empty(0, dtype=np.int64) for _ in range(4)]
    if which == "all_duplicates":
        return [
            np.full(37, 7, dtype=np.int64),
            np.full(11, 7, dtype=np.int64),
            np.full(53, 7, dtype=np.int64),
        ]
    if which == "wildly_unequal":
        return [
            np.sort(rng.integers(0, 10_000, size=20_000)).astype(np.int64),
            np.array([5000], dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.sort(rng.integers(0, 10_000, size=3)).astype(np.int64),
            np.sort(rng.integers(0, 10_000, size=997)).astype(np.int64),
        ]
    raise AssertionError(which)


EDGE_CASES = (
    "single", "empty_mixed", "all_empty", "all_duplicates",
    "wildly_unequal",
)


def _spill_key_runs(runs, path):
    """Write key runs to one run file, read back as memmap views."""
    from repro.ooc import RunFileReader, RunFileWriter

    writer = RunFileWriter(path)
    for keys in runs:
        writer.append_run({"keys": keys})
    writer.close()
    reader = RunFileReader(path)
    return reader, [reader.run(i)["keys"] for i in range(reader.num_runs)]


class TestMergeEdgeCasesMmap:
    """merge_sorted_runs: in-core vs run-file inputs, byte for byte."""

    @pytest.mark.parametrize("which", EDGE_CASES)
    def test_in_core_reference(self, which):
        runs = _edge_case_runs(which)
        merged, gather = merge_sorted_runs(runs)
        cat = (
            np.concatenate(runs) if runs else np.empty(0, np.int64)
        )
        ref = np.argsort(cat, kind="stable")
        np.testing.assert_array_equal(merged, cat[ref])
        np.testing.assert_array_equal(gather, ref)

    @pytest.mark.parametrize("which", EDGE_CASES)
    def test_mmapped_runs_byte_identical(self, which, tmp_path):
        runs = _edge_case_runs(which)
        merged_mem, gather_mem = merge_sorted_runs(runs)
        reader, mapped = _spill_key_runs(
            runs, str(tmp_path / "keys.run")
        )
        try:
            for orig, view in zip(runs, mapped):
                assert view.dtype == orig.dtype
            merged_map, gather_map = merge_sorted_runs(mapped)
        finally:
            reader.close()
        assert merged_map.tobytes() == merged_mem.tobytes()
        assert gather_map.tobytes() == gather_mem.tobytes()

