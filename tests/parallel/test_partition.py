"""Tests for sub-tensor partitioning."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.parallel import partition_imbalance, partition_subtensors


def _ptr(sizes):
    return np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)


class TestPartition:
    def test_covers_everything_once(self):
        ptr = _ptr([3, 1, 4, 1, 5, 9, 2, 6])
        ranges = partition_subtensors(ptr, 3)
        covered = []
        for lo, hi in ranges:
            covered.extend(range(lo, hi))
        assert covered == list(range(8))

    def test_single_worker(self):
        ptr = _ptr([2, 2, 2])
        assert partition_subtensors(ptr, 1) == [(0, 3)]

    def test_more_workers_than_subtensors(self):
        ptr = _ptr([5, 5])
        ranges = partition_subtensors(ptr, 8)
        assert len(ranges) == 2

    def test_balanced_uniform(self):
        ptr = _ptr([10] * 12)
        ranges = partition_subtensors(ptr, 4)
        assert partition_imbalance(ptr, ranges) == pytest.approx(1.0)

    def test_balances_by_nnz_not_count(self):
        # One huge sub-tensor followed by many small ones.
        ptr = _ptr([100] + [1] * 100)
        ranges = partition_subtensors(ptr, 2)
        loads = [int(ptr[hi] - ptr[lo]) for lo, hi in ranges]
        assert max(loads) == 100  # the huge fiber sits alone

    def test_empty(self):
        assert partition_subtensors(_ptr([]), 4) == []

    def test_bad_worker_count(self):
        with pytest.raises(ShapeError):
            partition_subtensors(_ptr([1]), 0)

    def test_ranges_contiguous_and_ordered(self):
        rng = np.random.default_rng(3)
        ptr = _ptr(rng.integers(1, 50, size=64))
        ranges = partition_subtensors(ptr, 7)
        for (a_lo, a_hi), (b_lo, b_hi) in zip(ranges, ranges[1:]):
            assert a_hi == b_lo


class TestEdgeCases:
    def test_all_empty_fibers(self):
        # Sub-tensors exist but carry zero non-zeros: every range must
        # still be covered exactly once and imbalance degrades to 1.0.
        ptr = _ptr([0] * 10)
        ranges = partition_subtensors(ptr, 4)
        covered = [i for lo, hi in ranges for i in range(lo, hi)]
        assert covered == list(range(10))
        assert partition_imbalance(ptr, ranges) == 1.0

    def test_one_giant_fiber_among_empties(self):
        ptr = _ptr([0, 0, 1000, 0, 0])
        ranges = partition_subtensors(ptr, 3)
        covered = [i for lo, hi in ranges for i in range(lo, hi)]
        assert covered == list(range(5))
        loads = [int(ptr[hi] - ptr[lo]) for lo, hi in ranges]
        assert max(loads) == 1000  # indivisible — one range owns it all

    def test_more_workers_than_subtensors_covers_all(self):
        ptr = _ptr([7, 3, 9])
        ranges = partition_subtensors(ptr, 16)
        covered = [i for lo, hi in ranges for i in range(lo, hi)]
        assert covered == [0, 1, 2]
        assert len(ranges) <= 3  # never more ranges than sub-tensors

    def test_zero_product_workers_imbalance_is_one(self):
        # ParallelResult.load_imbalance must not divide by zero when
        # every worker reports zero products.
        from repro.core import contract
        from repro.parallel import ParallelResult, ThreadStats

        res = contract(
            *_empty_pair(), (1,), (0,), method="sparta",
            swap_larger_to_y=False,
        )
        par = ParallelResult(
            result=res,
            threads=3,
            thread_stats=[
                ThreadStats(
                    worker=w, subtensors=0, nnz_x=0, products=0,
                    output_nnz=0, seconds=0.0,
                )
                for w in range(3)
            ],
        )
        assert par.load_imbalance == 1.0

    def test_no_stats_imbalance_is_one(self):
        from repro.parallel import ParallelResult

        par = ParallelResult(result=None, threads=1, thread_stats=[])
        assert par.load_imbalance == 1.0


def _empty_pair():
    from repro.tensor import SparseTensor

    return SparseTensor.empty((3, 4)), SparseTensor.empty((4, 5))


class TestWeights:
    def test_none_weights_identical_to_nnz(self):
        rng = np.random.default_rng(5)
        sizes = rng.integers(1, 40, size=50)
        ptr = _ptr(sizes)
        assert partition_subtensors(ptr, 6) == partition_subtensors(
            ptr, 6, weights=sizes
        )

    def test_custom_weights_override_nnz(self):
        # nnz says uniform, weights say the first sub-tensor dominates:
        # the weighted cut isolates it.
        ptr = _ptr([10] * 8)
        weights = np.array([100] + [1] * 7, dtype=np.int64)
        ranges = partition_subtensors(ptr, 2, weights=weights)
        assert ranges[0] == (0, 1)

    def test_bad_weights_shape(self):
        with pytest.raises(ShapeError):
            partition_subtensors(_ptr([1, 2, 3]), 2, weights=np.array([1]))


class TestImbalance:
    def test_perfect(self):
        ptr = _ptr([4, 4])
        assert partition_imbalance(ptr, [(0, 1), (1, 2)]) == 1.0

    def test_skewed(self):
        ptr = _ptr([9, 1])
        assert partition_imbalance(ptr, [(0, 1), (1, 2)]) == pytest.approx(
            1.8
        )

    def test_empty_ranges(self):
        assert partition_imbalance(_ptr([1]), []) == 1.0
