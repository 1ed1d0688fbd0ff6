"""Tests for the LN (large-number) index representation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import LinearizationOverflowError, ShapeError
from repro.tensor.linearize import (
    delinearize,
    delinearize_tuple,
    linearize,
    linearize_tuple,
    ln_capacity,
    ln_strides,
)


class TestStrides:
    def test_row_major(self):
        assert ln_strides((2, 3, 4)).tolist() == [12, 4, 1]

    def test_single_mode(self):
        assert ln_strides((7,)).tolist() == [1]

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            ln_strides(())

    def test_zero_extent_rejected(self):
        with pytest.raises(ShapeError):
            ln_strides((3, 0))

    def test_negative_extent_rejected(self):
        with pytest.raises(ShapeError):
            ln_strides((3, -1))

    def test_overflow_detected(self):
        with pytest.raises(LinearizationOverflowError):
            ln_strides((2**32, 2**32))

    def test_capacity(self):
        assert ln_capacity((2, 3, 4)) == 24


class TestLinearize:
    def test_paper_example(self):
        # The paper: tuple (0, 3) with J4 -> 0 * J4 + 3 = 3.
        assert linearize_tuple((0, 3), (7, 4)) == 3

    def test_round_trip(self):
        dims = (5, 7, 3, 11)
        rng = np.random.default_rng(0)
        idx = np.column_stack(
            [rng.integers(0, d, size=100) for d in dims]
        )
        keys = linearize(idx, dims)
        assert np.array_equal(delinearize(keys, dims), idx)

    def test_unique_keys_for_unique_tuples(self):
        dims = (4, 5, 6)
        all_idx = np.argwhere(np.ones(dims, dtype=bool))
        keys = linearize(all_idx, dims)
        assert np.unique(keys).shape[0] == keys.shape[0]
        assert keys.min() == 0
        assert keys.max() == ln_capacity(dims) - 1

    def test_ordering_is_lexicographic(self):
        dims = (3, 4)
        a = linearize_tuple((1, 2), dims)
        b = linearize_tuple((1, 3), dims)
        c = linearize_tuple((2, 0), dims)
        assert a < b < c

    def test_wrong_width_rejected(self):
        with pytest.raises(ShapeError):
            linearize(np.zeros((3, 2), dtype=np.int64), (4, 5, 6))

    def test_one_d_input_rejected(self):
        with pytest.raises(ShapeError):
            linearize(np.zeros(3, dtype=np.int64), (4,))

    def test_scalar_round_trip(self):
        dims = (9, 9, 9)
        key = linearize_tuple((4, 5, 6), dims)
        assert delinearize_tuple(key, dims) == (4, 5, 6)

    def test_delinearize_requires_1d(self):
        with pytest.raises(ShapeError):
            delinearize(np.zeros((2, 2), dtype=np.int64), (4, 5))

    def test_empty_batch(self):
        keys = linearize(np.empty((0, 2), dtype=np.int64), (3, 4))
        assert keys.shape == (0,)
        assert delinearize(keys, (3, 4)).shape == (0, 2)


def _floor_divide_reference(keys, dims):
    """Per-mode ``//`` and ``%``: the arithmetic delinearize replaces."""
    strides = ln_strides(dims)
    out = np.empty((keys.shape[0], len(dims)), dtype=np.int64)
    rem = keys
    for j in range(len(dims)):
        out[:, j] = rem // strides[j]
        rem = rem % strides[j]
    return out


#: Z-row layouts: free-X columns to the left of the Fy columns
_WIDE = st.tuples(
    st.lists(
        st.one_of(
            st.sampled_from([1, 2, 4, 8, 16, 64, 1024]),
            st.integers(1, 3000),
        ),
        min_size=1, max_size=4,
    ),
    st.integers(0, 3),
    st.integers(0, 300),
    st.integers(0, 2**32 - 1),
)


class TestDelinearizeOut:
    @pytest.mark.parametrize("dims", [
        (5,), (4,), (4, 8), (3, 5), (2, 3, 4), (8, 7, 16), (1, 1, 6),
    ])
    def test_matches_floor_divide(self, dims):
        rng = np.random.default_rng(0)
        space = int(np.prod(dims))
        keys = rng.integers(0, space, size=200).astype(np.int64)
        wide = np.full((keys.shape[0], len(dims) + 2), -1, dtype=np.int64)
        delinearize(keys, dims, out=wide[:, 2:])
        np.testing.assert_array_equal(
            wide[:, 2:], _floor_divide_reference(keys, dims)
        )
        assert (wide[:, :2] == -1).all()

    @settings(max_examples=150, deadline=None)
    @given(_WIDE)
    @example(([4, 3], 1, 0, 0))  # empty keys
    @example(([1024, 5, 64, 7], 2, 50, 1))
    def test_round_trip_into_column_slice(self, case):
        dims, lead, n, seed = case
        dims = tuple(dims)
        rng = np.random.default_rng(seed)
        idx = np.stack(
            [rng.integers(0, d, size=n) for d in dims], axis=1
        ).astype(np.int64)
        keys = linearize(idx, dims)
        wide = np.full((n, lead + len(dims) + 1), -7, dtype=np.int64)
        out = wide[:, lead:lead + len(dims)]
        assert delinearize(keys, dims, out=out) is out
        np.testing.assert_array_equal(out, idx)
        np.testing.assert_array_equal(out, delinearize(keys, dims))
        # columns outside the slice are untouched
        assert (wide[:, :lead] == -7).all() and (wide[:, -1] == -7).all()

    def test_out_shape_and_dtype_checked(self):
        keys = np.arange(6, dtype=np.int64)
        with pytest.raises(ShapeError):
            delinearize(keys, (2, 3), out=np.empty((6, 3), dtype=np.int64))
        with pytest.raises(ShapeError):
            delinearize(keys, (2, 3), out=np.empty((6, 2), dtype=np.int32))
