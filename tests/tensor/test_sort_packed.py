"""``SparseTensor.sort`` and ``is_sorted`` against their lexsort definition.

``sort`` runs one stable argsort of each row's packed LN key and falls
back to ``np.lexsort`` when the modes' extents multiply past int64. Both
must give exactly the permutation ``np.lexsort`` gives over the sort
modes, ties in storage order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LinearizationOverflowError
from repro.tensor import SparseTensor, linearize


def lexsort_perm(indices, modes):
    """The reference: np.lexsort sorts by its *last* key first."""
    return np.lexsort(tuple(indices[:, m] for m in reversed(modes)))


def lexi_sorted(indices):
    """The reference definition of sorted: rows never decrease."""
    rows = [tuple(r) for r in indices.tolist()]
    return all(a <= b for a, b in zip(rows, rows[1:]))


@st.composite
def tensors(draw, max_order=5, max_nnz=40):
    """Tensors with duplicate rows and indices at 0 and ``shape - 1``.

    Values number the rows, so a sorted tensor's values are the
    permutation the sort applied.
    """
    order = draw(st.integers(1, max_order))
    huge = draw(st.booleans())
    extent = st.integers(2**31, 2**40) if huge else st.integers(1, 7)
    shape = tuple(draw(extent) for _ in range(order))
    nnz = draw(st.integers(0, max_nnz))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for d in shape:
        col = rng.integers(0, d, nnz)
        pick = rng.integers(0, 4, nnz)
        col[pick == 0] = 0
        col[pick == 1] = d - 1
        cols.append(col)
    idx = np.column_stack(cols) if nnz else np.empty((0, order), np.int64)
    if nnz and draw(st.booleans()):
        idx[nnz // 2:] = idx[: nnz - nnz // 2]  # duplicate coordinates
    return SparseTensor(idx, np.arange(nnz, dtype=np.float64), shape)


@st.composite
def tensor_and_modes(draw):
    t = draw(tensors())
    perm = draw(st.permutations(range(t.order)))
    k = draw(st.integers(1, t.order))
    return t, list(perm[:k])


def overflows(shape, modes):
    try:
        linearize(np.zeros((1, len(modes)), np.int64),
                  [shape[m] for m in modes])
    except LinearizationOverflowError:
        return True
    return False


class TestSortEqualsLexsort:
    @settings(max_examples=300, deadline=None)
    @given(tensors())
    def test_default_mode_order(self, t):
        s = t.sort()
        perm = s.values.astype(np.int64)
        np.testing.assert_array_equal(
            perm, lexsort_perm(t.indices, range(t.order))
        )
        np.testing.assert_array_equal(s.indices, t.indices[perm])
        assert s.shape == t.shape
        assert not np.shares_memory(s.indices, t.indices)
        assert not np.shares_memory(s.values, t.values)

    @settings(max_examples=300, deadline=None)
    @given(tensor_and_modes())
    def test_partial_and_permuted_mode_order(self, case):
        t, modes = case
        s = t.sort(modes)
        perm = s.values.astype(np.int64)
        np.testing.assert_array_equal(perm, lexsort_perm(t.indices, modes))
        np.testing.assert_array_equal(s.indices, t.indices[perm])

    @pytest.mark.parametrize("nnz", [0, 1])
    def test_tiny(self, nnz):
        t = SparseTensor(
            np.full((nnz, 3), 2, dtype=np.int64), np.ones(nnz), (3, 3, 3)
        )
        for modes in (None, [2], [1, 0, 2]):
            s = t.sort(modes)
            assert s.nnz == nnz
            assert not np.shares_memory(s.indices, t.indices)
        assert t.is_sorted()

    def test_overflowing_extents_take_the_fallback(self):
        shape = (2**40, 2**40, 3)
        assert overflows(shape, [0, 1, 2])
        rng = np.random.default_rng(0)
        idx = np.column_stack([
            rng.integers(0, 4, 60) * (2**40 // 4),
            rng.integers(0, 2**40, 60),
            rng.integers(0, 3, 60),
        ])
        idx[30:] = idx[:30]
        t = SparseTensor(idx, np.arange(60, dtype=np.float64), shape)
        perm = t.sort().values.astype(np.int64)
        np.testing.assert_array_equal(perm, lexsort_perm(idx, [0, 1, 2]))
        # a subset of the modes fits int64 again: the packed key path
        assert not overflows(shape, [2, 0])
        perm = t.sort([2, 0]).values.astype(np.int64)
        np.testing.assert_array_equal(perm, lexsort_perm(idx, [2, 0]))


class TestIsSorted:
    @settings(max_examples=300, deadline=None)
    @given(tensors())
    def test_matches_definition(self, t):
        assert t.is_sorted() == lexi_sorted(t.indices)
        s = t.sort()
        assert s.is_sorted()
        assert lexi_sorted(s.indices)

    @pytest.mark.parametrize("shape", [(5, 5, 5), (2**40, 2**40, 5)])
    def test_ties_and_descents(self, shape):
        def t(rows):
            return SparseTensor(np.array(rows), np.zeros(len(rows)), shape)

        assert t([[1, 2, 3], [1, 2, 3], [1, 2, 4]]).is_sorted()
        assert t([[0, 4, 4], [1, 0, 0], [1, 0, 0]]).is_sorted()
        assert not t([[1, 2, 4], [1, 2, 3]]).is_sorted()
        assert not t([[1, 0, 0], [0, 4, 4]]).is_sorted()
        assert not t([[0, 0, 1], [0, 0, 1], [0, 0, 0]]).is_sorted()
