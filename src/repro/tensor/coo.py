"""Coordinate (COO) sparse tensor — the paper's storage format (§2.1).

A non-zero element is a tuple of per-mode indices plus a value. Indices are
held as an ``(nnz, order)`` int64 array ``indices`` and values as an
``(nnz,)`` float64 array ``values`` — the two-level ``inds``/``val`` layout
of HiParTI.

Mode permutation is a cheap column reordering (the paper: "to exchange
modes i1 and i2, we only need to switch the pointers of their indices");
sorting is lexicographic over the (possibly permuted) modes, done as one
stable sort of each row's packed LN key over those modes.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import LinearizationOverflowError, ShapeError
from repro.tensor.linearize import linearize
from repro.types import INDEX_DTYPE, VALUE_DTYPE, Shape
from repro.utils.validation import check_modes, check_shape


class SparseTensor:
    """An element-wise sparse tensor in COO format.

    Parameters
    ----------
    indices:
        ``(nnz, order)`` integer array of per-mode coordinates.
    values:
        ``(nnz,)`` array of non-zero values.
    shape:
        Extent of each mode. Indices must lie in ``[0, shape[m])``.
    copy:
        Copy input arrays (default) or adopt them.
    validate:
        Bounds-check indices against *shape* (default). Skipped by internal
        constructors that already guarantee validity.
    """

    __slots__ = ("indices", "values", "shape", "_fingerprint")

    def __init__(
        self,
        indices: np.ndarray,
        values: np.ndarray,
        shape: Sequence[int],
        *,
        copy: bool = True,
        validate: bool = True,
    ) -> None:
        shape = check_shape(shape)
        indices = np.array(indices, dtype=INDEX_DTYPE, copy=copy, ndmin=2)
        values = np.array(values, dtype=VALUE_DTYPE, copy=copy, ndmin=1)
        if indices.size == 0:
            indices = indices.reshape(0, len(shape))
        if indices.ndim != 2:
            raise ShapeError(
                f"indices must be 2-D (nnz, order), got shape {indices.shape}"
            )
        if indices.shape[1] != len(shape):
            raise ShapeError(
                f"indices have {indices.shape[1]} modes, shape has {len(shape)}"
            )
        if values.ndim != 1 or values.shape[0] != indices.shape[0]:
            raise ShapeError(
                f"values shape {values.shape} does not match "
                f"{indices.shape[0]} non-zeros"
            )
        if validate and indices.size:
            lo = indices.min(axis=0)
            hi = indices.max(axis=0)
            if (lo < 0).any():
                raise ShapeError("negative indices are not allowed")
            extents = np.asarray(shape, dtype=INDEX_DTYPE)
            if (hi >= extents).any():
                bad = int(np.flatnonzero(hi >= extents)[0])
                raise ShapeError(
                    f"index {int(hi[bad])} out of range for mode {bad} "
                    f"with extent {shape[bad]}"
                )
        self.indices = indices
        self.values = values
        self.shape: Shape = shape
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Number of modes (tensor order, N_X in the paper)."""
        return len(self.shape)

    @property
    def nnz(self) -> int:
        """Number of stored non-zero elements."""
        return int(self.indices.shape[0])

    @property
    def density(self) -> float:
        """nnz divided by the number of positions in the dense tensor."""
        total = 1.0
        for d in self.shape:
            total *= float(d)
        return self.nnz / total if total else 0.0

    @property
    def nbytes(self) -> int:
        """Bytes held by the index and value arrays."""
        return int(self.indices.nbytes + self.values.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseTensor(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.3g})"
        )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, shape: Sequence[int]) -> "SparseTensor":
        """A tensor of the given shape with no stored non-zeros."""
        shape = check_shape(shape)
        return cls(
            np.empty((0, len(shape)), dtype=INDEX_DTYPE),
            np.empty((0,), dtype=VALUE_DTYPE),
            shape,
            copy=False,
            validate=False,
        )

    @classmethod
    def from_shared_buffers(
        cls,
        indices: np.ndarray,
        values: np.ndarray,
        shape: Sequence[int],
        *,
        fingerprint: Optional[str] = None,
    ) -> "SparseTensor":
        """Adopt externally owned index/value buffers without copying.

        The zero-copy attach path of the serve-layer operand registry
        (:mod:`repro.serve.registry`): *indices* and *values* are views
        over a ``multiprocessing.shared_memory`` block that some other
        process (or the registry itself) owns and will eventually
        unlink. The caller guarantees the buffers outlive the tensor
        and already satisfy the COO invariants — validation is skipped,
        like the other internal constructors. A known content
        *fingerprint* can be passed through so attached views skip the
        O(nnz) hashing pass when keying the HtY/plan caches.
        """
        t = cls(indices, values, shape, copy=False, validate=False)
        t._fingerprint = fingerprint
        return t

    @classmethod
    def from_dense(
        cls, dense: np.ndarray, *, cutoff: float = 0.0
    ) -> "SparseTensor":
        """Build from a dense array, keeping entries with ``|v| > cutoff``.

        ``cutoff`` mirrors the paper's treatment of quantum-chemistry data
        ("formed by cutting off values smaller than 1e-8").
        """
        dense = np.asarray(dense, dtype=VALUE_DTYPE)
        if dense.ndim == 0:
            raise ShapeError("0-d arrays cannot become sparse tensors")
        mask = np.abs(dense) > cutoff
        coords = np.argwhere(mask).astype(INDEX_DTYPE)
        vals = dense[mask].astype(VALUE_DTYPE)
        return cls(coords, vals, dense.shape, copy=False, validate=False)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense ndarray (duplicates are summed)."""
        total = 1
        for d in self.shape:
            total *= int(d)
        if total > 50_000_000:
            raise ShapeError(
                f"refusing to densify tensor with {total} positions"
            )
        out = np.zeros(self.shape, dtype=VALUE_DTYPE)
        if self.nnz:
            np.add.at(out, tuple(self.indices.T), self.values)
        return out

    def copy(self) -> "SparseTensor":
        """Deep copy."""
        return SparseTensor(
            self.indices, self.values, self.shape, copy=True, validate=False
        )

    def fingerprint(self) -> str:
        """Content digest of (order, shape, indices, values).

        Keys the operand caches in :mod:`repro.core.htycache`: two tensors
        with equal fingerprints hold identical non-zeros in identical
        storage order. Computed lazily (one O(nnz) hashing pass on first
        call) and cached; callers must not mutate ``indices``/``values``
        in place after fingerprinting.
        """
        if self._fingerprint is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(np.int64(self.order).tobytes())
            h.update(np.asarray(self.shape, dtype=np.int64).tobytes())
            h.update(np.ascontiguousarray(self.indices).tobytes())
            h.update(np.ascontiguousarray(self.values).tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # the paper's input-processing primitives (stage 1)
    # ------------------------------------------------------------------
    def permute(self, mode_order: Sequence[int]) -> "SparseTensor":
        """Reorder modes; cheap column/pointer exchange in COO (§3.1).

        ``mode_order[j]`` names the *old* mode that becomes new mode *j*.
        """
        mode_order = check_modes(mode_order, self.order, "mode_order")
        if len(mode_order) != self.order:
            raise ShapeError(
                f"mode_order must list all {self.order} modes, "
                f"got {len(mode_order)}"
            )
        cols = list(mode_order)
        return SparseTensor(
            self.indices[:, cols],
            self.values,
            tuple(self.shape[m] for m in cols),
            copy=False,
            validate=False,
        )

    def sort(self, mode_order: Optional[Sequence[int]] = None) -> "SparseTensor":
        """Lexicographically sort non-zeros (§3.1's quicksort).

        Sorts by mode 0, then mode 1, ... by default; *mode_order* sorts by
        the given modes first (without permuting the tensor). Ties keep
        their storage order. One stable argsort of the packed LN key does
        the work; ``np.lexsort`` over the mode columns takes over when the
        modes' extents multiply past int64. Always returns fresh arrays.
        """
        if self.nnz == 0:
            return self.copy()
        if mode_order is None:
            modes = list(range(self.order))
        else:
            modes = list(check_modes(mode_order, self.order, "mode_order"))
        cols = (
            self.indices
            if modes == list(range(self.order))
            else self.indices[:, modes]
        )
        try:
            # Ordering rows by this one integer is ordering them
            # lexicographically by the modes' indices.
            key = linearize(cols, [self.shape[m] for m in modes])
        except LinearizationOverflowError:
            # np.lexsort sorts by the *last* key first.
            perm = np.lexsort(
                tuple(self.indices[:, m] for m in reversed(modes))
            )
        else:
            perm = np.argsort(key, kind="stable")
        return SparseTensor(
            self.indices[perm],
            self.values[perm],
            self.shape,
            copy=False,
            validate=False,
        )

    def is_sorted(self) -> bool:
        """True when non-zeros are in lexicographic mode order.

        Equal neighbouring rows count as sorted.
        """
        if self.nnz <= 1:
            return True
        prev = self.indices[:-1]
        nxt = self.indices[1:]
        # lexicographic comparison: find the first differing column
        diff = prev != nxt
        first = diff.argmax(axis=1)
        rows = np.arange(prev.shape[0])
        any_diff = diff.any(axis=1)
        cmp = nxt[rows, first] - prev[rows, first]
        return bool(np.all(cmp[any_diff] > 0) if any_diff.any() else True)

    def coalesce(self) -> "SparseTensor":
        """Sort and merge duplicate coordinates by summing their values."""
        if self.nnz == 0:
            return self.copy()
        sorted_t = self.sort()
        idx = sorted_t.indices
        same = np.all(idx[1:] == idx[:-1], axis=1)
        if not same.any():
            return sorted_t
        group_start = np.flatnonzero(
            np.concatenate(([True], ~same))
        )
        sums = np.add.reduceat(sorted_t.values, group_start)
        return SparseTensor(
            idx[group_start],
            sums,
            self.shape,
            copy=False,
            validate=False,
        )

    def prune(self, cutoff: float = 0.0) -> "SparseTensor":
        """Drop stored entries with ``|v| <= cutoff``."""
        mask = np.abs(self.values) > cutoff
        return SparseTensor(
            self.indices[mask],
            self.values[mask],
            self.shape,
            copy=False,
            validate=False,
        )

    # ------------------------------------------------------------------
    # slicing
    # ------------------------------------------------------------------
    def slice(self, mode: int, index: int) -> "SparseTensor":
        """Fix *mode* at *index*; the result drops that mode.

        ``t.slice(0, i)`` is the sub-tensor ``t[i, :, ..., :]``.
        """
        mode = check_modes([mode], self.order, "mode")[0]
        index = int(index)
        if not 0 <= index < self.shape[mode]:
            raise ShapeError(
                f"index {index} out of range for mode {mode} with "
                f"extent {self.shape[mode]}"
            )
        if self.order == 1:
            raise ShapeError(
                "slicing an order-1 tensor yields a scalar; index "
                "values directly"
            )
        keep = self.indices[:, mode] == index
        rest = [m for m in range(self.order) if m != mode]
        return SparseTensor(
            self.indices[keep][:, rest],
            self.values[keep],
            tuple(self.shape[m] for m in rest),
            copy=False,
            validate=False,
        )

    def select(self, mode: int, indices: Sequence[int]) -> "SparseTensor":
        """Keep only non-zeros whose *mode* index is in *indices*.

        The mode is retained (same shape); use :meth:`slice` to drop it.
        """
        mode = check_modes([mode], self.order, "mode")[0]
        wanted = np.asarray(sorted(set(int(i) for i in indices)),
                            dtype=INDEX_DTYPE)
        if wanted.size and (
            wanted[0] < 0 or wanted[-1] >= self.shape[mode]
        ):
            raise ShapeError(
                f"selection out of range for mode {mode} with extent "
                f"{self.shape[mode]}"
            )
        pos = np.searchsorted(wanted, self.indices[:, mode])
        pos = np.minimum(pos, max(wanted.size - 1, 0))
        keep = (
            (wanted.size > 0)
            & (wanted[pos] == self.indices[:, mode])
            if wanted.size
            else np.zeros(self.nnz, dtype=bool)
        )
        return SparseTensor(
            self.indices[keep],
            self.values[keep],
            self.shape,
            copy=False,
            validate=False,
        )

    # ------------------------------------------------------------------
    # sub-tensor grouping (the ptr_F array of Algorithm 2)
    # ------------------------------------------------------------------
    def fiber_pointers(self, num_modes: int) -> np.ndarray:
        """Boundaries of mode-F sub-tensors after sorting (``ptr_F``).

        Requires the tensor to be sorted. Groups non-zeros by their first
        *num_modes* indices; returns an ``(N_F + 1,)`` pointer array, so
        sub-tensor *f* occupies rows ``ptr[f]:ptr[f+1]``.
        """
        if num_modes < 0 or num_modes > self.order:
            raise ShapeError(
                f"num_modes {num_modes} out of range for order {self.order}"
            )
        if self.nnz == 0:
            return np.zeros(1, dtype=INDEX_DTYPE)
        if num_modes == 0:
            return np.asarray([0, self.nnz], dtype=INDEX_DTYPE)
        lead = self.indices[:, :num_modes]
        new_group = np.any(lead[1:] != lead[:-1], axis=1)
        starts = np.flatnonzero(np.concatenate(([True], new_group)))
        return np.concatenate(
            (starts, [self.nnz])
        ).astype(INDEX_DTYPE)

    # ------------------------------------------------------------------
    # comparison / iteration
    # ------------------------------------------------------------------
    def allclose(
        self, other: "SparseTensor", *, rtol: float = 1e-10, atol: float = 1e-12
    ) -> bool:
        """Numerically compare two tensors independent of storage order."""
        if not isinstance(other, SparseTensor):
            return NotImplemented
        if self.shape != other.shape:
            return False
        a = self.coalesce().prune(atol)
        b = other.coalesce().prune(atol)
        if a.nnz != b.nnz:
            return False
        return bool(
            np.array_equal(a.indices, b.indices)
            and np.allclose(a.values, b.values, rtol=rtol, atol=atol)
        )

    def __iter__(self) -> Iterable[Tuple[Tuple[int, ...], float]]:
        for row, val in zip(self.indices, self.values):
            yield tuple(int(i) for i in row), float(val)
