"""Large-number (LN) index representation (paper §3.3).

Sparta converts a sparse multi-dimensional index tuple into a single dense
integer so hash-table key comparison becomes one integer comparison:

    LN((i1, ..., ik), (d1, ..., dk)) = ((i1 * d2 + i2) * d3 + ...) + ik

i.e. row-major (C-order) linearization over the selected modes' extents.
The paper's example: tuple ``(0, 3)`` with trailing extent ``J4`` maps to
``0 * J4 + 3 = 3``.

Everything here is vectorized over arrays of index tuples.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import LinearizationOverflowError, ShapeError
from repro.types import INDEX_DTYPE

_INT64_MAX = np.iinfo(np.int64).max


def ln_strides(dims: Sequence[int]) -> np.ndarray:
    """Row-major strides for LN linearization over *dims*.

    ``strides[j] = prod(dims[j+1:])``, so
    ``ln = sum(idx[:, j] * strides[j])``.

    Raises
    ------
    LinearizationOverflowError
        If ``prod(dims)`` does not fit in a signed 64-bit integer. The
        paper's LN representation relies on unique integer keys; overflow
        would silently break uniqueness.
    """
    if len(dims) == 0:
        raise ShapeError("LN linearization needs at least one mode")
    capacity = 1
    for d in dims:
        d = int(d)
        if d <= 0:
            raise ShapeError(f"LN mode extent must be positive, got {d}")
        capacity *= d
        if capacity > _INT64_MAX:
            raise LinearizationOverflowError(
                f"product of mode extents {tuple(dims)} exceeds int64; "
                "LN keys would collide"
            )
    strides = np.empty(len(dims), dtype=INDEX_DTYPE)
    acc = 1
    for j in range(len(dims) - 1, -1, -1):
        strides[j] = acc
        acc *= int(dims[j])
    return strides


def ln_capacity(dims: Sequence[int]) -> int:
    """Number of distinct LN keys for *dims* (``prod(dims)``)."""
    strides = ln_strides(dims)  # validates overflow
    return int(strides[0]) * int(dims[0])


def linearize(indices: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    """Map an ``(n, k)`` index array to ``(n,)`` LN keys.

    Parameters
    ----------
    indices:
        Integer array of shape ``(n, k)``; column *j* holds mode-*j*
        indices, each in ``[0, dims[j])``.
    dims:
        Extents of the *k* modes being linearized.
    """
    indices = np.asarray(indices)
    if indices.ndim != 2:
        raise ShapeError(
            f"indices must be 2-D (n, k), got shape {indices.shape}"
        )
    if indices.shape[1] != len(dims):
        raise ShapeError(
            f"indices have {indices.shape[1]} modes but dims has {len(dims)}"
        )
    strides = ln_strides(dims)
    return indices.astype(INDEX_DTYPE, copy=False) @ strides


def delinearize(
    keys: np.ndarray, dims: Sequence[int], out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Inverse of :func:`linearize`: ``(n,)`` LN keys to ``(n, k)`` indices.

    With *out* (an ``(n, k)`` int64 array, typically a column slice of a
    wider one) the indices are written there and *out* is returned. One
    ``np.divmod`` per mode writes each column once: the quotient into
    column *j*, the remainder into column *j + 1*, which the next
    ``divmod`` then splits in place.
    """
    keys = np.asarray(keys, dtype=INDEX_DTYPE)
    if keys.ndim != 1:
        raise ShapeError(f"keys must be 1-D, got shape {keys.shape}")
    strides = ln_strides(dims)
    k = len(dims)
    if out is None:
        out = np.empty((keys.shape[0], k), dtype=INDEX_DTYPE)
    elif out.shape != (keys.shape[0], k) or out.dtype != INDEX_DTYPE:
        raise ShapeError(
            f"out must be an ({keys.shape[0]}, {k}) {np.dtype(INDEX_DTYPE)} "
            f"array, got {out.shape} {out.dtype}"
        )
    if k == 1:
        out[:, 0] = keys
        return out
    rem = keys
    for j in range(k - 1):
        np.divmod(rem, strides[j], out=(out[:, j], out[:, j + 1]))
        rem = out[:, j + 1]
    return out


def linearize_tuple(index: Sequence[int], dims: Sequence[int]) -> int:
    """Scalar convenience wrapper around :func:`linearize`."""
    arr = np.asarray([index], dtype=INDEX_DTYPE)
    return int(linearize(arr, dims)[0])


def delinearize_tuple(key: int, dims: Sequence[int]) -> Tuple[int, ...]:
    """Scalar convenience wrapper around :func:`delinearize`."""
    arr = np.asarray([key], dtype=INDEX_DTYPE)
    return tuple(int(v) for v in delinearize(arr, dims)[0])
