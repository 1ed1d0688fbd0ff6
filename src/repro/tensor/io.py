"""FROSTT ``.tns`` text format and a simple binary format.

The FROSTT format stores one non-zero per line: ``i1 i2 ... iN value`` with
**1-based** indices. The first non-comment line may optionally carry the
order and dimensions (as produced by some exporters); we accept both plain
and headered files and always write plain files plus a ``#`` header comment.

The binary format mirrors SPLATT's ``.bin`` convert target in spirit:
a small header (magic, order, shape, nnz) followed by raw index and value
arrays, via ``numpy.savez``.
"""

from __future__ import annotations

import io
import os
from typing import TextIO, Union

import numpy as np

from repro.errors import FormatError
from repro.tensor.coo import SparseTensor
from repro.types import INDEX_DTYPE, VALUE_DTYPE

PathLike = Union[str, os.PathLike]

_BIN_MAGIC = "repro-sptensor-v1"


def write_tns(tensor: SparseTensor, path_or_file: Union[PathLike, TextIO]) -> None:
    """Write a tensor in FROSTT ``.tns`` format (1-based indices)."""
    own = isinstance(path_or_file, (str, os.PathLike))
    fh: TextIO = open(path_or_file, "w") if own else path_or_file  # type: ignore[arg-type]
    try:
        fh.write(f"# sparse tensor: {tensor.order} modes, "
                 f"shape {' '.join(str(d) for d in tensor.shape)}, "
                 f"nnz {tensor.nnz}\n")
        one_based = tensor.indices + 1
        for row, val in zip(one_based, tensor.values):
            fh.write(" ".join(str(int(i)) for i in row))
            fh.write(f" {float(val)!r}\n")
    finally:
        if own:
            fh.close()


def read_tns(
    path_or_file: Union[PathLike, TextIO],
    shape: tuple[int, ...] | None = None,
) -> SparseTensor:
    """Read a FROSTT ``.tns`` file.

    If *shape* is not given it is inferred as the per-mode maximum index.
    """
    own = isinstance(path_or_file, (str, os.PathLike))
    fh: TextIO = open(path_or_file, "r") if own else path_or_file  # type: ignore[arg-type]
    try:
        rows = []
        vals = []
        order = None
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise FormatError(
                    f"line {lineno}: expected 'i1 ... iN value', got {line!r}"
                )
            if order is None:
                order = len(parts) - 1
            elif len(parts) - 1 != order:
                raise FormatError(
                    f"line {lineno}: inconsistent order "
                    f"({len(parts) - 1} vs {order})"
                )
            try:
                rows.append([int(p) for p in parts[:-1]])
                vals.append(float(parts[-1]))
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc
        if order is None:
            raise FormatError("no non-zero entries found")
        indices = np.asarray(rows, dtype=INDEX_DTYPE) - 1  # to 0-based
        values = np.asarray(vals, dtype=VALUE_DTYPE)
        if (indices < 0).any():
            raise FormatError("found index 0 in a 1-based .tns file")
        if shape is None:
            shape = tuple(int(m) + 1 for m in indices.max(axis=0))
        return SparseTensor(indices, values, shape)
    finally:
        if own:
            fh.close()


def read_tns_chunks(
    path_or_file: Union[PathLike, TextIO],
    shape: tuple[int, ...],
    *,
    chunk_nnz: int = 1_000_000,
):
    """Stream a ``.tns`` file as tensor chunks of at most *chunk_nnz*.

    For files too large to hold at once: each yielded
    :class:`SparseTensor` has the full declared *shape* (required —
    per-chunk inference would disagree across chunks) and a contiguous
    subset of the non-zeros.
    """
    if chunk_nnz <= 0:
        raise FormatError(f"chunk_nnz must be positive, got {chunk_nnz}")
    own = isinstance(path_or_file, (str, os.PathLike))
    fh: TextIO = open(path_or_file, "r") if own else path_or_file  # type: ignore[arg-type]
    order = len(shape)
    try:
        rows: list[list[int]] = []
        vals: list[float] = []
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith(("#", "%")):
                continue
            parts = line.split()
            if len(parts) - 1 != order:
                raise FormatError(
                    f"line {lineno}: expected {order} indices + value, "
                    f"got {len(parts)} fields"
                )
            try:
                rows.append([int(p) - 1 for p in parts[:-1]])
                vals.append(float(parts[-1]))
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc
            if len(rows) >= chunk_nnz:
                yield SparseTensor(rows, vals, shape)
                rows, vals = [], []
        if rows:
            yield SparseTensor(rows, vals, shape)
    finally:
        if own:
            fh.close()


def tns_string(tensor: SparseTensor) -> str:
    """Render a tensor as a ``.tns`` string (round-trips via read_tns)."""
    buf = io.StringIO()
    write_tns(tensor, buf)
    return buf.getvalue()


def write_bin(tensor: SparseTensor, path: PathLike) -> None:
    """Write the binary format (.npz container with a magic marker)."""
    np.savez(
        path,
        magic=np.asarray(_BIN_MAGIC),
        shape=np.asarray(tensor.shape, dtype=INDEX_DTYPE),
        indices=tensor.indices,
        values=tensor.values,
    )


def read_bin(path: PathLike) -> SparseTensor:
    """Read the binary format written by :func:`write_bin`."""
    with np.load(path, allow_pickle=False) as data:
        if "magic" not in data or str(data["magic"]) != _BIN_MAGIC:
            raise FormatError(f"{path}: not a repro sparse-tensor file")
        return SparseTensor(
            data["indices"], data["values"], tuple(int(d) for d in data["shape"])
        )
