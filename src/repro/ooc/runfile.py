"""Spill run files: header + packed key/value arrays, mmap-readable.

One run file holds any number of *runs*; a run is an ordered set of
named 1-D arrays (a stage-1 partial's four arrays, the merged HtY's
demoted payload, ...). The layout is append-friendly —
writers stream raw array bytes through a buffered file handle (the
kernel page cache absorbs them; the writing process's RSS stays flat)
and the directory goes at the *end*:

.. code-block:: text

    magic "SPTCRUN1"
    run 0 array bytes ... (each 8-byte aligned)
    run 1 array bytes ...
    directory (JSON: per run, per array: name, dtype, offset, count)
    trailer: uint64 directory offset, uint64 directory length, magic

Readers map arrays with ``np.memmap(mode="r")`` straight out of the
file — zero-copy, demand-paged — and can drop consumed pages with
:meth:`RunFileReader.release` (``madvise(MADV_DONTNEED)``). Z's spilled
rows do not use this format: they are two raw arrays, mapped as they
are (:func:`repro.ooc.engine.stream_finalize`).
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SpillError

__all__ = ["RunFileReader", "RunFileWriter"]

_MAGIC = b"SPTCRUN1"
_TRAILER = struct.Struct("<QQ8s")
_ALIGN = 8

#: buffered-write size: big enough that array bytes stream through the
#: page cache in few syscalls, small enough to keep writer RSS flat
_WRITE_BUFFER = 1 << 20


class RunFileWriter:
    """Append runs of named arrays to one spill file.

    Not thread-safe; one writer per file. ``close()`` (or the context
    manager) seals the file by appending the directory and trailer —
    an unsealed file is detected by readers and rejected, which is how
    a worker killed mid-write is distinguished from a complete run.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._fh = open(self.path, "wb", buffering=_WRITE_BUFFER)
        self._fh.write(_MAGIC)
        self._offset = len(_MAGIC)
        self._dir: List[List[dict]] = []
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def run_count(self) -> int:
        return len(self._dir)

    @property
    def bytes_written(self) -> int:
        return self._offset

    def append_run(self, arrays: Dict[str, np.ndarray]) -> int:
        """Write one run; returns its index within this file."""
        if self._closed:
            raise SpillError(f"run file {self.path} already sealed")
        entries = []
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            if arr.ndim != 1:
                arr = arr.reshape(-1)
            pad = (-self._offset) % _ALIGN
            if pad:
                self._fh.write(b"\0" * pad)
                self._offset += pad
            entries.append(
                {
                    "name": str(name),
                    "dtype": arr.dtype.str,
                    "offset": self._offset,
                    "count": int(arr.shape[0]),
                }
            )
            self._fh.write(memoryview(arr).cast("B"))
            self._offset += arr.nbytes
        self._dir.append(entries)
        return len(self._dir) - 1

    def close(self) -> None:
        """Seal the file: append directory + trailer, flush, close."""
        if self._closed:
            return
        payload = json.dumps({"runs": self._dir}).encode("utf-8")
        self._fh.write(payload)
        self._fh.write(_TRAILER.pack(self._offset, len(payload), _MAGIC))
        self._fh.flush()
        self._fh.close()
        self._closed = True

    def __enter__(self) -> "RunFileWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RunFileReader:
    """Memory-map runs out of a sealed run file.

    Arrays come back as read-only ``np.memmap`` views — demand-paged,
    so opening a reader costs O(directory), not O(data). ``release()``
    advises the kernel to drop the file's resident pages once a run has
    been consumed; ``close()`` drops every mapping reference (the
    arrays themselves keep their own mmap alive if still referenced).
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        size = os.path.getsize(self.path)
        if size < len(_MAGIC) + _TRAILER.size:
            raise SpillError(f"run file {self.path} truncated ({size} B)")
        with open(self.path, "rb") as fh:
            if fh.read(len(_MAGIC)) != _MAGIC:
                raise SpillError(f"run file {self.path}: bad magic")
            fh.seek(size - _TRAILER.size)
            dir_off, dir_len, tail = _TRAILER.unpack(fh.read(_TRAILER.size))
            if tail != _MAGIC or dir_off + dir_len > size:
                raise SpillError(
                    f"run file {self.path}: unsealed or corrupt trailer"
                )
            fh.seek(dir_off)
            try:
                directory = json.loads(fh.read(dir_len).decode("utf-8"))
            except ValueError as exc:
                raise SpillError(
                    f"run file {self.path}: corrupt directory"
                ) from exc
        self._dir: List[List[dict]] = directory["runs"]
        self._maps: List[np.memmap] = []

    # ------------------------------------------------------------------
    @property
    def num_runs(self) -> int:
        return len(self._dir)

    def run(self, index: int) -> Dict[str, np.ndarray]:
        """Map run *index*'s arrays by name (read-only views)."""
        try:
            entries = self._dir[index]
        except IndexError:
            raise SpillError(
                f"run file {self.path}: no run {index} "
                f"(have {self.num_runs})"
            ) from None
        out: Dict[str, np.ndarray] = {}
        for e in entries:
            dtype = np.dtype(e["dtype"])
            count = int(e["count"])
            if count == 0:
                out[e["name"]] = np.empty(0, dtype=dtype)
                continue
            mapped = np.memmap(
                self.path,
                dtype=dtype,
                mode="r",
                offset=int(e["offset"]),
                shape=(count,),
            )
            self._maps.append(mapped)
            out[e["name"]] = mapped
        return out

    def release(self) -> None:
        """Advise the kernel to drop this reader's resident pages."""
        for mapped in self._maps:
            mm = getattr(mapped, "_mmap", None)
            if mm is not None:
                try:
                    mm.madvise(mmap.MADV_DONTNEED)
                except (AttributeError, OSError, ValueError):
                    pass  # madvise is advisory; absence is fine

    def close(self) -> None:
        self.release()
        self._maps = []

    def __enter__(self) -> "RunFileReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

