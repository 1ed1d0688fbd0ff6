"""Spill-directory lifecycle and accounting.

A :class:`SpillManager` owns one temporary directory for a single
contraction (or one worker pool): every file the engine spills lives
under it, its counters feed the run profile
(``ooc_spill_bytes`` / ``ooc_runs`` / ``ooc_run_files``), and
``close()`` removes the whole tree — the leak check in
``benchmarks/bench_ooc.py`` asserts nothing survives it, including
after an injected worker crash.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Dict, Optional

from .runfile import RunFileWriter

__all__ = ["SpillManager"]


class SpillManager:
    """Owns a spill directory; hands out writers and tallies bytes."""

    def __init__(
        self,
        spill_root: Optional[str] = None,
        *,
        prefix: str = "sptc-ooc-",
    ) -> None:
        if spill_root is not None:
            os.makedirs(spill_root, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix=prefix, dir=spill_root)
        self.spilled_bytes = 0
        self.run_count = 0
        self.file_count = 0
        self._seq = 0
        self._closed = False

    # ------------------------------------------------------------------
    def path(self, name: str) -> str:
        """A unique file path under the spill directory."""
        self._seq += 1
        return os.path.join(self.root, f"{self._seq:04d}_{name}")

    def writer(self, name: str) -> RunFileWriter:
        """Open a new run-file writer; call :meth:`account` on close."""
        self.file_count += 1
        return RunFileWriter(self.path(name))

    def account(self, writer: RunFileWriter) -> None:
        """Fold a sealed writer's totals into the spill counters."""
        self.spilled_bytes += writer.bytes_written
        self.run_count += writer.run_count

    # ------------------------------------------------------------------
    def counters(self, prefix: str = "ooc") -> Dict[str, int]:
        return {
            f"{prefix}_spill_bytes": int(self.spilled_bytes),
            f"{prefix}_runs": int(self.run_count),
            f"{prefix}_run_files": int(self.file_count),
        }

    def close(self) -> None:
        """Remove the spill directory and everything under it."""
        if self._closed:
            return
        shutil.rmtree(self.root, ignore_errors=True)
        self._closed = True

    def __enter__(self) -> "SpillManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
