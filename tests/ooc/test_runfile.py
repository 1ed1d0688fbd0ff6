"""Run-file format: roundtrip, sealing, crash and corruption handling."""

from __future__ import annotations

import os
import struct

import numpy as np
import pytest

from repro.errors import SpillError
from repro.ooc import RunFileReader, RunFileWriter, SpillManager


def _arrays(seed, n):
    rng = np.random.default_rng(seed)
    return {
        "fgrp": np.sort(rng.integers(0, 50, size=n)).astype(np.int64),
        "fy": rng.integers(0, 100, size=n).astype(np.int64),
        "vals": rng.standard_normal(n),
    }


class TestRunFileRoundtrip:
    def test_multi_run_roundtrip_bytes(self, tmp_path):
        path = str(tmp_path / "t.run")
        runs = [_arrays(s, n) for s, n in ((0, 17), (1, 0), (2, 999))]
        w = RunFileWriter(path)
        for r in runs:
            w.append_run(r)
        w.close()
        assert w.run_count == 3
        r = RunFileReader(path)
        assert r.num_runs == 3
        for i, orig in enumerate(runs):
            got = r.run(i)
            assert set(got) == set(orig)
            for k in orig:
                assert got[k].dtype == orig[k].dtype
                assert got[k].tobytes() == orig[k].tobytes()
        r.close()

    def test_reader_views_are_memmaps(self, tmp_path):
        path = str(tmp_path / "t.run")
        w = RunFileWriter(path)
        w.append_run(_arrays(3, 100))
        w.close()
        r = RunFileReader(path)
        got = r.run(0)
        assert any(
            isinstance(a, np.memmap) for a in got.values()
        ), "reader should hand out mmap-backed views"
        r.close()

    def test_unsealed_file_rejected(self, tmp_path):
        path = str(tmp_path / "t.run")
        w = RunFileWriter(path)
        w.append_run(_arrays(4, 50))
        # crash before close(): no directory/trailer was appended
        w._fh.flush()  # simulate data hitting disk without the seal
        os_level = open(path, "rb").read()
        assert len(os_level) > 0
        with pytest.raises(SpillError):
            RunFileReader(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "t.run")
        w = RunFileWriter(path)
        w.append_run(_arrays(5, 50))
        w.close()
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) - 7])
        with pytest.raises(SpillError):
            RunFileReader(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "t.run")
        open(path, "wb").write(b"NOTARUN!" + b"\0" * 64)
        with pytest.raises(SpillError):
            RunFileReader(path)


class TestSpillManager:
    def test_lifecycle_and_counters(self, tmp_path):
        spill = SpillManager(str(tmp_path))
        root = spill.root
        assert os.path.isdir(root)
        assert os.path.basename(root).startswith("sptc-ooc-")
        w = spill.writer("a.run")
        w.append_run(_arrays(7, 64))
        w.close()
        spill.account(w)
        c = spill.counters()
        assert c["ooc_run_files"] == 1
        assert c["ooc_runs"] == 1
        assert c["ooc_spill_bytes"] > 0
        spill.close()
        assert not os.path.exists(root)
        spill.close()  # idempotent

    def test_unique_paths(self, tmp_path):
        with SpillManager(str(tmp_path)) as spill:
            p1 = spill.path("chunk.run")
            p2 = spill.path("chunk.run")
            assert p1 != p2
