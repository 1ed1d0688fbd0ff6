"""Tests for FROSTT .tns and binary I/O."""

import io

import numpy as np
import pytest

from repro.errors import FormatError
from repro.tensor import (
    SparseTensor,
    random_tensor,
    read_bin,
    read_tns,
    tns_string,
    write_bin,
    write_tns,
)
from repro.tensor.io import read_tns_chunks


class TestTns:
    def test_round_trip_file(self, tmp_path):
        t = random_tensor((5, 6, 7), 40, seed=1)
        path = tmp_path / "t.tns"
        write_tns(t, path)
        back = read_tns(path, shape=t.shape)
        assert back.allclose(t)

    def test_round_trip_string(self):
        t = random_tensor((4, 4), 8, seed=2)
        back = read_tns(io.StringIO(tns_string(t)), shape=t.shape)
        assert back.allclose(t)

    def test_one_based_indices(self):
        t = SparseTensor([[0, 0]], [3.5], (2, 2))
        text = tns_string(t)
        data_line = [
            line for line in text.splitlines() if not line.startswith("#")
        ][0]
        assert data_line.split()[:2] == ["1", "1"]

    def test_shape_inferred(self):
        text = "2 3 1.5\n4 1 -2.0\n"
        t = read_tns(io.StringIO(text))
        assert t.shape == (4, 3)
        assert t.nnz == 2

    def test_comments_skipped(self):
        text = "# header\n% other comment\n1 1 1.0\n"
        assert read_tns(io.StringIO(text)).nnz == 1

    def test_inconsistent_order_rejected(self):
        with pytest.raises(FormatError):
            read_tns(io.StringIO("1 1 1.0\n1 1 1 1.0\n"))

    def test_zero_index_rejected(self):
        with pytest.raises(FormatError):
            read_tns(io.StringIO("0 1 1.0\n"))

    def test_garbage_rejected(self):
        with pytest.raises(FormatError):
            read_tns(io.StringIO("a b c\n"))

    def test_empty_rejected(self):
        with pytest.raises(FormatError):
            read_tns(io.StringIO("# nothing\n"))

    def test_short_line_rejected(self):
        with pytest.raises(FormatError):
            read_tns(io.StringIO("1\n"))

    def test_values_preserved_exactly(self):
        t = SparseTensor([[0, 1]], [0.1234567890123456789], (2, 2))
        back = read_tns(io.StringIO(tns_string(t)), shape=t.shape)
        assert back.values[0] == t.values[0]


class TestChunkedRead:
    def test_chunks_cover_file(self, tmp_path):
        t = random_tensor((8, 9, 10), 100, seed=5)
        path = tmp_path / "t.tns"
        write_tns(t, path)
        chunks = list(read_tns_chunks(path, t.shape, chunk_nnz=17))
        assert all(c.shape == t.shape for c in chunks)
        assert sum(c.nnz for c in chunks) == t.nnz
        merged = SparseTensor(
            np.concatenate([c.indices for c in chunks]),
            np.concatenate([c.values for c in chunks]),
            t.shape,
        ).coalesce()
        assert merged.allclose(t)

    def test_single_chunk_when_large(self, tmp_path):
        t = random_tensor((5, 5), 10, seed=6)
        path = tmp_path / "t.tns"
        write_tns(t, path)
        chunks = list(read_tns_chunks(path, t.shape, chunk_nnz=10**6))
        assert len(chunks) == 1
        assert chunks[0].allclose(t)

    def test_order_mismatch_rejected(self, tmp_path):
        t = random_tensor((4, 4), 6, seed=9)
        path = tmp_path / "t.tns"
        write_tns(t, path)
        with pytest.raises(FormatError):
            list(read_tns_chunks(path, (4, 4, 4), chunk_nnz=10))

    def test_bad_chunk_size(self, tmp_path):
        t = random_tensor((4, 4), 6, seed=10)
        path = tmp_path / "t.tns"
        write_tns(t, path)
        with pytest.raises(FormatError):
            list(read_tns_chunks(path, (4, 4), chunk_nnz=0))


class TestBin:
    def test_round_trip(self, tmp_path):
        t = random_tensor((5, 6, 7, 8), 60, seed=3)
        path = tmp_path / "t.npz"
        write_bin(t, path)
        assert read_bin(path).allclose(t)

    def test_magic_checked(self, tmp_path):
        import numpy as np

        path = tmp_path / "bad.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(FormatError):
            read_bin(path)
