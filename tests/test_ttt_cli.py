"""Tests for the ttt command-line tool."""

import os

import pytest

from repro.tensor import random_tensor, read_tns, write_tns
from repro.ttt import main


@pytest.fixture
def tns_pair(tmp_path):
    x = random_tensor((6, 5, 4, 3), 40, seed=151)
    y = random_tensor((4, 3, 7), 30, seed=152)
    xp, yp = tmp_path / "x.tns", tmp_path / "y.tns"
    write_tns(x, xp)
    write_tns(y, yp)
    return str(xp), str(yp), x, y


class TestTTT:
    def test_basic_run(self, tns_pair, capsys):
        xp, yp, *_ = tns_pair
        code = main(["-X", xp, "-Y", yp, "-m", "2",
                     "-x", "2", "3", "-y", "0", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine: sparta" in out
        assert "total:" in out

    def test_output_file(self, tns_pair, tmp_path, capsys):
        xp, yp, x, y = tns_pair
        zp = tmp_path / "z.tns"
        code = main(["-X", xp, "-Y", yp, "-Z", str(zp), "-m", "2",
                     "-x", "2", "3", "-y", "0", "1"])
        assert code == 0
        from repro.core import contract

        z = read_tns(zp)
        ref = contract(x, y, (2, 3), (0, 1), method="dense")
        assert z.allclose(ref.tensor)

    @pytest.mark.parametrize("mode,engine", [
        ("0", "spa"), ("1", "coo_hta"), ("3", "sparta"),
    ])
    def test_experiment_modes(self, tns_pair, capsys, monkeypatch,
                              mode, engine):
        xp, yp, *_ = tns_pair
        monkeypatch.setenv("EXPERIMENT_MODES", mode)
        assert main(["-X", xp, "-Y", yp, "-m", "2",
                     "-x", "2", "3", "-y", "0", "1"]) == 0
        assert f"engine: {engine}" in capsys.readouterr().out

    def test_mode_4_hm_simulation(self, tns_pair, capsys, monkeypatch):
        xp, yp, *_ = tns_pair
        monkeypatch.setenv("EXPERIMENT_MODES", "4")
        assert main(["-X", xp, "-Y", yp, "-m", "2",
                     "-x", "2", "3", "-y", "0", "1"]) == 0
        out = capsys.readouterr().out
        assert "heterogeneous-memory simulation" in out
        assert "optane-only" in out

    def test_threads(self, tns_pair, capsys):
        xp, yp, *_ = tns_pair
        assert main(["-X", xp, "-Y", yp, "-m", "2",
                     "-x", "2", "3", "-y", "0", "1", "-t", "3"]) == 0
        assert "threads: 3" in capsys.readouterr().out

    def test_mode_count_mismatch(self, tns_pair, capsys):
        xp, yp, *_ = tns_pair
        assert main(["-X", xp, "-Y", yp, "-m", "1",
                     "-x", "2", "3", "-y", "0", "1"]) == 2

    def test_bad_experiment_mode(self, tns_pair, monkeypatch):
        xp, yp, *_ = tns_pair
        monkeypatch.setenv("EXPERIMENT_MODES", "9")
        assert main(["-X", xp, "-Y", yp, "-m", "2",
                     "-x", "2", "3", "-y", "0", "1"]) == 2

    @pytest.mark.parametrize("policy", [
        "dynamic:lookahead", "dynamic:ewma",
    ])
    def test_dynamic_placement_mode_4(self, tns_pair, capsys,
                                      monkeypatch, policy):
        xp, yp, *_ = tns_pair
        monkeypatch.setenv("EXPERIMENT_MODES", "4")
        assert main(["-X", xp, "-Y", yp, "-m", "2",
                     "-x", "2", "3", "-y", "0", "1",
                     "--placement", policy]) == 0
        out = capsys.readouterr().out
        assert policy in out
        assert "migrations" in out
        assert "x of sparta" in out

    def test_ial_placement_mode_4(self, tns_pair, capsys, monkeypatch):
        xp, yp, *_ = tns_pair
        monkeypatch.setenv("EXPERIMENT_MODES", "4")
        assert main(["-X", xp, "-Y", yp, "-m", "2",
                     "-x", "2", "3", "-y", "0", "1",
                     "--placement", "ial"]) == 0
        assert "ial" in capsys.readouterr().out

    def test_placement_requires_mode_4(self, tns_pair, capsys,
                                       monkeypatch):
        xp, yp, *_ = tns_pair
        monkeypatch.setenv("EXPERIMENT_MODES", "3")
        assert main(["-X", xp, "-Y", yp, "-m", "2",
                     "-x", "2", "3", "-y", "0", "1",
                     "--placement", "dynamic:lookahead"]) == 2

    def test_dynamic_placement_metrics(self, tns_pair, tmp_path,
                                       monkeypatch):
        import json

        xp, yp, *_ = tns_pair
        mp = tmp_path / "metrics.json"
        monkeypatch.setenv("EXPERIMENT_MODES", "4")
        assert main(["-X", xp, "-Y", yp, "-m", "2",
                     "-x", "2", "3", "-y", "0", "1",
                     "--placement", "dynamic:ewma",
                     "--metrics", str(mp)]) == 0
        payload = json.loads(mp.read_text())
        assert payload["memory.migration.policy"] == "ewma"
        assert payload["memory.migration.runs"] == 1


class TestTTTServed:
    @pytest.fixture(scope="class")
    def serve_url(self):
        from repro.serve import (
            ServeConfig,
            SpTCServer,
            TcpServeServer,
        )

        server = SpTCServer(
            ServeConfig(workers=1, execution="inline")
        ).start()
        front = TcpServeServer(server).start()
        yield front.url
        front.stop()
        server.close()

    def test_served_roundtrip_matches_local(self, tns_pair, tmp_path,
                                            capsys, serve_url):
        xp, yp, x, y = tns_pair
        zp = tmp_path / "z.tns"
        code = main(["-X", xp, "-Y", yp, "-Z", str(zp), "-m", "2",
                     "-x", "2", "3", "-y", "0", "1",
                     "--serve-url", serve_url])
        assert code == 0
        out = capsys.readouterr().out
        assert f"served via {serve_url}" in out
        assert "total:" in out
        from repro.core import contract

        ref = contract(x, y, (2, 3), (0, 1))
        assert read_tns(zp).allclose(ref.tensor)

    def test_served_rejects_local_only_flags(self, tns_pair, tmp_path,
                                             serve_url):
        xp, yp, *_ = tns_pair
        assert main(["-X", xp, "-Y", yp, "-m", "2",
                     "-x", "2", "3", "-y", "0", "1",
                     "--serve-url", serve_url,
                     "--trace", str(tmp_path / "t.json")]) == 2

    def test_served_rejects_hm_simulation_mode(self, tns_pair,
                                               monkeypatch, serve_url):
        xp, yp, *_ = tns_pair
        monkeypatch.setenv("EXPERIMENT_MODES", "4")
        assert main(["-X", xp, "-Y", yp, "-m", "2",
                     "-x", "2", "3", "-y", "0", "1",
                     "--serve-url", serve_url]) == 2
