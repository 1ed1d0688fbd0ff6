"""Tests for the shared-memory process pool backend."""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro.parallel.procpool as procpool
from repro.core import contract
from repro.core.common import prepare_x
from repro.core.htycache import HtYCache, cached_plan
from repro.core.profile import RunProfile
from repro.errors import ParallelError
from repro.hashtable.tensor_table import HashTensor
from repro.parallel import (
    attach_operands,
    export_operands,
    parallel_sparta,
    resolve_start_method,
)
from repro.parallel.procpool import PACKAGE_ROOT
from repro.tensor import random_tensor_fibered

HAVE_FORK = "fork" in mp.get_all_start_methods()


@pytest.fixture
def pair():
    x = random_tensor_fibered((10, 12, 12), 500, 1, 24, seed=41)
    y = random_tensor_fibered((12, 12, 8), 800, 2, 60, seed=42)
    return x, y


@pytest.fixture
def serial(pair):
    x, y = pair
    return contract(
        x, y, (1, 2), (0, 1), method="sparta", swap_larger_to_y=False
    )


def assert_bit_identical(z, ref):
    zs, rs = z.sort(), ref.sort()
    np.testing.assert_array_equal(zs.indices, rs.indices)
    np.testing.assert_array_equal(zs.values, rs.values)


class TestCorrectness:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_to_serial(self, pair, serial, workers):
        x, y = pair
        par = parallel_sparta(
            x, y, (1, 2), (0, 1), threads=workers, backend="process"
        )
        assert par.backend == "process"
        assert par.wall_seconds > 0.0
        assert_bit_identical(par.result.tensor, serial.tensor)

    @pytest.mark.parametrize(
        "method", sorted(mp.get_all_start_methods())
    )
    def test_every_start_method(self, pair, serial, method):
        x, y = pair
        par = parallel_sparta(
            x, y, (1, 2), (0, 1),
            threads=2, backend="process", start_method=method,
        )
        assert_bit_identical(par.result.tensor, serial.tensor)

    def test_empty_input_no_pool(self):
        from repro.tensor import SparseTensor

        x = SparseTensor.empty((3, 4))
        y = SparseTensor.empty((4, 5))
        par = parallel_sparta(
            x, y, (1,), (0,), threads=4, backend="process"
        )
        assert par.result.nnz == 0
        assert len(par.thread_stats) == 4
        assert par.load_imbalance == 1.0

    def test_worker_stats_cover_all_nnz(self, pair):
        x, y = pair
        par = parallel_sparta(
            x, y, (1, 2), (0, 1), threads=3, backend="process"
        )
        assert sum(s.nnz_x for s in par.thread_stats) == x.nnz
        assert len(par.thread_stats) == 3

    def test_resolve_start_method(self):
        assert resolve_start_method() in mp.get_all_start_methods()
        assert resolve_start_method("spawn") == "spawn"


class TestSharedOperands:
    def test_export_attach_roundtrip(self, pair):
        x, y = pair
        plan = cached_plan(x, y, (1, 2), (0, 1))
        px = prepare_x(x, plan, RunProfile("test"))
        hty = HashTensor.from_coo(y, plan.cy)
        owned = []  # created blocks (close + unlink)
        attached = []  # worker-side attachments (close only)
        apx = ahty = None
        try:
            spec = export_operands(px, hty, owned)
            apx, ahty = attach_operands(spec, attached)
            np.testing.assert_array_equal(apx.ptr, px.ptr)
            np.testing.assert_array_equal(apx.fx_rows, px.fx_rows)
            np.testing.assert_array_equal(apx.cx_ln, px.cx_ln)
            np.testing.assert_array_equal(apx.values, px.values)
            np.testing.assert_array_equal(ahty.values, hty.values)
            assert ahty.shared is True
            assert hty.shared is False  # source never rebound
            key = hty.table.keys[0]
            assert ahty.table.lookup(key) == hty.table.lookup(key)
        finally:
            del apx, ahty
            for blk in attached:
                blk.close()
            for blk in owned:
                blk.close()
                blk.unlink()

    def test_shared_hty_never_served_from_cache(self, pair):
        # A shm-backed HtY placed in the cache (e.g. by a buggy caller)
        # must be rebuilt, not served: its buffers dangle once the pool
        # unlinks the blocks.
        _, y = pair
        cache = HtYCache()
        hty, hit = cache.get_or_build(y, (0, 1))
        assert not hit
        hty.shared = True  # simulate a shm-backed entry
        rebuilt, hit = cache.get_or_build(y, (0, 1))
        assert not hit
        assert rebuilt is not hty
        assert rebuilt.shared is False
        # The replacement is cached normally afterwards.
        again, hit = cache.get_or_build(y, (0, 1))
        assert hit and again is rebuilt

    def test_process_backend_leaves_cache_usable(self, pair, serial):
        x, y = pair
        cache = HtYCache()
        par1 = parallel_sparta(
            x, y, (1, 2), (0, 1),
            threads=2, backend="process", hty_cache=cache,
        )
        # Second run hits the cache; the cached HtY must still be live
        # (the pool copied it into shm instead of rebinding it).
        par2 = parallel_sparta(
            x, y, (1, 2), (0, 1),
            threads=2, backend="process", hty_cache=cache,
        )
        assert cache.stats.hits == 1
        assert_bit_identical(par1.result.tensor, serial.tensor)
        assert_bit_identical(par2.result.tensor, serial.tensor)


@pytest.mark.skipif(
    not HAVE_FORK,
    reason="crash injection monkeypatches the kernel, needs fork",
)
class TestFailureModes:
    def test_worker_exception_raises_parallel_error(
        self, pair, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("injected kernel failure")

        monkeypatch.setattr(procpool, "fused_compute", boom)
        x, y = pair
        with pytest.raises(ParallelError, match="injected kernel failure"):
            parallel_sparta(
                x, y, (1, 2), (0, 1),
                threads=2, backend="process", start_method="fork",
            )

    def test_worker_hard_death_raises_parallel_error(
        self, pair, monkeypatch
    ):
        def die(*args, **kwargs):
            os._exit(3)

        monkeypatch.setattr(procpool, "fused_compute", die)
        x, y = pair
        with pytest.raises(ParallelError, match="died"):
            parallel_sparta(
                x, y, (1, 2), (0, 1),
                threads=2, backend="process", start_method="fork",
            )


#: A fresh interpreter runs one pool whose first fork precedes every
#: shared-memory export of the run (stage 1 in the parent, or served by
#: an HtY cache), kills worker 0 at its first chunk, and checks Z
#: against serial. Nothing earlier in that process has started the
#: resource tracker, unlike anywhere inside a pytest session.
_FRESH_POOL_SCRIPT = """
import sys
import numpy as np
from repro.core import contract
from repro.core.htycache import HtYCache
from repro.faults import FaultPlan, FaultSpec
from repro.parallel import parallel_sparta
from repro.tensor import random_tensor_fibered

x = random_tensor_fibered((12, 14, 16, 18), 1200, 2, 48, seed=91)
y = random_tensor_fibered((16, 18, 10, 12), 2000, 2, 200, seed=92)
modes = ((2, 3), (0, 1))
ref = contract(x, y, *modes, method="sparta", swap_larger_to_y=False)
if sys.argv[1] == "serial_stage1":
    kwargs = {"parallel_stage1": False}
else:
    kwargs = {"hty_cache": HtYCache()}
plan = FaultPlan((FaultSpec("kill", worker=0, stage="index_search"),))
par = parallel_sparta(x, y, *modes, threads=2, backend="process",
                      fault_plan=plan, **kwargs)
z, r = par.result.tensor.sort(), ref.tensor.sort()
assert par.result.profile.counters["ft_worker_failures"] >= 1
assert np.array_equal(z.indices, r.indices), "indices differ"
assert z.values.tobytes() == r.values.tobytes(), "value bytes differ"
"""


@pytest.mark.skipif(not HAVE_FORK, reason="the private tracker needs fork")
@pytest.mark.parametrize("path", ["serial_stage1", "hty_cache"])
def test_pool_started_before_any_export_keeps_operands(path):
    # A worker forked before the parent's resource tracker runs starts
    # a private tracker on its first attach, which unlinks the parent's
    # operand segments when the worker exits: a replacement worker's
    # attach then fails, and the private tracker warns about "leaks".
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_POOL_SCRIPT, path],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    tracker_lines = [
        line for line in proc.stderr.splitlines()
        if "resource_tracker" in line
    ]
    assert not tracker_lines, proc.stderr


def test_open_pool_does_not_block_interpreter_exit():
    # Workers are not daemonic, so the interpreter joins them at exit;
    # the pool's exit-priority finalizer must stop them first.
    script = (
        "from repro.parallel.procpool import SpartaProcessPool\n"
        "pool = SpartaProcessPool(2)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT),
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr


def _running(pid: int) -> bool:
    """Alive and not a zombie (an orphan's reaper may never come)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(
    not HAVE_FORK or not os.path.isdir("/proc"),
    reason="a forked worker holds its parent's pipe end; reads /proc",
)
def test_workers_exit_when_their_parent_dies():
    # A parent killed before it stops its pool must not leave workers
    # waiting forever on their pipes.
    script = (
        "import os, signal\n"
        "from repro.parallel.procpool import SpartaProcessPool\n"
        "pool = SpartaProcessPool(2)\n"
        "print(*(w.proc.pid for w in pool.workers), flush=True)\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    with proc.stdout:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
    proc.wait(timeout=30)
    assert len(pids) == 2
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and any(map(_running, pids)):
        time.sleep(0.05)
    orphans = [pid for pid in pids if _running(pid)]
    for pid in orphans:
        os.kill(pid, signal.SIGKILL)
    assert not orphans
