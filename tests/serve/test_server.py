"""SpTCServer integration: exactness, batching, tracing, back ends."""

from __future__ import annotations

import asyncio
import json
import multiprocessing as mp
import os
import time

import pytest

import repro.parallel.procpool as procpool
from repro.core import contract
from repro.errors import (
    ServeError,
    ServiceOverloadedError,
    UnknownHandleError,
)
from repro.serve import (
    ServeClient,
    ServeConfig,
    SpTCServer,
    TcpServeServer,
    TenantQuota,
    parse_serve_url,
    traffic_cells,
)
from repro.tensor import random_tensor

from .conftest import assert_tensors_bit_identical


@pytest.fixture(scope="module")
def worker_server():
    """One persistent two-worker server shared by this module."""
    server = SpTCServer(ServeConfig(workers=2, execution="worker"))
    server.start()
    yield server
    server.close()


class TestExactness:
    def test_served_bit_identical_and_traffic_exact(
        self, worker_server, pair
    ):
        x, y, cx, cy = pair
        client = ServeClient(worker_server)
        client.pin("ex-x", x)
        client.pin("ex-y", y)
        direct = contract(x, y, cx, cy)
        resp = client.submit("ex-x", "ex-y", cx, cy)
        assert_tensors_bit_identical(
            resp.tensor, direct.tensor, "served vs direct"
        )
        assert traffic_cells(resp.profile) == traffic_cells(
            direct.profile
        ), "served Table-2 traffic differs from direct contract()"
        client.unpin("ex-x")
        client.unpin("ex-y")

    def test_inline_operands_without_pinning(self, worker_server, pair):
        x, y, cx, cy = pair
        direct = contract(x, y, cx, cy)
        resp = ServeClient(worker_server).submit(x, y, cx, cy)
        assert_tensors_bit_identical(
            resp.tensor, direct.tensor, "inline operands"
        )

    def test_option_passthrough_is_exact(self, worker_server, pair):
        x, y, cx, cy = pair
        client = ServeClient(worker_server)
        client.pin("op-x", x)
        client.pin("op-y", y)
        for options in (
            {"method": "spa"},
            {"method": "coo_hta"},
            {"method": "parallel", "threads": 2, "backend": "thread"},
            {"sort_output": False},
        ):
            direct = contract(x, y, cx, cy, **options)
            resp = client.submit(
                "op-x", "op-y", cx, cy, options=options
            )
            assert_tensors_bit_identical(
                resp.tensor, direct.tensor, f"options={options}"
            )
            assert traffic_cells(resp.profile) == traffic_cells(
                direct.profile
            ), f"options={options}: traffic cells differ"
        client.unpin("op-x")
        client.unpin("op-y")

    def test_plan_auto_served(self, worker_server, pair):
        x, y, cx, cy = pair
        direct = contract(x, y, cx, cy, plan="auto", max_workers=2)
        resp = ServeClient(worker_server).submit(
            x, y, cx, cy,
            options={"plan": "auto", "max_workers": 2},
        )
        assert_tensors_bit_identical(
            resp.tensor, direct.tensor, "plan=auto"
        )
        assert resp.profile.flags["planner"].startswith("auto:")


class TestBatching:
    def test_same_signature_requests_ride_one_batch(self, pair):
        x, y, cx, cy = pair
        server = SpTCServer(
            ServeConfig(workers=2, execution="inline", max_batch=8)
        )
        try:
            client = ServeClient(server)
            client.pin("b-x", x)
            client.pin("b-y", y)
            # queue before the dispatchers exist: one deterministic pop
            pendings = [
                client.submit_nowait("b-x", "b-y", cx, cy)
                for _ in range(4)
            ]
            server.start()
            responses = [p.result(timeout=60) for p in pendings]
            assert len({r.batch_id for r in responses}) == 1
            assert server.batches == 1
            assert server.batched_requests == 4
        finally:
            server.close()

    def test_incompatible_requests_do_not_batch(self, pair):
        x, y, cx, cy = pair
        server = SpTCServer(
            ServeConfig(workers=1, execution="inline", max_batch=8)
        )
        try:
            client = ServeClient(server)
            client.pin("i-x", x)
            client.pin("i-y", y)
            p1 = client.submit_nowait("i-x", "i-y", cx, cy)
            p2 = client.submit_nowait(
                "i-x", "i-y", cx, cy, options={"method": "spa"}
            )
            server.start()
            r1, r2 = p1.result(60), p2.result(60)
            assert r1.batch_id != r2.batch_id
        finally:
            server.close()

    def test_warm_worker_hty_cache_hits_across_batch(self, pair):
        x, y, cx, cy = pair
        # fresh server: the first request must miss, followers must hit
        # the worker-resident HtY cache (the opt-in warm path)
        server = SpTCServer(ServeConfig(workers=1, execution="worker"))
        try:
            server.start()
            client = ServeClient(server)
            client.pin("w-x", x)
            client.pin("w-y", y)
            opts = {"use_hty_cache": True}
            first = client.submit("w-x", "w-y", cx, cy, options=opts)
            second = client.submit("w-x", "w-y", cx, cy, options=opts)
            direct = contract(x, y, cx, cy)
            for label, resp in (("first", first), ("second", second)):
                assert_tensors_bit_identical(
                    resp.tensor, direct.tensor, label
                )
            assert first.profile.counters.get("hty_cache_hits", 0) == 0
            assert (
                second.profile.counters.get("hty_cache_hits", 0) >= 1
            ), "warm worker did not hit its HtY cache"
        finally:
            server.close()


class TestAdmissionAndErrors:
    def test_unknown_option_rejected_at_submit(self, worker_server):
        with pytest.raises(ServeError, match="unknown request option"):
            ServeClient(worker_server).submit_nowait(
                random_tensor((3, 3), 4, seed=1),
                random_tensor((3, 3), 4, seed=2),
                (1,), (0,), options={"granularity": "element"},
            )

    def test_unknown_handle_fails_fast(self, worker_server):
        with pytest.raises(UnknownHandleError):
            ServeClient(worker_server).submit_nowait(
                "no-such-handle",
                random_tensor((3, 3), 4, seed=3),
                (1,), (0,),
            )

    def test_queue_depth_backpressure(self, pair):
        x, y, cx, cy = pair
        server = SpTCServer(
            ServeConfig(workers=1, execution="inline",
                        max_queue_depth=2)
        )
        # never started: the queue only fills
        try:
            client = ServeClient(server)
            client.pin("q-x", x)
            client.pin("q-y", y)
            client.submit_nowait("q-x", "q-y", cx, cy)
            client.submit_nowait("q-x", "q-y", cx, cy)
            with pytest.raises(ServiceOverloadedError) as exc:
                client.submit_nowait("q-x", "q-y", cx, cy)
            assert exc.value.retry_after > 0
            m = client.metrics()
            assert m["serve.default.rejected"] == 1
        finally:
            server.close()

    def test_tenant_quota_bounds_queue(self, pair):
        x, y, cx, cy = pair
        server = SpTCServer(
            ServeConfig(
                workers=1, execution="inline",
                quotas={"limited": TenantQuota(max_queue_depth=1)},
            )
        )
        try:
            client = ServeClient(server)
            client.pin("t-x", x, tenant="limited")
            client.pin("t-y", y, tenant="limited")
            client.submit_nowait(
                "t-x", "t-y", cx, cy, tenant="limited"
            )
            with pytest.raises(ServiceOverloadedError):
                client.submit_nowait(
                    "t-x", "t-y", cx, cy, tenant="limited"
                )
            # the other tenant is unaffected by the flood
            client.submit_nowait("t-x", "t-y", cx, cy, tenant="calm")
        finally:
            server.close()

    def test_deterministic_worker_error_fails_only_request(
        self, worker_server, pair
    ):
        x, y, cx, cy = pair
        client = ServeClient(worker_server)
        # contract modes out of range: deterministic ShapeError in the
        # worker, reported as WorkerCrashError without burning it
        from repro.errors import WorkerCrashError

        with pytest.raises(WorkerCrashError, match="mode 9"):
            client.submit(x, y, (9,), (0,), timeout=60)
        # the pool still serves
        direct = contract(x, y, cx, cy)
        resp = client.submit(x, y, cx, cy)
        assert_tensors_bit_identical(
            resp.tensor, direct.tensor, "after deterministic error"
        )

    def test_close_fails_queued_requests(self, pair):
        x, y, cx, cy = pair
        server = SpTCServer(ServeConfig(workers=1, execution="inline"))
        client = ServeClient(server)
        client.pin("c-x", x)
        client.pin("c-y", y)
        pending = client.submit_nowait("c-x", "c-y", cx, cy)
        server.close()  # never started: the request never dispatched
        with pytest.raises(ServeError, match="shut down"):
            pending.result(timeout=5)
        with pytest.raises(ServeError, match="closed"):
            client.submit_nowait("c-x", "c-y", cx, cy)


class TestObservability:
    def test_request_trace_spans(self, worker_server, pair, tmp_path):
        x, y, cx, cy = pair
        resp = ServeClient(worker_server).submit(
            x, y, cx, cy, trace=True,
            options={"plan": "auto", "max_workers": 2},
        )
        names = {rec.name for rec in resp.records}
        assert {"request", "queue_wait", "plan"} <= names
        root = next(
            rec for rec in resp.records if rec.name == "request"
        )
        assert root.args["trace_id"] == resp.trace_id
        assert root.args["tenant"] == "default"
        out = tmp_path / "trace.json"
        resp.write_trace(out)
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert any(e.get("name") == "request" for e in events)
        assert all(
            e.get("ts", 0) >= 0 for e in events
        ), "trace rebasing produced negative timestamps"

    def test_tracing_off_has_no_records(self, worker_server, pair):
        x, y, cx, cy = pair
        resp = ServeClient(worker_server).submit(
            x, y, cx, cy, trace=False
        )
        assert resp.records == []
        with pytest.raises(ServeError, match="tracing"):
            resp.write_trace("/tmp/never-written.json")

    def test_per_tenant_metrics(self, pair):
        x, y, cx, cy = pair
        server = SpTCServer(ServeConfig(workers=1, execution="inline"))
        try:
            server.start()
            client = ServeClient(server)
            client.pin("m-x", x)
            client.pin("m-y", y)
            for tenant, n in (("alpha", 3), ("beta", 1)):
                for _ in range(n):
                    client.submit(
                        "m-x", "m-y", cx, cy, tenant=tenant
                    )
            m = client.metrics()
            assert m["serve.alpha.requests"] == 3
            assert m["serve.alpha.completed"] == 3
            assert m["serve.beta.completed"] == 1
            assert m["serve.alpha.latency.p50_ms"] > 0
            assert m["serve.pool.workers"] == 1
            assert m["serve.registry.pinned"] == 2
            assert m["serve.queue_depth"] == 0
        finally:
            server.close()

    def test_record_server_duck_typing(self, pair):
        from repro.obs import MetricsRegistry

        x, y, cx, cy = pair
        server = SpTCServer(ServeConfig(workers=1, execution="inline"))
        try:
            server.start()
            ServeClient(server).submit(x, y, cx, cy)
            registry = MetricsRegistry().record_server(server)
            assert registry.get("serve.default.completed") == 1
        finally:
            server.close()


class TestAsyncAndTcp:
    def test_submit_async(self, worker_server, pair):
        x, y, cx, cy = pair

        async def go():
            return await asyncio.gather(
                worker_server.submit_async(x, y, cx, cy),
                worker_server.submit_async(x, y, cx, cy),
            )

        r1, r2 = asyncio.run(go())
        direct = contract(x, y, cx, cy)
        assert_tensors_bit_identical(r1.tensor, direct.tensor, "async1")
        assert_tensors_bit_identical(r2.tensor, direct.tensor, "async2")

    def test_parse_serve_url(self):
        assert parse_serve_url("tcp://127.0.0.1:7077") == (
            "127.0.0.1", 7077
        )
        assert parse_serve_url("localhost:80") == ("localhost", 80)
        with pytest.raises(ServeError):
            parse_serve_url("http://nope")

    def test_tcp_roundtrip_bit_exact(self, pair, shm_leak_check):
        x, y, cx, cy = pair
        direct = contract(x, y, cx, cy)
        front = TcpServeServer(
            SpTCServer(ServeConfig(workers=1, execution="inline"))
        )
        with front:
            client = ServeClient.connect(front.url)
            assert client.ping()
            client.pin("tcp-x", x)
            client.pin("tcp-y", y)
            resp = client.submit("tcp-x", "tcp-y", cx, cy)
            assert_tensors_bit_identical(
                resp.tensor, direct.tensor, "tcp handles"
            )
            assert traffic_cells(resp.profile) == traffic_cells(
                direct.profile
            ), "profile did not survive the wire"
            # inline tensors over the wire: float64 via repr round-trip
            resp2 = client.submit(x, y, cx, cy)
            assert_tensors_bit_identical(
                resp2.tensor, direct.tensor, "tcp inline"
            )
            with pytest.raises(UnknownHandleError):
                client.submit("ghost", "tcp-y", cx, cy)
            m = client.metrics()
            assert m["serve.default.completed"] == 2
            client.close()

    def test_tcp_shutdown_unlinks_segments(self, pair, shm_leak_check):
        x, y, cx, cy = pair
        front = TcpServeServer(
            SpTCServer(ServeConfig(workers=1, execution="inline"))
        )
        front.start()
        client = ServeClient.connect(front.url)
        client.pin("s-x", x)
        client.pin("s-y", y)
        client.close()  # client vanishes without unpinning
        front.stop()  # shutdown must still unlink everything


def test_worker_pool_shutdown_leaks_nothing(pair, shm_leak_check):
    x, y, cx, cy = pair
    server = SpTCServer(ServeConfig(workers=2, execution="worker"))
    with server:
        client = ServeClient(server)
        client.pin("z-x", x)
        client.pin("z-y", y)
        direct = contract(x, y, cx, cy)
        for _ in range(3):
            resp = client.submit("z-x", "z-y", cx, cy)
            assert_tensors_bit_identical(
                resp.tensor, direct.tensor, "pool run"
            )
    # context exit closed workers + registry; shm_leak_check verifies


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="pids are recorded by a start patched into forked workers",
)
def test_served_process_backend_request(pair, tmp_path, monkeypatch,
                                        shm_leak_check):
    # The served call is the direct call, so a request may ask for the
    # process backend: its worker starts a pool of its own.
    x, y, cx, cy = pair
    options = {"method": "parallel", "backend": "process", "threads": 2}
    direct = contract(x, y, cx, cy, **options)
    started = tmp_path / "started"
    real_start = procpool.start_worker

    def recording_start(*args, **kwargs):
        proc = real_start(*args, **kwargs)
        with open(started, "a") as f:
            f.write(f"{os.getpid()} {proc.pid}\n")
        return proc

    monkeypatch.setattr(procpool, "start_worker", recording_start)
    with SpTCServer(ServeConfig(workers=1, start_method="fork")) as server:
        resp = server.submit_and_wait(
            x, y, cx, cy, options=options, timeout=60
        )
    assert resp.retries == 0 and not resp.degraded
    assert_tensors_bit_identical(resp.tensor, direct.tensor,
                                 "served process backend")
    rows = [map(int, line.split()) for line in
            started.read_text().splitlines()]
    children = {(parent == os.getpid(), pid) for parent, pid in rows}
    assert {kind for kind, _ in children} == {True, False}, (
        "expected a server worker and its own pool workers"
    )
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and any(
        _pid_alive(pid) for _, pid in children
    ):
        time.sleep(0.05)
    assert not [pid for _, pid in children if _pid_alive(pid)]
