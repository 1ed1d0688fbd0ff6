"""serve-tcp: one TCP client, one request in flight, against a real server.

The server is ``python -m repro.serve`` in its own process with one
worker process and tracing off. Three cases are pinned once; requests
come from two tenants and half of them ask for the HtY cache. Each
cycle of the stream is a seeded shuffle of every (case, tenant, cache)
combination, each repeated by its case's weight.
"""

from __future__ import annotations

import os
import random
import select
import subprocess
import sys
import time
from typing import List, NamedTuple, Optional, Tuple

from common import child_pids, cmdline, wait_gone

#: (dataset, contracted modes, scale) of each pinned case
SERVE_CASES = (("uber", 3, 0.05), ("nips", 3, 0.1), ("uracil", 3, 0.1))
#: requests per case in each (tenant, cache) group of a cycle. The six
#: (case, cache) kinds form separate latency modes, fastest to slowest
#: uber, uracil with the cache, uracil without it, nips. With weights
#: 1, 2, 2 uracil without the cache holds ranks 40-60% of a cycle and
#: nips without it ranks 80-100%, so p50 and p90 fall inside a mode
#: rather than in the gap between two.
CASE_WEIGHTS = (1, 2, 2)
TENANTS = ("alpha", "beta")
#: seconds to wait for the server's "serving on" line
START_TIMEOUT = 60.0


class Served(NamedTuple):
    """What a served response says about itself."""

    queue_s: float
    service_s: float
    retries: int
    degraded: bool
    cache: bool  # the request asked for the HtY cache
    hit: bool  # and the worker's cache had Y's HtY


class ServeWorkload:
    def __init__(self, seed: int, root: str, workdir: str) -> None:
        from repro.datasets import make_case

        self.root = root
        self.workdir = workdir
        self.cases = [
            make_case(ds, m, scale=sc, seed=seed)
            for ds, m, sc in SERVE_CASES
        ]
        self._rng = random.Random(seed)
        self._queue: List[Tuple[int, str, bool]] = []
        self.proc: Optional[subprocess.Popen] = None
        self.client = None
        self._log = None
        self.refs: List[Tuple[str, dict]] = []

    # ------------------------------------------------------------------
    def launch(self) -> Tuple[float, list]:
        """Start a server, pin every operand, send the cold requests.

        Returns the set-up seconds (process start to the last cold
        response) and the cold responses, to be checked once the
        references exist.
        """
        from repro.serve.net import TcpServeClient

        self.stop()
        self._log = open(os.path.join(self.workdir, "server.log"), "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--workers", "1", "--no-trace"],
            stdout=subprocess.PIPE, stderr=self._log, cwd=self.root,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    START_TIMEOUT)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("serving on "):
            raise RuntimeError(
                f"server did not start (got {line!r}); see "
                f"{self._log.name}"
            )
        self.client = TcpServeClient(line.split()[-1], timeout=60.0)
        for i, c in enumerate(self.cases):
            self.client.pin(f"c{i}-x", c.x, tenant="ops")
            self.client.pin(f"c{i}-y", c.y, tenant="ops")
        cold = [
            self._submit(i, TENANTS[0], cache)
            for i in range(len(self.cases))
            for cache in (False, True)
        ]
        return time.perf_counter() - t0, cold

    def stop(self) -> None:
        """Stop the server and wait until its worker processes are gone."""
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.proc is not None:
            kids = child_pids(self.proc.pid)
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.proc = None
            wait_gone(kids, 10.0)
        if self._log is not None:
            self._log.close()
            self._log = None

    def plan_context(self) -> dict:
        """The server plans its own requests; nothing to record here."""
        return {}

    def rss_pids(self) -> List[int]:
        """The server and its worker (not the resource tracker)."""
        kids = [
            p for p in child_pids(self.proc.pid)
            if "resource_tracker" not in cmdline(p)
        ]
        return [self.proc.pid] + kids

    # ------------------------------------------------------------------
    def _submit(self, i: int, tenant: str, cache: bool):
        c = self.cases[i]
        resp = self.client.submit(
            f"c{i}-x", f"c{i}-y", c.cx, c.cy, tenant=tenant,
            options={"use_hty_cache": True} if cache else {},
        )
        return i, cache, resp

    def call(self):
        if not self._queue:
            self._queue = [
                (i, t, cache)
                for i, weight in enumerate(CASE_WEIGHTS)
                for t in TENANTS
                for cache in (False, True)
                for _ in range(weight)
            ]
            self._rng.shuffle(self._queue)
        return self._submit(*self._queue.pop())

    def build_reference(self) -> None:
        """Direct ``contract()`` per case: Z fingerprint and Table-2 cells."""
        from repro.core import contract
        from repro.serve.loadgen import traffic_cells

        self.refs = []
        for c in self.cases:
            r = contract(c.x, c.y, c.cx, c.cy)
            self.refs.append((r.tensor.fingerprint(),
                              traffic_cells(r.profile)))

    def check(self, res) -> bool:
        """Bit-identical Z; byte-exact traffic unless the cache was on."""
        from repro.serve.loadgen import traffic_cells

        i, cache, resp = res
        digest, cells = self.refs[i]
        if resp.tensor.fingerprint() != digest:
            return False
        return cache or traffic_cells(resp.profile) == cells

    @staticmethod
    def summary(res):
        """What the metrics keep of a response: profile and service fields."""
        _, cache, resp = res
        return resp.profile, Served(
            resp.queue_seconds, resp.service_seconds, resp.retries,
            bool(resp.degraded), cache,
            bool(resp.profile.counters.get("hty_cache_hits", 0)),
        )
