"""Library workloads: a stream of identical default ``contract()`` calls.

Each workload is a Table-3 surrogate from ``repro.datasets.make_case``;
the seed picks the surrogate's non-zeros. Why each one exists is in
README.md next to this file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class LibrarySpec:
    dataset: str
    n_modes: int
    scale: float
    #: ``memory_budget=`` passed to every call (None: no cap)
    budget: Optional[str] = None


LIBRARY = {
    "big-z": LibrarySpec("nips", 2, 1.0),
    "small-z": LibrarySpec("uracil", 3, 0.5),
    "spill": LibrarySpec("chicago", 2, 0.5, budget="16M"),
}


class LibraryWorkload:
    """Inputs, the timed operation and its correctness reference."""

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        from repro.core import contract
        from repro.datasets import make_case

        self.spec = LIBRARY[name]
        self.case = make_case(
            self.spec.dataset, self.spec.n_modes,
            scale=self.spec.scale, seed=seed,
        )
        self._contract = contract
        self.kwargs = {}
        if self.spec.budget is not None:
            spill_root = os.path.join(workdir, "spill")
            os.makedirs(spill_root, exist_ok=True)
            self.kwargs = {
                "memory_budget": self.spec.budget,
                "spill_root": spill_root,
            }
        self.ref_digest: Optional[str] = None

    def call(self):
        c = self.case
        return self._contract(c.x, c.y, c.cx, c.cy, **self.kwargs)

    def build_reference(self) -> None:
        """Fingerprint of Z computed by a different path than the timed one.

        Uncapped workloads use the COO+HtA engine (sorted-COO Y search
        instead of HtY); the capped one uses the in-core engine.
        """
        c = self.case
        if self.spec.budget is None:
            ref = self._contract(c.x, c.y, c.cx, c.cy, method="coo_hta")
        else:
            ref = self._contract(c.x, c.y, c.cx, c.cy)
        self.ref_digest = ref.tensor.fingerprint()

    def check(self, res) -> bool:
        return res.tensor.fingerprint() == self.ref_digest

    @staticmethod
    def summary(res):
        """What the metrics keep of a result: its profile."""
        return res.profile, None

    def rss_pids(self):
        return [os.getpid()]

    def stop(self) -> None:
        """Nothing to stop: the calls run in this process."""

    def plan_context(self) -> dict:
        """What ``plan="auto"`` would choose, with predicted seconds.

        ``plan_contraction`` takes no memory budget, so its serial
        prediction is for the uncapped call; it is kept only where the
        timed call is uncapped (``planner.residual`` reads it).
        """
        from repro.planner import plan_contraction

        c = self.case
        d = plan_contraction(c.x, c.y, c.cx, c.cy)
        serial = [
            row.seconds for row in d.table
            if row.candidate.engine == "serial"
            and not row.candidate.swap and row.eligible
        ]
        out = {
            "auto_engine": d.chosen.engine,
            "auto_workers": d.chosen.workers,
            "auto_predicted_s": d.seconds,
        }
        if self.spec.budget is None and serial:
            out["serial_predicted_s"] = min(serial)
        return out
