"""Deterministic fault injection for the parallel backends.

The paper's scalability results (§6) assume every worker survives the
run; production deployments cannot. This module provides the *testing*
half of the fault-tolerance story: a seed-driven :class:`FaultPlan`
that kills, delays, or corrupts a named worker at a named pipeline
stage and work unit, so the recovery machinery in
:mod:`repro.parallel.procpool` / :mod:`repro.parallel.executor` can be
exercised deterministically and its bit-identical-to-serial guarantee
asserted under failure (``tests/parallel/test_faults.py`` and the
differential fuzz suite).

Injection sites are named after the five pipeline stages of Figure 2
and map to these worker-side code points:

===================== =================================================
``input_processing``  stage 1 — before building one Y span's partial
                      grouping (kill/delay) or on its payload (corrupt)
``index_search``      stages 2–4 — before running the fused kernel on the
                      chunk the parent handed the worker (or before a
                      served ``contract()`` call)
``accumulation``      after the fused kernel (or the served call), before
                      the result is shipped (corrupt perturbs the
                      payload here)
``writeback``         after the result was shipped — the parent already
                      holds it when the worker dies
``output_sorting``    when the parent stops the worker after its last
                      unit, before it exits (the parent counts the
                      non-zero exit as a worker failure)
===================== =================================================

A :class:`FaultSpec` pins ``worker``/``unit`` or leaves them as
:data:`ANY`. Specs with a concrete ``worker`` fire at most once: the
process backend gives respawned replacement workers fresh ids beyond
the original range, and the in-process injector (thread backend)
remembers fired specs — so a single crash is recoverable. Specs with
``worker=ANY`` match every worker including replacements, which makes
the fault *irrecoverable* and exercises retry exhaustion
(:class:`~repro.errors.PoolDegradedError` / serial degradation).

Plans reach spawned workers as pickled process arguments; a served
request's own plan rides its payload and overrides the pool's for that
request. The
``REPRO_FAULTS`` environment variable (JSON, see
:meth:`FaultPlan.from_env`) activates a plan without touching call
sites — ``parallel_sparta`` reads it when no explicit ``fault_plan``
is passed, so ``contract(..., fault_plan=...)`` and the env var are
equivalent activation paths.

Payload integrity uses :func:`payload_digest`: workers digest their
result arrays *before* a corrupt fault perturbs them, the parent
re-digests on receipt, and a mismatch marks the sender faulty — an
end-to-end execution contract in the spirit of CoNST's generator-side
validation, rather than trusting worker output.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ContractionError

#: wildcard for :attr:`FaultSpec.worker` / :attr:`FaultSpec.unit`
ANY = -1

FAULT_KINDS = ("kill", "delay", "corrupt")

FAULT_STAGES = (
    "input_processing",
    "index_search",
    "accumulation",
    "writeback",
    "output_sorting",
)

#: environment variable holding a JSON-encoded plan (see FaultPlan.from_env)
FAULTS_ENV = "REPRO_FAULTS"

#: exit code of a worker killed by an injected ``kill`` fault
KILL_EXIT_CODE = 41


class InjectedFault(Exception):
    """Raised by a ``kill`` fault on the thread backend (in place of the
    process backend's hard ``os._exit``)."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault: *kind* at *stage*, gated on worker id and unit id.

    ``unit`` is the work-unit index at the injection site: the Y-span id
    for ``input_processing``, the chunk id for the chunk stages (0 for
    a served request, a job of one unit).
    ``seconds`` is the sleep length of a ``delay`` fault (ignored for
    the other kinds).
    """

    kind: str
    worker: int = ANY
    stage: str = "index_search"
    unit: int = ANY
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ContractionError(
                f"unknown fault kind {self.kind!r}; "
                f"choose from {FAULT_KINDS}"
            )
        if self.stage not in FAULT_STAGES:
            raise ContractionError(
                f"unknown fault stage {self.stage!r}; "
                f"choose from {FAULT_STAGES}"
            )

    def matches(self, worker: int, stage: str, unit: int) -> bool:
        return (
            self.stage == stage
            and (self.worker == ANY or self.worker == int(worker))
            and (self.unit == ANY or self.unit == int(unit))
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "worker": self.worker,
            "stage": self.stage,
            "unit": self.unit,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        return cls(
            kind=str(data["kind"]),
            worker=int(data.get("worker", ANY)),
            stage=str(data.get("stage", "index_search")),
            unit=int(data.get("unit", ANY)),
            seconds=float(data.get("seconds", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable set of :class:`FaultSpec` to inject."""

    specs: Tuple[FaultSpec, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.specs)

    # ------------------------------------------------------------------
    @classmethod
    def from_seed(
        cls,
        seed: int,
        *,
        workers: int = 2,
        units: int = 8,
        kinds: Sequence[str] = FAULT_KINDS,
    ) -> "FaultPlan":
        """One random fault, a pure function of *seed*.

        The worker id is always concrete (drawn from the original worker
        range) so the fault is recoverable by reassignment/respawn; the
        delay length is kept small so a delayed run finishes without
        needing a timeout. Used as the differential fuzz axis.
        """
        rng = np.random.default_rng(int(seed))
        kind = str(kinds[int(rng.integers(0, len(kinds)))])
        stage = FAULT_STAGES[int(rng.integers(0, len(FAULT_STAGES)))]
        # output_sorting fires when the worker is stopped, where no unit
        # id is in scope — pin such specs to ANY.
        unit = (
            ANY
            if stage == "output_sorting"
            else int(rng.integers(-1, max(units, 1)))
        )
        return cls(
            specs=(
                FaultSpec(
                    kind=kind,
                    worker=int(rng.integers(0, max(workers, 1))),
                    stage=stage,
                    unit=unit,
                    seconds=0.05 if kind == "delay" else 0.0,
                ),
            )
        )

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps({"specs": [s.to_dict() for s in self.specs]})

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        return cls(
            specs=tuple(
                FaultSpec.from_dict(s) for s in data.get("specs", [])
            )
        )

    @classmethod
    def from_env(cls, environ=None) -> Optional["FaultPlan"]:
        """Parse ``REPRO_FAULTS`` (JSON) if set; ``None`` otherwise."""
        environ = os.environ if environ is None else environ
        text = environ.get(FAULTS_ENV)
        if not text:
            return None
        try:
            return cls.from_json(text)
        except (ValueError, KeyError, TypeError) as exc:
            raise ContractionError(
                f"malformed {FAULTS_ENV} value {text!r}: {exc}"
            ) from exc


class FaultInjector:
    """Evaluates a plan at worker-side injection sites.

    ``kill_mode="exit"`` (process workers) hard-kills via ``os._exit``;
    ``kill_mode="raise"`` (thread backend) raises :class:`InjectedFault`
    so the executor can catch and retry in-process. Specs pinned to a
    concrete worker are one-shot within one injector's lifetime; on the
    process backend the lifetime is one worker process, and replacements
    get fresh ids so pinned specs never refire after a respawn.
    """

    def __init__(
        self,
        plan: Optional[FaultPlan],
        worker: Optional[int] = None,
        *,
        kill_mode: str = "exit",
        tracer=None,
    ) -> None:
        self.plan = plan
        self.worker = worker
        self.kill_mode = kill_mode
        #: optional repro.obs Tracer (duck-typed to keep this module
        #: importable standalone); fired faults leave instant events on
        #: it. A hard-killed process never ships its kill event — the
        #: parent's worker_failure event is the surviving record.
        self.tracer = tracer
        self._fired: set = set()

    def _note(self, name: str, stage: str, unit: int, **extra) -> None:
        if self.tracer is not None:
            self.tracer.instant(
                name, cat="fault", stage=stage, unit=int(unit), **extra
            )

    # ------------------------------------------------------------------
    def _take(
        self, kinds: Tuple[str, ...], stage: str, unit: int,
        worker: Optional[int],
    ) -> Optional[FaultSpec]:
        if self.plan is None:
            return None
        wid = self.worker if worker is None else worker
        wid = ANY if wid is None else int(wid)
        for i, spec in enumerate(self.plan.specs):
            if spec.kind not in kinds or i in self._fired:
                continue
            if spec.matches(wid, stage, unit):
                if spec.worker != ANY:
                    self._fired.add(i)  # pinned specs fire once
                return spec
        return None

    # ------------------------------------------------------------------
    def fire(
        self, stage: str, unit: int, worker: Optional[int] = None
    ) -> None:
        """Execute any matching ``kill``/``delay`` fault at this site."""
        spec = self._take(("kill", "delay"), stage, unit, worker)
        if spec is None:
            return
        if spec.kind == "delay":
            self._note("fault_delay", stage, unit, seconds=spec.seconds)
            time.sleep(spec.seconds)
        elif self.kill_mode == "raise":
            self._note("fault_kill", stage, unit)
            raise InjectedFault(
                f"injected kill at {stage} (unit {unit})"
            )
        else:
            self._note("fault_kill", stage, unit)
            os._exit(KILL_EXIT_CODE)

    def corrupts(
        self, stage: str, unit: int, worker: Optional[int] = None
    ) -> bool:
        """True if a ``corrupt`` fault fires at this site."""
        return self._take(("corrupt",), stage, unit, worker) is not None

    def maybe_corrupt(
        self,
        stage: str,
        unit: int,
        arrays: Sequence[np.ndarray],
        worker: Optional[int] = None,
    ) -> bool:
        """Perturb the first non-empty payload array if a corrupt fault
        fires. Call *after* digesting, so the receiver detects it."""
        if not self.corrupts(stage, unit, worker):
            return False
        self._note("fault_corrupt", stage, unit)
        for arr in arrays:
            if arr.size:
                arr.flat[0] = arr.flat[0] + 1
                return True
        return True  # fired on an empty payload: nothing to flip


def payload_digest(*arrays: np.ndarray) -> str:
    """Cheap end-to-end integrity token over result arrays.

    Workers digest their payload before shipping; the parent re-digests
    on receipt and treats a mismatch as a faulty worker. blake2b over
    dtype, shape and raw bytes — order-sensitive, collision-resistant
    far beyond what in-flight corruption needs.
    """
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(arr.dtype.str.encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


__all__ = [
    "ANY",
    "FAULTS_ENV",
    "FAULT_KINDS",
    "FAULT_STAGES",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "KILL_EXIT_CODE",
    "payload_digest",
]
