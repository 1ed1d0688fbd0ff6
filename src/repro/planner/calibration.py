"""Versioned calibration profiles for the planner's cost model.

The cost model is linear in operand statistics: each stage's predicted
seconds is a sum of ``coefficient x count`` terms (seconds per sorted
element, per probe, per partial product, ...), plus per-backend pool
overheads and parallel-efficiency factors. The coefficients are
machine-dependent, so they are fitted offline
(``scripts/calibrate_planner.py``) against measured stage seconds and
persisted here as a versioned JSON document committed next to the code
(``calibration.json``).

Versioning: ``CALIBRATION_VERSION`` bumps whenever the coefficient set
or the formulas consuming it change shape; a loaded profile with a
different version is rejected rather than silently misread. The
decision-regression corpus (``tests/planner/test_decisions.py``) pins
the *decisions* the committed profile produces, so re-fitting on a new
machine that flips a decision fails loudly and must update the
snapshots deliberately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping

from repro.errors import ContractionError

__all__ = [
    "CALIBRATION_VERSION",
    "COEFFICIENT_NAMES",
    "CalibrationProfile",
    "default_calibration",
    "builtin_calibration",
]

#: bump when coefficient names or consuming formulas change shape
CALIBRATION_VERSION = 2

#: committed fitted profile, loaded by :func:`default_calibration`
CALIBRATION_PATH = Path(__file__).with_name("calibration.json")

#: analytically chosen fallbacks (seconds per unit; ratios matter more
#: than absolute values — decisions compare candidates on one machine)
_BUILTIN_COEFFICIENTS: Dict[str, float] = {
    # serial per-element work
    "sort_unit": 1.2e-8,        # per n*log2(n) sort unit (stages 1/5)
    "hty_build": 1.0e-7,        # per Y non-zero (COO -> HtY)
    "probe": 2.0e-8,            # per X probe (stage 2 batched lookup)
    "product_hash": 6.0e-9,     # per partial product, hash accumulation
    "product_dense": 3.0e-9,    # per partial product, dense workspace
    "writeback": 2.5e-8,        # per created output non-zero (stage 4)
    # parallel overheads (seconds)
    "thread_pool": 2.0e-4,      # ThreadPoolExecutor start-up
    "thread_worker": 1.0e-4,    # per thread
    "process_pool": 8.0e-3,     # SpartaProcessPool start-up
    "process_worker": 7.0e-3,   # per worker process (spawn + shm map)
    # effective parallel fraction of the ideal (workers-1) speedup
    "thread_efficiency": 0.35,  # GIL-bound; numpy releases it partially
    "process_efficiency": 0.70,
}

COEFFICIENT_NAMES = tuple(sorted(_BUILTIN_COEFFICIENTS))


@dataclass(frozen=True)
class CalibrationProfile:
    """One fitted coefficient set, with provenance."""

    version: int
    coefficients: Mapping[str, float]
    #: free-form provenance ("builtin", "fitted on <host> at <time>")
    fitted_on: str = "builtin"
    #: fit quality per fitted coefficient group (informational)
    fit_info: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.version != CALIBRATION_VERSION:
            raise ContractionError(
                f"calibration version {self.version} != supported "
                f"{CALIBRATION_VERSION}; re-run "
                "scripts/calibrate_planner.py"
            )
        missing = [n for n in COEFFICIENT_NAMES
                   if n not in self.coefficients]
        if missing:
            raise ContractionError(
                f"calibration profile missing coefficients: {missing}"
            )
        bad = {
            n: v for n, v in self.coefficients.items()
            if not (isinstance(v, (int, float)) and v > 0.0)
        }
        if bad:
            raise ContractionError(
                f"calibration coefficients must be positive: {bad}"
            )
        for name in ("thread_efficiency", "process_efficiency"):
            if not self.coefficients[name] <= 1.0:
                raise ContractionError(
                    f"{name} must be in (0, 1], got "
                    f"{self.coefficients[name]}"
                )

    def __getitem__(self, name: str) -> float:
        return float(self.coefficients[name])

    # ------------------------------------------------------------------
    def to_json(self, *, indent: int = 2) -> str:
        doc = {
            "version": self.version,
            "fitted_on": self.fitted_on,
            "coefficients": {
                n: float(self.coefficients[n]) for n in COEFFICIENT_NAMES
            },
            "fit_info": {k: float(v) for k, v in self.fit_info.items()},
        }
        return json.dumps(doc, indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CalibrationProfile":
        doc = json.loads(text)
        return cls(
            version=int(doc["version"]),
            coefficients={
                str(k): float(v)
                for k, v in doc["coefficients"].items()
            },
            fitted_on=str(doc.get("fitted_on", "unknown")),
            fit_info={
                str(k): float(v)
                for k, v in doc.get("fit_info", {}).items()
            },
        )

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "CalibrationProfile":
        return cls.from_json(Path(path).read_text())

    def digest(self) -> tuple:
        """Hashable identity (part of the decision-cache key)."""
        return (self.version,) + tuple(
            (n, float(self.coefficients[n])) for n in COEFFICIENT_NAMES
        )


def builtin_calibration() -> CalibrationProfile:
    """The analytic fallback profile (no fitted file needed)."""
    return CalibrationProfile(
        version=CALIBRATION_VERSION,
        coefficients=dict(_BUILTIN_COEFFICIENTS),
        fitted_on="builtin",
    )


_DEFAULT: CalibrationProfile | None = None


def default_calibration() -> CalibrationProfile:
    """The committed fitted profile, falling back to the builtin.

    Loaded once per process; ``scripts/calibrate_planner.py`` rewrites
    the JSON and the next process picks it up.
    """
    global _DEFAULT
    if _DEFAULT is None:
        if CALIBRATION_PATH.exists():
            _DEFAULT = CalibrationProfile.load(CALIBRATION_PATH)
        else:  # pragma: no cover - repo always ships the file
            _DEFAULT = builtin_calibration()
    return _DEFAULT
