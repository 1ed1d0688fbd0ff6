"""Observability overhead gates: tracing off must cost (almost) nothing.

The tentpole contract of :mod:`repro.obs` is that an engine that is
not being watched behaves as if the tracing code did not exist. Three
gates pin that down:

* **no-op differential** — a run with ``tracer=None`` produces a
  :class:`~repro.core.profile.RunProfile` whose ``to_dict()`` (minus
  the never-reproducible ``stage_seconds``) is identical to a build
  without any tracer argument at all, and a bit-identical output
  tensor;
* **<2% wall-clock overhead** — min-of-N interleaved timings of the
  serial fused engine with ``tracer=None`` vs. the plain call must
  agree within 2% (plus a small absolute floor so micro-jitter on a
  sub-10ms workload cannot fail the gate spuriously);
* **enabled-tracer sanity** — with a real tracer the same run emits
  all five stage spans and remains numerically identical.

Run under pytest (``python -m pytest -q benchmarks/bench_obs.py``);
CI's bench-smoke job runs exactly that.
"""

from __future__ import annotations

import time

import pytest

from repro.core import contract
from repro.core.stages import STAGE_ORDER
from repro.datasets import make_case
from repro.obs import Tracer

#: relative overhead gate from the PR acceptance criteria
MAX_RELATIVE_OVERHEAD = 0.02
#: absolute floor (seconds) under which jitter, not overhead, dominates
ABS_FLOOR_SECONDS = 0.002
REPEATS = 7


@pytest.fixture(scope="module")
def case():
    return make_case("chicago", 2, scale=0.2, seed=0)


def _contract(case, **kwargs):
    return contract(
        case.x, case.y, case.cx, case.cy,
        method="sparta", swap_larger_to_y=False, **kwargs,
    )


def _strip(profile):
    d = profile.to_dict()
    d.pop("stage_seconds")
    return d


def test_disabled_tracer_profile_is_noop(case):
    # The first call in a process compiles the generated kernels and a
    # later one hits the kernel cache; warm it so both runs count alike.
    _contract(case)
    base = _contract(case)
    off = _contract(case, tracer=None)
    assert _strip(off.profile) == _strip(base.profile)
    assert off.tensor.allclose(base.tensor)


def test_disabled_tracer_overhead_under_2pct(case):
    # interleave the two variants so drift (thermal, page cache) hits
    # both equally; compare min-of-N, the standard low-noise estimator
    _contract(case)  # warm caches once
    best_base = float("inf")
    best_off = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _contract(case)
        best_base = min(best_base, time.perf_counter() - t0)
        t0 = time.perf_counter()
        _contract(case, tracer=None)
        best_off = min(best_off, time.perf_counter() - t0)
    overhead = best_off - best_base
    allowed = max(
        MAX_RELATIVE_OVERHEAD * best_base, ABS_FLOOR_SECONDS
    )
    assert overhead <= allowed, (
        f"tracer=None costs {overhead * 1e3:.3f} ms over "
        f"{best_base * 1e3:.3f} ms baseline "
        f"({100 * overhead / best_base:.2f}% > 2%)"
    )


def test_enabled_tracer_spans_and_identical_output(case):
    base = _contract(case)
    tracer = Tracer()
    traced = _contract(case, tracer=tracer)
    names = [r.name for r in tracer.spans()]
    for stage in STAGE_ORDER:
        assert stage.value in names
    assert _strip(traced.profile) == _strip(base.profile)
    assert traced.tensor.allclose(base.tensor)
