"""``plan="auto"`` hands worker keywords only to a parallel engine.

``contract(method="parallel", plan="auto", ...)`` accepts every
``parallel_sparta`` keyword, but the planner may pick the serial
engine, which has no workers. Each worker keyword must then be
dropped, not forwarded, and Z must be bit-identical to the explicit
configuration the planner chose. A keyword the planner chooses itself
(``backend=``, ``swap_larger_to_y=``) is a conflict, refused as
``method=`` already is. A keyword only the serial engine takes is
refused too, on both branches, since the planner could have picked a
parallel engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import contract
from repro.core.sparta import sparta
from repro.datasets import make_case
from repro.errors import ContractionError
from repro.faults import FaultPlan
from repro.parallel import parallel_sparta
from repro.planner import plan_contraction
from repro.tensor import random_tensor

#: one benign value per worker-only keyword of parallel_sparta
WORKER_KEYWORDS = {
    "fault_plan": FaultPlan(),
    "max_retries": 1,
    "on_failure": "serial",
    "start_method": "spawn",
    "unit_timeout": 60.0,
    "timeout": 120.0,
}


#: one benign value per sparta keyword parallel_sparta does not take
SERIAL_KEYWORDS = {
    "granularity": "element",
    "accumulator_buckets": 64,
    "workspace_cap": 1 << 20,
    "dense_threshold": 0.5,
    "x_format": "coo",
}


def _small():
    x = random_tensor((6, 5, 4), 60, seed=7)
    y = random_tensor((4, 7), 40, seed=8)
    return x, y, (2,), (0,)


def _dataset(name, modes):
    def build():
        case = make_case(name, modes, scale=0.5, seed=1)
        return case.x, case.y, case.cx, case.cy

    return build


CASES = {
    "small": _small,
    "nips-1mode": _dataset("nips", 1),
    "chicago-1mode": _dataset("chicago", 1),
}

#: the engine kind the planner picks for each case at 2 workers
BRANCH = {"small": "serial", "nips-1mode": "serial",
          "chicago-1mode": "parallel"}


@pytest.fixture(scope="module", params=sorted(CASES))
def planned(request):
    """A case and the planner's choice for it at 2 workers."""
    x, y, cx, cy = CASES[request.param]()
    chosen = plan_contraction(x, y, cx, cy, max_workers=2).chosen
    return request.param, (x, y, cx, cy), chosen


def _explicit(operands, chosen, **kwargs):
    x, y, cx, cy = operands
    if chosen.engine == "serial":
        return sparta(x, y, cx, cy, swap_larger_to_y=False)
    return parallel_sparta(
        x, y, cx, cy,
        threads=chosen.workers,
        backend=chosen.engine,
        parallel_stage1=chosen.parallel_stage1,
        **kwargs,
    ).result


def test_cases_cover_both_branches(planned):
    name, _, chosen = planned
    assert set(BRANCH.values()) == {"serial", "parallel"}
    kind = "serial" if chosen.engine == "serial" else "parallel"
    assert kind == BRANCH[name]


@pytest.mark.parametrize("keyword", sorted(WORKER_KEYWORDS))
def test_worker_keyword_follows_the_plan(planned, keyword):
    _, operands, chosen = planned
    extra = {keyword: WORKER_KEYWORDS[keyword]}
    res = contract(
        *operands, method="parallel", plan="auto", threads=2, **extra
    )
    assert res.profile.flags["planner"] == f"auto:{chosen.engine}"
    ref = _explicit(operands, chosen, **extra)
    np.testing.assert_array_equal(res.tensor.indices, ref.tensor.indices)
    np.testing.assert_array_equal(res.tensor.values, ref.tensor.values)


@pytest.mark.parametrize(
    "keyword", ["backend", "parallel_stage1", "swap_larger_to_y"]
)
def test_planned_keyword_is_a_conflict(planned, keyword):
    _, operands, _ = planned
    value = "thread" if keyword == "backend" else False
    with pytest.raises(ContractionError, match=keyword):
        contract(
            *operands, method="parallel", plan="auto", threads=2,
            **{keyword: value},
        )


@pytest.mark.parametrize("keyword", sorted(SERIAL_KEYWORDS))
def test_serial_only_keyword_is_refused(planned, keyword):
    _, operands, _ = planned
    with pytest.raises(ContractionError, match=keyword):
        contract(
            *operands, method="parallel", plan="auto", threads=2,
            **{keyword: SERIAL_KEYWORDS[keyword]},
        )
