"""The repository benchmark's wrapped entry points still run.

``perfbench`` traces a run by wrapping entry points at the names their
callers look up (``perfbench/spans.py``), and a traced run fails when an
entry point required on its workload never runs. This test loads that
module by path, unedited, and runs one default ``contract()`` on a tiny
case shaped like each library workload, and one served request over
TCP for serve-tcp, so moving a call behind another name fails here
rather than only in the traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.core import contract
from repro.core.codegen import default_kernel_cache
from repro.datasets import make_case

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

#: workload -> (dataset, contract modes, contract() keywords)
CASES = {
    "big-z": ("nips", 2, {}),
    "small-z": ("uracil", 3, {}),
    "spill": ("chicago", 2, {"memory_budget": "256K"}),
}


@pytest.fixture(scope="module")
def spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(CASES))
def test_required_entry_points_run(spans_module, workload, tmp_path):
    dataset, modes, kwargs = CASES[workload]
    case = make_case(dataset, modes, scale=0.05, seed=1)
    if "memory_budget" in kwargs:
        kwargs = dict(kwargs, spill_root=str(tmp_path))
    default_kernel_cache().clear()
    recorder = spans_module.SpanRecorder(workload)
    recorder.install()
    try:
        res = contract(case.x, case.y, case.cx, case.cy, **kwargs)
    finally:
        recorder.uninstall()
    if "memory_budget" in kwargs:
        assert res.profile.flags["ooc"] == "spill"
    assert recorder.uncovered() == []


def test_serve_tcp_client_decodes_through_the_wrapped_name(spans_module):
    from repro.serve import ServeConfig, SpTCServer, TcpServeServer
    from repro.serve.net import TcpServeClient

    case = make_case("uber", 3, scale=0.02, seed=1)
    front = TcpServeServer(
        SpTCServer(ServeConfig(workers=1, execution="inline"))
    )
    with front, TcpServeClient(front.url, timeout=30.0) as client:
        recorder = spans_module.SpanRecorder("serve-tcp")
        recorder.install()
        try:
            resp = client.submit(case.x, case.y, case.cx, case.cy)
        finally:
            recorder.uninstall()
    assert recorder.uncovered() == []
    assert resp.tensor.fingerprint() == contract(
        case.x, case.y, case.cx, case.cy
    ).tensor.fingerprint()
