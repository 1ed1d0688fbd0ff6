"""The TCP wire: binary frames, their size checks and hostile input.

A live :class:`TcpServeServer` (worker execution, one worker) takes
hand-built frames on raw sockets. Frames that declare more than
:data:`FRAME_LIMIT` or end early must close only their own connection,
before the server reads what they declare; complete frames that break
a wire rule must get a typed error reply on a connection that stays
open. After every hostile frame a fresh connection still answers
``ping``, the pool has never respawned, a second tenant's pinned
request is bit-identical to a direct ``contract()``, and no registry
segment was left behind.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import struct
import time
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import contract
from repro.errors import ShapeError
from repro.serve import (
    ServeClient,
    ServeConfig,
    SpTCServer,
    TcpServeServer,
    parse_serve_url,
)
from repro.serve.net import FRAME_LIMIT
from repro.serve.registry import REGISTRY_SHM_PREFIX
from repro.tensor import SparseTensor, random_tensor

from .conftest import assert_tensors_bit_identical


def _registry_segments() -> set:
    try:
        names = os.listdir("/dev/shm")
    except OSError:  # platform without /dev/shm: nothing to compare
        return set()
    return {n for n in names if n.startswith(REGISTRY_SHM_PREFIX)}


class Live(NamedTuple):
    url: str
    front: TcpServeServer
    operands: tuple  # tenant beta's (x, y, cx, cy), pinned as beta-x/y
    direct: object  # contract() of them
    segments: set  # registry segments with only beta's pins alive


@pytest.fixture(scope="module")
def live():
    x = random_tensor((8, 7, 5, 4), 160, seed=211)
    y = random_tensor((5, 4, 9), 90, seed=212)
    cx, cy = (2, 3), (0, 1)
    front = TcpServeServer(
        SpTCServer(ServeConfig(workers=1, execution="worker"))
    ).start()
    try:
        with ServeClient.connect(front.url, timeout=30.0) as client:
            client.pin("beta-x", x, tenant="beta")
            client.pin("beta-y", y, tenant="beta")
        yield Live(front.url, front, (x, y, cx, cy),
                   contract(x, y, cx, cy), _registry_segments())
    finally:
        front.stop()


def _assert_unharmed(live: Live) -> None:
    x, y, cx, cy = live.operands
    with ServeClient.connect(live.url, timeout=30.0) as client:
        assert client.ping()
        assert client.metrics()["serve.pool.respawns"] == 0
        resp = client.submit("beta-x", "beta-y", cx, cy, tenant="beta")
    assert_tensors_bit_identical(
        resp.tensor, live.direct.tensor, "tenant beta"
    )
    assert _registry_segments() == live.segments


# ----------------------------------------------------------------------
# raw frames
# ----------------------------------------------------------------------
def _frame(header, body: bytes = b"") -> bytes:
    head = header if isinstance(header, bytes) else (
        json.dumps(header).encode()
    )
    return struct.pack("<Q", len(head)) + head + body


def _desc(a: np.ndarray) -> dict:
    return {"dtype": a.dtype.str, "shape": list(a.shape), "nbytes": a.nbytes}


def _pin_frame(t: SparseTensor, *, indices=None, values=None,
               tensor=()) -> bytes:
    """A pin of *t*.

    *indices*/*values* replace that buffer's (declaration, bytes);
    *tensor* replaces items of the tensor descriptor.
    """
    indices = indices or (_desc(t.indices), t.indices.tobytes())
    values = values or (_desc(t.values), t.values.tobytes())
    header = {
        "op": "pin", "name": "mallory-x", "tenant": "mallory",
        "tensor": {"shape": list(t.shape), "indices": 0, "values": 1,
                   **dict(tensor)},
        "buffers": [indices[0], values[0]],
    }
    return _frame(header, indices[1] + values[1])


def _contract_frame(x, y, cx, cy) -> bytes:
    header = {
        "op": "contract",
        "x": {"tensor": {"shape": list(x.shape), "indices": 0,
                         "values": 1}},
        "y": {"tensor": {"shape": list(y.shape), "indices": 2,
                         "values": 3}},
        "cx": list(cx), "cy": list(cy), "tenant": "alpha", "options": {},
        "buffers": [_desc(a) for a in (x.indices, x.values, y.indices,
                                       y.values)],
    }
    body = b"".join(
        a.tobytes() for a in (x.indices, x.values, y.indices, y.values)
    )
    return _frame(header, body)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise EOFError(f"connection closed after {len(buf)}/{n} bytes")
        buf += chunk
    return bytes(buf)


def _read_reply(sock: socket.socket) -> dict:
    (hlen,) = struct.unpack("<Q", _recv_exact(sock, 8))
    header = json.loads(_recv_exact(sock, hlen))
    for desc in header.get("buffers", []):
        _recv_exact(sock, desc["nbytes"])
    return header


def _hangs_up(sock: socket.socket, within: float) -> bool:
    """The server closed *sock*, with no reply, within *within* seconds."""
    sock.settimeout(within)
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True
    except socket.timeout:
        return False


def _assert_nothing_logged(caplog) -> None:
    """No traceback from the listener (asyncio logs unhandled ones)."""
    assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


def _outcome(reply: dict) -> str:
    return "ok" if reply.get("ok") else reply["error"]


# ----------------------------------------------------------------------
# hostile frame strategies: (bytes to send, reply outcomes or None for
# a hang-up)
# ----------------------------------------------------------------------
_TENSORS = st.builds(
    lambda nnz, seed: random_tensor((5, 4, 3), nnz, seed=seed),
    st.integers(1, 30),
    st.integers(0, 10_000),
)


@st.composite
def truncated(draw):
    frame = draw(st.sampled_from([
        _pin_frame(draw(_TENSORS)),
        _frame({"op": "ping"}),
    ]))
    return frame[: draw(st.integers(0, len(frame) - 1))], None


header_over_limit = st.one_of(
    st.builds(
        lambda n, tail: (struct.pack("<Q", n) + tail, None),
        st.integers(FRAME_LIMIT + 1, 2**64 - 1),
        st.binary(max_size=64),
    ),
    # a client of the old newline-delimited JSON protocol
    st.just((b'{"op": "ping"}\n', None)),
)


@st.composite
def buffers_over_limit(draw):
    total = FRAME_LIMIT + draw(st.integers(1, 2**40))
    cuts = sorted(draw(st.lists(st.integers(0, total), max_size=2)))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    header = {
        "op": "pin", "name": "mallory-x", "tenant": "mallory",
        "tensor": {"shape": [5], "indices": 0, "values": 1},
        "buffers": [{"dtype": "<f8", "shape": [n // 8], "nbytes": n}
                    for n in sizes],
    }
    return _frame(header), None


def _not_an_object(head: bytes) -> bool:
    try:
        return not isinstance(json.loads(head), dict)
    except (ValueError, RecursionError):
        return True


unreadable_header = st.one_of(
    st.binary(max_size=64).filter(_not_an_object),
    st.integers(1, 5000).map(lambda k: b"[" * k + b"]" * k),
    st.integers(1, 5000).map(lambda k: b'{"a":' * k),
    st.sampled_from([b"[]", b"3", b'"ping"', b"null", b"\xff\xfe{"]),
    st.sampled_from([
        {"op": "ping", "buffers": "x"},
        {"op": "ping", "buffers": [3]},
        {"op": "ping", "buffers": [{"nbytes": -1}]},
        {"op": "ping", "buffers": [{"nbytes": "8"}]},
        {"op": "ping", "buffers": [{"nbytes": True}]},
    ]).map(lambda h: json.dumps(h).encode()),
).map(lambda head: (_frame(head), ["FormatError"]))


@st.composite
def wrong_dtype(draw):
    t = draw(_TENSORS)
    which = draw(st.sampled_from(["indices", "values"]))
    good = "<i8" if which == "indices" else "<f8"
    dtype = draw(st.sampled_from([
        "<i4", "<u8", ">i8", ">f8", "<f4", "|u1", "|b1", "<c16", "O",
        "<M8[s]", "bogus", 7, None, ["<i8"],
        "<f8" if which == "indices" else "<i8",
    ]).filter(lambda d: d != good))
    arr = getattr(t, which)
    buf = (dict(_desc(arr), dtype=dtype), arr.tobytes())
    return _pin_frame(t, **{which: buf}), ["FormatError"]


@st.composite
def bad_layout(draw):
    """Byte lengths, shapes or buffer names that do not fit."""
    t = draw(_TENSORS)
    kind = draw(st.sampled_from(["nbytes", "shape", "name"]))
    if kind == "nbytes":
        which = draw(st.sampled_from(["indices", "values"]))
        arr = getattr(t, which)
        n = draw(st.integers(0, arr.nbytes + 64).filter(
            lambda n: n != arr.nbytes))
        data = (arr.tobytes() + bytes(64))[:n]
        buf = (dict(_desc(arr), nbytes=n), data)
        return _pin_frame(t, **{which: buf}), ["FormatError"]
    if kind == "shape":
        # consistent byte lengths, but indices of the wrong order
        idx = np.zeros((t.nnz, t.order + 1), dtype="<i8")
        frame = _pin_frame(t, indices=(_desc(idx), idx.tobytes()))
        return frame, ["FormatError"]
    pos = draw(st.sampled_from([-1, 2, "1", None, True]))
    return _pin_frame(t, tensor={"values": pos}), ["FormatError"]


@st.composite
def out_of_bounds(draw):
    t = draw(_TENSORS)
    idx = t.indices.copy()
    row = draw(st.integers(0, t.nnz - 1))
    mode = draw(st.integers(0, t.order - 1))
    idx[row, mode] = draw(st.sampled_from([-1, t.shape[mode]]))
    frame = _pin_frame(t, indices=(_desc(idx), idx.tobytes()))
    return frame, ["ShapeError"]


_ALPHA = (
    random_tensor((6, 5, 4), 40, seed=31),
    random_tensor((4, 7), 20, seed=32),
    (2,),
    (0,),
)


@st.composite
def pipelined(draw):
    """Several complete frames in one write: replies come back in order."""
    parts = draw(st.lists(st.one_of(
        st.just((_frame({"op": "ping"}), ["ok"])),
        st.just((_frame({"op": "metrics"}), ["ok"])),
        st.just((_contract_frame(*_ALPHA), ["ok"])),
        unreadable_header,
        wrong_dtype(),
        out_of_bounds(),
    ), min_size=2, max_size=5))
    return b"".join(p for p, _ in parts), sum((e for _, e in parts), [])


HOSTILE = st.one_of(
    truncated(),
    header_over_limit,
    buffers_over_limit(),
    unreadable_header,
    wrong_dtype(),
    bad_layout(),
    out_of_bounds(),
    pipelined(),
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=HOSTILE)
def test_hostile_frame_leaves_server_unharmed(
    live, shm_leak_check, caplog, case
):
    data, replies = case
    with socket.create_connection(
        parse_serve_url(live.url), timeout=30.0
    ) as sock:
        try:
            sock.sendall(data)
            if replies is None:
                sock.shutdown(socket.SHUT_WR)
        except OSError:  # the server already hung up on the prefix
            assert replies is None
        if replies is None:
            assert _hangs_up(sock, 10.0)
        else:
            got = [_outcome(_read_reply(sock)) for _ in replies]
            assert got == replies
            # a complete frame never costs the connection
            sock.sendall(_frame({"op": "ping"}))
            assert _read_reply(sock) == {"ok": True, "pong": True}
    _assert_unharmed(live)
    _assert_nothing_logged(caplog)


def test_oversized_declarations_refused_before_reading(live, caplog):
    """Neither the header nor the body a frame declares is awaited."""
    body_over = {
        "op": "ping",
        "buffers": [{"dtype": "<f8", "shape": [FRAME_LIMIT // 8 + 1],
                     "nbytes": FRAME_LIMIT + 1}],
    }
    for first_bytes in (
        _frame(body_over),  # header only; the body never comes
        struct.pack("<Q", FRAME_LIMIT + 1),  # prefix only
    ):
        with socket.create_connection(parse_serve_url(live.url)) as sock:
            sock.sendall(first_bytes)
            t0 = time.perf_counter()
            assert _hangs_up(sock, 1.0), "server waited for the frame"
            assert time.perf_counter() - t0 < 1.0
    _assert_unharmed(live)
    _assert_nothing_logged(caplog)


# ----------------------------------------------------------------------
# the client side
# ----------------------------------------------------------------------
def _bad_tensor(index: int) -> SparseTensor:
    """Index *index* in mode 0 of a (5, 4, 3) tensor, unchecked."""
    idx = np.array([[0, 1, 2], [index, 0, 0]])
    return SparseTensor(idx, np.array([1.0, 2.0]), (5, 4, 3),
                        validate=False)


@pytest.mark.parametrize("index", [-1, 5, 99])
def test_out_of_bounds_operand_raises_shape_error(live, index):
    bad = _bad_tensor(index)
    y = random_tensor((3, 6), 10, seed=5)
    with ServeClient.connect(live.url, timeout=30.0) as client:
        with pytest.raises(ShapeError):
            client.pin("bad-x", bad)
        assert "bad-x" not in live.front.server.handles()
        with pytest.raises(ShapeError):
            client.submit(bad, y, (2,), (0,))
        assert client.ping()
    _assert_unharmed(live)


def test_served_z_is_writable_and_bit_exact(live):
    x, y, cx, cy = _ALPHA
    with ServeClient.connect(live.url, timeout=30.0) as client:
        resp = client.submit(x, y, cx, cy, tenant="alpha")
    assert_tensors_bit_identical(
        resp.tensor, contract(x, y, cx, cy).tensor, "inline alpha"
    )
    assert resp.tensor.indices.flags.writeable
    assert resp.tensor.values.flags.writeable


def test_served_plan_auto_with_worker_keyword(live):
    """A worker keyword no longer breaks a plan the planner made serial."""
    x, y, cx, cy = live.operands
    options = {"method": "parallel", "plan": "auto", "max_workers": 2,
               "max_retries": 1}
    direct = contract(x, y, cx, cy, **options)
    with ServeClient.connect(live.url, timeout=30.0) as client:
        resp = client.submit(
            "beta-x", "beta-y", cx, cy, tenant="beta", options=options
        )
    assert resp.profile.flags["planner"] == direct.profile.flags["planner"]
    assert_tensors_bit_identical(resp.tensor, direct.tensor, "plan=auto")
