"""TCP front end — length-prefixed binary frames over a plain socket.

Every message, in either direction, is one *frame*::

    | header length | header             | buffer 0 | buffer 1 | ...
    | 8 bytes, <u8  | UTF-8 JSON object  | raw bytes declared by the header

The header's ``"buffers"`` list declares, in order, each raw buffer
that follows as ``{"dtype": ..., "shape": [...], "nbytes": ...}``.
A tensor travels as two of those buffers — its ``indices``
(``'<i8'``, ``(nnz, order)``) and its ``values`` (``'<f8'``,
``(nnz,)``) — named by position in a ``{"shape": [...], "indices": i,
"values": j}`` descriptor (:func:`tensor_to_wire`,
:func:`tensor_from_wire`). The bytes are the arrays' own storage, so
every float64 crosses the wire bit-exactly and no text is parsed: a
served result checked against a local ``contract()`` matches byte for
byte through the TCP path.

Requests (client → server), shown as headers::

    {"op": "ping"}
    {"op": "pin",    "name": ..., "tenant": ..., "tensor": <tensor>}
    {"op": "unpin",  "name": ..., "force": false}
    {"op": "contract", "x": {"handle": ...} | {"tensor": <tensor>},
     "y": ..., "cx": [...], "cy": [...], "tenant": ...,
     "options": {...}}
    {"op": "metrics"}

Replies are ``{"ok": true, ...}`` — a contraction's carries Z as a
``"tensor"`` descriptor and its :class:`~repro.core.profile.RunProfile`
as a ``"profile"`` object — or ``{"ok": false, "error": "<Type>",
"message": ..., "retry_after": ...}``; the client maps errors back onto
the matching exception types
(:class:`~repro.errors.ServiceOverloadedError` keeps its retry-after).

Hostile input. Lengths come before the bytes they describe, so the
server checks them before reading on: a header longer than
:data:`FRAME_LIMIT` bytes, or buffers declaring more than
:data:`FRAME_LIMIT` bytes in total, close that connection unread, and so
does a frame the peer cuts short. A complete frame that breaks a rule
gets a typed error reply and the connection stays open: a header that
is not a JSON object, or declares no readable byte lengths (such a
frame ends with its header), raises
:class:`~repro.errors.FormatError`, as do a dtype other than
``'<i8'``/``'<f8'``, a byte length other than prod(shape) × itemsize
and a tensor whose buffers do not fit its shape; an index outside its
mode's extent raises :class:`~repro.errors.ShapeError`. Neither case
touches other connections, the registry or the pool.

One request is in flight per connection, by construction: the handler
reads a connection's next frame only after it has written the reply
to the last, so a pipelining client gets its replies in order and
cannot queue work faster than it is served.

:class:`TcpServeServer` is the asyncio front over the threaded
:class:`~repro.serve.server.SpTCServer` back: the event loop accepts
connections and awaits :meth:`~repro.serve.server.SpTCServer.submit_async`
per request, so a slow contraction never blocks other clients on the
same loop. Trace records stay server-side (the CLI writes sample
traces from the server process); everything else in a
:class:`~repro.serve.server.ServeResponse` crosses the wire.
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import struct
import threading
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.profile import RunProfile
from repro.errors import (
    FormatError,
    ServeError,
    ServiceOverloadedError,
    ShapeError,
    UnknownHandleError,
)
from repro.serve.server import ServeResponse, SpTCServer
from repro.tensor.coo import SparseTensor

__all__ = [
    "FRAME_LIMIT",
    "TcpServeClient",
    "TcpServeServer",
    "parse_serve_url",
    "tensor_from_wire",
    "tensor_to_wire",
]

#: the most bytes a frame may declare for its header, and again for its
#: buffers together; the server closes a connection that declares more
#: without reading it (raw buffers are smaller than the JSON text they
#: replaced, so this keeps the old line limit's reach)
FRAME_LIMIT = 1 << 27

#: a frame's length prefix: its header's byte count, little-endian
_PREFIX = struct.Struct("<Q")

#: the dtypes a SparseTensor stores, by wire name
_INDEX_DTYPE = np.dtype("<i8")
_VALUE_DTYPE = np.dtype("<f8")
_WIRE_DTYPES = {d.str: d for d in (_INDEX_DTYPE, _VALUE_DTYPE)}


def parse_serve_url(url: str) -> Tuple[str, int]:
    """``tcp://host:port`` (or bare ``host:port``) → ``(host, port)``."""
    spec = url.strip()
    if spec.startswith("tcp://"):
        spec = spec[len("tcp://") :]
    host, sep, port = spec.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ServeError(
            f"malformed serve url {url!r}; expected tcp://host:port"
        )
    return host, int(port)


# ----------------------------------------------------------------------
# frames
# ----------------------------------------------------------------------
def _encode_frame(header: dict, buffers: Sequence[np.ndarray]) -> list:
    """*header* and *buffers* as the byte strings of one frame."""
    if buffers:
        header["buffers"] = [
            {"dtype": b.dtype.str, "shape": list(b.shape),
             "nbytes": b.nbytes}
            for b in buffers
        ]
    head = json.dumps(header).encode()
    return [_PREFIX.pack(len(head)) + head] + [
        b.reshape(-1).view(np.uint8).data for b in buffers if b.nbytes
    ]


def _parse_header(head) -> Tuple[dict, List[int]]:
    """A frame's header and the byte length of each buffer it declares."""
    try:
        header = json.loads(head)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"frame header is not JSON: {exc}") from None
    if not isinstance(header, dict):
        raise FormatError("frame header must be a JSON object")
    table = header.get("buffers", [])
    if not isinstance(table, list) or not all(
        isinstance(d, dict)
        and type(d.get("nbytes")) is int
        and d["nbytes"] >= 0
        for d in table
    ):
        raise FormatError(
            "frame header's buffers must each declare an int nbytes >= 0"
        )
    return header, [d["nbytes"] for d in table]


def _arrays(header: dict, raw: Sequence) -> List[np.ndarray]:
    """The buffers *header* declares, as arrays over their *raw* bytes."""
    out = []
    for desc, data in zip(header.get("buffers", []), raw):
        dtype = _WIRE_DTYPES.get(str(desc.get("dtype")))
        if dtype is None:
            raise FormatError(
                f"buffer dtype {desc.get('dtype')!r} is not one of "
                f"{sorted(_WIRE_DTYPES)}"
            )
        shape = desc.get("shape")
        if (
            not isinstance(shape, list)
            or not 1 <= len(shape) <= 2
            or not all(type(n) is int and n >= 0 for n in shape)
        ):
            raise FormatError(
                f"buffer shape {shape!r} is not a 1-D or 2-D list of "
                f"non-negative ints"
            )
        if math.prod(shape) * dtype.itemsize != len(data):
            raise FormatError(
                f"buffer of {len(data)} bytes does not hold shape "
                f"{shape} of {dtype.str}"
            )
        out.append(np.frombuffer(data, dtype=dtype).reshape(shape))
    return out


def tensor_to_wire(t: SparseTensor, buffers: List[np.ndarray]) -> dict:
    """Descriptor of *t*; appends its index and value arrays to *buffers*."""
    buffers.append(np.ascontiguousarray(t.indices, dtype=_INDEX_DTYPE))
    buffers.append(np.ascontiguousarray(t.values, dtype=_VALUE_DTYPE))
    return {
        "shape": [int(d) for d in t.shape],
        "indices": len(buffers) - 2,
        "values": len(buffers) - 1,
    }


def tensor_from_wire(
    desc: dict,
    buffers: Sequence[np.ndarray],
    *,
    validate: bool = True,
) -> SparseTensor:
    """The tensor *desc* names among a frame's decoded *buffers*.

    Adopts the arrays without copying. *validate* bounds-checks every
    index against the shape (:class:`~repro.errors.ShapeError`); only
    the client's decode of the server's own Z skips it.
    """
    if not isinstance(desc, dict):
        raise FormatError(f"tensor descriptor {desc!r} is not an object")

    def buffer(key: str) -> np.ndarray:
        pos = desc.get(key)
        if type(pos) is not int or not 0 <= pos < len(buffers):
            raise FormatError(f"tensor {key} names no buffer: {pos!r}")
        return buffers[pos]

    idx, val = buffer("indices"), buffer("values")
    shape = desc.get("shape")
    if not isinstance(shape, list) or not all(
        type(n) is int for n in shape
    ):
        raise FormatError(f"tensor shape {shape!r} is not a list of ints")
    if idx.dtype != _INDEX_DTYPE or val.dtype != _VALUE_DTYPE:
        raise FormatError(
            f"tensor buffers are {idx.dtype.str}/{val.dtype.str}, not "
            f"{_INDEX_DTYPE.str}/{_VALUE_DTYPE.str}"
        )
    if (
        idx.ndim != 2
        or idx.shape[1] != len(shape)
        or val.shape != (idx.shape[0],)
    ):
        raise FormatError(
            f"indices {idx.shape} and values {val.shape} do not fit an "
            f"order-{len(shape)} tensor"
        )
    return SparseTensor(idx, val, shape, copy=False, validate=validate)


def _operand_to_wire(ref, buffers: List[np.ndarray]) -> dict:
    if isinstance(ref, str):
        return {"handle": ref}
    return {"tensor": tensor_to_wire(ref, buffers)}


def _operand_from_wire(
    desc: dict, buffers: Sequence[np.ndarray]
) -> Union[str, SparseTensor]:
    if "handle" in desc:
        return desc["handle"]
    return tensor_from_wire(desc["tensor"], buffers)


def _error_payload(exc: BaseException) -> dict:
    out = {
        "ok": False,
        "error": type(exc).__name__,
        "message": str(exc),
    }
    if isinstance(exc, ServiceOverloadedError):
        out["retry_after"] = exc.retry_after
        out["tenant"] = exc.tenant
    return out


def _response_payload(
    resp: ServeResponse, buffers: List[np.ndarray]
) -> dict:
    return {
        "ok": True,
        "request_id": resp.request_id,
        "trace_id": resp.trace_id,
        "tenant": resp.tenant,
        "tensor": tensor_to_wire(resp.tensor, buffers),
        "profile": resp.profile.to_dict(),
        "worker": resp.worker,
        "batch_id": resp.batch_id,
        "queue_seconds": resp.queue_seconds,
        "service_seconds": resp.service_seconds,
        "retries": resp.retries,
        "degraded": resp.degraded,
    }


class TcpServeServer:
    """Asyncio TCP listener in a thread, fronting one SpTCServer."""

    def __init__(
        self,
        server: SpTCServer,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.server = server
        self.host = host
        self.port = port  # 0 = ephemeral; real port set at start()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._listener = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    async def _handle_msg(
        self, msg: dict, buffers: list, out: list
    ) -> dict:
        op = msg.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "pin":
            self.server.pin(
                msg["name"],
                tensor_from_wire(msg["tensor"], buffers),
                tenant=msg.get("tenant", "default"),
            )
            return {"ok": True, "name": msg["name"]}
        if op == "unpin":
            self.server.unpin(
                msg["name"], force=bool(msg.get("force", False))
            )
            return {"ok": True, "name": msg["name"]}
        if op == "contract":
            resp = await self.server.submit_async(
                _operand_from_wire(msg["x"], buffers),
                _operand_from_wire(msg["y"], buffers),
                tuple(msg["cx"]),
                tuple(msg["cy"]),
                tenant=msg.get("tenant", "default"),
                options=msg.get("options") or {},
            )
            return _response_payload(resp, out)
        if op == "metrics":
            return {"ok": True, "metrics": self.server.metrics().as_dict()}
        raise ServeError(f"unknown wire op {op!r}")

    async def _answer_frame(self, reader) -> Tuple[dict, list]:
        """Read one frame and answer it: the reply's header and buffers.

        Raises :class:`ConnectionAbortedError` for a declaration over
        :data:`FRAME_LIMIT` and :class:`asyncio.IncompleteReadError` for
        a frame cut short; either ends the connection.
        """
        (hlen,) = _PREFIX.unpack(await reader.readexactly(_PREFIX.size))
        if hlen > FRAME_LIMIT:
            raise ConnectionAbortedError(f"{hlen}-byte header")
        try:
            msg, sizes = _parse_header(await reader.readexactly(hlen))
        except FormatError as exc:
            return _error_payload(exc), []
        if sum(sizes) > FRAME_LIMIT:
            raise ConnectionAbortedError(f"{sum(sizes)} bytes of buffers")
        raw = [await reader.readexactly(n) for n in sizes]
        out: list = []
        try:
            return await self._handle_msg(msg, _arrays(msg, raw), out), out
        except Exception as exc:  # per-request: connection lives
            return _error_payload(exc), []

    async def _on_client(self, reader, writer) -> None:
        try:
            while True:
                reply, out = await self._answer_frame(reader)
                writer.writelines(_encode_frame(reply, out))
                await writer.drain()
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            # refused, cut-short or reset: end only this connection;
            # shutdown cancels handler tasks, and exiting cleanly keeps
            # the streams machinery from logging a phantom exception
            pass
        finally:
            writer.close()

    async def _serve(self) -> None:
        self._listener = await asyncio.start_server(
            self._on_client, self.host, self.port
        )
        self.port = self._listener.sockets[0].getsockname()[1]
        self._ready.set()
        async with self._listener:
            await self._listener.serve_forever()

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._serve())
        except asyncio.CancelledError:
            pass
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
        finally:
            self._loop.close()

    # ------------------------------------------------------------------
    def start(self) -> "TcpServeServer":
        self.server.start()
        self._thread = threading.Thread(
            target=self._run, name="sptc-serve-tcp", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise ServeError("TCP listener failed to start in 10s")
        if self._startup_error is not None:
            raise ServeError(
                f"TCP listener failed: {self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():

            def _shutdown() -> None:
                for task in asyncio.all_tasks(loop):
                    task.cancel()

            loop.call_soon_threadsafe(_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.server.close()

    @property
    def url(self) -> str:
        return f"tcp://{self.host}:{self.port}"

    def __enter__(self) -> "TcpServeServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


_WIRE_ERRORS = {
    "ServiceOverloadedError": ServiceOverloadedError,
    "ShapeError": ShapeError,
    "UnknownHandleError": UnknownHandleError,
}


class TcpServeClient:
    """Blocking socket client with the ServeClient surface."""

    def __init__(self, url: str, *, timeout: float = 120.0) -> None:
        self.url = url
        host, port = parse_serve_url(url)
        self._sock = socket.create_connection(
            (host, port), timeout=timeout
        )
        # each frame goes out whole on flush; do not hold its tail back
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rwb")
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _recv(self, nbytes: int) -> bytearray:
        """Exactly *nbytes* from the server, read into a fresh buffer."""
        buf = bytearray(nbytes)
        view, got = memoryview(buf), 0
        while got < nbytes:
            n = self._file.readinto(view[got:])
            if not n:
                raise ServeError(
                    f"server at {self.url} closed the connection"
                )
            got += n
        return buf

    def _roundtrip(
        self, msg: dict, buffers: Sequence[np.ndarray] = ()
    ) -> Tuple[dict, List[np.ndarray]]:
        with self._lock:
            self._file.writelines(_encode_frame(msg, buffers))
            self._file.flush()
            (hlen,) = _PREFIX.unpack(self._recv(_PREFIX.size))
            reply, sizes = _parse_header(self._recv(hlen))
            raw = [self._recv(n) for n in sizes]
        if reply.get("ok"):
            return reply, _arrays(reply, raw)
        err_type = _WIRE_ERRORS.get(reply.get("error", ""))
        message = reply.get("message", "request failed")
        if err_type is ServiceOverloadedError:
            raise ServiceOverloadedError(
                message,
                retry_after=float(reply.get("retry_after", 0.0)),
                tenant=reply.get("tenant"),
            )
        if err_type is not None:
            raise err_type(message)
        raise ServeError(
            f"{reply.get('error', 'ServeError')}: {message}"
        )

    # ------------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self._roundtrip({"op": "ping"})[0].get("pong"))

    def pin(
        self,
        name: str,
        tensor: SparseTensor,
        *,
        tenant: str = "default",
    ) -> str:
        buffers: List[np.ndarray] = []
        self._roundtrip(
            {
                "op": "pin",
                "name": name,
                "tenant": tenant,
                "tensor": tensor_to_wire(tensor, buffers),
            },
            buffers,
        )
        return name

    def unpin(self, name: str, *, force: bool = False) -> None:
        self._roundtrip({"op": "unpin", "name": name, "force": force})

    def submit(
        self,
        x,
        y,
        cx,
        cy,
        *,
        tenant: str = "default",
        options: Optional[dict] = None,
        timeout: Optional[float] = None,
    ) -> ServeResponse:
        del timeout  # socket timeout governs the TCP path
        buffers: List[np.ndarray] = []
        reply, arrays = self._roundtrip(
            {
                "op": "contract",
                "x": _operand_to_wire(x, buffers),
                "y": _operand_to_wire(y, buffers),
                "cx": [int(m) for m in cx],
                "cy": [int(m) for m in cy],
                "tenant": tenant,
                "options": dict(options or {}),
            },
            buffers,
        )
        return ServeResponse(
            request_id=reply["request_id"],
            trace_id=reply["trace_id"],
            tenant=reply["tenant"],
            # Z is the server's own output (a worker's passed the
            # payload digest check), so its bounds are not re-checked
            tensor=tensor_from_wire(
                reply["tensor"], arrays, validate=False
            ),
            profile=RunProfile.from_dict(reply["profile"]),
            worker=reply["worker"],
            batch_id=reply["batch_id"],
            queue_seconds=reply["queue_seconds"],
            service_seconds=reply["service_seconds"],
            retries=reply["retries"],
            degraded=reply["degraded"],
            tracer=None,
        )

    def metrics(self) -> dict:
        return self._roundtrip({"op": "metrics"})[0]["metrics"]

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "TcpServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
