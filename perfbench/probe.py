"""Host-speed probe: a fixed piece of work timed next to what is measured.

The probe never imports ``repro``, so no change to the program can move
it. Its work mixes what a contraction mixes: a NumPy sort of a fixed
int64 array and an interpreted Python loop. A busy host slows some work
by a different factor than that, so two workloads add one more part
their calls lean on: spill streams memory (four fills of a 4 MB array),
because its run writes and merge do; serve-tcp encodes and decodes a
fixed JSON document, because a served request mostly does.

Dividing a call's wall time by the probes timed around it cancels most
of the host's own speed drift (frequency changes, neighbours on a
shared machine). Each set-up is divided the same way, by the probes on
either side of it, and ``setup_s`` is scaled back to seconds of a
reference host (``HostProbe.reference_s``).
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

#: rows in the lexsort keys and steps of the Python loop
PROBE_SIZE = 10_000
#: integers and floats in the document of the ``"json"`` part
JSON_ITEMS = 1_500
#: float64s in the array the ``"stream"`` part fills (4 MB), and how often
STREAM_ITEMS = 1 << 19
STREAM_PASSES = 4
#: probes on each side of a call that its normaliser takes the median of
WINDOW = 2
#: probes on each side of a set-up that its normaliser takes the median of
SETUP_WINDOW = 3
#: reference-host seconds of the probe's sort and loop, and of either
#: extra part; ``setup_s`` is scaled to them
REF_PROBE_S = 0.0025
REF_EXTRA_S = 0.0025

T = TypeVar("T")


class HostProbe:
    """Callable returning the wall seconds of one fixed probe run.

    *extra* adds a part to each run: ``"json"`` encodes and decodes a
    fixed document of integers and floats, ``"stream"`` fills a
    preallocated 4 MB array ``STREAM_PASSES`` times.
    """

    def __init__(self, extra: Optional[str] = None) -> None:
        if extra not in (None, "json", "stream"):
            raise ValueError(f"unknown probe part {extra!r}")
        rng = np.random.default_rng(20210227)
        self._keys = rng.integers(0, 1 << 20, size=(2, PROBE_SIZE))
        self._doc = {
            "indices": rng.integers(0, 1000, JSON_ITEMS).tolist(),
            "values": rng.random(JSON_ITEMS).tolist(),
        } if extra == "json" else None
        self._buf = np.zeros(STREAM_ITEMS) if extra == "stream" else None
        self.reference_s = REF_PROBE_S + (REF_EXTRA_S if extra else 0.0)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        np.lexsort(self._keys)
        acc = 0
        for i in range(PROBE_SIZE):
            acc ^= i * 7
        if self._doc is not None:
            json.loads(json.dumps(self._doc))
        if self._buf is not None:
            for _ in range(STREAM_PASSES):
                self._buf.fill(1.0)
        return time.perf_counter() - t0


def normalisers(probes: Sequence[float], n_calls: int) -> List[float]:
    """Per-call probe seconds: the median of the probes around each call.

    ``probes[k]`` ran just before call ``k`` and ``probes[n_calls]``
    after the last call, so call ``k`` sits between probes ``k`` and
    ``k + 1``; its normaliser is the median of ``WINDOW`` probes on each
    side of it.
    """
    if len(probes) != n_calls + 1:
        raise ValueError(
            f"need one probe per call plus one after the last, got "
            f"{len(probes)} probes for {n_calls} calls"
        )
    out = []
    for k in range(n_calls):
        lo = max(k + 1 - WINDOW, 0)
        hi = min(k + 1 + WINDOW, len(probes))
        out.append(statistics.median(probes[lo:hi]))
    return out


def probed_samples(
    probe: HostProbe, once: Callable[[], Tuple[float, T]], n: int
) -> Tuple[List[float], List[T]]:
    """Run *once* n times with ``SETUP_WINDOW`` probes between runs.

    *once* returns (seconds, anything). Each run's seconds are divided by
    the median of the probes on either side of it and scaled to the
    reference host. Processes that *once* starts run on the probe's CPU
    (``run.py`` pins itself first), so the probe times the CPU they use.
    Returns the scaled seconds and the other values.
    """
    scaled, other = [], []
    before = [probe() for _ in range(SETUP_WINDOW)]
    for _ in range(n):
        seconds, value = once()
        after = [probe() for _ in range(SETUP_WINDOW)]
        scaled.append(seconds * probe.reference_s / statistics.median(
            before + after))
        other.append(value)
        before = after
    return scaled, other
