"""Helpers shared by the benchmark's workloads: peak RSS, processes."""

from __future__ import annotations

import os
import time
from typing import Iterable, List


def reset_peak_rss(pids: Iterable[int]) -> None:
    """Reset each process's peak RSS (``VmHWM``) to its current RSS.

    Writing ``5`` to ``/proc/<pid>/clear_refs`` does this (Linux 4.0 and
    later), so the peak read afterwards covers only what ran since.
    """
    for pid in pids:
        with open(f"/proc/{pid}/clear_refs", "w") as f:
            f.write("5")


def peak_rss_bytes(pids: Iterable[int]) -> int:
    """Sum of the processes' peak RSS since the last reset."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) * 1024
                    break
    return total


def child_pids(pid: int) -> List[int]:
    """Direct children of *pid*, found by scanning ``/proc``."""
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            continue
        # the command field may hold spaces; fields after it are fixed
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        if ppid == pid:
            out.append(int(name))
    return out


def cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def wait_gone(pids: Iterable[int], timeout: float) -> None:
    """Wait until every pid has exited; SIGKILL the stragglers."""
    pids = list(pids)
    deadline = time.monotonic() + timeout
    while pids and time.monotonic() < deadline:
        pids = [p for p in pids if _alive(p)]
        if pids:
            time.sleep(0.02)
    for p in pids:
        try:
            os.kill(p, 9)
        except ProcessLookupError:
            pass


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            stat = f.read()
    except OSError:
        return False
    # a zombie has exited; only its parent can reap it
    return stat[stat.rindex(b")") + 2:][:1] != b"Z"
