"""Work partitioning for the parallel outer loop (paper §3.5).

Sparta parallelizes over mode-F sub-tensors of X; each thread owns a
contiguous range of sub-tensors plus thread-private HtA and Z_local. Real
tensors have skewed fiber sizes, so the partitioner balances by non-zero
count rather than by sub-tensor count.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

# The sub-tensor partitioner is part of the core pipeline; re-exported
# here with the rest of the work decomposition.
from repro.core.common import partition_subtensors


def tag_units(
    ranges: Iterable[Tuple[int, int]]
) -> List[Tuple[int, int, int]]:
    """Attach stable unit ids to partition ranges: ``(unit, lo, hi)``.

    The unit id is the range's position in the original partition and
    is what the fault-tolerant pool tracks ownership by — reassignment
    and respawn rounds recompute *by unit id over the original
    boundaries*, so a recovered run gathers the exact same per-chunk
    results (and Table-2 accounting) as an undisturbed one.
    """
    return [
        (i, int(lo), int(hi)) for i, (lo, hi) in enumerate(ranges)
    ]


def select_units(
    units: Iterable[Tuple[int, int, int]], ids: Iterable[int]
) -> List[Tuple[int, int, int]]:
    """Subset of tagged *units* whose unit id is in *ids* (order kept)."""
    wanted = set(int(i) for i in ids)
    return [u for u in units if u[0] in wanted]


def even_spans(n: int, k: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into <= *k* near-equal contiguous spans.

    Stage 1 cuts Y's non-zeros this way for the partial HtY builds.
    """
    k = max(min(int(k), int(n)), 1)
    bounds = [(i * n) // k for i in range(k + 1)]
    return [
        (bounds[i], bounds[i + 1])
        for i in range(k)
        if bounds[i + 1] > bounds[i]
    ]


def partition_imbalance(
    ptr: np.ndarray, ranges: List[Tuple[int, int]]
) -> float:
    """Load imbalance of a partition: max worker nnz / mean worker nnz.

    1.0 is perfect balance; the scalability model uses this as the
    load-imbalance term for the computation stages.
    """
    if not ranges:
        return 1.0
    loads = [int(ptr[hi] - ptr[lo]) for lo, hi in ranges]
    mean = sum(loads) / len(loads)
    if mean == 0:
        return 1.0
    return max(loads) / mean
