"""Work partitioning for the parallel outer loop (paper §3.5).

Sparta parallelizes over mode-F sub-tensors of X; each thread owns a
contiguous range of sub-tensors plus thread-private HtA and Z_local. Real
tensors have skewed fiber sizes, so the partitioner balances by non-zero
count rather than by sub-tensor count.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

# The sub-tensor partitioner is part of the core pipeline; re-exported
# here with the rest of the work decomposition.
from repro.core.common import partition_subtensors


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
