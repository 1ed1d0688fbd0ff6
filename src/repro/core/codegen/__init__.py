"""Per-signature kernel specialization (ROADMAP: "Kernel codegen").

The generic fused kernel in :mod:`repro.core.kernels` is shape-agnostic:
every contraction pays the same branchy index packing and two-key
``np.lexsort`` segmentation regardless of its signature. This package
emits Python/numpy *source* specialized to one contraction signature —
the LN free-space extent and its power-of-two shifts/masks are folded
in as literals — compiles it with :func:`compile`/``exec`` and caches the
function objects in a bounded :class:`KernelCache` (built on the same
LRU machinery as the HtY/plan caches in :mod:`repro.core.htycache`).

Three specialized accumulation strategies live in the generated kernel
(see :mod:`repro.core.codegen.templates` for why each is bit-identical
to the generic path):

* ``dense`` — a flat dense workspace over the chunk's output fiber
  space (Kjolstad et al., "Sparse Tensor Algebra Optimizations with
  Workspaces"), selected when a cheap density estimate crosses a
  threshold;
* ``packed`` — index-embedded unstable quicksort over single packed
  ``(sub-tensor, LN(Fy))`` keys with the source position appended in
  the low bits, so the unstable sort reproduces the stable order;
* ``lexsort`` — the generic stable two-key fallback, kept for packed-
  key int64 overflow.

Only *source* is ever cached or shipped: process-pool workers derive
the signature from the shared operands and compile in their own
interpreter (code objects never cross a pipe), so every backend hits
warm kernels after its first chunk.

The environment kill-switch ``REPRO_NO_CODEGEN=1`` reverts every call
site to the generic fused kernel.
"""

from __future__ import annotations

import os

from repro.core.codegen.cache import (
    KernelCache,
    compile_kernel,
    default_kernel_cache,
    kernel_cache_stats,
)
from repro.core.codegen.signature import KernelSignature
from repro.core.codegen.templates import render_fused_kernel

__all__ = [
    "KernelCache",
    "KernelSignature",
    "codegen_enabled",
    "compile_kernel",
    "default_kernel_cache",
    "kernel_cache_stats",
    "render_fused_kernel",
]

#: environment variable that disables all generated kernels
KILL_SWITCH_ENV = "REPRO_NO_CODEGEN"


def codegen_enabled() -> bool:
    """False when the ``REPRO_NO_CODEGEN`` kill-switch is set.

    The switch dominates every per-call ``codegen=`` argument so one
    environment variable reverts the whole process (including spawned
    pool workers, which inherit the environment) to the generic fused
    kernel.
    """
    return os.environ.get(KILL_SWITCH_ENV, "") not in ("1", "true", "yes")
