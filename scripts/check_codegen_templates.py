"""Compile-and-run every generated-kernel template variant warning-free.

CI runs this under ``python -W error``: any warning a generated kernel
raises (numpy deprecations, overflow warnings from a bad literal fold,
syntax deprecations in the emitted source) fails the job. Every
rendering branch is exercised — power-of-two and non-power-of-two free
spaces, single- and multi-mode free sets, and all three runtime
strategies (dense workspace, packed quicksort, lexsort fallback) — and
each variant's output is checked against the generic stable reduction,
so a template edit that compiles but mis-specializes is caught here
before the (slower) differential suite runs.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.codegen import (
    KernelSignature,
    compile_kernel,
    render_fused_kernel,
)

#: free-mode extent sets covering every specialization branch:
#: pow2 space (shift/mask), non-pow2 (mul/div), mixed per-mode strides
FREE_DIM_SETS = [
    (4,),
    (5,),
    (4, 8),            # pow2 space, pow2 strides
    (3, 5),            # non-pow2 everything
    (2, 3, 4),         # mixed: stride 12 then 4
    (8, 7, 16),        # mixed: pow2 modes around a non-pow2 one
    (1, 1, 6),         # degenerate unit modes
    (1 << 55,),        # key-overflow regime → lexsort strategy
]

CONTRACT_DIM_SETS = [(3,), (3, 2)]

#: (dense_threshold, workspace_cap) pairs forcing each strategy
STRATEGY_KNOBS = [
    (0.0, 1 << 22),    # dense whenever the workspace fits the cap
    (2.0, 0),          # cap 0 knocks out dense → packed (or lexsort)
    (0.5, 1 << 22),    # production defaults → runtime's own choice
]


def reference_reduce(vals, fy, seg):
    perm = np.lexsort((fy, seg))
    seg_s, fy_s, vals_s = seg[perm], fy[perm], vals[perm]
    mask = np.empty(vals.shape[0], dtype=bool)
    mask[0] = True
    mask[1:] = (seg_s[1:] != seg_s[:-1]) | (fy_s[1:] != fy_s[:-1])
    boundary = np.flatnonzero(mask)
    sums = np.bincount(
        np.cumsum(mask) - 1, weights=vals_s,
        minlength=boundary.shape[0],
    )
    return seg_s[boundary], fy_s[boundary], sums


def chunk_case(fy_space, seed, n=400, span=3):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(n)
    fy = rng.integers(0, min(fy_space, 1 << 20), size=n).astype(np.int64)
    seg = np.sort(rng.integers(0, span, size=n)).astype(np.int64)
    return vals, fy, seg


def check_fused(free_dims, contract_dims) -> set:
    sig = KernelSignature(
        x_order=2 + len(contract_dims),
        y_order=len(contract_dims) + len(free_dims),
        contract_dims=contract_dims,
        free_dims=free_dims,
        accumulator="hash",
        dtype="float64",
    )
    kern = compile_kernel(
        render_fused_kernel(sig), "fused_chunk",
        label=f"check:{free_dims}",
    )
    fy_space = sig.fy_space
    vals, fy, seg = chunk_case(fy_space, seed=hash(free_dims) % 1000)
    ref = reference_reduce(vals, fy, seg)
    seen = set()
    for threshold, cap in STRATEGY_KNOBS:
        o_seg, o_fy, o_vals, strategy = kern(vals, fy, seg, threshold, cap)
        seen.add(strategy)
        ok = (
            np.array_equal(o_seg, ref[0])
            and np.array_equal(o_fy, ref[1])
            and np.array_equal(
                o_vals.view(np.uint64), ref[2].view(np.uint64)
            )
        )
        if not ok:
            raise SystemExit(
                f"FAIL fused free_dims={free_dims} "
                f"strategy={strategy}: output differs from reference"
            )
    return seen


def main() -> int:
    variants = 0
    strategies = set()
    for free_dims in FREE_DIM_SETS:
        for contract_dims in CONTRACT_DIM_SETS:
            strategies |= check_fused(free_dims, contract_dims)
            variants += 1
    missing = {"dense", "packed", "lexsort"} - strategies
    if missing:
        raise SystemExit(
            f"FAIL: runtime strategies never exercised: {sorted(missing)}"
        )
    print(
        f"ok: {variants} template variants compiled and verified "
        f"({', '.join(sorted(strategies))}) warning-free"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
