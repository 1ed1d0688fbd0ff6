"""Source renderers for the specialized kernels.

Everything emitted here is plain Python/numpy source with the
signature's constants folded in as literals:

the LN free-space extent ``FY_SPACE`` (and, when it is a power of two,
the equivalent shift/mask) used to pack ``(sub-tensor, LN(Fy))`` into
one int64 key, and to unpack the dense workspace's keys.

Bit-identity contract (pinned by ``tests/property/test_differential.py``):
every strategy sums each output key's contributions in X-row order —
the order the per-element ``np.add.at`` reference uses — and emits
output keys in ``(sub-tensor, LN(Fy))`` lexicographic order, so the
generated kernels are byte-interchangeable with the generic fused path:

* ``dense`` scatter-adds through ``np.bincount`` over a flat workspace;
  bincount's C loop adds strictly left-to-right, and the products
  stream is already in X-row order within each key;
* ``packed`` appends the source position to the packed key
  (``comb = (pk << shift) | arange(n)``), making every combined key
  unique, so an *unstable* ``np.sort`` reproduces exactly the stable
  order; each output key's ``(seg, fy)`` and first value are read at
  its first contribution, the sparse-duplicate epilogue seeds the key
  with that value (``+ 0.0``, matching bincount's ``0.0 + v`` for the
  ``-0.0`` edge case) and ``np.add.at``s the rare duplicates in
  ascending position order;
* ``lexsort`` is the generic stable two-key sort + weighted bincount,
  kept for chunks whose packed key would overflow int64.

``np.add.reduceat`` stays banned here for the same reason as in the
generic kernel: it pairwise-sums segments of eight or more elements,
which changes the floating-point result.
"""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["render_fused_kernel"]


def _pow2_log(value: int) -> Optional[int]:
    """log2 of *value* when it is a positive power of two, else None."""
    if value > 0 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


def _prod(dims: Sequence[int]) -> int:
    out = 1
    for d in dims:
        out *= int(d)
    return out


def render_fused_kernel(sig) -> str:
    """Source of the specialized stages-3/4 chunk body for *sig*.

    The generated ``fused_chunk(vals, fy, seg, dense_threshold,
    workspace_cap)`` consumes one chunk's partial-product stream
    (values, LN(Fy) keys, sub-tensor ids — ``seg`` ascending) and
    returns ``(out_seg, out_fy, out_vals, strategy)`` with the reduced
    outputs in ``(seg, fy)`` lexicographic order.
    """
    fy_space = _prod(sig.free_dims)
    log2fy = _pow2_log(fy_space)
    if log2fy is not None:
        pack = f"(rel << {log2fy}) + fy"
        pack_inplace = f"comb <<= {log2fy}"
        unpack_grp = f"pk_u >> {log2fy}"
        unpack_fy = f"pk_u & {fy_space - 1}"
    else:
        pack = f"rel * {fy_space} + fy"
        pack_inplace = f"comb *= {fy_space}"
        unpack_grp = f"pk_u // {fy_space}"
        unpack_fy = f"pk_u - grp * {fy_space}"
    return f'''\
"""Generated fused-chunk kernel — do not edit; re-render instead.

signature: x_order={sig.x_order} y_order={sig.y_order}
           contract_dims={sig.contract_dims} free_dims={sig.free_dims}
           accumulator={sig.accumulator!r} dtype={sig.dtype!r}
"""
import numpy as np

#: LN free-space extent, folded from the signature
FY_SPACE = {fy_space}


def fused_chunk(vals, fy, seg, dense_threshold, workspace_cap):
    n = vals.shape[0]
    seg0 = int(seg[0])
    span = int(seg[n - 1]) - seg0 + 1
    wspace = span * FY_SPACE  # Python int: exact, no overflow
    if wspace <= workspace_cap and n >= dense_threshold * wspace:
        # Dense workspace (Kjolstad-style): scatter-add every product
        # into a flat array over the chunk's output fiber space, then
        # compact. bincount adds left-to-right = X-row order per key.
        rel = seg - seg0
        pk = {pack}
        sums = np.bincount(pk, weights=vals, minlength=wspace)
        hit = np.bincount(pk, minlength=wspace)
        pk_u = np.flatnonzero(hit)
        grp = {unpack_grp}
        return grp + seg0, {unpack_fy}, sums[pk_u], "dense"
    shift = max(n - 1, 1).bit_length()
    if wspace <= (1 << (63 - shift)):
        # Index-embedded quicksort: the source position in the low
        # bits makes every combined key unique, so the unstable sort
        # lands in exactly the stable (pk, position) order. The key is
        # packed in place in one buffer, which the sort then splits
        # into source positions (perm) and packed keys.
        comb = seg - seg0
        {pack_inplace}
        comb += fy
        comb <<= shift
        comb |= np.arange(n, dtype=np.int64)
        comb.sort(kind="quicksort")
        perm = comb & ((1 << shift) - 1)
        comb >>= shift
        mask = np.empty(n, dtype=bool)
        mask[0] = True
        np.not_equal(comb[1:], comb[:-1], out=mask[1:])
        del comb
        boundary = np.flatnonzero(mask)
        # Each output key's first contribution carries its (seg, fy).
        first = perm[boundary]
        dups = n - boundary.shape[0]
        if dups * 8 < n:
            # Sparse-duplicate epilogue: seed each key with its first
            # contribution (+0.0 normalizes a lone -0.0 exactly like
            # bincount's 0.0+v), then fold the rare duplicates in
            # ascending position order — the same left-to-right order.
            o_vals = vals[first]
            o_vals += 0.0
            if dups:
                dup_idx = np.flatnonzero(~mask)
                np.add.at(
                    o_vals,
                    np.searchsorted(boundary, dup_idx, "right") - 1,
                    vals[perm[dup_idx]],
                )
        else:
            o_vals = np.bincount(
                np.cumsum(mask) - 1,
                weights=vals[perm],
                minlength=boundary.shape[0],
            )
        return seg[first], fy[first], o_vals, "packed"
    # Packed key would overflow int64: generic stable two-key sort.
    perm = np.lexsort((fy, seg))
    seg_s = seg[perm]
    fy_s = fy[perm]
    mask = np.empty(n, dtype=bool)
    mask[0] = True
    mask[1:] = (seg_s[1:] != seg_s[:-1]) | (fy_s[1:] != fy_s[:-1])
    boundary = np.flatnonzero(mask)
    o_vals = np.bincount(
        np.cumsum(mask) - 1,
        weights=vals[perm],
        minlength=boundary.shape[0],
    )
    return seg_s[boundary], fy_s[boundary], o_vals, "lexsort"
'''

