"""Kernel-specialization subsystem: signatures, templates, cache, planner.

The differential suite pins the end-to-end bit-identity of the
generated kernels; this module tests the machinery itself — signature
derivation, template rendering under every branch, cache keying and
eviction, the ``REPRO_NO_CODEGEN`` kill-switch, the planner-lite
routing guard and the process-worker warm-up counters.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.codegen import (
    KILL_SWITCH_ENV,
    KernelCache,
    KernelSignature,
    codegen_enabled,
    compile_kernel,
    default_kernel_cache,
    render_delinearizer,
    render_fused_kernel,
)
from repro.core.dispatch import contract
from repro.core.profile import RunProfile
from repro.parallel import parallel_sparta
from repro.tensor import random_tensor
from repro.tensor.linearize import delinearize

INDEX = np.int64


def make_sig(free_dims=(4, 8), contract_dims=(3,), nfx=2):
    return KernelSignature(
        x_order=nfx + len(contract_dims),
        y_order=len(contract_dims) + len(free_dims),
        contract_dims=tuple(contract_dims),
        free_dims=tuple(free_dims),
        accumulator="hash",
        dtype="float64",
    )


def fake_operands(free_dims, contract_dims, nfx=2):
    px = SimpleNamespace(
        fx_rows=np.zeros((5, nfx), dtype=INDEX),
        values=np.zeros(5, dtype=np.float64),
    )
    source = SimpleNamespace(
        free_dims=tuple(free_dims), contract_dims=tuple(contract_dims)
    )
    return px, source


def reference_reduce(vals, fy, seg):
    """Generic stable lexsort + left-to-right bincount reduction."""
    perm = np.lexsort((fy, seg))
    seg_s, fy_s, vals_s = seg[perm], fy[perm], vals[perm]
    n = vals.shape[0]
    mask = np.empty(n, dtype=bool)
    mask[0] = True
    mask[1:] = (seg_s[1:] != seg_s[:-1]) | (fy_s[1:] != fy_s[:-1])
    boundary = np.flatnonzero(mask)
    sums = np.bincount(
        np.cumsum(mask) - 1, weights=vals_s,
        minlength=boundary.shape[0],
    )
    return seg_s[boundary], fy_s[boundary], sums


def chunk_case(n, fy_space, span, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(n)
    fy = rng.integers(0, fy_space, size=n).astype(INDEX)
    seg = np.sort(rng.integers(10, 10 + span, size=n)).astype(INDEX)
    return vals, fy, seg


class TestSignature:
    def test_from_operands_derives_shape_class(self):
        px, source = fake_operands((4, 8), (3, 2), nfx=2)
        sig = KernelSignature.from_operands(px, source, "hash")
        assert sig == make_sig((4, 8), (3, 2), nfx=2)
        assert sig.fy_space == 32
        assert sig.nfx == 2

    def test_from_operands_without_dims_returns_none(self):
        px, source = fake_operands((), (3,))
        assert KernelSignature.from_operands(px, source, "hash") is None
        px, source = fake_operands((4,), ())
        assert KernelSignature.from_operands(px, source, "hash") is None

    def test_signature_is_hashable_cache_key(self):
        assert make_sig() == make_sig()
        assert hash(make_sig()) == hash(make_sig())
        assert make_sig((4, 8)) != make_sig((8, 4))


class TestTemplates:
    @pytest.mark.parametrize("fy_space,span", [
        (32, 4),       # power-of-two free space → shift/mask packing
        (24, 4),       # non-power-of-two → multiply/divide packing
        (7, 1),        # single sub-tensor
    ])
    def test_fused_kernel_branches_match_reference(self, fy_space, span):
        free = (fy_space,)
        kern = compile_kernel(
            render_fused_kernel(make_sig(free)), "fused_chunk"
        )
        vals, fy, seg = chunk_case(600, fy_space, span, seed=9)
        ref = reference_reduce(vals, fy, seg)
        # dense (threshold 0 forces it), packed, lexsort (cap 0 and an
        # oversized threshold knock out the first two branches... the
        # lexsort branch only triggers on key overflow, so call the
        # generic reference directly for it) — plus the auto choice.
        for kwargs, expect in [
            (dict(dense_threshold=0.0, workspace_cap=1 << 22), "dense"),
            (dict(dense_threshold=2.0, workspace_cap=0), "packed"),
            (dict(dense_threshold=0.5, workspace_cap=1 << 22), None),
        ]:
            o_seg, o_fy, o_vals, strategy = kern(vals, fy, seg, **kwargs)
            if expect is not None:
                assert strategy == expect
            np.testing.assert_array_equal(o_seg, ref[0])
            np.testing.assert_array_equal(o_fy, ref[1])
            np.testing.assert_array_equal(
                o_vals.view(np.uint64), ref[2].view(np.uint64),
                err_msg=f"{strategy}: value bytes differ",
            )

    def test_lexsort_fallback_on_key_overflow(self):
        # A chunk whose packed key space cannot fit next to the index
        # bits must fall back to the generic stable sort.
        kern = compile_kernel(
            render_fused_kernel(make_sig((1 << 55,))), "fused_chunk"
        )
        vals, fy, seg = chunk_case(5000, 1 << 20, 3, seed=3)
        ref = reference_reduce(vals, fy, seg)
        o_seg, o_fy, o_vals, strategy = kern(
            vals, fy, seg, 0.5, 1 << 22
        )
        assert strategy == "lexsort"
        np.testing.assert_array_equal(o_seg, ref[0])
        np.testing.assert_array_equal(
            o_vals.view(np.uint64), ref[2].view(np.uint64)
        )

    def test_dense_negative_zero_matches_bincount(self):
        kern = compile_kernel(
            render_fused_kernel(make_sig((8,))), "fused_chunk"
        )
        vals = np.array([-0.0, -0.0, 1.5, -1.5])
        fy = np.array([2, 3, 5, 5], dtype=INDEX)
        seg = np.array([0, 0, 0, 0], dtype=INDEX)
        ref = reference_reduce(vals, fy, seg)
        for kwargs in (dict(dense_threshold=0.0, workspace_cap=1 << 22),
                       dict(dense_threshold=2.0, workspace_cap=0)):
            out = kern(vals, fy, seg, **kwargs)
            np.testing.assert_array_equal(
                out[2].view(np.uint64), ref[2].view(np.uint64)
            )

    @pytest.mark.parametrize("dims", [
        (5,), (4,), (4, 8), (3, 5), (2, 3, 4), (8, 7, 16), (1, 1, 6),
    ])
    def test_delinearizer_matches_generic(self, dims):
        rng = np.random.default_rng(0)
        space = int(np.prod(dims))
        keys = rng.integers(0, space, size=200).astype(INDEX)
        delin = compile_kernel(
            render_delinearizer(tuple(dims)), "delinearize_fy"
        )
        out = np.empty((keys.shape[0], len(dims)), dtype=INDEX)
        delin(keys, out)
        np.testing.assert_array_equal(out, delinearize(keys, dims))

    def test_delinearizer_rejects_empty(self):
        with pytest.raises(ValueError):
            render_delinearizer(())

    def test_source_attached_and_identifiable(self):
        sig = make_sig((4, 8))
        kern = compile_kernel(
            render_fused_kernel(sig), "fused_chunk", label="t"
        )
        assert "FY_SPACE = 32" in kern.__source__
        assert kern.__code__.co_filename == "<repro-codegen:t>"


class TestKernelCache:
    def test_keying_and_counters(self):
        cache = KernelCache(maxsize=4)
        profile = RunProfile("t")
        k1 = cache.get_fused_kernel(make_sig((4, 8)), profile)
        k2 = cache.get_fused_kernel(make_sig((4, 8)), profile)
        k3 = cache.get_fused_kernel(make_sig((8, 4)), profile)
        assert k1 is k2
        assert k1 is not k3
        assert profile.counters["kernel_cache_hits"] == 1
        assert profile.counters["kernel_cache_misses"] == 2
        assert profile.counters["kernel_compiles"] == 2
        # delinearizers share the cache under a distinct key prefix
        d1 = cache.get_delinearizer((4, 8), profile)
        d2 = cache.get_delinearizer((4, 8), profile)
        assert d1 is d2
        assert len(cache) == 3

    def test_eviction_recompiles_equal_source(self):
        cache = KernelCache(maxsize=2)
        sigs = [make_sig((d,)) for d in (5, 6, 7)]
        first = cache.get_fused_kernel(sigs[0])
        for s in sigs[1:]:
            cache.get_fused_kernel(s)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        again = cache.get_fused_kernel(sigs[0])  # evicted → recompile
        assert again is not first
        assert again.__source__ == first.__source__

    def test_default_cache_is_process_wide(self):
        assert default_kernel_cache() is default_kernel_cache()


class TestKillSwitch:
    def test_codegen_enabled_reads_env(self, monkeypatch):
        monkeypatch.delenv(KILL_SWITCH_ENV, raising=False)
        assert codegen_enabled()
        for val in ("1", "true", "yes"):
            monkeypatch.setenv(KILL_SWITCH_ENV, val)
            assert not codegen_enabled()
        monkeypatch.setenv(KILL_SWITCH_ENV, "0")
        assert codegen_enabled()

    def test_kill_switch_overrides_explicit_opt_in(self, monkeypatch):
        monkeypatch.setenv(KILL_SWITCH_ENV, "1")
        x = random_tensor((6, 5, 4), 25, seed=1)
        y = random_tensor((4, 7), 20, seed=2)
        res = contract(x, y, (2,), (0,), method="sparta", codegen=True)
        assert not any(
            k.startswith("codegen_") or k.startswith("kernel_")
            for k in res.profile.counters
        )


class TestPlannerGuard:
    """``contract(plan="auto")`` is the one routing point.

    An explicit ``parallel_sparta`` call runs the configuration it asks
    for, and records the planner as off.
    """

    def small_case(self):
        x = random_tensor((8, 7, 6), 60, seed=5)
        y = random_tensor((6, 9), 40, seed=6)
        return x, y, (2,), (0,)

    def test_small_contraction_routes_serial(self):
        x, y, cx, cy = self.small_case()
        res = contract(
            x, y, cx, cy, method="parallel", plan="auto", threads=4
        )
        profile = res.profile
        assert profile.flags["planner"] == "auto:serial"
        assert profile.counters["planner_est_products"] >= 0
        assert profile.engine == "sparta"

    def test_planner_off_keeps_parallel_machinery(self):
        x, y, cx, cy = self.small_case()
        par = parallel_sparta(x, y, cx, cy, threads=4)
        assert par.backend == "thread"
        assert par.result.profile.flags["planner"] == "off"

    def test_routed_run_bit_identical_to_parallel(self):
        x, y, cx, cy = self.small_case()
        routed = contract(
            x, y, cx, cy, method="parallel", plan="auto", threads=4
        )
        full = parallel_sparta(x, y, cx, cy, threads=4)
        a, b = routed.tensor.sort(), full.result.tensor.sort()
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(
            a.values.view(np.uint64), b.values.view(np.uint64)
        )

    def test_large_contraction_stays_parallel(self):
        x = random_tensor((40, 30, 12, 10), 18_000, seed=7)
        y = random_tensor((12, 10, 25, 20), 16_000, seed=8)
        res = contract(
            x, y, (2, 3), (0, 1), method="parallel", plan="auto",
            threads=2,
        )
        assert res.profile.flags["planner"] == "auto:thread"
        assert res.profile.counters["planner_est_products"] > 0


class TestWorkerWarmup:
    def test_process_workers_report_kernel_counters(self):
        # Big enough that every worker range compiles/hits at least
        # once; worker counters ship back over the ordinary profile
        # counter pipes, so warm-up is observable in the merged profile.
        x = random_tensor((20, 18, 10, 8), 4_000, seed=11)
        y = random_tensor((10, 8, 15, 12), 4_500, seed=12)
        par = parallel_sparta(
            x, y, (2, 3), (0, 1), threads=2, backend="process",
        )
        c = par.result.profile.counters
        chunks = c.get("codegen_dense_chunks", 0) + c.get(
            "codegen_packed_chunks", 0
        ) + c.get("codegen_lexsort_chunks", 0)
        assert chunks > 0
        lookups = c.get("kernel_cache_hits", 0) + c.get(
            "kernel_cache_misses", 0
        )
        assert lookups >= chunks
        # misses are bounded by compiles; at most one compile per
        # process per signature (plus the parent's delinearizer)
        assert c.get("kernel_compiles", 0) == c.get(
            "kernel_cache_misses", 0
        )
