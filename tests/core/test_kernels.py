"""Property tests for the fused flat-batch kernel (repro/core/kernels.py).

The fused ``granularity="subtensor"`` path must be *exactly* equal — keys
and bit-level values — to the per-element reference for every engine, on
randomized shapes, densities and contract-mode choices, and must agree
with the dense reference numerically.
"""

import numpy as np
import pytest

from repro.core import contract
from repro.core.kernels import hta_model_nbytes
from repro.tensor import SparseTensor, random_tensor_fibered

ENGINES = ("spa", "coo_hta", "sparta")


def _random_case(rng):
    """Random orders, extents, densities and (non-adjacent) modes."""
    ox, oy = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    nm = int(rng.integers(1, min(ox, oy)))
    cx = sorted(rng.choice(ox, nm, replace=False).tolist())
    cy = sorted(rng.choice(oy, nm, replace=False).tolist())
    xs = [int(rng.integers(2, 8)) for _ in range(ox)]
    ys = [int(rng.integers(2, 8)) for _ in range(oy)]
    for a, b in zip(cx, cy):
        ys[b] = xs[a]

    def rand_tensor(shape):
        cap = int(np.prod(shape))
        nnz = int(rng.integers(1, max(2, int(cap * 0.5))))
        flat = rng.choice(cap, size=min(nnz, cap), replace=False)
        idx = np.array(np.unravel_index(flat, shape)).T
        return SparseTensor(idx, rng.standard_normal(idx.shape[0]), shape)

    return rand_tensor(tuple(xs)), rand_tensor(tuple(ys)), cx, cy


def _assert_exact(a, b, label):
    __tracebackhide__ = True
    assert np.array_equal(a.tensor.indices, b.tensor.indices), (
        f"{label}: index mismatch"
    )
    assert np.array_equal(a.tensor.values, b.tensor.values), (
        f"{label}: values not bit-identical"
    )


class TestFusedEqualsReference:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_fused_bit_identical_to_element(self, seed, engine):
        rng = np.random.default_rng(1000 + seed)
        x, y, cx, cy = _random_case(rng)
        kwargs = {}
        if engine == "sparta":
            # exercise both sides of the swap rule
            kwargs["swap_larger_to_y"] = bool(seed % 2)
        fused = contract(
            x, y, cx, cy, method=engine, granularity="subtensor", **kwargs
        )
        ref = contract(
            x, y, cx, cy, method=engine, granularity="element", **kwargs
        )
        _assert_exact(fused, ref, f"{engine} seed={seed}")

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_fused_matches_dense(self, seed, engine):
        rng = np.random.default_rng(2000 + seed)
        x, y, cx, cy = _random_case(rng)
        fused = contract(x, y, cx, cy, method=engine)
        dense = contract(x, y, cx, cy, method="dense")
        assert fused.tensor.allclose(dense.tensor)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fused_bit_identical_to_subtensor_loop(self, engine):
        rng = np.random.default_rng(77)
        x, y, cx, cy = _random_case(rng)
        fused = contract(x, y, cx, cy, method=engine)
        loop = contract(
            x, y, cx, cy, method=engine, granularity="subtensor_loop"
        )
        _assert_exact(fused, loop, engine)

    def test_fused_chunked_bit_identical(self):
        """Tiny chunk budget forces many sub-tensor-aligned chunks."""
        x = random_tensor_fibered((10, 12, 12), 400, 1, 50, seed=5)
        y = random_tensor_fibered((12, 12, 9, 8), 900, 2, 120, seed=6)
        from repro.core import kernels

        ref = contract(
            x, y, (1, 2), (0, 1), method="sparta",
            swap_larger_to_y=False, granularity="element",
        )
        old = kernels.DEFAULT_CHUNK_PAIRS
        kernels.DEFAULT_CHUNK_PAIRS = 8
        try:
            fused = contract(
                x, y, (1, 2), (0, 1), method="sparta",
                swap_larger_to_y=False,
            )
        finally:
            kernels.DEFAULT_CHUNK_PAIRS = old
        _assert_exact(fused, ref, "chunked")

    def test_fused_hicoo_and_custom_buckets(self):
        x = random_tensor_fibered((8, 9, 9), 200, 1, 30, seed=9)
        y = random_tensor_fibered((9, 9, 7), 300, 2, 60, seed=10)
        ref = contract(
            x, y, (1, 2), (0, 1), method="sparta",
            swap_larger_to_y=False, granularity="element",
            num_buckets=32,
        )
        fused = contract(
            x, y, (1, 2), (0, 1), method="sparta",
            swap_larger_to_y=False, x_format="hicoo", num_buckets=32,
        )
        _assert_exact(fused, ref, "hicoo+buckets")


class TestFusedEdgeCases:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_x(self, engine):
        x = SparseTensor.empty((3, 4))
        y = random_tensor_fibered((4, 5), 8, 1, 4, seed=1)
        res = contract(x, y, (1,), (0,), method=engine)
        assert res.nnz == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_no_matches(self, engine):
        x = SparseTensor(np.array([[0, 0], [1, 1]]), [1.0, 2.0], (2, 4))
        y = SparseTensor(np.array([[2, 0], [3, 1]]), [3.0, 4.0], (4, 2))
        res = contract(x, y, (1,), (0,), method=engine)
        assert res.nnz == 0

    def test_unsorted_output(self):
        x = random_tensor_fibered((6, 8, 8), 100, 1, 12, seed=2)
        y = random_tensor_fibered((8, 8, 5), 150, 2, 40, seed=3)
        a = contract(
            x, y, (1, 2), (0, 1), method="sparta", sort_output=False
        )
        b = contract(x, y, (1, 2), (0, 1), method="sparta")
        assert a.tensor.sort().allclose(b.tensor)


class TestFusedAccounting:
    """The fused path must charge the loop path's counters and traffic."""

    @pytest.fixture(scope="class")
    def pair(self):
        x = random_tensor_fibered((12, 12, 14, 14), 900, 2, 80, seed=21)
        y = random_tensor_fibered((14, 14, 10, 10), 1500, 2, 150, seed=22)
        return x, y

    @pytest.mark.parametrize("engine", ENGINES)
    def test_counters_match_loop_path(self, pair, engine):
        x, y = pair
        kwargs = (
            {"swap_larger_to_y": False} if engine == "sparta" else {}
        )
        fused = contract(x, y, (2, 3), (0, 1), method=engine, **kwargs)
        loop = contract(
            x, y, (2, 3), (0, 1), method=engine,
            granularity="subtensor_loop", **kwargs,
        )
        for counter in (
            "nnz_x", "nnz_y", "nnz_z", "products", "num_subtensors",
            "search_probes", "accum_probes",
        ):
            assert fused.profile.counters.get(counter) == (
                loop.profile.counters.get(counter)
            ), counter

    def test_traffic_objects_match_loop_path(self, pair):
        x, y = pair
        fused = contract(
            x, y, (2, 3), (0, 1), method="sparta", swap_larger_to_y=False
        )
        loop = contract(
            x, y, (2, 3), (0, 1), method="sparta",
            swap_larger_to_y=False, granularity="subtensor_loop",
        )
        key = lambda rec: (rec.obj, rec.stage, rec.kind, rec.pattern)
        assert {key(r) for r in fused.profile.traffic} == {
            key(r) for r in loop.profile.traffic
        }

    def test_hash_probes_are_per_run(self, pair):
        """A cached HtY must not leak probe counts across runs."""
        from repro.core.htycache import HtYCache

        x, y = pair
        cache = HtYCache()
        first = contract(
            x, y, (2, 3), (0, 1), method="sparta",
            swap_larger_to_y=False, hty_cache=cache,
        )
        second = contract(
            x, y, (2, 3), (0, 1), method="sparta",
            swap_larger_to_y=False, hty_cache=cache,
        )
        assert second.profile.counters["hash_probes"] == (
            first.profile.counters["hash_probes"]
        )


class TestHtaModel:
    def test_empty_accumulator_baseline(self):
        # bucket heads (16*8) + three 16-entry arrays (3*16*8)
        assert hta_model_nbytes(0) == 16 * 8 + 3 * 16 * 8

    def test_growth_doubles(self):
        assert hta_model_nbytes(16) == 16 * 8 + 3 * 16 * 8
        assert hta_model_nbytes(17) == 16 * 8 + 3 * 32 * 8
        assert hta_model_nbytes(100) == 16 * 8 + 3 * 128 * 8

    def test_custom_buckets(self):
        assert hta_model_nbytes(10, 64) == 64 * 8 + 3 * 16 * 8


class TestMemoryDesign:
    """Peak bytes the fused kernel and the writeback may allocate.

    Measured with tracemalloc (numpy reports its buffers to it) on a
    case where the generated kernel takes its packed-sort strategy,
    after a warm-up call has compiled the kernel.
    """

    @pytest.fixture(scope="class")
    def region(self):
        from repro.core.common import prepare_x
        from repro.core.htycache import cached_plan
        from repro.core.profile import RunProfile
        from repro.datasets import make_case
        from repro.hashtable.tensor_table import HashTensor

        case = make_case("nips", 2, scale=0.5, seed=1)
        plan = cached_plan(case.x, case.y, case.cx, case.cy)
        px = prepare_x(case.x, plan, RunProfile("prep"))
        hty = HashTensor.from_coo(case.y, plan.cy)
        return px, hty, plan

    @staticmethod
    def _peak(fn):
        import tracemalloc

        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def _compute(px, hty):
        from repro.core.kernels import fused_compute
        from repro.core.profile import RunProfile

        profile = RunProfile("t")
        fr = fused_compute(
            px, hty, y_structure="hash", accumulator="hash",
            profile=profile, codegen=True,
        )
        return fr, profile

    def test_packed_compute_peak_within_12_words_per_product(
        self, region, monkeypatch
    ):
        from repro.core.codegen import KILL_SWITCH_ENV

        monkeypatch.delenv(KILL_SWITCH_ENV, raising=False)
        px, hty, _ = region
        self._compute(px, hty)  # compiles the kernel
        (fr, profile), peak = self._peak(lambda: self._compute(px, hty))
        assert profile.counters.get("codegen_packed_chunks", 0) >= 1
        assert peak <= 12 * 8 * fr.products, (
            f"{peak / (8 * fr.products):.2f} x 8 B per product"
        )

    def test_writeback_peak_is_z(self, region):
        from repro.core.kernels import assemble_fused
        from repro.core.profile import RunProfile

        px, hty, plan = region
        fr, _ = self._compute(px, hty)
        vals = fr.out_vals.copy()
        z, peak = self._peak(lambda: assemble_fused(
            fr.out_fgrp, fr.out_fy, vals, px.fx_rows, plan,
            RunProfile("w"),
        ))
        z_bytes = z.indices.nbytes + z.values.nbytes
        assert peak <= z_bytes + 64 * 1024, (
            f"peak {peak} B against Z's {z_bytes} B"
        )
