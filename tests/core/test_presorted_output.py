"""Every fused path emits Z already sorted, so stage 5 has nothing to do.

The hash-accumulator kernels write each chunk's output in ``(fgrp,
LN(Fy))`` order and chunks arrive in ascending sub-tensor order, which is
Z's lexicographic row order. The serial fused path therefore skips its
stage-5 sort (``flags["output_sorting"] == "presorted"``) while still
charging the sort's Table-2 bytes; the SPA, ``element`` and
``subtensor_loop`` paths keep sorting.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.kernels as kernels
import repro.core.looped as looped
from repro.core import contract
from repro.core.common import coo_row_bytes, prepare_x
from repro.core.htycache import cached_plan
from repro.core.kernels import fused_compute, pairs_ascending
from repro.core.profile import (
    AccessKind,
    AccessPattern,
    DataObject,
    RunProfile,
)
from repro.core.stages import Stage
from repro.hashtable.tensor_table import HashTensor
from repro.ooc import ooc_contract
from repro.parallel import parallel_sparta
from repro.tensor import SparseTensor


def _random_pair(seed, *, huge_free=False):
    """A random contraction with 1-2 free modes per side."""
    rng = np.random.default_rng(seed)
    nc = int(rng.integers(1, 3))
    cdims = [int(rng.integers(2, 6)) for _ in range(nc)]
    fx = [int(rng.integers(2, 7)) for _ in range(int(rng.integers(1, 3)))]
    if huge_free:
        # LN(Fy) spans 2^56 keys: the packed chunk key cannot fit next to
        # the index bits, so the generated kernel takes its lexsort branch
        fy = [1 << 28, 1 << 28]
    else:
        fy = [int(rng.integers(2, 9)) for _ in range(int(rng.integers(1, 3)))]

    def tensor(shape, nnz):
        idx = np.column_stack([rng.integers(0, d, nnz) for d in shape])
        return SparseTensor(idx, rng.standard_normal(nnz), shape).coalesce()

    # the lexsort branch also needs more products than fit in 7 index bits
    lo, hi = (150, 300) if huge_free else (5, 120)
    x = tensor(tuple(fx + cdims), int(rng.integers(lo, hi)))
    y = tensor(tuple(cdims + fy), int(rng.integers(lo, hi)))
    cx = list(range(len(fx), len(fx) + nc))
    cy = list(range(nc))
    return x, y, cx, cy


def _contract(x, y, cx, cy, method="sparta", **kwargs):
    """``contract`` without the operand swap, which re-sorts a permuted Z."""
    if method == "sparta":
        kwargs.setdefault("swap_larger_to_y", False)
    return contract(x, y, cx, cy, method=method, **kwargs)


def _assert_z_is_its_own_sort(z):
    __tracebackhide__ = True
    s = z.sort()
    assert z.indices.tobytes() == s.indices.tobytes()
    assert z.values.tobytes() == s.values.tobytes()


def _sorting_cells(profile):
    return sorted(
        (t.obj.value, t.kind.value, t.pattern.value, t.nbytes)
        for t in profile.traffic
        if t.stage is Stage.OUTPUT_SORTING
    )


def _expected_sorting_cells(z):
    nbytes = z.nnz * coo_row_bytes(z.order)
    if nbytes == 0:
        return []
    return sorted(
        (DataObject.Z.value, kind.value, AccessPattern.RANDOM.value, nbytes)
        for kind in (AccessKind.READ, AccessKind.WRITE)
    )


def _assert_serial_skip(res, ref):
    """The fused run skipped stage 5 and still matches the sorting run."""
    __tracebackhide__ = True
    assert res.profile.flags.get("output_sorting") == "presorted"
    _assert_z_is_its_own_sort(res.tensor)
    assert res.tensor.indices.tobytes() == ref.tensor.indices.tobytes()
    assert res.tensor.values.tobytes() == ref.tensor.values.tobytes()
    assert _sorting_cells(res.profile) == _sorting_cells(ref.profile)
    assert _sorting_cells(res.profile) == _expected_sorting_cells(
        res.tensor
    )


#: generated-kernel knobs that pin one chunk strategy each
STRATEGIES = {
    "dense": dict(codegen=True, dense_threshold=0.0, workspace_cap=1 << 22),
    "packed": dict(codegen=True, dense_threshold=2.0, workspace_cap=0),
}


class TestSerialFusedSkipsSort:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           method=st.sampled_from(["sparta", "coo_hta"]))
    def test_generic_kernel(self, seed, method):
        x, y, cx, cy = _random_pair(seed)
        res = _contract(x, y, cx, cy, method=method, codegen=False)
        ref = _contract(x, y, cx, cy, method=method,
                       granularity="subtensor_loop")
        _assert_serial_skip(res, ref)

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_codegen_strategy(self, strategy, seed):
        x, y, cx, cy = _random_pair(seed)
        res = _contract(x, y, cx, cy, method="sparta", **STRATEGIES[strategy])
        if res.tensor.nnz:
            assert res.profile.counters.get(f"codegen_{strategy}_chunks")
        ref = _contract(x, y, cx, cy, method="sparta", granularity="element")
        _assert_serial_skip(res, ref)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_codegen_lexsort_fallback(self, seed):
        x, y, cx, cy = _random_pair(seed, huge_free=True)
        res = _contract(x, y, cx, cy, method="sparta", codegen=True)
        if res.tensor.nnz:
            assert res.profile.counters.get("codegen_lexsort_chunks")
        ref = _contract(x, y, cx, cy, method="sparta", granularity="element")
        _assert_serial_skip(res, ref)

    @pytest.mark.parametrize("codegen", [False, True])
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**31 - 1),
           chunk_pairs=st.integers(1, 40))
    def test_many_chunks(self, monkeypatch, codegen, seed, chunk_pairs):
        monkeypatch.setattr(
            looped, "fused_compute",
            functools.partial(fused_compute, chunk_pairs=chunk_pairs),
        )
        x, y, cx, cy = _random_pair(seed)
        res = _contract(x, y, cx, cy, method="sparta", codegen=codegen)
        ref = _contract(x, y, cx, cy, method="sparta", granularity="element")
        _assert_serial_skip(res, ref)


class TestOtherPathsKeepSorting:
    @pytest.mark.parametrize("method,granularity", [
        ("spa", "subtensor"),
        ("sparta", "element"),
        ("sparta", "subtensor_loop"),
        ("coo_hta", "element"),
    ])
    def test_sort_still_runs(self, monkeypatch, method, granularity):
        x, y, cx, cy = _random_pair(11)
        sorted_shapes = []
        raw = SparseTensor.sort

        def spy(self, *args, **kwargs):
            sorted_shapes.append(self.shape)
            return raw(self, *args, **kwargs)

        monkeypatch.setattr(SparseTensor, "sort", spy)
        res = _contract(x, y, cx, cy, method=method,
                       granularity=granularity)
        assert "output_sorting" not in res.profile.flags
        assert sorted_shapes[-1] == res.plan.out_shape
        assert _sorting_cells(res.profile) == _expected_sorting_cells(
            res.tensor
        )

    def test_fused_path_sorts_only_x(self, monkeypatch):
        x, y, cx, cy = _random_pair(11)
        calls = []
        raw = SparseTensor.sort
        monkeypatch.setattr(
            SparseTensor, "sort",
            lambda self, *a, **k: calls.append(1) or raw(self, *a, **k),
        )
        _contract(x, y, cx, cy, method="sparta")
        assert len(calls) == 1

    def test_unsorted_kernel_output_is_sorted(self, monkeypatch):
        # A kernel that broke the order must still get a sorted Z.
        def reversed_compute(*args, **kwargs):
            fr = fused_compute(*args, **kwargs)
            fr.out_fgrp = fr.out_fgrp[::-1].copy()
            fr.out_fy = fr.out_fy[::-1].copy()
            fr.out_vals = fr.out_vals[::-1].copy()
            return fr

        x, y, cx, cy = _random_pair(5)
        ref = _contract(x, y, cx, cy, method="sparta")
        assert ref.tensor.nnz > 1
        monkeypatch.setattr(looped, "fused_compute", reversed_compute)
        res = _contract(x, y, cx, cy, method="sparta")
        assert "output_sorting" not in res.profile.flags
        assert res.tensor.indices.tobytes() == ref.tensor.indices.tobytes()
        assert res.tensor.values.tobytes() == ref.tensor.values.tobytes()


class TestParallelAndOutOfCore:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1),
           cuts=st.lists(st.floats(0, 1), max_size=4))
    def test_ranges_emit_ascending_keys(self, seed, cuts):
        x, y, cx, cy = _random_pair(seed)
        plan = cached_plan(x, y, cx, cy)
        px = prepare_x(x, plan, RunProfile("t"))
        hty = HashTensor.from_coo(y, plan.cy)
        n = px.num_subtensors
        bounds = sorted({0, n, *(int(c * n) for c in cuts)})
        fgrp, fy = [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            fr = fused_compute(
                px, hty, y_structure="hash", accumulator="hash",
                profile=RunProfile("t"), lo=lo, hi=hi, chunk_pairs=16,
            )
            assert pairs_ascending(fr.out_fgrp, fr.out_fy)
            fgrp.append(fr.out_fgrp)
            fy.append(fr.out_fy)
        assert pairs_ascending(np.concatenate(fgrp), np.concatenate(fy))

    @pytest.mark.parametrize("seed", range(3))
    def test_parallel_gather_is_presorted(self, seed):
        x, y, cx, cy = _random_pair(100 + seed)
        par = parallel_sparta(x, y, cx, cy, threads=3, backend="thread")
        counters = par.result.profile.counters
        assert counters.get("output_merge_concat", 0) + counters.get(
            "output_merge_empty", 0) == 1
        _assert_z_is_its_own_sort(par.result.tensor)

    @pytest.mark.parametrize("seed", range(3))
    def test_ooc_runs_are_sorted(self, seed, tmp_path):
        x, y, cx, cy = _random_pair(200 + seed)
        res = ooc_contract(x, y, cx, cy, memory_budget="256K",
                           force_spill=True, spill_root=str(tmp_path))
        assert res.profile.flags["ooc"] == "spill"
        _assert_z_is_its_own_sort(res.tensor)
        ref = _contract(x, y, cx, cy, method="sparta")
        assert res.tensor.indices.tobytes() == ref.tensor.indices.tobytes()
        assert res.tensor.values.tobytes() == ref.tensor.values.tobytes()


class TestPairsAscending:
    def test_definition(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(0, 12))
            fgrp = np.sort(rng.integers(0, 3, n))
            fy = rng.integers(0, 4, n)
            if rng.random() < 0.5:
                order = np.lexsort((fy, fgrp))
                fgrp, fy = fgrp[order], fy[order]
            if rng.random() < 0.2 and n > 1:
                fgrp = fgrp[::-1].copy()
            rows = list(zip(fgrp.tolist(), fy.tolist()))
            assert pairs_ascending(fgrp, fy) == (rows == sorted(rows))

    def test_violation_past_the_first_block(self, monkeypatch):
        monkeypatch.setattr(kernels, "_ORDER_CHECK_BLOCK", 4)
        fgrp = np.zeros(20, dtype=np.int64)
        fy = np.arange(20, dtype=np.int64)
        assert pairs_ascending(fgrp, fy)
        for i in (3, 4, 5, 17, 18):
            bad = fy.copy()
            bad[i], bad[i + 1] = bad[i + 1], bad[i]
            assert not pairs_ascending(fgrp, bad), i
