"""Cost-model properties: monotonicity, calibration, traffic sanity.

The model's usefulness rests on three pillars pinned here:

* every cost term is ``positive coefficient x count``, so predictions
  are monotone in the operand statistics (hypothesis-fuzzed);
* the calibration JSON round-trips losslessly and rejects malformed
  profiles (wrong version, missing/non-positive coefficients);
* the Table-2-style traffic prediction ranks stages like the measured
  accounting on the seed workloads (the model may be off in absolute
  bytes, but it must not reorder the pipeline's hot spots).
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import contract
from repro.core.htycache import cached_plan
from repro.core.stages import Stage
from repro.datasets import make_case
from repro.errors import ContractionError
from repro.planner import (
    CALIBRATION_VERSION,
    CalibrationProfile,
    ContractionStats,
    CostModel,
    builtin_calibration,
    contraction_stats,
)


def make_stats(
    nnz_x: int,
    nnz_y: int,
    groups: int,
    contract_capacity: int = 1 << 12,
    fy_capacity: int = 1 << 10,
) -> ContractionStats:
    return ContractionStats(
        nnz_x=nnz_x,
        nnz_y=nnz_y,
        x_shape=(64, 64, 64),
        y_shape=(64, 64, 64),
        cx=(2,),
        cy=(0,),
        contract_capacity=contract_capacity,
        fy_capacity=fy_capacity,
        fx_capacity=1 << 12,
        groups=max(min(groups, nnz_y), 1) if nnz_y else 0,
        exact_groups=False,
    )


MODEL = CostModel(calibration=builtin_calibration())

stat_sizes = st.integers(min_value=0, max_value=1 << 22)
deltas = st.integers(min_value=1, max_value=1 << 20)
schedules = st.sampled_from(
    [
        {"engine": "serial", "workers": 1},
        {"engine": "thread", "workers": 4},
        {"engine": "process", "workers": 2},
        {"engine": "thread", "workers": 8, "parallel_stage1": False},
        {"engine": "thread", "workers": 2},
    ]
)
accumulators = st.sampled_from(["hash", "dense"])


class TestMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(
        nnz_x=stat_sizes, nnz_y=stat_sizes, groups=deltas,
        delta=deltas, schedule=schedules, accumulator=accumulators,
    )
    def test_cost_nondecreasing_in_nnz_x(
        self, nnz_x, nnz_y, groups, delta, schedule, accumulator
    ):
        lo = MODEL.estimate(
            make_stats(nnz_x, nnz_y, groups),
            accumulator=accumulator, **schedule,
        ).seconds
        hi = MODEL.estimate(
            make_stats(nnz_x + delta, nnz_y, groups),
            accumulator=accumulator, **schedule,
        ).seconds
        assert hi >= lo

    @settings(max_examples=60, deadline=None)
    @given(
        nnz_x=stat_sizes, nnz_y=stat_sizes, groups=deltas,
        delta=deltas, schedule=schedules, accumulator=accumulators,
    )
    def test_cost_nondecreasing_in_nnz_y(
        self, nnz_x, nnz_y, groups, delta, schedule, accumulator
    ):
        # groups held fixed: adding Y rows while the contract-key
        # population stays put grows every downstream count
        g = max(min(groups, nnz_y), 1)
        lo = MODEL.estimate(
            make_stats(nnz_x, nnz_y, g),
            accumulator=accumulator, **schedule,
        ).seconds
        hi = MODEL.estimate(
            make_stats(nnz_x, nnz_y + delta, g),
            accumulator=accumulator, **schedule,
        ).seconds
        assert hi >= lo

    @settings(max_examples=60, deadline=None)
    @given(
        nnz_x=deltas, nnz_y=deltas, groups=deltas, delta=deltas,
        schedule=schedules, accumulator=accumulators,
    )
    def test_cost_nonincreasing_in_groups(
        self, nnz_x, nnz_y, groups, delta, schedule, accumulator
    ):
        # more distinct contract keys -> fewer pairings per key -> a
        # smaller contracted workload; cost must not grow
        lo_groups = MODEL.estimate(
            make_stats(nnz_x, nnz_y, groups + delta),
            accumulator=accumulator, **schedule,
        ).seconds
        hi_groups = MODEL.estimate(
            make_stats(nnz_x, nnz_y, groups),
            accumulator=accumulator, **schedule,
        ).seconds
        assert hi_groups >= lo_groups

    @settings(max_examples=60, deadline=None)
    @given(
        nnz_x=stat_sizes, nnz_y=stat_sizes, groups=deltas,
        schedule=schedules, accumulator=accumulators,
    )
    def test_traffic_nondecreasing_in_nnz(
        self, nnz_x, nnz_y, groups, schedule, accumulator
    ):
        del schedule, accumulator  # traffic is schedule-independent
        lo = MODEL.predict_traffic(make_stats(nnz_x, nnz_y, groups))
        hi = MODEL.predict_traffic(
            make_stats(nnz_x + 1024, nnz_y + 1024, groups)
        )
        for stage, nbytes in lo.items():
            assert hi[stage] >= nbytes


class TestOutputSortingCostedOnce:
    """Stage 5 runs the same order check on every engine, so every
    candidate pays the serial candidate's stage-5 seconds."""

    @settings(max_examples=80, deadline=None)
    @given(
        nnz_x=stat_sizes, nnz_y=stat_sizes, groups=deltas,
        fy_capacity=st.integers(min_value=1, max_value=1 << 24),
        engine=st.sampled_from(["thread", "process"]),
        workers=st.integers(min_value=1, max_value=64),
        parallel_stage1=st.booleans(), sort_output=st.booleans(),
        accumulator=accumulators,
    )
    def test_parallel_stage5_equals_serial(
        self, nnz_x, nnz_y, groups, fy_capacity, engine, workers,
        parallel_stage1, sort_output, accumulator,
    ):
        stats = make_stats(nnz_x, nnz_y, groups, fy_capacity=fy_capacity)
        stage5 = Stage.OUTPUT_SORTING.value
        for model in (MODEL, CostModel()):
            serial = dict(model.estimate(
                stats, engine="serial", accumulator=accumulator,
                sort_output=sort_output,
            ).stage_seconds)
            parallel = dict(model.estimate(
                stats, engine=engine, workers=workers,
                parallel_stage1=parallel_stage1, accumulator=accumulator,
                sort_output=sort_output,
            ).stage_seconds)
            assert parallel[stage5] == serial[stage5]


class TestCalibration:
    def test_json_roundtrip_lossless(self):
        profile = builtin_calibration()
        clone = CalibrationProfile.from_json(profile.to_json())
        assert clone == profile
        assert clone.digest() == profile.digest()

    def test_fitted_file_roundtrip_lossless(self):
        from repro.planner.calibration import CALIBRATION_PATH

        profile = CalibrationProfile.load(CALIBRATION_PATH)
        clone = CalibrationProfile.from_json(profile.to_json())
        assert clone == profile

    def test_version_mismatch_rejected(self):
        with pytest.raises(ContractionError, match="version"):
            CalibrationProfile(
                version=CALIBRATION_VERSION + 1,
                coefficients=dict(builtin_calibration().coefficients),
            )

    def test_missing_coefficient_rejected(self):
        coeff = dict(builtin_calibration().coefficients)
        coeff.pop("probe")
        with pytest.raises(ContractionError, match="missing"):
            CalibrationProfile(
                version=CALIBRATION_VERSION, coefficients=coeff
            )

    def test_nonpositive_coefficient_rejected(self):
        coeff = dict(builtin_calibration().coefficients)
        coeff["sort_unit"] = 0.0
        with pytest.raises(ContractionError, match="positive"):
            CalibrationProfile(
                version=CALIBRATION_VERSION, coefficients=coeff
            )

    def test_efficiency_above_one_rejected(self):
        coeff = dict(builtin_calibration().coefficients)
        coeff["thread_efficiency"] = 1.5
        with pytest.raises(ContractionError, match="efficiency"):
            CalibrationProfile(
                version=CALIBRATION_VERSION, coefficients=coeff
            )


#: seed workloads the traffic prediction is sanity-gated on
TRAFFIC_WORKLOADS = [
    ("nips", 1, 0.2),
    ("chicago", 2, 0.2),
    ("uracil", 3, 0.2),
]


class TestTrafficRankSanity:
    @pytest.mark.parametrize(
        "dataset,n_modes,scale", TRAFFIC_WORKLOADS,
        ids=[f"{d}-{n}" for d, n, _ in TRAFFIC_WORKLOADS],
    )
    def test_predicted_stage_ranks_track_measured(
        self, dataset, n_modes, scale
    ):
        case = make_case(dataset, n_modes, scale=scale, seed=0)
        res = contract(
            case.x, case.y, case.cx, case.cy,
            method="sparta", swap_larger_to_y=False,
        )
        measured = defaultdict(int)
        for rec in res.profile.traffic:
            measured[rec.stage.value] += rec.nbytes
        stats = contraction_stats(
            case.x, case.y,
            cached_plan(case.x, case.y, case.cx, case.cy),
        )
        predicted = MODEL.predict_traffic(stats)
        assert set(predicted) == set(measured)
        # the hottest stage must agree, and no stage may be mispriced
        # by more than 4x in either direction
        assert max(predicted, key=predicted.get) == \
            max(measured, key=measured.get)
        for stage, nbytes in measured.items():
            assert nbytes / 4 <= predicted[stage] <= nbytes * 4, stage


class TestStatsRecord:
    def test_stats_roundtrip_lossless(self):
        case = make_case("nips", 1, scale=0.1, seed=0)
        stats = contraction_stats(
            case.x, case.y,
            cached_plan(case.x, case.y, case.cx, case.cy),
        )
        clone = ContractionStats.from_dict(stats.to_dict())
        assert clone == stats
        assert clone.fingerprint() == stats.fingerprint()

    def test_exact_groups_measures_distinct_keys(self):
        case = make_case("nips", 1, scale=0.1, seed=0)
        plan = cached_plan(case.x, case.y, case.cx, case.cy)
        approx = contraction_stats(case.x, case.y, plan)
        exact = contraction_stats(case.x, case.y, plan, exact=True)
        assert exact.exact_groups and not approx.exact_groups
        assert 0 < exact.groups <= approx.groups
