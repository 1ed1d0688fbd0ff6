"""Tests for the dynamic placement & migration engine."""

import pytest

from repro.core import contract
from repro.core.profile import DataObject
from repro.core.stages import STAGE_ORDER, Stage
from repro.errors import PlacementError
from repro.memory import (
    DRAM,
    DYNAMIC_POLICIES,
    PMM,
    HMSimulator,
    MigrationEngine,
    StreamRequest,
    dram,
    pmm,
    simulate_stream,
    stage_benefit,
    static_stream_scheduler,
)
from repro.memory.devices import HeterogeneousMemory
from repro.memory.migration import forecast_benefit, predict_object_traffic
from repro.tensor import random_tensor_fibered


@pytest.fixture(scope="module")
def profile():
    x = random_tensor_fibered((10, 10, 14, 14), 600, 2, 40, seed=93)
    y = random_tensor_fibered((14, 14, 12, 12), 1400, 2, 200, seed=94)
    return contract(
        x, y, (2, 3), (0, 1), method="sparta", swap_larger_to_y=False
    ).profile


def _machine(profile, *, fraction):
    placeable = max(
        profile.object_bytes.get(o, 0)
        for o in DataObject
        if o not in (DataObject.X, DataObject.Y)
    )
    cap = max(int(placeable * fraction), 1)
    return HeterogeneousMemory(dram=dram(cap), pmm=pmm(cap * 50))


@pytest.fixture
def pressured(profile):
    return _machine(profile, fraction=1.3)


@pytest.fixture
def roomy(profile):
    total = sum(profile.object_bytes.values())
    return HeterogeneousMemory(
        dram=dram(total * 2), pmm=pmm(total * 50)
    )


class TestEngineBasics:
    def test_rejects_unknown_policy(self, pressured):
        with pytest.raises(PlacementError):
            MigrationEngine(pressured, policy="oracle")

    def test_rejects_bad_knobs(self, pressured):
        with pytest.raises(PlacementError):
            MigrationEngine(pressured, lookahead_stages=-1)
        with pytest.raises(PlacementError):
            MigrationEngine(pressured, ewma_alpha=0.0)

    @pytest.mark.parametrize("policy", DYNAMIC_POLICIES)
    def test_schedules_are_strict_and_labelled(
        self, profile, pressured, policy
    ):
        engine = MigrationEngine(pressured, policy=policy)
        sched = engine.schedule_run(profile)
        assert sched.strict
        assert sched.policy == f"dynamic:{policy}"
        sched.validate()  # complete per-stage maps by construction
        assert set(sched.per_stage) == set(STAGE_ORDER)

    def test_deterministic(self, profile, pressured):
        a = MigrationEngine(pressured).schedule_run(profile)
        b = MigrationEngine(pressured).schedule_run(profile)
        assert a.per_stage == b.per_stage
        assert a.migrations == b.migrations

    def test_rejects_negative_pins(self, profile, pressured):
        with pytest.raises(PlacementError):
            MigrationEngine(pressured).schedule_run(
                profile, pinned_bytes=-1
            )

    def test_counters_track_runs(self, profile, pressured):
        engine = MigrationEngine(pressured)
        engine.schedule_run(profile)
        engine.schedule_run(profile)
        assert engine.counters["runs"] == 2
        engine.reset()
        assert engine.counters["runs"] == 0


class TestPlacementQuality:
    def test_beats_static_under_pressure(self, profile, pressured):
        sim = HMSimulator(pressured)
        requests = [StreamRequest(profile)] * 3
        static = simulate_stream(
            sim, requests, static_stream_scheduler(pressured)
        )
        engine = MigrationEngine(pressured, policy="lookahead")
        dynamic = simulate_stream(
            sim, requests, engine.schedule_run, overlap=True
        )
        assert dynamic.total_seconds < static.total_seconds

    @pytest.mark.parametrize("policy", DYNAMIC_POLICIES)
    def test_never_loses_when_fits(self, profile, roomy, policy):
        # With everything resident, dynamic placement must not churn:
        # no paid demotions, and no loss against the static placement.
        sim = HMSimulator(roomy)
        requests = [StreamRequest(profile)] * 3
        static = simulate_stream(
            sim, requests, static_stream_scheduler(roomy)
        )
        engine = MigrationEngine(roomy, policy=policy)
        # Warm the past-window policies as the serve telemetry feed
        # would; without history EWMA lags by design (its documented
        # cold-start pathology, mirrored by IAL).
        engine.observe(profile)
        dynamic = simulate_stream(
            sim, requests, engine.schedule_run, overlap=True
        )
        assert engine.counters["demotions"] == 0
        assert dynamic.total_seconds <= static.total_seconds * 1.05

    def test_allocation_time_placement_is_free(self, profile, roomy):
        # Z first appears in WRITEBACK; with room in DRAM the engine
        # allocates it there — placement without a migration.
        engine = MigrationEngine(roomy, policy="lookahead")
        sched = engine.schedule_run(profile)
        assert sched.per_stage[Stage.WRITEBACK][DataObject.Z] == DRAM
        assert not any(
            m.obj is DataObject.Z for m in sched.migrations
        )

    def test_pins_shrink_capacity(self, profile, roomy):
        # Pinning (almost) all of DRAM forces an all-PMM schedule.
        engine = MigrationEngine(roomy, policy="lookahead")
        sched = engine.schedule_run(
            profile, pinned_bytes=roomy.dram.capacity_bytes
        )
        assert not sched.migrations
        for stage in STAGE_ORDER:
            assert all(
                dev == PMM for dev in sched.per_stage[stage].values()
            )


class TestCrossRequestLearning:
    def test_observe_builds_ewma(self, profile, pressured):
        engine = MigrationEngine(pressured, policy="ewma")
        assert not engine._ewma
        engine.observe(profile)
        assert engine._ewma
        assert engine.counters["observed_profiles"] == 1

    def test_consume_drains_feed(self, profile, pressured):
        class Event:
            def __init__(self, profile):
                self.profile = profile

        class Feed:
            def __init__(self, events):
                self.events = events

            def drain(self):
                events, self.events = self.events, []
                return events

        engine = MigrationEngine(pressured, policy="ewma")
        feed = Feed([Event(profile), Event(profile)])
        assert engine.consume(feed) == 2
        assert engine.counters["observed_profiles"] == 2
        assert engine.consume(feed) == 0

    def test_ewma_state_survives_runs(self, profile, pressured):
        engine = MigrationEngine(pressured, policy="ewma")
        engine.schedule_run(profile)
        warm = dict(engine._ewma)
        assert warm
        # A second run starts from learned hotness, not from zero.
        engine.schedule_run(profile)
        assert engine._ewma.keys() == warm.keys()


class TestForecasts:
    def test_stage_benefit_positive_where_traffic(
        self, profile, pressured
    ):
        benefit = stage_benefit(profile, pressured)
        assert benefit[Stage.ACCUMULATION][DataObject.HTA] > 0
        assert DataObject.HTA not in benefit[Stage.INPUT_PROCESSING]

    def test_predicted_traffic_sums_match_cost_model(self):
        from repro.planner.cost_model import CostModel
        from repro.planner.stats import contraction_stats
        from repro.core.htycache import cached_plan

        x = random_tensor_fibered(
            (10, 10, 14, 14), 600, 2, 40, seed=93
        )
        y = random_tensor_fibered(
            (14, 14, 12, 12), 1400, 2, 200, seed=94
        )
        plan = cached_plan(x, y, (2, 3), (0, 1))
        stats = contraction_stats(x, y, plan)
        per_stage = CostModel().predict_traffic(stats)
        per_object = predict_object_traffic(stats)
        for stage in STAGE_ORDER:
            assert sum(per_object[stage].values()) == per_stage[
                stage.value
            ]

    def test_forecast_benefit_drives_schedule(self, profile, pressured):
        from repro.planner.stats import contraction_stats
        from repro.core.htycache import cached_plan

        x = random_tensor_fibered(
            (10, 10, 14, 14), 600, 2, 40, seed=93
        )
        y = random_tensor_fibered(
            (14, 14, 12, 12), 1400, 2, 200, seed=94
        )
        plan = cached_plan(x, y, (2, 3), (0, 1))
        stats = contraction_stats(x, y, plan)
        benefit = forecast_benefit(stats, pressured)
        engine = MigrationEngine(pressured, policy="lookahead")
        sched = engine.schedule_run(profile, benefit=benefit)
        sched.validate()
        assert sched.policy == "dynamic:lookahead"


class TestStreamHelpers:
    def test_static_scheduler_uniform_across_stages(
        self, profile, pressured
    ):
        sched = static_stream_scheduler(pressured)(profile, 0)
        sched.validate()
        first = sched.per_stage[STAGE_ORDER[0]]
        for stage in STAGE_ORDER[1:]:
            assert sched.per_stage[stage] == first
        assert not sched.migrations

    def test_stream_result_sums_runs(self, profile, pressured):
        sim = HMSimulator(pressured)
        requests = [StreamRequest(profile)] * 2
        result = simulate_stream(
            sim, requests, static_stream_scheduler(pressured)
        )
        assert len(result.runs) == 2
        assert result.total_seconds == pytest.approx(
            sum(r.total_seconds for r in result.runs)
        )
        summary = result.summary()
        assert summary["requests"] == 2
        assert summary["policy"] == "sparta"


class TestMetrics:
    def test_fold_metrics(self, profile, pressured):
        from repro.obs import MetricsRegistry

        engine = MigrationEngine(pressured, policy="lookahead")
        engine.schedule_run(profile)
        registry = MetricsRegistry()
        registry.record_migration(engine)
        assert registry.get("memory.migration.policy") == "lookahead"
        assert registry.get("memory.migration.runs") == 1
        assert registry.get("memory.migration.epochs") == len(
            STAGE_ORDER
        )
        assert (
            registry.get("memory.migration.promoted_bytes") is not None
        )
