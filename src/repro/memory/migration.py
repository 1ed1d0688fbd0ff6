"""Dynamic data placement & migration engine (ROADMAP: dynamic HM layer).

Sparta's §4.2 placement is *static*: one object → device mapping chosen
before the run and held for all five stages. That is provably wrong in
two regimes this repo now reaches:

* **within a run** when the DRAM cannot hold every placement-sensitive
  object at once — the stages touch disjoint hot sets (HtY in stages
  1-2, HtA/Z_local in stage 3, Z in stages 4-5), so time-multiplexing
  the fast tier across stage boundaries beats any single static pick;
* **across requests** in server mode, where the operand registry and
  warm HtY caches pin fast-tier bytes a per-contraction static policy
  does not know about, shrinking the capacity it packs against.

:class:`MigrationEngine` consumes the per-stage
:class:`~repro.core.profile.TrafficRecord` stream (measured, or
forecast from the planner's :class:`~repro.planner.cost_model.CostModel`
statistics) and emits strict
:class:`~repro.memory.simulator.PlacementSchedule` objects with explicit
:class:`~repro.memory.simulator.Migration` entries at stage boundaries.
Two policies (the look-ahead vs. past-window scoring axis of the
Data_Placement_Optimization simulator lineage), both with an exclusive
fast tier:

* ``lookahead`` — score objects by the PMM penalty the *upcoming*
  stages would pay (geometric discount per stage of distance), promote
  the densest, demote what has no future.
* ``ewma`` — past-window scoring: an exponentially weighted moving
  average of observed penalty density, updated after every stage and
  carried across requests (the cross-request learning a reactive
  runtime would do); demotes objects whose EWMA went cold mid-run.

Allocation-time placement is free: an object's *first* placement (the
stage its traffic first appears) is where it is malloc'd, so only
relocations of already-materialized data emit migrations. Input
operands X and Y are materialized in the slow tier before the run (they
arrive from files or the serve registry).

The engine never inspects wall-clock time — schedules are deterministic
functions of the traffic records, the device table and the engine
state, so simulation comparisons are exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional

from repro.core.profile import (
    AccessKind,
    AccessPattern,
    DataObject,
    RunProfile,
)
from repro.core.stages import STAGE_ORDER, Stage
from repro.errors import PlacementError
from repro.memory.devices import HeterogeneousMemory
from repro.memory.objects import TABLE2
from repro.memory.placement import DRAM, PMM
from repro.memory.simulator import (
    HMSimulator,
    Migration,
    PlacementSchedule,
    SimulatedRun,
)

__all__ = [
    "DYNAMIC_POLICIES",
    "MigrationEngine",
    "StreamRequest",
    "StreamResult",
    "forecast_benefit",
    "predict_object_traffic",
    "simulate_stream",
    "stage_benefit",
    "static_stream_scheduler",
]

#: the dynamic policies the engine implements (``ttt --placement
#: dynamic:<policy>`` accepts exactly these names)
DYNAMIC_POLICIES = ("lookahead", "ewma")

#: geometric discount per stage of look-ahead distance
LOOKAHEAD_DISCOUNT = 0.5

#: stages of look-ahead window (current stage + this many ahead)
DEFAULT_LOOKAHEAD = 2

#: EWMA weight of the newest epoch's observation
DEFAULT_EWMA_ALPHA = 0.6

#: objects materialized before the run starts (inputs live in the
#: slow/capacity tier: files, pinned registry segments)
_PREMATERIALIZED = (DataObject.X, DataObject.Y)


def _pmm_delta_per_byte(
    hm: HeterogeneousMemory, kind: AccessKind, pattern: AccessPattern
) -> float:
    """Seconds/byte an access pays in PMM beyond its DRAM cost."""
    fast = 1.0 / hm.dram.effective_bandwidth(kind, pattern)
    slow = 1.0 / hm.pmm.effective_bandwidth(kind, pattern)
    return max(slow - fast, 0.0)


def stage_benefit(
    profile: RunProfile, hm: HeterogeneousMemory
) -> Dict[Stage, Dict[DataObject, float]]:
    """Seconds saved per stage by holding each object in DRAM.

    Computed record-by-record from the run's measured traffic with the
    per-signature §2.3 bandwidth asymmetries — a sequential-read object
    (X, Y) accrues far less benefit per byte than a random read-write
    one (HtY, HtA), which is exactly the pattern-awareness a
    volume-only tracker (IAL) lacks. Values are in un-amplified
    seconds; only their relative order matters to the engine.
    """
    out: Dict[Stage, Dict[DataObject, float]] = {
        stage: {} for stage in STAGE_ORDER
    }
    for rec in profile.traffic:
        delta = _pmm_delta_per_byte(hm, rec.kind, rec.pattern)
        per_obj = out.setdefault(rec.stage, {})
        per_obj[rec.obj] = per_obj.get(rec.obj, 0.0) + rec.nbytes * delta
    return out


def predict_object_traffic(stats) -> Dict[Stage, Dict[DataObject, int]]:
    """Per-(stage, object) predicted Table-2 byte totals.

    The per-object decomposition of
    :meth:`repro.planner.cost_model.CostModel.predict_traffic` — the
    same estimated counts, attributed to the object each term reads or
    writes, so a :class:`MigrationEngine` can score placements *before*
    the contraction runs (``lookahead`` promotion on predicted probe
    spikes). Per-stage sums equal ``predict_traffic`` exactly.
    """
    from repro.core.common import HT_ENTRY_BYTES, coo_row_bytes
    from repro.core.kernels import HTA_CACHE_HIT

    rowb_x = coo_row_bytes(len(stats.x_shape))
    rowb_y = coo_row_bytes(len(stats.y_shape))
    rowb_z = coo_row_bytes(stats.nfx + stats.nfy)
    products = stats.est_products
    created = stats.est_created
    miss = 1.0 - HTA_CACHE_HIT
    return {
        Stage.INPUT_PROCESSING: {
            DataObject.X: int(2 * stats.nnz_x * rowb_x),
            DataObject.Y: int(stats.nnz_y * rowb_y),
            DataObject.HTY: int(
                stats.nnz_y * HT_ENTRY_BYTES + stats.groups * 8
            ),
        },
        Stage.INDEX_SEARCH: {
            DataObject.X: int(stats.nnz_x * rowb_x),
            DataObject.HTY: int(
                stats.nnz_x * 8
                + stats.nnz_x * HT_ENTRY_BYTES
                + products * 16
            ),
        },
        Stage.ACCUMULATION: {
            DataObject.HTA: int(
                products * 16 * miss
                + (
                    max(products - created, 0) * 8
                    + created * HT_ENTRY_BYTES
                )
                * miss
            ),
            DataObject.Z_LOCAL: int(created * (8 * stats.nfx + 16)),
        },
        Stage.WRITEBACK: {
            DataObject.Z_LOCAL: int(created * rowb_z),
            DataObject.Z: int(created * rowb_z),
        },
        Stage.OUTPUT_SORTING: {
            DataObject.Z: int(2 * created * rowb_z),
        },
    }


def forecast_benefit(
    stats, hm: HeterogeneousMemory
) -> Dict[Stage, Dict[DataObject, float]]:
    """Predicted :func:`stage_benefit` from planner statistics.

    Converts :func:`predict_object_traffic` bytes into seconds-saved
    using each (object, stage) cell's Table-2 access signature — the
    pre-run forecast a server-side engine scores incoming requests
    with, before any traffic has been measured.
    """
    out: Dict[Stage, Dict[DataObject, float]] = {}
    for stage, per_obj in predict_object_traffic(stats).items():
        cell: Dict[DataObject, float] = {}
        for obj, nbytes in per_obj.items():
            pattern, kinds = TABLE2[(obj, stage)]
            delta = sum(
                _pmm_delta_per_byte(hm, kind, pattern) for kind in kinds
            ) / len(kinds)
            cell[obj] = nbytes * delta
        out[stage] = cell
    return out


@dataclass
class _ObjectState:
    """Where one data object lives mid-run."""

    location: str = PMM
    materialized: bool = False


class MigrationEngine:
    """Emit per-stage placement schedules with explicit migrations.

    One engine instance serves a stream of runs: per-request state
    (object locations) resets in :meth:`schedule_run`, while the EWMA
    hotness profile persists across requests — feed it the server's
    completed-request profiles via :meth:`observe` / :meth:`consume`
    and the ``ewma`` policy learns the workload mix.
    """

    def __init__(
        self,
        hm: HeterogeneousMemory,
        *,
        policy: str = "lookahead",
        lookahead_stages: int = DEFAULT_LOOKAHEAD,
        ewma_alpha: float = DEFAULT_EWMA_ALPHA,
    ) -> None:
        if policy not in DYNAMIC_POLICIES:
            raise PlacementError(
                f"unknown dynamic policy {policy!r}; "
                f"expected one of {DYNAMIC_POLICIES}"
            )
        if lookahead_stages < 0:
            raise PlacementError("lookahead_stages must be >= 0")
        if not 0.0 < ewma_alpha <= 1.0:
            raise PlacementError(
                f"ewma_alpha must be in (0, 1], got {ewma_alpha}"
            )
        self.hm = hm
        self.policy = policy
        self.lookahead_stages = int(lookahead_stages)
        self.ewma_alpha = float(ewma_alpha)
        #: benefit-density EWMA (seconds saved per byte per epoch)
        self._ewma: Dict[DataObject, float] = {}
        self.counters: Dict[str, int] = {}
        self.reset_counters()

    # ------------------------------------------------------------------
    def reset_counters(self) -> None:
        self.counters = {
            "runs": 0,
            "epochs": 0,
            "observed_profiles": 0,
            "promotions": 0,
            "demotions": 0,
            "freed": 0,
            "promoted_bytes": 0,
            "demoted_bytes": 0,
        }

    def reset(self) -> None:
        """Forget learned hotness and zero the counters."""
        self._ewma.clear()
        self.reset_counters()

    # ------------------------------------------------------------------
    def _update_ewma(
        self,
        benefit: Mapping[DataObject, float],
        sizes: Mapping[DataObject, int],
    ) -> None:
        a = self.ewma_alpha
        for obj in DataObject:
            size = sizes.get(obj, 0)
            if size <= 0:
                continue
            density = benefit.get(obj, 0.0) / size
            self._ewma[obj] = (
                a * density + (1.0 - a) * self._ewma.get(obj, 0.0)
            )

    def observe(self, profile: RunProfile) -> None:
        """Fold one completed run's traffic into the hotness EWMA.

        Server mode: called with the cross-request stream from the
        serve layer's :class:`~repro.serve.telemetry.TrafficFeed`, so
        the engine's past-window policies see traffic from *other*
        requests, not just the run being scheduled.
        """
        benefit = stage_benefit(profile, self.hm)
        sizes = profile.object_bytes
        for stage in STAGE_ORDER:
            self._update_ewma(benefit.get(stage, {}), sizes)
            self.counters["epochs"] += 1
        self.counters["observed_profiles"] += 1

    def consume(self, feed) -> int:
        """Drain a serve-layer traffic feed; returns profiles absorbed.

        *feed* is duck-typed on ``drain()`` yielding objects with a
        ``profile`` attribute (the shape
        :class:`repro.serve.telemetry.TrafficFeed` publishes), keeping
        the memory layer importable without the serve layer.
        """
        n = 0
        for event in feed.drain():
            self.observe(event.profile)
            n += 1
        return n

    # ------------------------------------------------------------------
    def _scores(
        self,
        stage_index: int,
        benefit: Mapping[Stage, Mapping[DataObject, float]],
        sizes: Mapping[DataObject, int],
    ) -> Dict[DataObject, float]:
        """Seconds-saved score of DRAM residency for the coming stage."""
        look: Dict[DataObject, float] = {}
        horizon = min(
            stage_index + self.lookahead_stages, len(STAGE_ORDER) - 1
        )
        for j in range(stage_index, horizon + 1):
            weight = LOOKAHEAD_DISCOUNT ** (j - stage_index)
            for obj, sec in benefit.get(STAGE_ORDER[j], {}).items():
                look[obj] = look.get(obj, 0.0) + weight * sec
        if self.policy == "lookahead":
            return look
        return {
            obj: self._ewma.get(obj, 0.0) * sizes.get(obj, 0)
            for obj in DataObject
        }

    def schedule_run(
        self,
        profile: RunProfile,
        pinned_bytes: int = 0,
        *,
        benefit: Optional[
            Mapping[Stage, Mapping[DataObject, float]]
        ] = None,
    ) -> PlacementSchedule:
        """Build this run's strict per-stage schedule with migrations.

        ``pinned_bytes`` is fast-tier capacity already held outside this
        run (serve-registry pins, warm HtY caches) — the cross-request
        pressure a per-contraction static policy cannot see. *benefit*
        overrides the measured :func:`stage_benefit` (pass
        :func:`forecast_benefit` output to schedule from planner
        predictions).
        """
        if pinned_bytes < 0:
            raise PlacementError("pinned_bytes must be non-negative")
        capacity = max(self.hm.dram.capacity_bytes - pinned_bytes, 0)
        sizes = {
            obj: int(profile.object_bytes.get(obj, 0))
            for obj in DataObject
        }
        benefit = (
            benefit
            if benefit is not None
            else stage_benefit(profile, self.hm)
        )
        first_touch: Dict[DataObject, Stage] = {}
        last_touch: Dict[DataObject, int] = {}
        for rec in profile.traffic:
            idx = STAGE_ORDER.index(rec.stage)
            if (
                rec.obj not in first_touch
                or idx < STAGE_ORDER.index(first_touch[rec.obj])
            ):
                first_touch[rec.obj] = rec.stage
            last_touch[rec.obj] = max(last_touch.get(rec.obj, 0), idx)

        state = {obj: _ObjectState() for obj in DataObject}
        for obj in _PREMATERIALIZED:
            state[obj].materialized = True

        per_stage: Dict[Stage, Dict[DataObject, str]] = {}
        migrations: List[Migration] = []
        for si, stage in enumerate(STAGE_ORDER):
            scores = self._scores(si, benefit, sizes)
            active = [
                obj
                for obj in DataObject
                if sizes[obj] > 0
                and (
                    state[obj].materialized
                    or first_touch.get(obj) == stage
                )
            ]
            # Highest seconds-saved density first. An object already in
            # DRAM (or about to be allocated, which places for free)
            # qualifies on any positive score; promoting materialized
            # PMM data pays a copy, so its score must beat that cost —
            # the hysteresis that stops volume-hot-but-cheap objects
            # (Y's one sequential scan) from churning the fast tier.
            def _admission_floor(obj: DataObject) -> float:
                st = state[obj]
                if not st.materialized or st.location == DRAM:
                    return 0.0
                return sizes[obj] * (
                    1.0
                    / self.hm.pmm.effective_bandwidth(
                        AccessKind.READ, AccessPattern.SEQUENTIAL
                    )
                    + 1.0
                    / self.hm.dram.effective_bandwidth(
                        AccessKind.WRITE, AccessPattern.SEQUENTIAL
                    )
                )

            want = sorted(
                (
                    o
                    for o in active
                    if scores.get(o, 0.0) > _admission_floor(o)
                ),
                key=lambda o: scores[o] / sizes[o],
                reverse=True,
            )
            free = capacity
            chosen: List[DataObject] = []
            for obj in want:
                if sizes[obj] <= free:
                    chosen.append(obj)
                    free -= sizes[obj]
            # Cold residents keep their slot while room remains — an
            # unnecessary demotion is pure cost.
            keepers = sorted(
                (
                    o
                    for o in active
                    if state[o].location == DRAM and o not in chosen
                ),
                key=lambda o: scores.get(o, 0.0) / sizes[o],
                reverse=True,
            )
            for obj in keepers:
                if sizes[obj] <= free:
                    chosen.append(obj)
                    free -= sizes[obj]
            target = {
                obj: (DRAM if obj in chosen else PMM)
                for obj in DataObject
            }
            # demotions before promotions: the freed bytes are what the
            # promotions move into
            for obj in DataObject:
                st = state[obj]
                if (
                    st.location == DRAM
                    and target[obj] == PMM
                    and st.materialized
                ):
                    if si > last_touch.get(obj, -1):
                        # the pipeline is done with this object — its
                        # pages are freed, not written back
                        self.counters["freed"] += 1
                    else:
                        migrations.append(
                            Migration(
                                stage, obj, sizes[obj], DRAM, PMM
                            )
                        )
                        self.counters["demotions"] += 1
                        self.counters["demoted_bytes"] += sizes[obj]
                    st.location = PMM
            for obj in DataObject:
                st = state[obj]
                if target[obj] != DRAM or st.location == DRAM:
                    continue
                if st.materialized:
                    migrations.append(
                        Migration(stage, obj, sizes[obj], PMM, DRAM)
                    )
                    self.counters["promotions"] += 1
                    self.counters["promoted_bytes"] += sizes[obj]
                st.location = DRAM
            for obj in active:
                if first_touch.get(obj) == stage:
                    state[obj].materialized = True
            per_stage[stage] = {
                obj: state[obj].location for obj in DataObject
            }
            self._update_ewma(benefit.get(stage, {}), sizes)
            self.counters["epochs"] += 1
        self.counters["runs"] += 1
        return PlacementSchedule(
            f"dynamic:{self.policy}", per_stage, migrations, strict=True
        )

    # ------------------------------------------------------------------
    def fold_metrics(
        self, registry, *, prefix: str = "memory.migration"
    ) -> None:
        """Export engine counters as ``memory.migration.*`` metrics."""
        registry.set(f"{prefix}.policy", self.policy)
        for name, value in self.counters.items():
            registry.set(f"{prefix}.{name}", int(value))


# ----------------------------------------------------------------------
# multi-contraction streams (the Figure-9 successor scenario)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamRequest:
    """One contraction in a served stream.

    ``pinned_bytes`` is the fast-tier capacity the serve layer holds
    while this request runs (registry-pinned operands, warm HtY cache
    segments) — the cross-request state that makes per-contraction
    static placement wrong.
    """

    profile: RunProfile
    pinned_bytes: int = 0


@dataclass
class StreamResult:
    """Simulated cost of one policy over a request stream."""

    policy: str
    runs: List[SimulatedRun] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(run.total_seconds for run in self.runs)

    @property
    def migration_seconds(self) -> float:
        return sum(
            st.migration_seconds
            for run in self.runs
            for st in run.stages
        )

    @property
    def penalty_seconds(self) -> float:
        return sum(
            st.penalty_seconds
            for run in self.runs
            for st in run.stages
        )

    def summary(self) -> dict:
        return {
            "policy": self.policy,
            "requests": len(self.runs),
            "total_seconds": self.total_seconds,
            "penalty_seconds": self.penalty_seconds,
            "migration_seconds": self.migration_seconds,
        }


def static_stream_scheduler(
    hm: HeterogeneousMemory,
) -> Callable[[RunProfile, int], PlacementSchedule]:
    """Per-contraction static §4.2 placement, as a stream scheduler.

    The honest static baseline: Sparta's priority placement recomputed
    for each request against the DRAM that is actually free (even
    granting it awareness of registry pins — which the real static
    policy lacks — it still holds one mapping for all five stages).
    """

    def scheduler(
        profile: RunProfile, pinned_bytes: int = 0
    ) -> PlacementSchedule:
        from repro.memory.policies.static import sparta_policy

        capacity = max(hm.dram.capacity_bytes - pinned_bytes, 0)
        placement = sparta_policy(profile, capacity)
        return PlacementSchedule(
            placement.policy,
            {
                stage: dict(placement.mapping)
                for stage in STAGE_ORDER
            },
            strict=True,
        )

    return scheduler


def simulate_stream(
    sim: HMSimulator,
    requests: Iterable[StreamRequest],
    scheduler: Callable[[RunProfile, int], PlacementSchedule],
    *,
    lag_fraction: float = 0.0,
    overlap: bool = False,
    policy: Optional[str] = None,
) -> StreamResult:
    """Run every request's schedule through the simulator and total it.

    *scheduler* maps ``(profile, pinned_bytes)`` to a schedule —
    :meth:`MigrationEngine.schedule_run`,
    :func:`static_stream_scheduler` output, or an
    :func:`~repro.memory.policies.ial.ial_schedule` adapter. Stateful
    schedulers (the engine's EWMA) see the requests in order, exactly
    as a server would feed them.
    """
    runs: List[SimulatedRun] = []
    label = policy
    for req in requests:
        schedule = scheduler(req.profile, req.pinned_bytes)
        if label is None:
            label = schedule.policy
        runs.append(
            sim.simulate_schedule(
                req.profile,
                schedule,
                lag_fraction=lag_fraction,
                overlap=overlap,
            )
        )
    return StreamResult(label or "stream", runs)
