"""Stage-level cost model: statistics + calibration -> predicted seconds.

Two predictions come out of one :class:`ContractionStats` record:

* :meth:`CostModel.predict_traffic` — Table-2-style per-stage byte
  totals, mirroring the accounting formulas in
  :mod:`repro.core.kernels` / :mod:`repro.core.common` with estimated
  counts substituted for measured ones. Machine-independent; the
  property suite checks its per-stage *ranks* against measured traffic
  on the seed workloads.
* :meth:`CostModel.estimate` — wall seconds for one concrete schedule
  candidate, as calibrated linear combinations of the same counts plus
  per-backend pool overheads and an efficiency-discounted parallel
  speedup. Candidates are only ever compared against each other, so
  consistent relative coefficients matter more than absolute accuracy.

Both are monotone in the inputs: every term is ``positive coefficient x
count``, so predicted cost never decreases when ``nnz``, the product
count or the contracted-space occupancy grows (pinned by
``tests/planner/test_cost_model.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.core.common import HT_ENTRY_BYTES, coo_row_bytes
from repro.core.kernels import HTA_CACHE_HIT
from repro.core.stages import Stage
from repro.planner.calibration import (
    CalibrationProfile,
    default_calibration,
)
from repro.planner.stats import ContractionStats

__all__ = ["CostEstimate", "CostModel"]

#: stage-name keys of the estimate dictionaries, in pipeline order
STAGE_KEYS = tuple(s.value for s in Stage)


@dataclass(frozen=True)
class CostEstimate:
    """Predicted cost of one (statistics, candidate) pairing."""

    #: predicted wall seconds per stage (serial work already divided by
    #: the candidate's effective parallelism where it applies)
    stage_seconds: Tuple[Tuple[str, float], ...]
    #: pool start-up + per-worker overhead seconds (zero for serial)
    overhead_seconds: float

    @property
    def seconds(self) -> float:
        """Total predicted wall seconds (the comparison key)."""
        return sum(s for _, s in self.stage_seconds) + self.overhead_seconds

    def to_dict(self) -> dict:
        return {
            "stage_seconds": {k: v for k, v in self.stage_seconds},
            "overhead_seconds": self.overhead_seconds,
            "seconds": self.seconds,
        }


@dataclass(frozen=True)
class CostModel:
    """Calibrated stage-cost and traffic predictor."""

    calibration: CalibrationProfile = field(
        default_factory=default_calibration
    )

    # ------------------------------------------------------------------
    def predict_traffic(self, stats: ContractionStats) -> Dict[str, int]:
        """Per-stage predicted Table-2 byte totals (serial schedule).

        Mirrors ``prepare_x``/``record_hty_build``/
        ``record_computation_traffic``/``assemble_output`` with
        estimated counts: probes ~ ``nnz_x`` chain entries, products and
        created entries from the uniform-fiber model.
        """
        rowb_x = coo_row_bytes(len(stats.x_shape))
        rowb_y = coo_row_bytes(len(stats.y_shape))
        rowb_z = coo_row_bytes(stats.nfx + stats.nfy)
        products = stats.est_products
        created = stats.est_created
        miss = 1.0 - HTA_CACHE_HIT
        input_processing = (
            2 * stats.nnz_x * rowb_x              # X sort (read + write)
            + stats.nnz_y * rowb_y                # Y streamed once
            + stats.nnz_y * HT_ENTRY_BYTES        # HtY entries written
            + stats.groups * 8                    # bucket heads touched
        )
        index_search = (
            stats.nnz_x * rowb_x                  # X streamed once
            + stats.nnz_x * 8                     # bucket-head reads
            + stats.nnz_x * HT_ENTRY_BYTES        # ~1 chain entry/probe
            + products * 16                       # (LN(Fy), val) streams
        )
        accumulation = int(
            products * 16 * miss                  # HtA probe reads
            + (max(products - created, 0) * 8
               + created * HT_ENTRY_BYTES) * miss  # HtA updates/inserts
        ) + created * (8 * stats.nfx + 16)        # Z_local append
        writeback = 2 * created * rowb_z          # Z_local read, Z write
        output_sorting = 2 * created * rowb_z     # one sort pass
        return {
            Stage.INPUT_PROCESSING.value: int(input_processing),
            Stage.INDEX_SEARCH.value: int(index_search),
            Stage.ACCUMULATION.value: int(accumulation),
            Stage.WRITEBACK.value: int(writeback),
            Stage.OUTPUT_SORTING.value: int(output_sorting),
        }

    # ------------------------------------------------------------------
    def serial_stage_seconds(
        self,
        stats: ContractionStats,
        *,
        accumulator: str = "hash",
    ) -> Dict[str, float]:
        """Predicted serial seconds per stage (no pool overheads)."""
        c = self.calibration
        per_product = (
            c["product_dense"] if accumulator == "dense"
            else c["product_hash"]
        )
        return {
            Stage.INPUT_PROCESSING.value: (
                c["hty_build"] * stats.nnz_y
                + c["sort_unit"] * stats.sort_x_units
            ),
            Stage.INDEX_SEARCH.value: c["probe"] * stats.nnz_x,
            Stage.ACCUMULATION.value: per_product * stats.est_products,
            Stage.WRITEBACK.value: c["writeback"] * stats.est_created,
            Stage.OUTPUT_SORTING.value: c["sort_unit"] * stats.sort_z_units,
        }

    def estimate(
        self,
        stats: ContractionStats,
        *,
        engine: str = "serial",
        workers: int = 1,
        parallel_stage1: bool = True,
        accumulator: str = "hash",
        sort_output: bool = True,
    ) -> CostEstimate:
        """Predicted wall cost of running *stats* on one schedule.

        ``engine`` is ``"serial"``, ``"thread"`` or ``"process"``;
        parallel engines divide the parallelizable share of each stage
        by an efficiency-discounted speedup and add the backend's pool
        overheads. The division can only *shrink* per-stage seconds, so
        monotonicity in the statistics is preserved.
        """
        c = self.calibration
        serial = self.serial_stage_seconds(stats, accumulator=accumulator)
        overhead = 0.0
        if engine == "serial" or workers <= 1:
            stages = dict(serial)
        else:
            eff = c[f"{engine}_efficiency"]
            speedup = 1.0 + (workers - 1) * eff
            stages = dict(serial)
            # Stages 2-3 (and stage 1's HtY build under parallel_stage1)
            # run on the workers; X sort, writeback and stage 5 stay in
            # the parent, at the serial cost.
            stages[Stage.INDEX_SEARCH.value] /= speedup
            stages[Stage.ACCUMULATION.value] /= speedup
            if parallel_stage1:
                sort_x = c["sort_unit"] * stats.sort_x_units
                hty = c["hty_build"] * stats.nnz_y
                stages[Stage.INPUT_PROCESSING.value] = (
                    sort_x + hty / speedup
                )
            overhead = (
                c[f"{engine}_pool"] + c[f"{engine}_worker"] * workers
            )
        if not sort_output:
            stages[Stage.OUTPUT_SORTING.value] = 0.0
        return CostEstimate(
            stage_seconds=tuple(
                (k, float(stages[k])) for k in STAGE_KEYS
            ),
            overhead_seconds=float(overhead),
        )
