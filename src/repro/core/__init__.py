"""Contraction core: the Sparta pipeline and its baselines."""

from repro.core.dense_ref import dense_contract
from repro.core.dispatch import contract, engines
from repro.core.einsum import einsum
from repro.core.htycache import HtYCache, default_hty_cache
from repro.core.plan import ContractionPlan
from repro.core.profile import (
    AccessKind,
    AccessPattern,
    DataObject,
    RunProfile,
    TrafficRecord,
)
from repro.core.result import ContractionResult
from repro.core.semiring import (
    ARITHMETIC,
    BOOLEAN,
    MAX_PLUS,
    MIN_PLUS,
    SEMIRINGS,
    Semiring,
)
from repro.core.sequence import ContractionSequence, SequenceResult
from repro.core.sparta import sparta
from repro.core.symbolic import (
    symbolic_count,
    two_phase_contract,
    upper_bound_count,
)
from repro.core.sptc_hta import sptc_coo_hta
from repro.core.sptc_spa import sptc_spa
from repro.core.stages import (
    COMPUTATION_STAGES,
    IO_PROCESSING_STAGES,
    STAGE_ORDER,
    Stage,
)
from repro.core.vectorized import vectorized_contract

__all__ = [
    "ARITHMETIC",
    "AccessKind",
    "BOOLEAN",
    "MAX_PLUS",
    "MIN_PLUS",
    "SEMIRINGS",
    "Semiring",
    "AccessPattern",
    "COMPUTATION_STAGES",
    "ContractionPlan",
    "ContractionResult",
    "DataObject",
    "IO_PROCESSING_STAGES",
    "RunProfile",
    "STAGE_ORDER",
    "Stage",
    "TrafficRecord",
    "ContractionSequence",
    "HtYCache",
    "SequenceResult",
    "contract",
    "default_hty_cache",
    "einsum",
    "dense_contract",
    "engines",
    "sparta",
    "sptc_coo_hta",
    "sptc_spa",
    "symbolic_count",
    "two_phase_contract",
    "upper_bound_count",
    "vectorized_contract",
]
