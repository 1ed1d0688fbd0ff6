"""Parallel execution layer: partitioning, thread/process backends,
scalability model."""

from repro.parallel.executor import (
    BACKENDS,
    ParallelResult,
    ThreadStats,
    parallel_sparta,
)
from repro.parallel.merge import (
    merge_fused_runs,
    merge_sorted_runs,
    run_is_sorted,
    runs_strictly_ordered,
)
from repro.parallel.model import (
    CALIBRATED_SERIAL_FRACTIONS,
    ScalabilityModel,
    ScalabilityPrediction,
)
from repro.parallel.partition import (
    even_spans,
    partition_imbalance,
    partition_subtensors,
    select_units,
    tag_units,
)
from repro.parallel.procpool import (
    DEFAULT_CHUNKS_PER_WORKER,
    RecoveryLog,
    RecoveryPolicy,
    SharedOperandSpec,
    SharedYSpec,
    SpartaProcessPool,
    attach_operands,
    export_operands,
    export_y,
    resolve_start_method,
)

__all__ = [
    "BACKENDS",
    "CALIBRATED_SERIAL_FRACTIONS",
    "DEFAULT_CHUNKS_PER_WORKER",
    "ParallelResult",
    "RecoveryLog",
    "RecoveryPolicy",
    "ScalabilityModel",
    "ScalabilityPrediction",
    "SharedOperandSpec",
    "SharedYSpec",
    "SpartaProcessPool",
    "ThreadStats",
    "attach_operands",
    "even_spans",
    "export_operands",
    "export_y",
    "merge_fused_runs",
    "merge_sorted_runs",
    "parallel_sparta",
    "partition_imbalance",
    "partition_subtensors",
    "resolve_start_method",
    "run_is_sorted",
    "runs_strictly_ordered",
    "select_units",
    "tag_units",
]
