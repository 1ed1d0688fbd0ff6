"""Metrics export — one flat namespaced dict per run.

The repo measures a run in several disconnected places: the
:class:`~repro.core.profile.RunProfile` (stage seconds, probe/multiply
counters, Table-2 traffic records, object peaks, ``ft_*`` recovery
counters, flags) and the heterogeneous-memory simulator's
:class:`~repro.memory.simulator.SimulatedRun` (per-stage, per-device
simulated seconds). :class:`MetricsRegistry` folds all of them into a
single ``{dotted.name: value}`` dict that serializes to JSON next to
the ``BENCH_*.json`` artifacts, so a downstream consumer (dashboards,
auto-tuners in the SparseAuto mold) reads one document per run.

Naming scheme (all lowercase, dot-separated)::

    run.engine                                  engine name (str)
    run.total_seconds                           sum of stage seconds
    run.stage_seconds.<stage>                   per-stage wall seconds
    run.counters.<name>                         operation + ft_* counters
    run.flags.<name>                            qualitative annotations
    run.object_bytes.<obj>                      peak object footprints
    run.traffic.<obj>.<kind>.<pattern>_bytes    Table-2 cell totals
    run.traffic.total_bytes                     all recorded traffic
    hm.<policy>.total_seconds                   simulated run time
    hm.<policy>.amplification                   calibration scalar
    hm.<policy>.stage.<stage>.seconds           simulated stage time
    hm.<policy>.stage.<stage>.penalty_seconds   memory-stall share
    hm.<policy>.device_seconds.<device>         per-device attribution
    hm.<policy>.device_bytes.<device>           amplified bytes moved
    cache.<which>.{hits,misses,evictions}       process-wide cache totals
    cache.<which>.hit_rate                      hits / (hits + misses)
    planner.{engine,workers,accumulator}        chosen schedule knobs
    planner.{est_seconds,candidates,cached}     decision metadata
    planner.{model_version,est_products}        calibration + workload
    planner.candidate.<label>.est_seconds       per-candidate cost table
    planner.candidate.<label>.eligible          1 unless ruled out
    memory.peak_rss                             sampled peak RSS (bytes)
    memory.rss_samples                          sample count behind it
    memory.migration.policy                     dynamic policy name (str)
    memory.migration.{runs,epochs}              schedules built, stages seen
    memory.migration.observed_profiles          cross-request feed absorbed
    memory.migration.{promotions,demotions}     paid tier moves
    memory.migration.{promoted,demoted}_bytes   bytes behind those moves
    memory.migration.freed                      dead-object deallocations
    serve.<tenant>.{requests,completed,failed}  per-tenant request counts
    serve.<tenant>.{rejected,retries,degraded}  backpressure + recovery
    serve.<tenant>.latency.{p50,p99,mean,max}_ms  end-to-end latency
    serve.<tenant>.queue_wait.<quantile>_ms     scheduler wait share
    serve.<tenant>.queue_depth                  queued right now
    serve.queue_depth                           global queued right now
    serve.pool.{workers,respawns}               slot + fault-recovery state
    serve.pool.{batches,batched_requests}       dispatch grouping totals
    serve.pool.{serial_fallbacks,planned_batches}  degradations, planning
    serve.registry.{pinned,pinned_bytes,...}    operand-registry counters
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Dict, Optional, Union

from repro.core.profile import RunProfile

Value = Union[int, float, str]

__all__ = ["MetricsRegistry", "PeakRssSampler", "read_rss_bytes"]

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def read_rss_bytes() -> int:
    """Current resident-set size of this process, in bytes.

    Reads ``/proc/self/statm`` (one short line, no parsing beyond a
    split — cheap enough to poll at millisecond cadence). Returns 0 on
    platforms without procfs rather than guessing.
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return 0


class PeakRssSampler:
    """Background peak-RSS watermark over a timed region.

    The kernel's own high-water mark (``VmHWM``) is process-lifetime
    and unresettable without privileges, so a warm-up run would poison
    any later measurement. This sampler instead polls ``VmRSS`` from a
    daemon thread while the region runs and keeps the max, giving a
    *per-region* peak — exactly what the out-of-core RSS gate needs
    (``peak RSS <= factor * memory_budget`` must hold for the budgeted
    run alone, not the process lifetime).

    Use as a context manager or ``start()``/``stop()``; ``peak_bytes``
    is valid after exit. ``record()`` folds the result into a
    :class:`MetricsRegistry` as ``memory.peak_rss`` /
    ``memory.rss_samples``.
    """

    def __init__(self, interval: float = 0.005) -> None:
        self.interval = float(interval)
        self.peak_bytes = 0
        self.samples = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _run(self) -> None:
        while True:
            rss = read_rss_bytes()
            self.samples += 1
            if rss > self.peak_bytes:
                self.peak_bytes = rss
            if self._stop.wait(self.interval):
                return

    def start(self) -> "PeakRssSampler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="peak-rss-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> int:
        """Stop sampling (taking one final sample) and return the peak."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
        rss = read_rss_bytes()
        self.samples += 1
        if rss > self.peak_bytes:
            self.peak_bytes = rss
        return self.peak_bytes

    def __enter__(self) -> "PeakRssSampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def record(
        self, registry: "MetricsRegistry", *, prefix: str = "memory"
    ) -> "MetricsRegistry":
        registry.set(f"{prefix}.peak_rss", int(self.peak_bytes))
        registry.set(f"{prefix}.rss_samples", int(self.samples))
        return registry


class MetricsRegistry:
    """Flat, namespaced metric store with JSON export."""

    def __init__(self) -> None:
        self._values: Dict[str, Value] = {}

    # ------------------------------------------------------------------
    def set(self, name: str, value: Value) -> None:
        """Set one metric (overwrites)."""
        self._values[str(name)] = value

    def inc(self, name: str, amount: Union[int, float] = 1) -> None:
        """Increment a numeric metric, creating it at zero."""
        current = self._values.get(name, 0)
        self._values[str(name)] = current + amount  # type: ignore[operator]

    def get(self, name: str, default: Value | None = None):
        return self._values.get(name, default)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    # ------------------------------------------------------------------
    def record_profile(
        self, profile: RunProfile, *, prefix: str = "run"
    ) -> "MetricsRegistry":
        """Fold one :class:`RunProfile` in under *prefix*."""
        self.set(f"{prefix}.engine", profile.engine)
        self.set(f"{prefix}.total_seconds", float(profile.total_seconds))
        for stage, seconds in profile.stage_seconds.items():
            self.set(
                f"{prefix}.stage_seconds.{stage.value}", float(seconds)
            )
        for name, value in profile.counters.items():
            self.set(f"{prefix}.counters.{name}", int(value))
        for name, value in profile.flags.items():
            self.set(f"{prefix}.flags.{name}", str(value))
        for obj, nbytes in profile.object_bytes.items():
            self.set(f"{prefix}.object_bytes.{obj.value}", int(nbytes))
        cells: Dict[str, int] = {}
        total = 0
        for rec in profile.traffic:
            key = (
                f"{prefix}.traffic.{rec.obj.value}."
                f"{rec.kind.value}.{rec.pattern.value}_bytes"
            )
            cells[key] = cells.get(key, 0) + rec.nbytes
            total += rec.nbytes
        for key, nbytes in cells.items():
            self.set(key, nbytes)
        self.set(f"{prefix}.traffic.total_bytes", total)
        return self

    def record_simulated(
        self, run, *, prefix: str = "hm"
    ) -> "MetricsRegistry":
        """Fold a simulator :class:`SimulatedRun` in (duck-typed).

        *run* needs ``policy``, ``amplification``, ``total_seconds``,
        ``stages`` (each with ``stage``, ``seconds``,
        ``penalty_seconds``, ``device_bytes``) and ``device_seconds()``
        — the shape :mod:`repro.memory.simulator` produces. Duck typing
        keeps :mod:`repro.obs` importable without the memory layer.
        """
        base = f"{prefix}.{run.policy}"
        self.set(f"{base}.total_seconds", float(run.total_seconds))
        self.set(f"{base}.amplification", float(run.amplification))
        device_bytes: Dict[str, float] = {}
        for st in run.stages:
            sbase = f"{base}.stage.{st.stage.value}"
            self.set(f"{sbase}.seconds", float(st.seconds))
            self.set(
                f"{sbase}.penalty_seconds", float(st.penalty_seconds)
            )
            for dev, nbytes in st.device_bytes.items():
                device_bytes[dev] = device_bytes.get(dev, 0.0) + nbytes
        for dev, nbytes in device_bytes.items():
            self.set(f"{base}.device_bytes.{dev}", float(nbytes))
        for dev, seconds in run.device_seconds().items():
            self.set(f"{base}.device_seconds.{dev}", float(seconds))
        return self

    def record_migration(
        self, engine, *, prefix: str = "memory.migration"
    ) -> "MetricsRegistry":
        """Fold a placement engine's counters in (duck-typed).

        *engine* needs ``fold_metrics(registry, prefix=...)`` — the
        shape :class:`repro.memory.migration.MigrationEngine` provides
        (``policy`` and the promotion/demotion counter dict land under
        ``memory.migration.*``). Duck typing keeps
        :mod:`repro.obs` importable without the memory layer.
        """
        engine.fold_metrics(self, prefix=prefix)
        return self

    def record_planner(
        self, decision, *, prefix: str = "planner"
    ) -> "MetricsRegistry":
        """Fold one planner :class:`PlanDecision` in (duck-typed).

        *decision* needs ``chosen`` (with ``engine``, ``workers``,
        ``accumulator``, ``label``), ``seconds``, ``table`` (scored
        candidates with ``candidate``, ``seconds``, ``eligible``),
        ``stats`` (with ``est_products``), ``model_version`` and
        ``cached`` — the shape :func:`repro.planner.choose_plan`
        produces. Duck typing keeps :mod:`repro.obs` importable without
        the planner layer.
        """
        self.set(f"{prefix}.engine", str(decision.chosen.engine))
        self.set(f"{prefix}.workers", int(decision.chosen.workers))
        self.set(
            f"{prefix}.accumulator", str(decision.chosen.accumulator)
        )
        self.set(f"{prefix}.est_seconds", float(decision.seconds))
        self.set(f"{prefix}.candidates", len(decision.table))
        self.set(f"{prefix}.cached", int(bool(decision.cached)))
        self.set(
            f"{prefix}.model_version", int(decision.model_version)
        )
        self.set(
            f"{prefix}.est_products",
            int(decision.stats.est_products),
        )
        for scored in decision.table:
            base = f"{prefix}.candidate.{scored.candidate.label}"
            self.set(f"{base}.est_seconds", float(scored.seconds))
            self.set(f"{base}.eligible", int(bool(scored.eligible)))
        return self

    def record_caches(
        self, *, prefix: str = "cache"
    ) -> "MetricsRegistry":
        """Fold the process-wide cache statistics in under *prefix*.

        Covers the four compile/build/decision caches — HtY (``hty``),
        contraction plans (``plan``), generated kernels (``kernel``)
        and planner decisions (``planner``) — with
        hits/misses/evictions and the derived hit rate for each. These
        are cumulative process-wide totals, not per-run deltas: a warm
        steady state shows up as a hit rate approaching 1.0. (Per-run
        kernel-cache activity additionally lands in the
        ``run.counters.kernel_cache_*`` metrics via the profile.)
        """
        from repro.core.codegen import kernel_cache_stats
        from repro.core.htycache import (
            default_hty_cache,
            plan_cache_stats,
        )
        from repro.planner import planner_cache_stats

        stats = {
            "hty": default_hty_cache().stats,
            "plan": plan_cache_stats(),
            "kernel": kernel_cache_stats(),
            "planner": planner_cache_stats(),
        }
        for which, st in stats.items():
            base = f"{prefix}.{which}"
            self.set(f"{base}.hits", int(st.hits))
            self.set(f"{base}.misses", int(st.misses))
            self.set(f"{base}.evictions", int(st.evictions))
            lookups = st.hits + st.misses
            self.set(
                f"{base}.hit_rate",
                (st.hits / lookups) if lookups else 0.0,
            )
        return self

    def record_server(self, server) -> "MetricsRegistry":
        """Fold a contraction server's metrics in (``serve.*``).

        *server* is duck-typed on ``fold_metrics(registry)`` — the
        shape :class:`repro.serve.SpTCServer` exposes — so this module
        never imports the serve layer.
        """
        server.fold_metrics(self)
        return self

    # ------------------------------------------------------------------
    @classmethod
    def from_profile(
        cls, profile: RunProfile, *, prefix: str = "run"
    ) -> "MetricsRegistry":
        """Registry holding just one profile's metrics."""
        return cls().record_profile(profile, prefix=prefix)

    def as_dict(self) -> Dict[str, Value]:
        """Key-sorted snapshot of every metric."""
        return dict(sorted(self._values.items()))

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent) + "\n"

    def write(self, path) -> None:
        """Write the JSON snapshot to *path*."""
        Path(path).write_text(self.to_json())
