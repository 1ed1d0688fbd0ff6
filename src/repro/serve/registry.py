"""Operand registry — named, shared-memory-pinned tensors.

The server's clients contract against the same hot operands over and
over (the paper's HtY reuse argument, lifted to a request stream).
Re-shipping an operand's arrays with every request would dominate
service time, so clients *pin* a tensor once under a chosen handle
name and submit requests that reference the handle. A pin copies the
COO arrays into two named ``multiprocessing.shared_memory`` segments;
from then on every consumer — the dispatcher thread, any persistent
worker process — attaches zero-copy via
:meth:`~repro.tensor.coo.SparseTensor.from_shared_buffers`.

Lifecycle:

- **pin/unpin** are refcount-free bookkeeping: a pin registers the
  operand (idempotent for identical content), an unpin removes it.
- **acquire/release** refcount in-flight use. The server acquires every
  handle a request references at submission and releases on
  completion, so an operand can never vanish under a running
  contraction.
- **LRU eviction**: pins are charged against a
  :class:`~repro.ooc.MemoryBudget`; when a new pin does not fit, the
  least-recently-used entries with a zero refcount are evicted (their
  segments unlinked). If nothing evictable remains the pin is refused
  with :class:`~repro.errors.ServiceOverloadedError` — backpressure,
  not an OOM.
- **per-tenant shares**: optional per-tenant child budgets (see
  :meth:`MemoryBudget.subdivide`) bound each tenant's concurrently
  pinned bytes, so one tenant exhausting its share never evicts or
  blocks another tenant's pins.

Segment names carry the :data:`REGISTRY_SHM_PREFIX` prefix so the test
suite's shared-memory leak fixture can track registry segments the
same way it tracks pool-owned ``psm_`` blocks.
"""

from __future__ import annotations

import os
import secrets
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import (
    ServeError,
    ServiceOverloadedError,
    UnknownHandleError,
)
from repro.ooc.budget import MemoryBudget
from repro.parallel.procpool import (
    SharedArraySpec,
    attach_array,
    block_view,
    export_array,
    release_blocks,
)
from repro.tensor.coo import SparseTensor

__all__ = [
    "OperandRegistry",
    "PinnedOperand",
    "REGISTRY_SHM_PREFIX",
    "attach_pinned",
]

#: shared-memory segment name prefix for registry-pinned operands (the
#: leak-check fixture in ``tests/conftest.py`` tracks this alongside the
#: default ``psm_`` prefix of pool-owned blocks)
REGISTRY_SHM_PREFIX = "sptcreg"


@dataclass
class PinnedOperand:
    """One pinned tensor: where its arrays live plus bookkeeping."""

    name: str
    tenant: str
    fingerprint: str
    shape: Tuple[int, ...]
    nnz: int
    nbytes: int
    idx_spec: SharedArraySpec
    val_spec: SharedArraySpec
    refcount: int = 0
    pins: int = 1
    view: Optional[SparseTensor] = field(default=None, repr=False)
    _blocks: List[shared_memory.SharedMemory] = field(
        default_factory=list, repr=False
    )

    def worker_ref(self) -> tuple:
        """Picklable descriptor a worker process attaches from."""
        return (
            "shm",
            self.idx_spec,
            self.val_spec,
            self.shape,
            self.fingerprint,
        )


def attach_pinned(
    ref: tuple, blocks: List[shared_memory.SharedMemory]
) -> SparseTensor:
    """Zero-copy attach of a :meth:`PinnedOperand.worker_ref` descriptor.

    Appends the attached segments to *blocks*; the caller closes them
    (without unlinking — the registry owns the segments) once the
    contraction is done.
    """
    _, idx_spec, val_spec, shape, fingerprint = ref
    idx = attach_array(idx_spec, blocks)
    val = attach_array(val_spec, blocks)
    return SparseTensor.from_shared_buffers(
        idx, val, shape, fingerprint=fingerprint
    )


class OperandRegistry:
    """Named shared-memory pins with refcounts, LRU eviction, budgets."""

    def __init__(
        self,
        budget: Union[MemoryBudget, int, str, None] = None,
        *,
        tenant_budgets: Optional[Dict[str, MemoryBudget]] = None,
        prefix: str = REGISTRY_SHM_PREFIX,
    ) -> None:
        if budget is None or isinstance(budget, MemoryBudget):
            self.budget = budget
        else:
            self.budget = MemoryBudget(budget)
        self.tenant_budgets = dict(tenant_budgets or {})
        self.prefix = str(prefix)
        self._entries: "OrderedDict[str, PinnedOperand]" = OrderedDict()
        self._lock = threading.RLock()
        self._seq = 0
        self._closed = False
        self.pin_count = 0
        self.repin_count = 0
        self.unpin_count = 0
        self.eviction_count = 0
        self.hit_count = 0

    # ------------------------------------------------------------------
    def _segment_name(self, suffix: str) -> str:
        self._seq += 1
        return (
            f"{self.prefix}_{os.getpid():x}_{self._seq:x}"
            f"{secrets.token_hex(2)}_{suffix}"
        )

    def _evict_for_locked(self, nbytes: int) -> None:
        """Evict LRU zero-refcount entries until *nbytes* fits."""
        if self.budget is None:
            return
        while not self.budget.fits(nbytes):
            victim = next(
                (
                    e
                    for e in self._entries.values()
                    if e.refcount == 0
                ),
                None,
            )
            if victim is None:
                raise ServiceOverloadedError(
                    f"operand registry full: {nbytes} bytes do not fit "
                    f"in the {self.budget.cap}-byte budget and every "
                    f"pinned operand is in use",
                    retry_after=0.0,
                )
            self._drop_locked(victim)
            self.eviction_count += 1

    def _drop_locked(self, entry: PinnedOperand) -> None:
        self._entries.pop(entry.name, None)
        entry.view = None
        release_blocks(entry._blocks, unlink=True)
        if self.budget is not None:
            self.budget.release(entry.name, entry.nbytes)
        tb = self.tenant_budgets.get(entry.tenant)
        if tb is not None:
            tb.release(entry.name, entry.nbytes)

    # ------------------------------------------------------------------
    def pin(
        self,
        name: str,
        tensor: SparseTensor,
        *,
        tenant: str = "default",
    ) -> str:
        """Pin *tensor* under *name*; returns the handle name.

        Re-pinning identical content refreshes the LRU position and is
        otherwise a no-op; re-pinning *different* content under a live
        (acquired) handle is refused.
        """
        with self._lock:
            if self._closed:
                raise ServeError("operand registry is closed")
            fingerprint = tensor.fingerprint()
            existing = self._entries.get(name)
            if existing is not None:
                if existing.fingerprint == fingerprint:
                    self._entries.move_to_end(name)
                    existing.pins += 1
                    self.repin_count += 1
                    return name
                if existing.refcount:
                    raise ServeError(
                        f"handle {name!r} is in use by "
                        f"{existing.refcount} request(s) and holds "
                        f"different content; unpin it first"
                    )
                self._drop_locked(existing)
            nbytes = tensor.nbytes
            tb = self.tenant_budgets.get(tenant)
            if tb is not None and not tb.fits(nbytes):
                raise ServiceOverloadedError(
                    f"tenant {tenant!r} memory share exhausted: pin of "
                    f"{nbytes} bytes exceeds the remaining "
                    f"{tb.remaining} of its {tb.cap}-byte share",
                    retry_after=0.0,
                    tenant=tenant,
                )
            self._evict_for_locked(nbytes)
            blocks: List[shared_memory.SharedMemory] = []
            try:
                idx_spec = export_array(
                    tensor.indices, blocks, self._segment_name("i")
                )
                val_spec = export_array(
                    tensor.values, blocks, self._segment_name("v")
                )
            except BaseException:
                release_blocks(blocks, unlink=True)
                raise
            entry = PinnedOperand(
                name=name,
                tenant=tenant,
                fingerprint=fingerprint,
                shape=tuple(tensor.shape),
                nnz=tensor.nnz,
                nbytes=nbytes,
                idx_spec=idx_spec,
                val_spec=val_spec,
                view=SparseTensor.from_shared_buffers(
                    block_view(idx_spec, blocks[0]),
                    block_view(val_spec, blocks[1]),
                    tuple(tensor.shape),
                    fingerprint=fingerprint,
                ),
                _blocks=blocks,
            )
            if self.budget is not None:
                self.budget.charge(name, nbytes)
            if tb is not None:
                tb.charge(name, nbytes)
            self._entries[name] = entry
            self.pin_count += 1
            return name

    # ------------------------------------------------------------------
    def _entry_locked(self, name: str) -> PinnedOperand:
        try:
            entry = self._entries[name]
        except KeyError:
            raise UnknownHandleError(
                f"unknown operand handle {name!r} (never pinned, "
                f"unpinned, or evicted under memory pressure)"
            ) from None
        self._entries.move_to_end(name)
        return entry

    def get(self, name: str) -> SparseTensor:
        """The pinned tensor as a zero-copy shared-memory view."""
        with self._lock:
            entry = self._entry_locked(name)
            self.hit_count += 1
            assert entry.view is not None
            return entry.view

    def acquire(self, name: str) -> PinnedOperand:
        """Refcount a handle for the duration of one request."""
        with self._lock:
            entry = self._entry_locked(name)
            entry.refcount += 1
            return entry

    def release(self, name: str) -> None:
        with self._lock:
            entry = self._entries.get(name)
            if entry is not None and entry.refcount > 0:
                entry.refcount -= 1

    def unpin(self, name: str, *, force: bool = False) -> None:
        """Remove a pin and unlink its segments.

        Refuses while requests hold the handle unless *force* — the
        forced path exists for administrative cleanup; :meth:`close`
        force-drops everything regardless.
        """
        with self._lock:
            entry = self._entry_locked(name)
            if entry.refcount and not force:
                raise ServeError(
                    f"handle {name!r} is referenced by "
                    f"{entry.refcount} in-flight request(s)"
                )
            self._drop_locked(entry)
            self.unpin_count += 1

    # ------------------------------------------------------------------
    def handles(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    @property
    def pinned_bytes(self) -> int:
        with self._lock:
            return sum(e.nbytes for e in self._entries.values())

    def counters(self) -> Dict[str, int]:
        """Metric snapshot (``serve.registry.*`` namespace)."""
        with self._lock:
            out = {
                "pinned": len(self._entries),
                "pinned_bytes": sum(
                    e.nbytes for e in self._entries.values()
                ),
                "pins": self.pin_count,
                "repins": self.repin_count,
                "unpins": self.unpin_count,
                "evictions": self.eviction_count,
                "lookups": self.hit_count,
            }
            if self.budget is not None:
                out["budget_cap_bytes"] = self.budget.cap
                out["budget_peak_bytes"] = self.budget.peak
            return out

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unlink every segment, in-flight refcounts notwithstanding.

        Server shutdown and crashed clients land here: whoever still
        holds a handle is gone or going away, and leaking ``/dev/shm``
        segments would outlive the process. Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for entry in list(self._entries.values()):
                entry.refcount = 0
                self._drop_locked(entry)

    def __enter__(self) -> "OperandRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
