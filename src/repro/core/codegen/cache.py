"""KernelCache — compiled-kernel LRU beside the HtY/plan caches.

Rendering plus ``compile()``/``exec`` costs tens of microseconds —
cheap, but paid per *chunk* without a cache (a parallel run issues
hundreds). The cache is keyed by the full
:class:`~repro.core.codegen.signature.KernelSignature`, so ``contract``,
``ContractionSequence``, ``cp_als`` and both parallel backends hit warm
kernels after the first call with a given signature.

Only the *source* is ever serialized (it is a plain string attached to
each function as ``__source__``); function/code objects stay inside
the process that compiled them. Process-pool workers therefore keep a
private module-level cache each and compile from the signature they
derive off the shared operands — nothing code-like crosses a pipe,
and a worker's hit/miss counters ship back inside its ordinary profile
counter dict.

Hit/miss/eviction statistics ride on the shared
:class:`~repro.core.htycache.LRUCache` machinery and surface through
``MetricsRegistry.record_caches`` and the per-run
``kernel_cache_hits``/``kernel_cache_misses``/``kernel_compiles``
profile counters.
"""

from __future__ import annotations

from typing import Optional

from repro.core.codegen.signature import KernelSignature
from repro.core.codegen.templates import render_fused_kernel
from repro.core.htycache import CacheStats, LRUCache

__all__ = [
    "KernelCache",
    "compile_kernel",
    "default_kernel_cache",
    "kernel_cache_stats",
]

#: sentinel distinguishing "missing" from a cached falsy value
_MISSING = object()


def compile_kernel(source: str, entry: str, *, label: str = "kernel"):
    """Compile generated *source* and return its *entry* function.

    The source is kept on the returned function as ``__source__`` so
    tests and debuggers can audit exactly what runs; the pseudo-file
    name makes generated frames identifiable in tracebacks.
    """
    code = compile(source, f"<repro-codegen:{label}>", "exec")
    namespace: dict = {}
    exec(code, namespace)
    fn = namespace[entry]
    fn.__source__ = source
    return fn


class KernelCache:
    """Bounded LRU of compiled specialized kernels.

    Thread-safe (the thread backend's workers share the process-wide
    instance). Entries are function objects; eviction just drops the
    reference — a re-render of the same signature produces byte-equal
    source, so eviction can never change results.
    """

    def __init__(self, maxsize: int = 64) -> None:
        self._lru = LRUCache(maxsize)

    @property
    def stats(self) -> CacheStats:
        return self._lru.stats

    def __len__(self) -> int:
        return len(self._lru)

    def clear(self) -> None:
        self._lru.clear()

    def get_fused_kernel(self, sig: KernelSignature, profile=None):
        """Compiled ``fused_chunk`` for *sig* (rendering on miss)."""
        fn = self._lru.get(sig, _MISSING)
        if fn is not _MISSING:
            if profile is not None:
                profile.bump("kernel_cache_hits")
            return fn
        if profile is not None:
            profile.bump("kernel_cache_misses")
            profile.bump("kernel_compiles")
        fn = compile_kernel(
            render_fused_kernel(sig), "fused_chunk",
            label=f"fused:{sig.free_dims}",
        )
        self._lru.put(sig, fn)
        return fn


#: process-wide cache every call site defaults to (one per process —
#: pool workers each build their own on first use)
_DEFAULT_KERNEL_CACHE: Optional[KernelCache] = None


def default_kernel_cache() -> KernelCache:
    """The shared process-wide :class:`KernelCache`."""
    global _DEFAULT_KERNEL_CACHE
    if _DEFAULT_KERNEL_CACHE is None:
        _DEFAULT_KERNEL_CACHE = KernelCache()
    return _DEFAULT_KERNEL_CACHE


def kernel_cache_stats() -> CacheStats:
    """Statistics of the shared process-wide kernel cache."""
    return default_kernel_cache().stats
