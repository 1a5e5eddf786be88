"""Support counting.

The miners delegate all support counting — itemset contingency rows and
per-group counts inside packed covers — to a
:class:`~repro.counting.base.CountingBackend`.  There is one counting
algorithm, :class:`~repro.counting.bitmap.BitmapBackend`: packed
per-chunk item bitsets and group stacks, AND + popcount counting, and an
LRU of categorical-context bitsets (SciCSM, related work [29]).  An
in-memory dataset is one chunk; :class:`~repro.counting.chunked.
ChunkedBackend` supplies the chunks of an out-of-core
:class:`~repro.dataset.chunked.ChunkedView`.  There is nothing to
select: :func:`backend_from_config` picks the chunk source from the
dataset, and ``MinerConfig.backend_cache_size`` sizes the context LRU.

:class:`~repro.counting.mask.MaskBackend` computes the same operations
unpacked and exists only as the reference the tests compare against.
"""

from __future__ import annotations

from ..dataset.chunked import ChunkedView
from .base import BackendCounters, CountingBackend, CountingBackendBase
from .bitmap import DEFAULT_CACHE_SIZE, BitmapBackend
from .chunked import ChunkedBackend
from .mask import MaskBackend

__all__ = [
    "BackendCounters",
    "CountingBackend",
    "CountingBackendBase",
    "BitmapBackend",
    "ChunkedBackend",
    "MaskBackend",
    "backend_class",
    "backend_from_config",
]


def backend_class(dataset) -> type[BitmapBackend]:
    """The chunk source for a dataset: a :class:`ChunkedView`'s chunks,
    or the dataset itself as one chunk."""
    if isinstance(dataset, ChunkedView):
        return ChunkedBackend
    return BitmapBackend


def backend_from_config(config, dataset) -> BitmapBackend:
    """The counting backend for a (:class:`~repro.core.config.
    MinerConfig`, dataset) pair.

    This is the single construction point the search layers use
    (``SearchEngine``, ``sdad_cs``, the parallel worker initialiser, the
    serial fallback), so every execution path counts the same way.
    """
    return backend_class(dataset)(
        dataset, cache_size=config.backend_cache_size or DEFAULT_CACHE_SIZE
    )
