"""The counting-backend protocol and its shared counter plumbing.

Every miner in this package reduces to one operation: given an itemset
or a packed row cover, produce the per-group covered counts — the
contingency row of Eq. 1.  A :class:`CountingBackend` is what the search
layers (``core.search``, ``core.sdad``, ``core.batch``,
``parallel.scheduler``) ask for that row, in three shapes:

``cover_of(itemset)``
    packed per-chunk :class:`~repro.core.cover.Cover` of an itemset (the
    SDAD-CS search state);
``group_counts_batch(itemsets)``
    N candidates → one ``(N, n_groups)`` int64 matrix;
``cover_group_counts(cover)``
    per-group counts inside a packed cover.

The miner has one implementation, :class:`~repro.counting.bitmap.
BitmapBackend` (packed bitsets over chunks; a dense dataset is one
chunk).  :class:`~repro.counting.mask.MaskBackend` implements the same
three operations unpacked, as the reference the tests compare against.

Backends also self-instrument: every counting call (a batch of N counts
as N calls), every context-cache hit/miss, and every batch invocation is
tallied and published into :class:`~repro.core.instrumentation.
MiningStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Protocol, runtime_checkable

import numpy as np

from ..core.cover import Cover

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.instrumentation import MiningStats
    from ..core.items import Itemset
    from ..dataset.table import Dataset

__all__ = ["BackendCounters", "CountingBackend", "CountingBackendBase"]


@dataclass(frozen=True)
class BackendCounters:
    """Snapshot of a backend's instrumentation counters.

    Snapshots support subtraction so a caller can attribute counts to one
    slice of work (the parallel workers bracket each task this way).
    """

    count_calls: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    batch_calls: int = 0
    batched_candidates: int = 0
    batch_fallbacks: int = 0

    def __sub__(self, other: "BackendCounters") -> "BackendCounters":
        return BackendCounters(
            *(getattr(self, f.name) - getattr(other, f.name)
              for f in fields(self))
        )

    def __add__(self, other: "BackendCounters") -> "BackendCounters":
        return BackendCounters(
            *(getattr(self, f.name) + getattr(other, f.name)
              for f in fields(self))
        )


@runtime_checkable
class CountingBackend(Protocol):
    """What the search layers require of a support-counting backend."""

    name: str
    dataset: "Dataset"

    def cover_of(self, itemset: "Itemset") -> Cover:
        """Packed per-chunk coverage of an itemset."""
        ...

    def full_cover(self) -> Cover:
        """Packed coverage of every row (the empty context)."""
        ...

    def group_counts_batch(self, itemsets: Iterable["Itemset"]) -> np.ndarray:
        """Per-group counts of N itemsets as one ``(N, n_groups)`` int64
        matrix."""
        ...

    def cover_group_counts(self, cover: Cover) -> np.ndarray:
        """Per-group counts inside a packed cover (one ``count_calls``)."""
        ...

    def counters(self) -> BackendCounters:
        """Current instrumentation snapshot."""
        ...

    def publish(self, stats: "MiningStats") -> None:
        """Fold counters accumulated since the last publish into stats."""
        ...


class CountingBackendBase:
    """Counter plumbing shared by the packed backend and the reference."""

    name: str = "abstract"

    def __init__(self, dataset: "Dataset") -> None:
        self.dataset = dataset
        self.count_calls = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.batch_calls = 0
        self.batched_candidates = 0
        self.batch_fallbacks = 0
        self._published = BackendCounters()

    def full_cover(self) -> Cover:
        return Cover.full(self.dataset.chunk_sizes)

    def _tally_batch(self, n: int) -> None:
        """Count one batch of ``n`` candidates (``n`` counting calls)."""
        self.batch_calls += 1
        self.batched_candidates += n
        self.count_calls += n

    def counters(self) -> BackendCounters:
        return BackendCounters(
            *(getattr(self, f.name) for f in fields(BackendCounters))
        )

    def publish(self, stats: "MiningStats") -> None:
        """Fold the delta since the previous publish into ``stats``.

        Delta semantics let a long-lived backend (e.g. the worker-global
        one in the parallel scheduler) publish into a fresh stats object
        per task without double counting.
        """
        current = self.counters()
        delta = current - self._published
        self._published = current
        stats.counting_backend = self.name
        for f in fields(BackendCounters):
            setattr(stats, f.name,
                    getattr(stats, f.name) + getattr(delta, f.name))
