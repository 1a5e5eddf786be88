"""The counting backend: packed bitmaps over chunks (SciCSM-style).

Every statistic SDAD-CS computes is a function of the Eq. 1 contingency
row, and the row is additive over row chunks, so counting chunk by chunk
and summing is exact.  :class:`BitmapBackend` is written once over
per-chunk packed indexes; an in-memory :class:`~repro.dataset.table.
Dataset` is a single chunk, and :class:`~repro.counting.chunked.
ChunkedBackend` only supplies a chunked store's chunks.  Per chunk:

* every ``(attribute, value)`` of a categorical attribute gets a packed
  bit-vector (built on the attribute's first use), and the groups a
  ``(n_groups, n_words)`` membership stack (built up front: every count
  needs it), both with :func:`~repro.dataset.bitmap.pack_codes`, so the
  resident index is one bit per row per categorical value, plus one per
  row per group;
* a categorical itemset's coverage is the AND of its item bit-vectors.
  Multi-item contexts are kept in an LRU keyed by ``(chunk key,
  itemset)`` and built by recursing on the itemset's prefix, so a context
  counted at search level ``n`` makes each of its level ``n + 1``
  extensions one AND away.  An entry costs one chunk's packed bytes
  (``chunk_rows / 8``), so the cache holds at most ``cache_size`` of them;
* numeric items are evaluated on the chunk's rows as boolean masks,
  packed, and ANDed in;
* a contingency row is one AND + popcount against the chunk's group
  stack, and a batch of N candidates is one stacked ``(N, groups,
  words)`` AND + popcount sweep per chunk.

All counts are exact popcounts, equal to ``Dataset.group_counts`` of the
unpacked covers (:class:`~repro.counting.mask.MaskBackend`, asserted by
``tests/test_counting.py``).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..core.cover import Cover, popcount_rows
from ..core.items import CategoricalItem, Itemset
from ..dataset.bitmap import pack_codes
from ..dataset.table import Dataset, DatasetError
from .base import CountingBackendBase

__all__ = ["BitmapBackend", "DEFAULT_CACHE_SIZE"]

#: default number of (chunk, context) coverage vectors kept in the LRU;
#: each is ``chunk_rows / 8`` bytes.
DEFAULT_CACHE_SIZE = 8192

#: cap on the transient ``(slab, n_groups, n_words)`` uint8 buffer used by
#: the batch popcount sweep, in bytes (~4 MB keeps it cache-friendly).
_BATCH_SLAB_BYTES = 4 * 1024 * 1024


class BitmapBackend(CountingBackendBase):
    """Count supports with packed per-chunk bitsets and per-group
    popcounts.  The chunk source of this class is the dataset itself as
    one chunk; subclasses override the four ``_chunk_*`` methods."""

    name = "bitmap"

    def __init__(
        self, dataset: Dataset, cache_size: int = DEFAULT_CACHE_SIZE
    ) -> None:
        super().__init__(dataset)
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self.cache_size = cache_size
        self._sizes = dataset.chunk_sizes
        self._keys = self._chunk_keys()
        self._full = Cover.full(self._sizes)
        self._items: list[dict[tuple[str, str], np.ndarray]] = [
            {} for _ in self._sizes
        ]
        self._stacks = [
            pack_codes(self._chunk_group_codes(c), dataset.n_groups)
            for c in range(len(self._sizes))
        ]
        self._cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()

    # ------------------------------------------------------------------
    # Chunk source: the dataset as its only chunk
    # ------------------------------------------------------------------

    def _chunk_keys(self) -> tuple:
        """One hashable key per chunk for the context LRU."""
        return (0,)

    def _chunk_codes(self, c: int, name: str) -> np.ndarray:
        """Integer codes of a categorical attribute over chunk ``c``."""
        return self.dataset.column(name)

    def _chunk_group_codes(self, c: int) -> np.ndarray:
        return self.dataset.group_codes

    def _chunk_dataset(self, c: int) -> Dataset:
        """Chunk ``c`` as a dataset, for evaluating numeric items."""
        return self.dataset

    # ------------------------------------------------------------------
    # Per-chunk packed indexes
    # ------------------------------------------------------------------

    def _item_bits(self, c: int, item: CategoricalItem) -> np.ndarray:
        key = (item.attribute, item.value)
        index = self._items[c]
        bits = index.get(key)
        if bits is None:
            categories = self.dataset.attribute(item.attribute).categories
            stack = pack_codes(
                self._chunk_codes(c, item.attribute), len(categories)
            )
            for label, row in zip(categories, stack):
                index[(item.attribute, label)] = row
            bits = index[key]
        return bits

    def _bits(self, c: int, itemset: Itemset) -> np.ndarray:
        """Packed coverage of a purely categorical itemset over chunk
        ``c``: single items read straight from the index, longer contexts
        through the LRU, recursing on the prefix."""
        items = itemset.items
        if not items:
            return self._full.segment(c)
        if len(items) == 1:
            return self._item_bits(c, items[0])
        key = (self._keys[c], itemset)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            self._cache.move_to_end(key)
            return cached
        self.cache_misses += 1
        bits = self._bits(c, Itemset(items[:-1])) & self._item_bits(
            c, items[-1]
        )
        self._cache[key] = bits
        if len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
        return bits

    def _segment(self, c: int, categorical: Itemset, numeric: tuple):
        """Packed coverage over chunk ``c`` of the categorical part
        ANDed with the numeric items."""
        bits = self._bits(c, categorical)
        if numeric:
            chunk = self._chunk_dataset(c)
            mask = numeric[0].cover(chunk)
            for item in numeric[1:]:
                mask = mask & item.cover(chunk)
            bits = bits & np.packbits(mask)
        return bits

    @staticmethod
    def _split(itemset: Itemset) -> tuple[Itemset, tuple]:
        """Partition an itemset into (categorical part, numeric items)."""
        numeric = tuple(
            i for i in itemset if not isinstance(i, CategoricalItem)
        )
        if not numeric:
            return itemset, numeric
        return Itemset(
            i for i in itemset if isinstance(i, CategoricalItem)
        ), numeric

    # ------------------------------------------------------------------
    # CountingBackend interface
    # ------------------------------------------------------------------

    def cover_of(self, itemset: Itemset) -> Cover:
        categorical, numeric = self._split(itemset)
        return Cover(
            [
                self._segment(c, categorical, numeric)
                for c in range(len(self._sizes))
            ],
            self._sizes,
        )

    def group_counts_batch(self, itemsets) -> np.ndarray:
        """Stacked counts: per chunk, the batch's packed coverages are
        ANDed against the group stack in slabs and popcounted."""
        parts = [self._split(itemset) for itemset in itemsets]
        self._tally_batch(len(parts))
        self.batch_fallbacks += sum(1 for _, numeric in parts if numeric)
        n_groups = self.dataset.n_groups
        out = np.zeros((len(parts), n_groups), dtype=np.int64)
        if not parts:
            return out
        for c in range(len(self._sizes)):
            stacked = np.stack(
                [self._segment(c, cat, num) for cat, num in parts]
            )
            stack = self._stacks[c]
            slab = max(1, _BATCH_SLAB_BYTES // max(1, stack.nbytes))
            for start in range(0, len(parts), slab):
                rows = stacked[start : start + slab, None, :]
                out[start : start + slab] += popcount_rows(rows & stack)
        return out

    def cover_group_counts(self, cover: Cover) -> np.ndarray:
        """Per-group counts of a packed cover: one AND + popcount per
        chunk against the group stacks, never unpacking."""
        self.count_calls += 1
        if cover.chunk_sizes != self._sizes:
            raise DatasetError(
                f"cover chunks {cover.chunk_sizes} do not match the "
                f"dataset's {self._sizes}"
            )
        return cover.group_counts(self._stacks)

    # ------------------------------------------------------------------

    def cache_info(self) -> dict:
        """Introspection for tests and benches."""
        return {
            "entries": len(self._cache),
            "capacity": self.cache_size,
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "index_bytes": sum(
                bits.nbytes for index in self._items
                for bits in index.values()
            ) + sum(s.nbytes for s in self._stacks),
        }
