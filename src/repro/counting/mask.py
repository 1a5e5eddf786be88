"""Unpacked reference counting, for tests.

:class:`MaskBackend` answers the three counting operations of the
:class:`~repro.counting.base.CountingBackend` protocol the plain way —
``Itemset.cover`` boolean masks over full columns and
``Dataset.group_counts`` bincounts — so the packed
:class:`~repro.counting.bitmap.BitmapBackend` has an independent oracle.
The miner never builds one; tests hand it to the search layers directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..core.cover import Cover
from .base import CountingBackendBase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.items import Itemset

__all__ = ["MaskBackend"]


class MaskBackend(CountingBackendBase):
    """Count supports with fresh boolean masks per itemset."""

    name = "mask"

    def cover_of(self, itemset: "Itemset") -> Cover:
        return Cover.from_dense(
            itemset.cover(self.dataset), self.dataset.chunk_sizes
        )

    def group_counts_batch(self, itemsets) -> np.ndarray:
        masks = [itemset.cover(self.dataset) for itemset in itemsets]
        self._tally_batch(len(masks))
        out = np.zeros((len(masks), self.dataset.n_groups), dtype=np.int64)
        for i, mask in enumerate(masks):
            out[i] = self.dataset.group_counts(mask)
        return out

    def cover_group_counts(self, cover: Cover) -> np.ndarray:
        self.count_calls += 1
        return self.dataset.group_counts(cover.to_dense())
