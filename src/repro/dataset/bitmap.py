"""Bitmap index over categorical (or pre-binned) data.

Related work [29] (SciCSM) accelerates contrast set mining with bitmap
indices: one packed bit-vector per (attribute, value), itemset coverage by
bitwise AND, counting by popcount.  This module provides that substrate
for categorical datasets (bin continuous attributes first, e.g. with
:mod:`repro.baselines.discretizers`), including per-group popcounts so an
itemset's full contingency row costs ``|items| + |groups|`` vectorised
word operations.  :func:`pack_codes` is the one packing routine: the
miner's counting backend (:mod:`repro.counting.bitmap`) builds its
per-chunk item bitsets and group stacks with it too.

The ablation bench ``bench_ablation_bitmap.py`` compares this counting
path against boolean masks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.cover import popcount, popcount_rows
from ..core.items import CategoricalItem, Itemset
from .table import Dataset

__all__ = ["BitmapIndex", "pack_codes", "popcount"]


def pack_codes(codes: np.ndarray, n_codes: int) -> np.ndarray:
    """``(n_codes, ceil(len(codes) / 8))`` packed membership stack: row
    ``c`` holds the bits of ``codes == c`` (``np.packbits`` layout)."""
    return np.stack([np.packbits(codes == c) for c in range(n_codes)])


class BitmapIndex:
    """Packed-bit coverage index for the categorical attributes of a
    dataset."""

    def __init__(
        self, dataset: Dataset, attributes: Sequence[str] | None = None
    ) -> None:
        names = (
            tuple(attributes)
            if attributes is not None
            else dataset.schema.categorical_names
        )
        for name in names:
            if not dataset.attribute(name).is_categorical:
                raise ValueError(
                    f"bitmap index needs categorical attributes; "
                    f"{name!r} is continuous (bin it first)"
                )
        self.dataset = dataset
        self.attributes = names
        self.n_rows = dataset.n_rows
        self._bitmaps: dict[tuple[str, str], np.ndarray] = {}
        for name in names:
            categories = dataset.attribute(name).categories
            stack = pack_codes(dataset.column(name), len(categories))
            for label, bits in zip(categories, stack):
                self._bitmaps[(name, label)] = bits
        self._groups = pack_codes(dataset.group_codes, dataset.n_groups)
        self._full = np.packbits(np.ones(self.n_rows, dtype=bool))

    # ------------------------------------------------------------------

    @property
    def full_bits(self) -> np.ndarray:
        """Packed all-ones vector (coverage of the empty itemset)."""
        return self._full

    @property
    def group_bitmaps(self) -> tuple[np.ndarray, ...]:
        """One packed membership vector per group, in group order."""
        return tuple(self._groups)

    def item_bitmap(self, item: CategoricalItem) -> np.ndarray:
        """The packed coverage bits of one item."""
        try:
            return self._bitmaps[(item.attribute, item.value)]
        except KeyError:
            raise KeyError(
                f"no bitmap for {item}; index covers {self.attributes}"
            ) from None

    def cover_bits(self, itemset: Itemset) -> np.ndarray:
        """Packed coverage of an itemset (AND of its item bitmaps)."""
        bits = self._full
        for item in itemset:
            if not isinstance(item, CategoricalItem):
                raise ValueError(
                    "bitmap index covers categorical items only"
                )
            bits = bits & self.item_bitmap(item)
        return bits

    @staticmethod
    def popcount(bits: np.ndarray) -> int:
        """Number of set bits in a packed vector."""
        return popcount(bits)

    def count(self, itemset: Itemset) -> int:
        """Total rows covered by an itemset."""
        return self.popcount(self.cover_bits(itemset))

    def group_counts(self, itemset: Itemset) -> np.ndarray:
        """Per-group covered counts — the miner's core statistic."""
        return popcount_rows(self._groups & self.cover_bits(itemset))

    def supports(self, itemset: Itemset) -> np.ndarray:
        counts = self.group_counts(itemset).astype(float)
        sizes = np.array(self.dataset.group_sizes, dtype=float)
        out = np.zeros_like(counts)
        np.divide(counts, sizes, out=out, where=sizes > 0)
        return out

    def memory_bytes(self) -> int:
        """Bytes held by all bitmaps (the space-efficiency argument)."""
        total = sum(b.nbytes for b in self._bitmaps.values())
        return total + self._groups.nbytes + self._full.nbytes
