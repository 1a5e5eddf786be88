"""The chunk source for counting over an out-of-core dataset.

Support counting is additive across row chunks: the contingency row of
Eq. 1 over the full table is the element-wise sum of the per-chunk rows,
and every downstream statistic is a function of that integer row, so
counting chunk by chunk is exact.  :class:`~repro.counting.bitmap.
BitmapBackend` already counts that way; :class:`ChunkedBackend` only
tells it where a :class:`~repro.dataset.chunked.ChunkedView`'s chunks
are:

* chunk sizes come from the view's manifests;
* chunk content digests key the context LRU, so appending chunks to the
  store never invalidates an entry (old chunks keep their digests);
* item bitsets and group stacks are packed straight from the chunks'
  memory-mapped code files — categorical columns are never widened to
  ``int64`` for counting;
* numeric items are evaluated on the store's per-chunk
  :class:`~repro.dataset.table.Dataset` views (bounded by the store's
  chunk LRU).

Nothing here materialises a full-row mask or the view's group codes,
which keeps mining peak RSS at O(chunk) plus the packed indexes.
"""

from __future__ import annotations

import numpy as np

from ..dataset.chunked import GROUP_FILE, ChunkedView
from ..dataset.table import Dataset
from .bitmap import DEFAULT_CACHE_SIZE, BitmapBackend

__all__ = ["ChunkedBackend"]


class ChunkedBackend(BitmapBackend):
    """Packed counting over the chunks of a :class:`ChunkedView`."""

    name = "chunked"

    def __init__(
        self, view: ChunkedView, cache_size: int = DEFAULT_CACHE_SIZE
    ) -> None:
        if not isinstance(view, ChunkedView):
            raise TypeError(
                "ChunkedBackend counts over a ChunkedView "
                "(use ChunkedDataset.view())"
            )
        self._metas = view.chunk_metas()
        super().__init__(view, cache_size)

    def _chunk_keys(self) -> tuple:
        return tuple(meta.digest for meta in self._metas)

    def _chunk_codes(self, c: int, name: str) -> np.ndarray:
        return self.dataset.chunk_store._mmap_file(self._metas[c], name)

    def _chunk_group_codes(self, c: int) -> np.ndarray:
        return self._chunk_codes(c, GROUP_FILE)

    def _chunk_dataset(self, c: int) -> Dataset:
        return self.dataset.chunk_store.chunk_dataset(
            self.dataset.chunk_indices[c]
        )
