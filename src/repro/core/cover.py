"""Packed per-chunk row coverage — the search-state representation.

A :class:`Cover` is the set of rows a space (or categorical context)
covers, stored as one ``np.packbits`` segment per dataset chunk instead
of a dense boolean array over all rows.  This is what lets the SDAD-CS
recursion keep its per-space state at ``n_rows / 8`` bytes (and its
*working* set at O(chunk)) while staying bit-for-bit exact:

* ``packbits`` pads each segment's final byte with zero bits, and the
  padding is stable under ``&`` / ``|``, so packed boolean algebra on
  segments equals boolean algebra on the dense masks;
* per-group counting inside a cover is a packed AND + popcount against
  per-chunk group bit-stacks — exactly the integer ``bincount`` of the
  dense path, computed without ever materialising a full-row mask;
* a dense in-memory dataset is simply the one-chunk special case
  (``chunk_sizes == (n_rows,)``), so one code path serves both.

Segments may be supplied lazily as zero-argument callables; they are
materialised (and cached) on first access.

Pickling always materialises: a pickled cover is its packed bytes
(~``n_rows / 8`` plus small overhead), never a thunk.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = ["Cover", "popcount", "popcount_rows"]


if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def popcount(bits: np.ndarray) -> int:
        """Number of set bits in a packed ``uint8`` array."""
        return int(np.bitwise_count(bits).sum())

    def popcount_rows(bits: np.ndarray) -> np.ndarray:
        """Popcounts along the last axis of a packed array (one count per
        row of a 2-d group stack, one per cell of a 3-d batch)."""
        return np.bitwise_count(bits).sum(axis=-1, dtype=np.int64)

else:  # pragma: no cover - exercised only on numpy < 2.0
    _POPCOUNT_TABLE = np.array(
        [bin(i).count("1") for i in range(256)], dtype=np.uint8
    )

    def popcount(bits: np.ndarray) -> int:
        """Number of set bits in a packed ``uint8`` array."""
        return int(_POPCOUNT_TABLE[bits].sum(dtype=np.int64))

    def popcount_rows(bits: np.ndarray) -> np.ndarray:
        """Popcounts along the last axis of a packed array (one count per
        row of a 2-d group stack, one per cell of a 3-d batch)."""
        return _POPCOUNT_TABLE[bits].sum(axis=-1, dtype=np.int64)


def _packed_full(n_rows: int) -> np.ndarray:
    """Packed all-ones segment of ``n_rows`` bits (zero padding)."""
    n_words = (n_rows + 7) >> 3
    seg = np.full(n_words, 0xFF, dtype=np.uint8)
    rem = n_rows & 7
    if rem and n_words:
        seg[-1] = (0xFF << (8 - rem)) & 0xFF
    return seg


class Cover:
    """Packed per-chunk bitset over the rows of a (possibly chunked)
    dataset.

    Parameters
    ----------
    segments:
        One entry per chunk: either a packed ``uint8`` array of
        ``ceil(chunk_size / 8)`` words (``np.packbits`` layout, big bit
        order) or a zero-argument callable producing one (materialised
        lazily on first access and cached).
    chunk_sizes:
        Number of rows per chunk.  Dense datasets use ``(n_rows,)``.
    """

    __slots__ = ("_segments", "_chunk_sizes")

    def __init__(
        self,
        segments: Sequence["np.ndarray | Callable[[], np.ndarray]"],
        chunk_sizes: Sequence[int],
    ) -> None:
        self._chunk_sizes = tuple(int(n) for n in chunk_sizes)
        self._segments: list = list(segments)
        if len(self._segments) != len(self._chunk_sizes):
            raise ValueError(
                f"{len(self._segments)} segments for "
                f"{len(self._chunk_sizes)} chunks"
            )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dense(
        cls, mask: np.ndarray, chunk_sizes: Sequence[int] | None = None
    ) -> "Cover":
        """Pack a dense boolean mask, splitting at chunk boundaries."""
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or mask.ndim != 1:
            raise ValueError("mask must be a 1-d boolean array")
        if chunk_sizes is None:
            chunk_sizes = (mask.shape[0],)
        sizes = tuple(int(n) for n in chunk_sizes)
        if sum(sizes) != mask.shape[0]:
            raise ValueError(
                f"chunk sizes sum to {sum(sizes)}, mask has "
                f"{mask.shape[0]} rows"
            )
        segments = []
        offset = 0
        for n in sizes:
            segments.append(np.packbits(mask[offset:offset + n]))
            offset += n
        return cls(segments, sizes)

    @classmethod
    def full(cls, chunk_sizes: Sequence[int]) -> "Cover":
        """Cover of every row (all bits set, padding zero)."""
        sizes = tuple(int(n) for n in chunk_sizes)
        return cls([_packed_full(n) for n in sizes], sizes)

    @classmethod
    def empty(cls, chunk_sizes: Sequence[int]) -> "Cover":
        """Cover of no rows."""
        sizes = tuple(int(n) for n in chunk_sizes)
        return cls(
            [np.zeros((n + 7) >> 3, dtype=np.uint8) for n in sizes], sizes
        )

    # -- shape -------------------------------------------------------------

    @property
    def chunk_sizes(self) -> tuple[int, ...]:
        return self._chunk_sizes

    @property
    def n_chunks(self) -> int:
        return len(self._chunk_sizes)

    @property
    def n_rows(self) -> int:
        return sum(self._chunk_sizes)

    # -- segment access ----------------------------------------------------

    def segment(self, i: int) -> np.ndarray:
        """Packed words of chunk ``i`` (materialising a lazy segment)."""
        seg = self._segments[i]
        if callable(seg):
            seg = np.asarray(seg(), dtype=np.uint8)
            expected = (self._chunk_sizes[i] + 7) >> 3
            if seg.shape != (expected,):
                raise ValueError(
                    f"segment {i} produced {seg.shape}, expected "
                    f"({expected},)"
                )
            self._segments[i] = seg
        return seg

    def dense_segment(self, i: int) -> np.ndarray:
        """Chunk ``i`` as a dense boolean array of its chunk size."""
        return np.unpackbits(
            self.segment(i), count=self._chunk_sizes[i]
        ).view(np.bool_)

    def is_materialized(self, i: int) -> bool:
        return not callable(self._segments[i])

    # -- boolean algebra ---------------------------------------------------

    def _check_aligned(self, other: "Cover") -> None:
        if self._chunk_sizes != other._chunk_sizes:
            raise ValueError(
                f"covers are not chunk-aligned: {self._chunk_sizes} "
                f"vs {other._chunk_sizes}"
            )

    def __and__(self, other: "Cover") -> "Cover":
        self._check_aligned(other)
        return Cover(
            [
                self.segment(i) & other.segment(i)
                for i in range(self.n_chunks)
            ],
            self._chunk_sizes,
        )

    def __or__(self, other: "Cover") -> "Cover":
        self._check_aligned(other)
        return Cover(
            [
                self.segment(i) | other.segment(i)
                for i in range(self.n_chunks)
            ],
            self._chunk_sizes,
        )

    # -- counting ----------------------------------------------------------

    def count(self) -> int:
        """Number of covered rows."""
        return sum(popcount(self.segment(i)) for i in range(self.n_chunks))

    def group_counts(
        self, group_stacks: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Per-group covered counts against per-chunk group bit-stacks.

        ``group_stacks[i]`` is the ``(n_groups, n_words)`` packed
        membership stack of chunk ``i``.  The result equals a ``bincount``
        of the group codes inside the dense mask, computed chunk by chunk
        without densifying.
        """
        if len(group_stacks) != self.n_chunks:
            raise ValueError(
                f"{len(group_stacks)} group stacks for "
                f"{self.n_chunks} chunks"
            )
        total: np.ndarray | None = None
        for i, stack in enumerate(group_stacks):
            counts = popcount_rows(stack & self.segment(i))
            total = counts if total is None else total + counts
        if total is None:
            return np.zeros(0, dtype=np.int64)
        return total

    # -- densification -----------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Dense boolean mask over all rows (chunks concatenated)."""
        if self.n_chunks == 1:
            return self.dense_segment(0)
        out = np.empty(self.n_rows, dtype=bool)
        offset = 0
        for i, n in enumerate(self._chunk_sizes):
            out[offset:offset + n] = self.dense_segment(i)
            offset += n
        return out

    # -- misc --------------------------------------------------------------

    @property
    def nbytes_packed(self) -> int:
        """Total packed payload size in bytes (materialises segments)."""
        return sum(self.segment(i).nbytes for i in range(self.n_chunks))

    def __getstate__(self):
        # Pickles are always materialised packed words, never thunks —
        # this is what keeps checkpoint payloads at ~n_rows / 8 bytes.
        return (
            self._chunk_sizes,
            [self.segment(i) for i in range(self.n_chunks)],
        )

    def __setstate__(self, state) -> None:
        chunk_sizes, segments = state
        self._chunk_sizes = tuple(chunk_sizes)
        self._segments = list(segments)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        lazy = sum(1 for s in self._segments if callable(s))
        return (
            f"Cover(n_rows={self.n_rows}, n_chunks={self.n_chunks}, "
            f"lazy={lazy})"
        )
