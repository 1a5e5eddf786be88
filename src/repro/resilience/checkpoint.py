"""Level-boundary checkpoints for long mining runs.

The level-wise search has a natural persistence point: between levels the
entire mining state is a handful of driver-side structures (the top-k
list, the viable-itemset index with its patterns, the pure-itemset
registry, the alpha ladder, the accumulated stats and prune table).
:func:`save_checkpoint` snapshots exactly that state after each completed
level; :func:`load_checkpoint` restores it so
``ContrastSetMiner.resume(path)`` reproduces the uninterrupted run's
patterns *and* prune accounting bit-for-bit.

Checkpoints are versioned pickles (the state contains live ``Itemset`` /
``TopKList`` / ``PruneTable`` objects and the dataset's numpy columns —
the same objects already shipped to pool workers, so pickle is the
round-trip-exact format; a JSON envelope would have to re-invent their
encodings).  Every anomaly a loader can meet — truncated file, foreign
pickle, unknown schema version, a checkpoint written under a different
:class:`MinerConfig` or against different data — raises a
:class:`CheckpointError` with a clear message, never a silent wrong
result.  Only load checkpoints you (or your pipeline) wrote: like every
pickle, the format is not safe against adversarial files.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # imported lazily to keep config -> resilience acyclic
    from ..core.config import MinerConfig
    from ..core.contrast import ContrastPattern
    from ..core.instrumentation import MiningStats
    from ..core.items import Itemset
    from ..core.pruning import PruneTable
    from ..core.stats import AlphaLadder
    from ..core.topk import TopKList
    from ..dataset.table import Dataset

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "MiningCheckpoint",
    "dataset_fingerprint",
    "save_checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
    "checkpoint_path",
    "ensure_compatible",
]

CHECKPOINT_VERSION = 1
_MAGIC = "repro-mining-checkpoint"
_FILE_PATTERN = "checkpoint-level-*.pkl"


class CheckpointError(RuntimeError):
    """A checkpoint could not be loaded or does not match this run."""


def dataset_fingerprint(dataset: "Dataset") -> dict[str, Any]:
    """Identity of a dataset for resume-compatibility checks.

    Shape alone (rows, schema, group sizes) is too coarse — two runs of a
    generator easily collide — so the fingerprint also digests the actual
    column values and group codes.
    """
    import hashlib

    import numpy as np

    digest = hashlib.sha256()
    for name in dataset.schema.names:
        digest.update(np.ascontiguousarray(dataset.column(name)).tobytes())
    digest.update(np.ascontiguousarray(dataset.group_codes).tobytes())
    return {
        "n_rows": int(dataset.n_rows),
        "schema": list(dataset.schema.names),
        "group_labels": list(dataset.group_labels),
        "group_sizes": [int(s) for s in dataset.group_sizes],
        "content": digest.hexdigest(),
    }


@dataclass
class MiningCheckpoint:
    """Complete between-levels state of a level-wise mining run."""

    config: "MinerConfig"
    dataset: "Dataset"
    completed_level: int
    attributes: tuple[str, ...] | None
    topk: "TopKList"
    viable_by_prefix: dict[tuple[str, ...], list["Itemset"]]
    previous_patterns: dict["Itemset", "ContrastPattern"]
    known_pure: list["Itemset"]
    ladder: "AlphaLadder"
    stats: "MiningStats"
    prune_table: "PruneTable"
    fingerprint: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.fingerprint:
            self.fingerprint = dataset_fingerprint(self.dataset)


def checkpoint_path(directory: str | os.PathLike, level: int) -> Path:
    """Canonical file name of the checkpoint for a completed level."""
    return Path(directory) / f"checkpoint-level-{level:02d}.pkl"


def save_checkpoint(
    directory: str | os.PathLike, state: MiningCheckpoint
) -> Path:
    """Atomically write a level-boundary checkpoint; returns its path.

    The file appears under its final name only after a complete write
    (temp file + ``os.replace``), so a run killed mid-checkpoint leaves
    the previous level's file intact and never a half-written one under
    a loadable name.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = checkpoint_path(directory, state.completed_level)
    payload = {
        "magic": _MAGIC,
        "version": CHECKPOINT_VERSION,
        "state": state,
    }
    fd, tmp_name = tempfile.mkstemp(
        dir=directory, prefix=".checkpoint-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def latest_checkpoint(directory: str | os.PathLike) -> Path | None:
    """The deepest-level checkpoint file in a directory, if any."""
    candidates = sorted(Path(directory).glob(_FILE_PATTERN))
    return candidates[-1] if candidates else None


def load_checkpoint(path: str | os.PathLike) -> MiningCheckpoint:
    """Load a checkpoint file (or the latest one in a directory).

    Raises :class:`CheckpointError` for anything that is not a complete,
    current-version repro checkpoint.  Config values retired since the
    checkpoint was written load as their replacement
    (:data:`repro.core.config.RETIRED_VALUES`).
    """
    path = Path(path)
    if path.is_dir():
        found = latest_checkpoint(path)
        if found is None:
            raise CheckpointError(
                f"no {_FILE_PATTERN!r} files in directory {path}"
            )
        path = found
    if not path.exists():
        raise CheckpointError(f"checkpoint file not found: {path}")
    try:
        with path.open("rb") as handle:
            payload = pickle.load(handle)
    except Exception as exc:
        raise CheckpointError(
            f"unreadable checkpoint {path} (truncated or not a pickle): "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise CheckpointError(
            f"{path} is not a repro mining checkpoint"
        )
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has schema version {version!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    state = payload.get("state")
    if not isinstance(state, MiningCheckpoint):
        raise CheckpointError(
            f"checkpoint {path} payload is malformed "
            f"(expected MiningCheckpoint, got {type(state).__name__})"
        )
    # imported here: repro.core.config imports this package
    from ..core.config import RETIRED_VALUES

    for (key, old), new in RETIRED_VALUES.items():
        if getattr(state.config, key, None) == old:
            state.config = replace(state.config, **{key: new})
    return state


def ensure_compatible(
    state: MiningCheckpoint,
    config: "MinerConfig | None" = None,
    dataset: "Dataset | None" = None,
) -> None:
    """Refuse to resume under a different config or against other data."""
    if config is not None and config != state.config:
        raise CheckpointError(
            "checkpoint was written under a different MinerConfig; "
            "resume with the original configuration "
            f"(checkpoint: {state.config!r})"
        )
    if dataset is not None:
        fingerprint = dataset_fingerprint(dataset)
        if fingerprint != state.fingerprint:
            raise CheckpointError(
                "checkpoint was written against a different dataset "
                f"(checkpoint fingerprint {state.fingerprint}, "
                f"got {fingerprint})"
            )
