"""Golden prune accounting: the stored parity oracle for the search.

``tests/data/golden_accounting.json`` freezes the prune accounting of
every execution path the miner has — per-rule checks and hits, prune
reasons, partitions evaluated, lookup-table probes, candidate and node
counts, SDAD-CS calls, merges and counting calls — plus a sha256
fingerprint of the mined pattern list, for:

* the golden grid (the five datasets of ``golden_patterns.json`` x
  ``mask``/``bitmap`` x ``n_jobs`` 1 and 2, depth 2);
* ``mixed_dataset`` at depth 3, ``mask`` and ``bitmap``;
* the Adult stand-in (scale 1.0, seed 101) at depth 3, bitmap, with
  ``n_jobs`` 1 and 2.  The serial engine prunes against the live top-k
  threshold and pure-itemset list, a parallel level against a frozen
  snapshot, so the two evaluate different partition counts here; this
  pair keeps serial runs on live state.

Timings, ``cache_hits``/``cache_misses`` (which depend on which worker
ran which task) and the ``batch_*`` instrumentation counters are left
out.  The fixture was generated while the miner still had a second,
per-candidate scalar lifecycle beside the batch one; the generator then
mined every entry under both and refused to write unless they agreed.
The ``mask`` entries were mined with boolean-mask counting, a strategy
the miner no longer has.  Counting never steers the search, so each of
them must equal its ``bitmap`` twin, and the one backend must reproduce
both.  Regenerate (only when a change is *meant* to move the accounting;
the ``mask`` keys are then written from the one backend) with::

    PYTHONPATH=src python -m tests.test_golden_accounting --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import ContrastSetMiner, MinerConfig
from repro.core.serialize import patterns_to_dicts
from repro.dataset import uci

from .conftest import make_mixed_dataset
from .test_golden_parity import LOADERS as GOLDEN_LOADERS

ACCOUNTING_PATH = Path(__file__).parent / "data" / "golden_accounting.json"

FIELDS = (
    "prune_rule_checks",
    "prune_rule_hits",
    "prune_reasons",
    "partitions_evaluated",
    "spaces_pruned",
    "prune_table_checks",
    "prune_table_hits",
    "candidates_generated",
    "nodes_expanded",
    "sdad_calls",
    "merges_performed",
    "count_calls",
)

LOADERS = {
    **GOLDEN_LOADERS,
    "mixed_dataset": lambda: make_mixed_dataset(
        np.random.default_rng(12345)
    ),
    "adult_full": lambda: uci.adult(scale=1.0, seed=101),
}


def entry_id(name: str, backend: str, n_jobs: int, depth: int) -> str:
    return f"{name}-{backend}-jobs{n_jobs}-depth{depth}"


ENTRIES = (
    [
        (name, backend, n_jobs, 2)
        for name in sorted(GOLDEN_LOADERS)
        for backend in ("mask", "bitmap")
        for n_jobs in (1, 2)
    ]
    + [("mixed_dataset", backend, 1, 3) for backend in ("mask", "bitmap")]
    + [("adult_full", "bitmap", n_jobs, 3) for n_jobs in (1, 2)]
)


def record(result) -> dict:
    """A mining result's accounting fields and the sha256 of its
    serialised pattern list — the shape of one fixture entry."""
    recorded = {field: getattr(result.stats, field) for field in FIELDS}
    serialised = json.dumps(patterns_to_dicts(result.patterns), sort_keys=True)
    recorded["patterns_sha256"] = hashlib.sha256(
        serialised.encode()
    ).hexdigest()
    return recorded


@functools.lru_cache(maxsize=None)
def accounting(name: str, n_jobs: int, depth: int) -> dict:
    """Mine one entry (shared by its ``mask`` and ``bitmap`` keys)."""
    config = MinerConfig(max_tree_depth=depth)
    result = ContrastSetMiner(config).mine(LOADERS[name](), n_jobs=n_jobs)
    return record(result)


def load_fixture() -> dict:
    with ACCOUNTING_PATH.open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden():
    return load_fixture()


def test_fixture_covers_exactly_the_grid(golden):
    assert sorted(golden) == sorted(entry_id(*e) for e in ENTRIES)


def test_adult_serial_evaluates_on_live_state(golden):
    serial = golden[entry_id("adult_full", "bitmap", 1, 3)]
    frozen = golden[entry_id("adult_full", "bitmap", 2, 3)]
    assert serial["partitions_evaluated"] == 1305
    assert frozen["partitions_evaluated"] == 1360


def test_mask_entries_equal_their_bitmap_twins(golden):
    masks = [e for e in ENTRIES if e[1] == "mask"]
    assert len(masks) == 11
    for name, _, n_jobs, depth in masks:
        assert golden[entry_id(name, "mask", n_jobs, depth)] == golden[
            entry_id(name, "bitmap", n_jobs, depth)
        ], (name, n_jobs, depth)


@pytest.mark.parametrize(
    "name, backend, n_jobs, depth",
    ENTRIES,
    ids=[entry_id(*e) for e in ENTRIES],
)
def test_accounting_matches_fixture(golden, name, backend, n_jobs, depth):
    """The one backend mines every entry, whichever counting strategy
    recorded it."""
    expected = golden[entry_id(name, backend, n_jobs, depth)]
    assert accounting(name, n_jobs, depth) == expected


def _write() -> None:
    payload = {
        entry_id(name, backend, n_jobs, depth): accounting(name, n_jobs, depth)
        for name, backend, n_jobs, depth in ENTRIES
    }
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    ACCOUNTING_PATH.write_text(text)
    print(f"wrote {len(payload)} entries to {ACCOUNTING_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden_accounting --write")
    _write()
