"""Golden-output parity: every execution path produces byte-identical
patterns.

``tests/data/golden_patterns.json`` holds serialised pattern lists
captured from the pre-pipeline serial miner (boolean-mask counting,
depth 2) on the paper's simulated datasets 1-4 and the Adult stand-in.
The miner must reproduce them exactly — same itemsets, same counts, same
order — for every worker count, and the unpacked reference backend must
recount every mined itemset to the same counts.  Any drift between paths
(the old parallel categorical branch disagreed with serial on Adult)
fails here.
"""

import functools
import json
from pathlib import Path

import pytest

from repro import ContrastSetMiner, MinerConfig
from repro.core.serialize import patterns_to_dicts
from repro.dataset import synthetic, uci

from .conftest import recount_with_reference

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_patterns.json"

LOADERS = {
    "simulated_dataset_1": synthetic.simulated_dataset_1,
    "simulated_dataset_2": synthetic.simulated_dataset_2,
    "simulated_dataset_3": synthetic.simulated_dataset_3,
    "simulated_dataset_4": synthetic.simulated_dataset_4,
    "adult": lambda: uci.adult(scale=0.15),
}


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@functools.lru_cache(maxsize=None)
def mined(name: str, n_jobs: int):
    config = MinerConfig(max_tree_depth=2)
    return ContrastSetMiner(config).mine(LOADERS[name](), n_jobs=n_jobs)


@pytest.mark.parametrize("counted_by", ["mask", "bitmap"])
@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(LOADERS))
def test_patterns_match_golden(golden, name, counted_by, n_jobs):
    """``bitmap``: the mined patterns as the packed backend counted them;
    ``mask``: the same itemsets recounted by the unpacked reference."""
    result = mined(name, n_jobs)
    patterns = result.patterns
    if counted_by == "mask":
        patterns = recount_with_reference(result.dataset, patterns)
    assert patterns_to_dicts(patterns) == golden[name], (
        f"{name} drifted from golden output "
        f"(counted by {counted_by}, n_jobs={n_jobs})"
    )
