"""Shared fixtures and pytest/hypothesis wiring for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Attribute, Dataset, Schema

try:
    from hypothesis import settings as _hyp_settings

    _hyp_settings.register_profile("fast", max_examples=10)
    _hyp_settings.register_profile("slow", max_examples=50)
except ImportError:  # pragma: no cover - hypothesis always in the image
    _hyp_settings = None


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help=(
            "run slow tests (multi-process fault drills, deeper "
            "hypothesis profiles)"
        ),
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: slow test, only runs with --runslow"
    )
    if _hyp_settings is not None:
        profile = "slow" if config.getoption("--runslow") else "fast"
        _hyp_settings.load_profile(profile)


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow test: needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def mixed_dataset(rng) -> Dataset:
    """A small mixed dataset with one planted contrast on ``x``."""
    return make_mixed_dataset(rng)


def make_mixed_dataset(rng) -> Dataset:
    """The ``mixed_dataset`` fixture's data, built from ``rng``.

    Group "A" has x in [0, 0.5), group "B" in [0.5, 1); ``noise`` and
    ``color`` are group-independent.
    """
    n = 600
    group = rng.integers(0, 2, n)
    x = np.where(
        group == 0, rng.uniform(0, 0.5, n), rng.uniform(0.5, 1.0, n)
    )
    noise = rng.uniform(0, 1, n)
    color = rng.integers(0, 3, n)
    schema = Schema.of(
        [
            Attribute.continuous("x"),
            Attribute.continuous("noise"),
            Attribute.categorical("color", ["red", "green", "blue"]),
        ]
    )
    return Dataset(
        schema,
        {"x": x, "noise": noise, "color": color},
        group,
        ["A", "B"],
    )


@pytest.fixture
def categorical_dataset(rng) -> Dataset:
    """Pure-categorical dataset with a planted contrast on ``tool``."""
    n = 800
    group = rng.integers(0, 2, n)
    # tool "T1" is strongly over-represented in group "bad"
    tool = np.where(
        group == 1,
        rng.choice([0, 1, 2], n, p=[0.7, 0.2, 0.1]),
        rng.choice([0, 1, 2], n, p=[0.2, 0.4, 0.4]),
    )
    shift = rng.integers(0, 2, n)
    schema = Schema.of(
        [
            Attribute.categorical("tool", ["T1", "T2", "T3"]),
            Attribute.categorical("shift", ["day", "night"]),
        ]
    )
    return Dataset(
        schema,
        {"tool": tool, "shift": shift},
        group,
        ["good", "bad"],
    )


# ----------------------------------------------------------------------
# The unpacked counting reference
# ----------------------------------------------------------------------


def recount_with_reference(dataset, patterns):
    """The patterns with their per-group counts recounted by the unpacked
    reference backend (``Itemset.cover`` + ``Dataset.group_counts``)."""
    import dataclasses

    from repro.counting import MaskBackend

    rows = MaskBackend(dataset).group_counts_batch(
        [p.itemset for p in patterns]
    )
    return [
        dataclasses.replace(p, counts=tuple(int(c) for c in row))
        for p, row in zip(patterns, rows)
    ]


def mine_with_reference(dataset, config, *, groups=None, attributes=None):
    """A serial search whose every count comes from the unpacked
    reference backend; returns ``(patterns, interests, stats)``."""
    from repro.core.search import SearchEngine
    from repro.counting import MaskBackend

    if groups is not None:
        dataset = dataset.select_groups(groups)
    engine = SearchEngine(
        dataset, config, attributes, backend=MaskBackend(dataset)
    )
    topk = engine.run()
    return topk.patterns(), topk.interests(), engine.stats
