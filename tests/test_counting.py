"""Packed counting against the unpacked reference.

Every counting operation of the one backend — :class:`BitmapBackend`
over an in-memory dataset (one chunk) and :class:`ChunkedBackend` over a
chunked store — must equal :class:`MaskBackend`, which computes the same
operations with ``Itemset.cover`` boolean masks and
``Dataset.group_counts``.  End to end, a search whose every count comes
from the reference must find the same patterns, interests and count
calls as the miner, on every dataset shape it supports, including
missing values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Attribute,
    CategoricalItem,
    ChunkedDataset,
    ContrastSetMiner,
    Dataset,
    Interval,
    Itemset,
    MinerConfig,
    NumericItem,
    Schema,
)
from repro.core.cover import Cover
from repro.core.instrumentation import MiningStats
from repro.counting import (
    BackendCounters,
    BitmapBackend,
    ChunkedBackend,
    CountingBackend,
    MaskBackend,
    backend_from_config,
)
from repro.dataset.synthetic import (
    simulated_dataset_1,
    simulated_dataset_2,
    simulated_dataset_3,
    simulated_dataset_4,
)
from repro.dataset.table import DatasetError
from repro.dataset.uci import adult

from .conftest import mine_with_reference


def _mine_both(dataset, config=None, **mine_kwargs):
    """``(reference, packed)``: the serial search counted by the unpacked
    reference, and the miner; each as ``(fingerprint, interests, stats)``."""
    config = config or MinerConfig(max_tree_depth=2, k=50)
    patterns, interests, stats = mine_with_reference(
        dataset, config, **mine_kwargs
    )
    packed = ContrastSetMiner(config).mine(dataset, **mine_kwargs)
    return (
        (_fingerprint(patterns), interests, stats),
        (_fingerprint(packed.patterns), packed.interests, packed.stats),
    )


def _fingerprint(patterns):
    return [(p.itemset, p.counts) for p in patterns]


def _packed(dataset, tmp_path, chunk_size=97):
    """The packed backend over the dataset as one chunk, and over a
    ragged-chunk store of the same rows."""
    store = ChunkedDataset.pack(tmp_path / "store", dataset,
                                chunk_size=chunk_size)
    return [BitmapBackend(dataset), ChunkedBackend(store.view())]


def _itemsets(dataset):
    """Empty, single-item, two-item categorical and mixed itemsets."""
    cat = [
        CategoricalItem(name, label)
        for name in dataset.schema.categorical_names
        for label in dataset.attribute(name).categories
    ]
    num = [
        NumericItem(name, Interval(0.0, 0.5, True, True))
        for name in dataset.schema.continuous_names
    ]
    pairs = [
        Itemset([a, b]) for a in cat for b in cat + num
        if a.attribute != b.attribute
    ]
    return [Itemset()] + [Itemset([i]) for i in cat + num] + pairs


class TestRegistry:
    """Which backend a dataset gets, and what the config accepts."""

    def test_backends_satisfy_protocol(self, mixed_dataset, tmp_path):
        reference = MaskBackend(mixed_dataset)
        for backend in _packed(mixed_dataset, tmp_path) + [reference]:
            assert isinstance(backend, CountingBackend)

    def test_config_validates_backend(self):
        with pytest.raises(ValueError, match="'mask' was removed"):
            MinerConfig(counting_backend="mask")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="counting_backend"):
            MinerConfig(counting_backend="roaring")

    def test_one_backend_whatever_the_config(self, mixed_dataset):
        config = MinerConfig(backend_cache_size=3)
        backend = backend_from_config(config, mixed_dataset)
        assert type(backend) is BitmapBackend
        assert backend.cache_size == 3


class TestBackendUnits:
    """Each packed operation equals the unpacked reference."""

    def test_empty_itemset_counts_everything(self, mixed_dataset,
                                             tmp_path):
        expected = [mixed_dataset.group_sizes]
        for backend in _packed(mixed_dataset, tmp_path):
            counts = backend.group_counts_batch([Itemset()])
            assert [tuple(counts[0])] == expected
            full = backend.full_cover()
            assert tuple(backend.cover_group_counts(full)) == expected[0]

    def test_categorical_itemset_parity(self, categorical_dataset,
                                        tmp_path):
        reference = MaskBackend(categorical_dataset)
        itemsets = [
            s for s in _itemsets(categorical_dataset)
            if all(isinstance(i, CategoricalItem) for i in s)
        ]
        expected = reference.group_counts_batch(itemsets)
        for backend in _packed(categorical_dataset, tmp_path):
            np.testing.assert_array_equal(
                backend.group_counts_batch(itemsets), expected
            )
            for itemset in itemsets:
                np.testing.assert_array_equal(
                    backend.cover_of(itemset).to_dense(),
                    reference.cover_of(itemset).to_dense(),
                )

    def test_mixed_itemset_parity(self, mixed_dataset, tmp_path):
        reference = MaskBackend(mixed_dataset)
        itemsets = _itemsets(mixed_dataset)
        assert any(
            any(isinstance(i, NumericItem) for i in s) for s in itemsets
        )
        expected = reference.group_counts_batch(itemsets)
        for backend in _packed(mixed_dataset, tmp_path):
            np.testing.assert_array_equal(
                backend.group_counts_batch(itemsets), expected
            )
            for itemset in itemsets:
                cover = backend.cover_of(itemset)
                assert cover.chunk_sizes == backend.dataset.chunk_sizes
                np.testing.assert_array_equal(
                    cover.to_dense(), itemset.cover(mixed_dataset)
                )
                np.testing.assert_array_equal(
                    backend.cover_group_counts(cover),
                    reference.cover_group_counts(
                        reference.cover_of(itemset)
                    ),
                )

    def test_mask_group_counts_parity(self, mixed_dataset, tmp_path, rng):
        """Counts inside an arbitrary row mask, packed along each
        backend's chunks."""
        mask = rng.random(mixed_dataset.n_rows) < 0.3
        expected = mixed_dataset.group_counts(mask)
        for backend in _packed(mixed_dataset, tmp_path):
            cover = Cover.from_dense(mask, backend.dataset.chunk_sizes)
            np.testing.assert_array_equal(
                backend.cover_group_counts(cover), expected
            )

    def test_bitmap_rejects_non_boolean_mask(self, mixed_dataset):
        with pytest.raises(ValueError, match="boolean"):
            Cover.from_dense(np.ones(mixed_dataset.n_rows, dtype=np.int64))

    def test_rejects_a_cover_over_other_chunks(self, mixed_dataset,
                                               tmp_path):
        for backend in _packed(mixed_dataset, tmp_path, chunk_size=400):
            wrong = Cover.full((100, mixed_dataset.n_rows - 100))
            with pytest.raises(DatasetError, match="chunks"):
                backend.cover_group_counts(wrong)


class TestCounters:
    def test_count_calls_recorded(self, categorical_dataset):
        backend = BitmapBackend(categorical_dataset)
        itemset = Itemset([CategoricalItem("tool", "T1")])
        backend.group_counts_batch([itemset, itemset])
        backend.cover_group_counts(backend.cover_of(itemset))
        counters = backend.counters()
        assert counters.count_calls == 3
        assert counters.batch_calls == 1
        assert counters.batched_candidates == 2

    def test_publish_is_delta_based(self, categorical_dataset):
        """Publishing twice must not double-count the first batch."""
        backend = BitmapBackend(categorical_dataset)
        itemset = Itemset([CategoricalItem("tool", "T1")])
        stats = MiningStats()
        backend.group_counts_batch([itemset])
        backend.publish(stats)
        assert stats.count_calls == 1
        backend.group_counts_batch([itemset])
        backend.publish(stats)
        assert stats.count_calls == 2
        assert stats.counting_backend == "bitmap"

    def test_counters_arithmetic(self):
        a = BackendCounters(10, 4, 6)
        b = BackendCounters(3, 1, 2)
        assert (a - b) == BackendCounters(7, 3, 4)
        assert (a + b) == BackendCounters(13, 5, 8)

    def test_mixed_candidates_are_tallied(self, mixed_dataset):
        backend = BitmapBackend(mixed_dataset)
        backend.group_counts_batch(_itemsets(mixed_dataset))
        numeric = [
            s for s in _itemsets(mixed_dataset)
            if any(isinstance(i, NumericItem) for i in s)
        ]
        assert backend.counters().batch_fallbacks == len(numeric)


class TestLRUCache:
    def test_cache_hits_on_shared_prefix(self, categorical_dataset):
        backend = BitmapBackend(categorical_dataset)
        base = Itemset(
            [
                CategoricalItem("tool", "T1"),
                CategoricalItem("shift", "day"),
            ]
        )
        backend.group_counts_batch([base])
        assert backend.counters().cache_misses == 1
        backend.group_counts_batch([base])
        assert backend.counters().cache_hits == 1

    def test_tiny_cache_evicts_but_stays_correct(self, categorical_dataset):
        small = BitmapBackend(categorical_dataset, cache_size=1)
        reference = MaskBackend(categorical_dataset)
        itemsets = [
            Itemset(
                [
                    CategoricalItem("tool", tool),
                    CategoricalItem("shift", shift),
                ]
            )
            for tool in ("T1", "T2", "T3")
            for shift in ("day", "night")
        ]
        for itemset in itemsets * 2:
            np.testing.assert_array_equal(
                small.group_counts_batch([itemset]),
                reference.group_counts_batch([itemset]),
            )
        assert small.cache_info()["entries"] <= 1

    def test_entries_are_per_chunk(self, categorical_dataset, tmp_path):
        """One entry per (chunk, context): the cache bound is entries x
        chunk bytes."""
        store = ChunkedDataset.pack(tmp_path / "s", categorical_dataset,
                                    chunk_size=300)
        backend = ChunkedBackend(store.view(), cache_size=2)
        itemset = Itemset(
            [CategoricalItem("tool", "T1"), CategoricalItem("shift", "day")]
        )
        backend.group_counts_batch([itemset])
        assert store.n_chunks == 3
        assert backend.cache_info()["entries"] == 2
        assert backend.counters().cache_misses == 3


@pytest.mark.parametrize(
    "factory",
    [
        simulated_dataset_1,
        simulated_dataset_2,
        simulated_dataset_3,
        simulated_dataset_4,
    ],
)
def test_end_to_end_parity_simulated(factory):
    dataset = factory(n=800)
    reference, packed = _mine_both(dataset)
    assert reference[0] == packed[0]
    assert reference[1] == packed[1]


def test_end_to_end_parity_adult_sample():
    dataset = adult(scale=0.05)
    reference, packed = _mine_both(
        dataset, MinerConfig(max_tree_depth=2, k=100)
    )
    assert reference[0] == packed[0]


def test_end_to_end_parity_categorical_only_adult():
    dataset = adult(scale=0.05)
    categorical = [
        n for n in dataset.schema.names
        if dataset.attribute(n).is_categorical
    ]
    reference, packed = _mine_both(
        dataset,
        MinerConfig(max_tree_depth=3, k=100),
        attributes=categorical,
    )
    assert reference[0] == packed[0]
    # depth 3 over shared depth-2 prefixes must exercise the LRU cache
    assert packed[2].cache_hits > 0


def test_end_to_end_parity_with_missing_values(rng):
    """NaN continuous cells cover no interval, packed or not."""
    n = 500
    group = rng.integers(0, 2, n)
    x = np.where(
        group == 0, rng.uniform(0, 0.5, n), rng.uniform(0.5, 1.0, n)
    )
    x[rng.random(n) < 0.15] = np.nan
    color = rng.integers(0, 3, n)
    schema = Schema.of(
        [
            Attribute.continuous("x"),
            Attribute.categorical("color", ["red", "green", "blue"]),
        ]
    )
    dataset = Dataset(
        schema, {"x": x, "color": color}, group, ["A", "B"]
    )
    assert dataset.has_missing
    reference, packed = _mine_both(dataset)
    assert reference[0] == packed[0]
    assert packed[0]  # the planted contrast must survive


def test_parity_survives_group_selection():
    dataset = adult(scale=0.05)
    labels = dataset.group_labels[:2]
    reference, packed = _mine_both(dataset, groups=labels)
    assert reference[0] == packed[0]


def test_count_call_totals_agree(categorical_dataset):
    """Both backends answer the identical sequence of count queries."""
    reference, packed = _mine_both(categorical_dataset)
    assert reference[2].count_calls == packed[2].count_calls
    assert reference[2].counting_backend == "mask"
    assert packed[2].counting_backend == "bitmap"
