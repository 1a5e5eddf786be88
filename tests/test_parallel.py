"""Tests for the level-parallel mining scheduler and the unified API."""

import numpy as np
import pytest

from repro import ContrastSetMiner, MinerConfig, MiningResult, MiningSummary
from repro.core.items import Itemset
from repro.dataset.manufacturing import scaling_dataset
from repro.parallel import mine_level_tasks, parallel_search

from .conftest import recount_with_reference
from .test_golden_accounting import entry_id, load_fixture


@pytest.fixture(scope="module")
def small_trace():
    return scaling_dataset(1200, n_features=10, seed=3)


class TestUnifiedMine:
    """``ContrastSetMiner.mine(..., n_jobs=N)`` is the one entry point."""

    def test_matches_serial_results(self, small_trace):
        # Workers run the identical PruningPipeline lifecycle with the
        # driver's per-level alpha, so the pattern lists match exactly.
        config = MinerConfig(k=20, max_tree_depth=2)
        serial = ContrastSetMiner(config).mine(small_trace)
        parallel = ContrastSetMiner(config).mine(small_trace, n_jobs=2)
        assert [(p.itemset, p.counts) for p in serial.patterns] == [
            (p.itemset, p.counts) for p in parallel.patterns
        ]

    def test_parallel_returns_mining_result(self, small_trace):
        config = MinerConfig(k=10, max_tree_depth=1)
        result = ContrastSetMiner(config).mine(small_trace, n_jobs=2)
        assert isinstance(result, MiningResult)
        assert result.n_workers == 2
        assert result.interests  # itemset -> interest mapping survives

    def test_serial_n_workers_is_one(self, small_trace):
        config = MinerConfig(k=10, max_tree_depth=1)
        result = ContrastSetMiner(config).mine(small_trace)
        assert result.n_workers == 1

    def test_invalid_n_jobs_rejected(self, small_trace):
        with pytest.raises(ValueError, match="n_jobs"):
            ContrastSetMiner().mine(small_trace, n_jobs=0)

    def test_stats_recorded(self, small_trace):
        config = MinerConfig(k=10, max_tree_depth=1)
        result = ContrastSetMiner(config).mine(small_trace, n_jobs=2)
        assert result.stats.partitions_evaluated > 0
        assert result.stats.elapsed_seconds > 0
        assert result.stats.count_calls > 0

    def test_bitmap_backend_through_workers(self, small_trace):
        """Counts made in the workers equal the unpacked reference's."""
        config = MinerConfig(k=10, max_tree_depth=2)
        result = ContrastSetMiner(config).mine(small_trace, n_jobs=2)
        assert result.patterns
        assert recount_with_reference(
            small_trace, result.patterns
        ) == result.patterns
        assert result.stats.counting_backend == "bitmap"

    def test_attribute_restriction(self, small_trace):
        names = small_trace.schema.names[:4]
        config = MinerConfig(k=10, max_tree_depth=2)
        result = ContrastSetMiner(config).mine(
            small_trace, attributes=names, n_jobs=2
        )
        for pattern in result.patterns:
            assert set(pattern.itemset.attributes) <= set(names)

    def test_summary(self, small_trace):
        config = MinerConfig(k=10, max_tree_depth=1)
        result = ContrastSetMiner(config).mine(small_trace, n_jobs=2)
        summary = result.summary()
        assert isinstance(summary, MiningSummary)
        assert summary.n_patterns == len(result)
        assert summary.n_rows == small_trace.n_rows
        assert summary.n_workers == 2
        assert summary.counting_backend == "bitmap"


class TestPruneParity:
    """Serial and parallel runs agree on prune *accounting*, not just
    patterns — the rule-ordering drift between the two paths is gone.

    Each run is pinned to ``tests/data/golden_accounting.json`` by
    ``tests/test_golden_accounting.py``; here the stored serial and
    parallel entries must agree with each other."""

    @pytest.mark.parametrize("dataset_number", [1, 2, 3, 4])
    def test_reason_counts_match_serial(self, dataset_number):
        golden = load_fixture()
        name = f"simulated_dataset_{dataset_number}"
        serial = golden[entry_id(name, "bitmap", 1, 2)]
        parallel = golden[entry_id(name, "bitmap", 2, 2)]
        assert serial == parallel


class TestRemovedShims:
    """The PR-7 deprecation shims are gone: the unified mine() is the
    only entry point, and the module namespace says so."""

    def test_mine_parallel_removed(self):
        import repro.parallel
        import repro.parallel.scheduler

        with pytest.raises(ImportError):
            from repro.parallel import mine_parallel  # noqa: F401
        assert not hasattr(repro.parallel.scheduler, "mine_parallel")
        assert "mine_parallel" not in repro.parallel.__all__

    def test_parallel_mining_result_removed(self):
        import repro.parallel
        import repro.parallel.scheduler

        with pytest.raises(ImportError):
            from repro.parallel import ParallelMiningResult  # noqa: F401
        with pytest.raises(AttributeError):
            repro.parallel.scheduler.ParallelMiningResult


class TestParallelSearch:
    def test_returns_topk_stats_workers(self, small_trace):
        config = MinerConfig(k=10, max_tree_depth=1)
        topk, stats, n_workers = parallel_search(
            small_trace, config, n_workers=2
        )
        assert topk.patterns()
        assert stats.partitions_evaluated > 0
        assert n_workers == 2


class TestLevelTasks:
    def test_level1_tasks_cover_all_attributes(self, small_trace):
        tasks = mine_level_tasks(small_trace, 1, {}, 0.1, [])
        covered = set()
        for task in tasks:
            covered.update(task.categorical)
            covered.update(task.continuous)
        assert covered == set(small_trace.schema.names)

    def test_attributes_restrict_tasks(self, small_trace):
        names = small_trace.schema.names[:3]
        tasks = mine_level_tasks(
            small_trace, 1, {}, 0.1, [], attributes=names
        )
        covered = set()
        for task in tasks:
            covered.update(task.categorical)
            covered.update(task.continuous)
        assert covered == set(names)

    def test_level2_requires_viable_prefixes(self, small_trace):
        # no viable level-1 categorical itemsets -> categorical pairs and
        # mixed combos with categorical context are skipped
        tasks = mine_level_tasks(small_trace, 2, {}, 0.1, [])
        for task in tasks:
            if task.continuous and task.categorical:
                raise AssertionError(
                    "mixed combo without viable context should be skipped"
                )
            assert task.continuous or not task.categorical or task.contexts

    def test_level2_with_viable_prefix(self, small_trace):
        cat = small_trace.schema.categorical_names[:2]
        from repro.core.items import CategoricalItem

        viable = {
            (cat[0],): [
                Itemset([CategoricalItem(cat[0], "v0")]),
            ]
        }
        tasks = mine_level_tasks(small_trace, 2, viable, 0.1, [])
        mixed = [t for t in tasks if t.continuous and t.categorical]
        assert mixed
        assert all(t.contexts for t in mixed)
