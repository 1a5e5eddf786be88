"""Out-of-core mining: parity, payload-size, streaming and CLI contracts.

The acceptance bar for the chunked layer is *byte-identical* results:
mining a :class:`ChunkedDataset` (any chunk size, serial or parallel)
must reproduce the golden patterns AND the stored prune accounting of
mining the equivalent in-memory dataset — support counting is additive
across row chunks, so nothing may drift.
"""

import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro import ChunkedDataset, ContrastSetMiner, MinerConfig
from repro.cli import main
from repro.core.serialize import patterns_to_dicts
from repro.counting import (
    BitmapBackend,
    ChunkedBackend,
    CountingBackendBase,
    MaskBackend,
    backend_from_config,
)
from repro.dataset import synthetic, uci
from repro.dataset.io import write_csv

from .conftest import recount_with_reference
from .test_golden_accounting import FIELDS, entry_id, load_fixture, record

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_patterns.json"

LOADERS = {
    "simulated_dataset_1": synthetic.simulated_dataset_1,
    "simulated_dataset_2": synthetic.simulated_dataset_2,
    "simulated_dataset_3": synthetic.simulated_dataset_3,
    "simulated_dataset_4": synthetic.simulated_dataset_4,
    "adult": lambda: uci.adult(scale=0.15),
}

#: Deliberately awkward chunk sizes (never a divisor of the row count)
#: so the last chunk is ragged.
CHUNK_SIZES = {
    "simulated_dataset_1": 777,
    "simulated_dataset_2": 123,
    "simulated_dataset_3": 1999,
    "simulated_dataset_4": 450,
    "adult": 997,
}


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def mined_store(tmp_path_factory):
    """Mine each golden dataset's ragged-chunk store once per worker
    count (depth 2), shared by the parity tests below."""
    results = {}

    def mine(name: str, n_jobs: int = 1):
        if (name, n_jobs) not in results:
            store = ChunkedDataset.pack(
                tmp_path_factory.mktemp(name) / "store",
                LOADERS[name](),
                chunk_size=CHUNK_SIZES[name],
            )
            results[name, n_jobs] = ContrastSetMiner(
                MinerConfig(max_tree_depth=2)
            ).mine(store, n_jobs=n_jobs)
        return results[name, n_jobs]

    return mine


def _patterns(result, counted_by):
    """``bitmap``: as the packed chunked backend counted them; ``mask``:
    recounted over the view by the unpacked reference."""
    if counted_by == "mask":
        return recount_with_reference(result.dataset, result.patterns)
    return result.patterns


# ---------------------------------------------------------------------------
# Golden parity (acceptance criterion)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("counted_by", ["mask", "bitmap"])
@pytest.mark.parametrize("name", sorted(LOADERS))
def test_chunked_patterns_match_golden(golden, mined_store, name, counted_by):
    patterns = _patterns(mined_store(name), counted_by)
    assert patterns_to_dicts(patterns) == golden[name], (
        f"chunked mining drifted from golden output on {name} "
        f"(counted by {counted_by})"
    )


@pytest.mark.parametrize("counted_by", ["mask", "bitmap"])
@pytest.mark.parametrize("name", ["simulated_dataset_2", "adult"])
def test_chunked_parallel_matches_golden(golden, mined_store, name,
                                         counted_by):
    patterns = _patterns(mined_store(name, n_jobs=2), counted_by)
    assert patterns_to_dicts(patterns) == golden[name]


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_chunked_prune_accounting_matches_in_memory(mined_store, name):
    """Not just the same patterns — the stored in-memory accounting,
    every field: per-rule checks and hits, prune reasons, partitions
    evaluated, candidates, SDAD-CS calls, merges and counting calls."""
    expected = load_fixture()[entry_id(name, "bitmap", 1, 2)]
    recorded = record(mined_store(name))
    assert set(FIELDS) < set(recorded)
    assert recorded == expected


def test_parity_across_chunk_sizes(tmp_path):
    """Chunking is a storage decision, never a results decision."""
    dataset = LOADERS["simulated_dataset_3"]()
    config = MinerConfig(max_tree_depth=2)
    reference = None
    for chunk_size in (1_000_000, 500, 61):
        store = ChunkedDataset.pack(
            tmp_path / f"s{chunk_size}", dataset, chunk_size=chunk_size
        )
        got = patterns_to_dicts(ContrastSetMiner(config).mine(store).patterns)
        if reference is None:
            reference = got
        assert got == reference


def test_mining_a_view_after_append_uses_its_snapshot(tmp_path):
    dataset = LOADERS["simulated_dataset_1"]()
    store = ChunkedDataset.pack(tmp_path / "s", dataset, chunk_size=500)
    view = store.view()
    store.append(dataset, chunk_size=500)  # concurrent producer
    config = MinerConfig(max_tree_depth=2)
    result = ContrastSetMiner(config).mine(view)
    baseline = ContrastSetMiner(config).mine(dataset)
    assert patterns_to_dicts(result.patterns) == patterns_to_dicts(
        baseline.patterns
    )


# ---------------------------------------------------------------------------
# Backend dispatch and cache mechanics
# ---------------------------------------------------------------------------


def test_backend_from_config_dispatch(tmp_path, mixed_dataset):
    """One backend class; a view only swaps in its chunk source."""
    store = ChunkedDataset.pack(tmp_path / "s", mixed_dataset,
                                chunk_size=200)
    view = store.view()
    backend = backend_from_config(MinerConfig(), view)
    assert isinstance(backend, ChunkedBackend)
    assert isinstance(backend, BitmapBackend)
    assert backend.name == "chunked"
    dense = backend_from_config(MinerConfig(), mixed_dataset)
    assert type(dense) is BitmapBackend
    assert dense.name == "bitmap"


def test_chunked_backend_defines_no_counting(tmp_path, mixed_dataset):
    """The counting algorithm is written once: the chunked backend only
    supplies chunks, and only the packed backend and the unpacked test
    reference implement the three counting operations."""
    for attr in ("cover_of", "group_counts_batch", "cover_group_counts"):
        assert attr not in ChunkedBackend.__dict__
        assert attr not in CountingBackendBase.__dict__
        assert attr in BitmapBackend.__dict__
        assert attr in MaskBackend.__dict__


def test_backend_cache_size_flows_to_backends(tmp_path, mixed_dataset):
    config = MinerConfig(backend_cache_size=17)
    dense = backend_from_config(config, mixed_dataset)
    assert dense.cache_size == 17
    store = ChunkedDataset.pack(tmp_path / "s", mixed_dataset,
                                chunk_size=200)
    chunked = backend_from_config(config, store.view())
    assert chunked.cache_size == 17


def test_backend_cache_size_validation():
    with pytest.raises(ValueError, match="backend_cache_size"):
        MinerConfig(backend_cache_size=0)
    # the cache belongs to the one backend: no other setting is needed
    assert MinerConfig(backend_cache_size=8).backend_cache_size == 8


def test_counts_cache_is_digest_keyed(tmp_path, categorical_dataset):
    """Context-cache keys are (chunk content digest, itemset):
    content-addressed, so identical chunks share keys across stores and
    appended chunks can never collide with (or invalidate) existing
    entries."""
    from repro.core.items import CategoricalItem, Itemset

    a = ChunkedDataset.pack(tmp_path / "a", categorical_dataset,
                            chunk_size=300)
    b = ChunkedDataset.pack(tmp_path / "b", categorical_dataset,
                            chunk_size=300)
    itemset = Itemset(
        [CategoricalItem("shift", "day"), CategoricalItem("tool", "T1")]
    )
    backend_a = ChunkedBackend(a.view())
    backend_b = ChunkedBackend(b.view())
    counts = backend_a.group_counts_batch([itemset])
    assert np.array_equal(counts, backend_b.group_counts_batch([itemset]))
    assert set(backend_a._cache) == set(backend_b._cache)
    assert len(backend_a._cache) == a.n_chunks
    # second pass over the same view: every chunk is a cache hit
    before = backend_a.cache_hits
    backend_a.group_counts_batch([itemset])
    assert backend_a.cache_hits == before + a.n_chunks


def test_chunked_backend_counts_match_dense(tmp_path, categorical_dataset):
    from repro.core.cover import Cover
    from repro.core.items import CategoricalItem, Itemset

    store = ChunkedDataset.pack(tmp_path / "s", categorical_dataset,
                                chunk_size=137)
    view = store.view()
    backend = ChunkedBackend(view)
    dense = MaskBackend(categorical_dataset)
    itemsets = [
        Itemset([CategoricalItem("tool", tool)]) for tool in ("T1", "T2")
    ]
    assert np.array_equal(
        backend.group_counts_batch(itemsets),
        dense.group_counts_batch(itemsets),
    )
    for itemset in itemsets:
        assert np.array_equal(
            backend.cover_of(itemset).to_dense(),
            dense.cover_of(itemset).to_dense(),
        )
    mask = np.asarray(categorical_dataset.group_codes) == 0
    assert np.array_equal(
        backend.cover_group_counts(Cover.from_dense(mask, view.chunk_sizes)),
        dense.cover_group_counts(Cover.from_dense(mask)),
    )


def test_chunked_backend_rejects_dense_dataset(mixed_dataset):
    with pytest.raises(TypeError, match="ChunkedView"):
        ChunkedBackend(mixed_dataset)


# ---------------------------------------------------------------------------
# Task payloads (acceptance criterion: no whole-dataset pickling)
# ---------------------------------------------------------------------------


def test_worker_payload_does_not_scale_with_rows(tmp_path, rng):
    """The worker initializer's pickled arguments must stay tiny however
    large the packed dataset grows — workers open chunks via mmap by
    path instead of receiving arrays."""
    from repro import Attribute, Dataset, Schema

    def make(n):
        schema = Schema.of([Attribute.continuous("x")])
        return Dataset(
            schema,
            {"x": rng.uniform(0, 1, n)},
            rng.integers(0, 2, n),
            ["a", "b"],
        )

    sizes = {}
    for n in (1_000, 50_000):
        store = ChunkedDataset.pack(tmp_path / f"s{n}", make(n),
                                    chunk_size=10_000)
        view = store.view()
        config = MinerConfig(max_tree_depth=1)
        # exactly what ProcessPoolExecutor pickles per worker
        sizes[n] = len(pickle.dumps((view, config, None)))
        assert len(pickle.dumps(make(n))) > n  # dense payload scales
    assert sizes[50_000] < 4_000
    assert abs(sizes[50_000] - sizes[1_000]) < 200


def test_checkpointed_chunked_run_resumes_identically(tmp_path):
    dataset = LOADERS["simulated_dataset_1"]()
    store = ChunkedDataset.pack(tmp_path / "s", dataset, chunk_size=600)
    config = MinerConfig(max_tree_depth=2)
    ckpt = tmp_path / "ckpt"
    full = ContrastSetMiner(config).mine(store, checkpoint_dir=ckpt)
    # checkpoints embed the dataset as the tiny (path, chunks) pickle
    biggest = max(p.stat().st_size for p in ckpt.iterdir())
    assert biggest < 200_000
    files = sorted(ckpt.iterdir())
    # resume from the level-1 checkpoint and finish the run
    resumed = ContrastSetMiner(config).resume(files[0])
    assert patterns_to_dicts(resumed.patterns) == patterns_to_dicts(
        full.patterns
    )
    summary_a, summary_b = full.summary(), resumed.summary()
    assert summary_a.prune_reasons == summary_b.prune_reasons


# ---------------------------------------------------------------------------
# Streaming: appended chunks as the refresh feed
# ---------------------------------------------------------------------------


def test_streaming_consume_chunks(tmp_path, mixed_dataset):
    from repro.streaming import StreamingContrastMiner

    store = ChunkedDataset.pack(tmp_path / "s", mixed_dataset,
                                chunk_size=200)
    miner = StreamingContrastMiner(
        mixed_dataset.schema,
        mixed_dataset.group_labels,
        MinerConfig(max_tree_depth=1),
        window_size=1_000,
        refresh_every=200,
        min_rows=100,
    )
    updates = miner.consume_chunks(store)
    assert len(updates) == store.n_chunks
    assert any(u.refreshed for u in updates)
    assert updates[-1].rows_seen == mixed_dataset.n_rows
    # nothing new: no re-feeding of already-consumed chunks
    assert miner.consume_chunks(store) == []
    # a producer appends; the next poll consumes exactly the new chunks
    store.append(mixed_dataset, chunk_size=300)
    more = miner.consume_chunks(store)
    assert len(more) == store.n_chunks - len(updates)
    assert more[-1].rows_seen == 2 * mixed_dataset.n_rows


def test_streaming_chunk_feed_matches_direct_updates(tmp_path,
                                                     mixed_dataset):
    from repro.streaming import StreamingContrastMiner

    def build():
        return StreamingContrastMiner(
            mixed_dataset.schema,
            mixed_dataset.group_labels,
            MinerConfig(max_tree_depth=1),
            window_size=1_000,
            refresh_every=150,
            min_rows=100,
        )

    store = ChunkedDataset.pack(tmp_path / "s", mixed_dataset,
                                chunk_size=150)
    via_chunks = build()
    chunk_updates = via_chunks.consume_chunks(store)
    via_direct = build()
    direct_updates = [
        via_direct.update_dataset(chunk) for chunk in store.iter_chunks()
    ]
    assert [u.refreshed for u in chunk_updates] == [
        u.refreshed for u in direct_updates
    ]
    assert patterns_to_dicts(via_chunks.current_patterns) == (
        patterns_to_dicts(via_direct.current_patterns)
    )


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


@pytest.fixture
def csv_path(tmp_path, mixed_dataset):
    path = tmp_path / "data.csv"
    write_csv(mixed_dataset, path)
    return str(path)


class TestDatasetCli:
    def test_pack_info_mine(self, tmp_path, csv_path, capsys):
        store = str(tmp_path / "store")
        assert main(["dataset", "pack", csv_path, "--group", "group",
                     "--store", store, "--chunk-size", "150"]) == 0
        assert "4 chunks" in capsys.readouterr().out
        assert main(["dataset", "info", store, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "600 rows in 4 chunks" in out
        assert "all digests match" in out
        assert main(["mine", store, "--depth", "2", "--top", "3"]) == 0
        assert "chunked backend" in capsys.readouterr().out

    def test_verify_clean_store(self, tmp_path, csv_path, capsys):
        store = str(tmp_path / "store")
        main(["dataset", "pack", csv_path, "--group", "group",
              "--store", store, "--chunk-size", "150"])
        capsys.readouterr()
        assert main(["dataset", "verify", store]) == 0
        out = capsys.readouterr().out
        # one line per chunk, each reporting ok
        chunk_lines = [ln for ln in out.splitlines()
                       if ln.startswith("chunk-")]
        assert len(chunk_lines) == 4
        assert all(ln.endswith("ok") for ln in chunk_lines)
        assert "all digests match" in out

    def test_verify_corrupt_store_exits_2(self, tmp_path, csv_path,
                                          capsys):
        store_dir = tmp_path / "store"
        main(["dataset", "pack", csv_path, "--group", "group",
              "--store", str(store_dir), "--chunk-size", "150"])
        capsys.readouterr()
        victim = sorted((store_dir / "chunks").iterdir())[1] / "x.bin"
        blob = bytearray(victim.read_bytes())
        blob[0] ^= 0xFF
        victim.write_bytes(bytes(blob))
        assert main(["dataset", "verify", str(store_dir)]) == 2
        captured = capsys.readouterr()
        chunk_lines = [ln for ln in captured.out.splitlines()
                       if ln.startswith("chunk-")]
        # every chunk is still reported; exactly one is corrupt
        assert len(chunk_lines) == 4
        assert sum("CORRUPT" in ln for ln in chunk_lines) == 1
        assert "CORRUPT" in chunk_lines[1]
        assert "1 of 4 chunks corrupt" in captured.err

    def test_append_and_group_alignment(self, tmp_path, csv_path,
                                        mixed_dataset, capsys):
        store = str(tmp_path / "store")
        main(["dataset", "pack", csv_path, "--group", "group",
              "--store", store, "--chunk-size", "300"])
        capsys.readouterr()
        # append a CSV holding only group "B" rows: labels are a subset
        # in a different discovery order, and must re-code cleanly
        only_b = mixed_dataset.select_groups(["B", "A"]).restrict(
            np.asarray(mixed_dataset.select_groups(["B", "A"]).group_codes)
            == 0
        )
        b_csv = tmp_path / "b.csv"
        write_csv(only_b, b_csv)
        labels_before = ChunkedDataset(store).group_labels
        assert main(["dataset", "append", str(b_csv),
                     "--store", store]) == 0
        assert "appended" in capsys.readouterr().out
        reopened = ChunkedDataset(store)
        # appends re-code onto the store's existing label order
        assert reopened.group_labels == labels_before
        assert reopened.n_rows == 600 + only_b.n_rows

    def test_pack_requires_group(self, tmp_path, csv_path, capsys):
        assert main(["dataset", "pack", csv_path,
                     "--store", str(tmp_path / "s")]) == 2
        assert "--group is required" in capsys.readouterr().err

    def test_mine_csv_without_group_is_exit_2(self, csv_path, capsys):
        assert main(["mine", csv_path]) == 2
        assert "--group is required" in capsys.readouterr().err

    def test_mine_store_with_wrong_group_is_exit_2(self, tmp_path,
                                                   csv_path, capsys):
        store = str(tmp_path / "store")
        main(["dataset", "pack", csv_path, "--group", "group",
              "--store", store])
        capsys.readouterr()
        assert main(["mine", store, "--group", "outcome"]) == 2
        assert "groups rows by" in capsys.readouterr().err

    def test_cache_size_flag_validation(self, csv_path, capsys):
        assert main(["mine", csv_path, "--group", "group",
                     "--cache-size", "0"]) == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_cache_size_flag_accepted(self, csv_path, capsys):
        assert main(["mine", csv_path, "--group", "group",
                     "--cache-size", "128", "--depth", "1"]) == 0

    def test_backend_flag_is_gone(self, csv_path, capsys):
        with pytest.raises(SystemExit):
            main(["mine", csv_path, "--group", "group",
                  "--backend", "bitmap"])
        assert "--backend" in capsys.readouterr().err

    def test_info_on_store_dir(self, tmp_path, csv_path, capsys):
        store = str(tmp_path / "store")
        main(["dataset", "pack", csv_path, "--group", "group",
              "--store", store])
        capsys.readouterr()
        assert main(["info", store]) == 0
        out = capsys.readouterr().out
        assert "600 rows" in out
        assert "x: continuous" in out

    def test_dataset_info_missing_store_is_exit_2(self, tmp_path, capsys):
        assert main(["dataset", "info", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err
