"""Batch-vs-scalar kernel equivalence suite (DESIGN.md §12).

The vectorized evaluation engine is pinned against the scalar reference
kernels here:

* the packed backend's ``group_counts_batch`` rows equal the unpacked
  reference's, and each equals counting the candidate's own packed
  cover (property-based);
* every vectorized kernel (chi-square, expected counts, prune
  predicates, optimistic estimates, interest measures) matches its
  scalar counterpart element for element — bit-identical where the
  kernel docstring promises it, else to 1e-12;
* the ``--explain-prunes`` report annotates how each rule's checks ran.

End-to-end patterns and prune accounting are pinned by the stored
fixtures ``tests/data/golden_patterns.json`` and
``tests/data/golden_accounting.json``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Attribute,
    CategoricalItem,
    ContrastPattern,
    ContrastSetMiner,
    Dataset,
    Itemset,
    MinerConfig,
    Schema,
)
from repro.baselines.stucco import stucco
from repro.core import measures
from repro.core.items import Interval, NumericItem
from repro.core.optimistic import (
    chi_square_estimate,
    chi_square_estimate_batch,
    support_difference_estimate,
    support_difference_estimate_batch,
)
from repro.core.pipeline import format_prune_report
from repro.core.pruning import (
    expected_count_prunes,
    expected_count_prunes_batch,
    is_pure_space,
    is_pure_space_batch,
    minimum_deviation_prunes,
    minimum_deviation_prunes_batch,
)
from repro.core.stats import (
    chi_square_counts,
    chi_square_counts_batch,
    min_expected_count,
    min_expected_count_batch,
)
from repro.counting import BitmapBackend, MaskBackend


# ----------------------------------------------------------------------
# packed group_counts_batch == reference rows == per-candidate covers
# ----------------------------------------------------------------------


def _assert_batch_matches(backend, dataset, itemsets):
    batch = backend.group_counts_batch(itemsets)
    assert batch.shape == (len(itemsets), dataset.n_groups)
    assert batch.dtype == np.int64
    assert np.array_equal(
        batch, MaskBackend(dataset).group_counts_batch(itemsets)
    )
    for i, itemset in enumerate(itemsets):
        assert np.array_equal(
            batch[i], backend.cover_group_counts(backend.cover_of(itemset))
        )


@st.composite
def dataset_and_itemsets(draw):
    """A small mixed dataset plus a batch of random candidate itemsets."""
    n = draw(st.integers(20, 120))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    group = rng.integers(0, draw(st.integers(2, 3)), n)
    n_groups = int(group.max()) + 1
    schema = Schema.of(
        [
            Attribute.continuous("x"),
            Attribute.continuous("y"),
            Attribute.categorical("c", ["u", "v"]),
        ]
    )
    dataset = Dataset(
        schema,
        {
            "x": rng.uniform(0, 1, n),
            "y": rng.normal(0, 1, n),
            "c": rng.integers(0, 2, n),
        },
        group,
        [f"G{i}" for i in range(n_groups)],
    )

    def interval_item(attr):
        lo, hi = sorted(
            draw(
                st.tuples(
                    st.floats(-2, 2, allow_nan=False),
                    st.floats(-2, 2, allow_nan=False),
                )
            )
        )
        if lo == hi:
            return NumericItem(attr, Interval(lo, hi, True, True))
        return NumericItem(
            attr, Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))
        )

    itemsets = []
    for _ in range(draw(st.integers(0, 8))):
        items = []
        if draw(st.booleans()):
            items.append(CategoricalItem("c", draw(st.sampled_from("uv"))))
        if draw(st.booleans()):
            items.append(interval_item("x"))
        if draw(st.booleans()):
            items.append(interval_item("y"))
        itemsets.append(Itemset(items))
    return dataset, itemsets


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=dataset_and_itemsets())
def test_group_counts_batch_matches_stacked_scalar(data):
    dataset, itemsets = data
    _assert_batch_matches(BitmapBackend(dataset), dataset, itemsets)


def test_group_counts_batch_matches_scalar_chunked(tmp_path, mixed_dataset):
    from repro.counting.chunked import ChunkedBackend
    from repro.dataset.chunked import ChunkedDataset

    store = ChunkedDataset.pack(
        tmp_path / "store", mixed_dataset, chunk_size=97
    )
    backend = ChunkedBackend(store.view())
    itemsets = [
        Itemset(),
        Itemset([CategoricalItem("color", "red")]),
        Itemset([NumericItem("x", Interval(0.0, 0.5))]),
        Itemset(
            [
                CategoricalItem("color", "blue"),
                NumericItem("x", Interval(0.25, 0.75, True, False)),
            ]
        ),
    ]
    _assert_batch_matches(backend, mixed_dataset, itemsets)


def test_group_counts_batch_empty_input(mixed_dataset):
    for backend in (MaskBackend(mixed_dataset), BitmapBackend(mixed_dataset)):
        out = backend.group_counts_batch([])
        assert out.shape == (0, mixed_dataset.n_groups)
        assert out.dtype == np.int64


# ----------------------------------------------------------------------
# vectorized kernels == per-row scalar kernels
# ----------------------------------------------------------------------


@st.composite
def counts_matrices(draw):
    """Random ``(N, G)`` count rows with valid per-group sizes.

    Includes the degenerate rows the kernels special-case: all-zero
    rows, rows covering a whole group, and zero-size groups.
    """
    g = draw(st.integers(2, 4))
    n = draw(st.integers(1, 12))
    sizes = draw(
        st.lists(st.integers(0, 40), min_size=g, max_size=g).filter(
            lambda s: sum(s) > 0
        )
    )
    rows = [
        [draw(st.integers(0, size)) for size in sizes] for _ in range(n)
    ]
    return np.asarray(rows, dtype=np.int64), tuple(sizes)


_KERNEL_SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_KERNEL_SETTINGS
@given(data=counts_matrices())
def test_chi_square_batch_bit_identical(data):
    counts, sizes = data
    stat, p, dof = chi_square_counts_batch(counts, sizes)
    for i, row in enumerate(counts):
        scalar = chi_square_counts(row, sizes)
        # bit-identical, not merely close: the mining fingerprints and
        # the golden parity suite depend on it
        assert stat[i] == scalar.statistic
        assert p[i] == scalar.p_value
        assert dof[i] == scalar.dof


@_KERNEL_SETTINGS
@given(data=counts_matrices())
def test_min_expected_count_batch_bit_identical(data):
    counts, sizes = data
    batch = min_expected_count_batch(counts, sizes)
    for i, row in enumerate(counts):
        assert batch[i] == min_expected_count(row, sizes)


@_KERNEL_SETTINGS
@given(data=counts_matrices(), delta=st.floats(0.0, 0.3))
def test_prune_predicates_batch_match_scalar(data, delta):
    counts, sizes = data
    dev = minimum_deviation_prunes_batch(counts, sizes, delta)
    exp = expected_count_prunes_batch(counts, sizes, 5.0)
    pure = is_pure_space_batch(counts)
    for i, row in enumerate(counts):
        assert bool(dev[i]) == minimum_deviation_prunes(row, sizes, delta)
        assert bool(exp[i]) == expected_count_prunes(row, sizes, 5.0)
        assert bool(pure[i]) == is_pure_space(row)


@_KERNEL_SETTINGS
@given(data=counts_matrices())
def test_optimistic_estimates_batch_bit_identical(data):
    counts, sizes = data
    chi = chi_square_estimate_batch(counts, sizes)
    db_size = int(sum(sizes))
    diff = support_difference_estimate_batch(counts, sizes, db_size, 1, 2)
    for i, row in enumerate(counts):
        assert chi[i] == chi_square_estimate(row, sizes)
        assert diff[i] == support_difference_estimate(
            row, sizes, db_size, 1, 2
        )


@_KERNEL_SETTINGS
@given(data=counts_matrices())
def test_interest_measures_batch_match_scalar(data):
    counts, sizes = data
    labels = tuple(f"G{i}" for i in range(len(sizes)))
    item = Itemset([CategoricalItem("c", "u")])
    for name in ("support_difference", "purity_ratio", "surprising"):
        batch_fn = measures.get_batch(name)
        assert batch_fn is not None, f"no batch form registered for {name}"
        values = batch_fn(counts, sizes)
        scalar_fn = measures.get(name)
        for i, row in enumerate(counts):
            pattern = ContrastPattern(
                item, tuple(int(c) for c in row), sizes, labels
            )
            assert values[i] == pytest.approx(
                scalar_fn(pattern), abs=1e-12
            )


# ----------------------------------------------------------------------
# the --explain-prunes mode column
# ----------------------------------------------------------------------


def test_prune_report_mode_column(mixed_dataset, categorical_dataset):
    config = MinerConfig(max_tree_depth=2)
    mined = format_prune_report(
        ContrastSetMiner(config).mine(mixed_dataset).stats
    )
    gated = format_prune_report(stucco(categorical_dataset).stats)
    for report in (mined, gated):
        header = report.splitlines()[1]
        assert header.split()[-1] == "mode"
    # a mining run routes every rule check through evaluate_batch
    assert " batch" in mined
    assert " scalar" not in mined and " mixed" not in mined
    # STUCCO's expansion gate checks one candidate at a time
    (gate_row,) = [
        line for line in gated.splitlines() if "(gate)" in line
    ]
    assert gate_row.split()[-1] == "scalar"
