"""Tests for repro.core.partition (spaces, median splits, merging)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.items import CategoricalItem, Interval, Itemset
from repro.core.partition import (
    AttributeRange,
    Space,
    are_contiguous,
    find_combinations,
    full_space,
    merged_space,
    partition_median,
)
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Dataset

from .conftest import mine_with_reference


def _dataset(x=None, y=None, groups=None):
    x = np.asarray(x if x is not None else np.linspace(0, 1, 8))
    y = np.asarray(y if y is not None else np.linspace(10, 20, len(x)))
    groups = np.asarray(
        groups if groups is not None else [0, 1] * (len(x) // 2)
    )
    schema = Schema.of(
        [Attribute.continuous("x"), Attribute.continuous("y")]
    )
    return Dataset(schema, {"x": x, "y": y}, groups, ["A", "B"])


def _root(ds, attrs=("x", "y")):
    return full_space(ds, attrs, np.ones(ds.n_rows, dtype=bool))


class TestAttributeRange:
    def test_of_dataset(self):
        ds = _dataset()
        rng = AttributeRange.of(ds, "x")
        assert rng.lo == 0.0 and rng.hi == 1.0

    def test_normalised_width(self):
        rng = AttributeRange("x", 0.0, 10.0)
        assert rng.normalised_width(Interval(2.0, 7.0)) == pytest.approx(0.5)

    def test_normalised_width_clips(self):
        rng = AttributeRange("x", 0.0, 10.0)
        assert rng.normalised_width(
            Interval(-100.0, 100.0)
        ) == pytest.approx(1.0)

    def test_zero_width_range(self):
        rng = AttributeRange("x", 5.0, 5.0)
        assert rng.normalised_width(Interval(5.0, 5.0, True, True)) == 1.0


class TestFullSpace:
    def test_root_covers_everything(self):
        ds = _dataset()
        root = _root(ds)
        assert root.total_count == ds.n_rows
        assert root.hypervolume == pytest.approx(1.0)
        assert root.intervals["x"].lo_closed
        assert root.intervals["x"].hi_closed

    def test_context_mask_respected(self):
        ds = _dataset()
        mask = np.zeros(ds.n_rows, dtype=bool)
        mask[:3] = True
        root = full_space(ds, ("x",), mask)
        assert root.total_count == 3


class TestPartitionMedian:
    def test_split_at_median(self):
        ds = _dataset(x=np.array([1.0, 2.0, 3.0, 4.0]), groups=[0, 0, 1, 1])
        root = _root(ds, ("x",))
        left, right = partition_median(ds, root, "x")
        assert left.hi == right.lo == pytest.approx(2.5)
        assert left.lo_closed and left.hi_closed
        assert not right.lo_closed and right.hi_closed

    def test_halves_partition_rows(self):
        ds = _dataset()
        root = _root(ds, ("x",))
        left, right = partition_median(ds, root, "x")
        values = ds.column("x")
        assert (left.cover(values).sum() + right.cover(values).sum()) == len(
            values
        )

    def test_constant_attribute_unsplittable(self):
        ds = _dataset(x=np.ones(6), groups=[0, 1, 0, 1, 0, 1])
        root = _root(ds, ("x",))
        assert partition_median(ds, root, "x") is None

    def test_ties_at_max_fall_back_to_lower_boundary(self):
        # median equals the max: split at the largest distinct value
        # below it so the right half stays non-empty
        ds = _dataset(
            x=np.array([1.0, 5.0, 5.0, 5.0]), groups=[0, 1, 0, 1]
        )
        root = _root(ds, ("x",))
        left, right = partition_median(ds, root, "x")
        assert left.hi == right.lo == pytest.approx(1.0)
        col = ds.column("x")
        assert left.cover(col).sum() == 1
        assert right.cover(col).sum() == 3

    def test_zero_inflated_column_splits_at_spike(self):
        # 70% zeros: the zero spike becomes a degenerate left half
        x = np.array([0.0] * 7 + [1.0, 2.0, 3.0])
        ds = _dataset(x=x, groups=[0, 1] * 5)
        root = _root(ds, ("x",))
        left, right = partition_median(ds, root, "x")
        col = ds.column("x")
        assert left.cover(col).sum() == 7
        assert right.cover(col).sum() == 3

    def test_empty_region(self):
        ds = _dataset()
        empty = Space(
            {"x": Interval(0, 1, True, True)},
            np.zeros(ds.n_rows, dtype=bool),
            np.zeros(2, dtype=np.int64),
            {},
        )
        assert partition_median(ds, empty, "x") is None


class TestFindCombinations:
    def test_two_attrs_make_four_boxes(self):
        ds = _dataset()
        root = _root(ds)
        splits = {
            "x": partition_median(ds, root, "x"),
            "y": partition_median(ds, root, "y"),
        }
        children = find_combinations(ds, root, splits)
        assert len(children) == 4
        total = sum(c.total_count for c in children)
        assert total == root.total_count

    def test_masks_are_disjoint(self):
        ds = _dataset()
        root = _root(ds)
        splits = {
            "x": partition_median(ds, root, "x"),
            "y": partition_median(ds, root, "y"),
        }
        children = find_combinations(ds, root, splits)
        stacked = np.vstack([c.cover.to_dense() for c in children])
        assert (stacked.sum(axis=0) <= 1).all()

    def test_unsplit_attribute_kept(self):
        ds = _dataset()
        root = _root(ds)
        splits = {"x": partition_median(ds, root, "x")}
        children = find_combinations(ds, root, splits)
        assert len(children) == 2
        for child in children:
            assert child.intervals["y"] == root.intervals["y"]


class TestSpace:
    def test_itemset_with_context(self):
        ds = _dataset()
        root = _root(ds, ("x",))
        context = Itemset([CategoricalItem("c", "v")])
        itemset = root.itemset_with(context)
        assert set(itemset.attributes) == {"c", "x"}

    def test_key_is_hashable_and_stable(self):
        ds = _dataset()
        a = _root(ds)
        b = _root(ds)
        assert a.key() == b.key()
        assert hash(a.key()) == hash(b.key())

    def test_hypervolume_of_half(self):
        ds = _dataset(x=np.linspace(0, 1, 9), y=np.linspace(0, 1, 9),
                      groups=[0, 1] * 4 + [0])
        root = _root(ds)
        left, right = partition_median(ds, root, "x")
        children = find_combinations(ds, root, {"x": (left, right)})
        assert children[0].hypervolume == pytest.approx(0.5)


class TestMerging:
    def _siblings(self):
        ds = _dataset()
        root = _root(ds)
        splits = {"x": partition_median(ds, root, "x")}
        return ds, find_combinations(ds, root, splits)

    def test_contiguous_siblings(self):
        __, (left, right) = self._siblings()
        assert are_contiguous(left, right)

    def test_merged_space_restores_parent(self):
        ds, (left, right) = self._siblings()
        merged = merged_space(left, right)
        assert merged.total_count == ds.n_rows
        assert merged.intervals["x"].lo == left.intervals["x"].lo
        assert merged.intervals["x"].hi == right.intervals["x"].hi

    def test_merge_counts_additive(self):
        __, (left, right) = self._siblings()
        merged = merged_space(left, right)
        assert (merged.counts == left.counts + right.counts).all()

    def test_not_contiguous_when_two_axes_differ(self):
        ds = _dataset()
        root = _root(ds)
        splits = {
            "x": partition_median(ds, root, "x"),
            "y": partition_median(ds, root, "y"),
        }
        children = find_combinations(ds, root, splits)
        # children[0] = (x-left, y-left); children[3] = (x-right, y-right)
        assert not are_contiguous(children[0], children[3])
        assert are_contiguous(children[0], children[1])

    def test_merge_non_contiguous_raises(self):
        ds = _dataset()
        root = _root(ds)
        splits = {
            "x": partition_median(ds, root, "x"),
            "y": partition_median(ds, root, "y"),
        }
        children = find_combinations(ds, root, splits)
        with pytest.raises(ValueError):
            merged_space(children[0], children[3])

    def test_different_attribute_sets_not_contiguous(self):
        ds = _dataset()
        a = _root(ds, ("x",))
        b = _root(ds, ("x", "y"))
        assert not are_contiguous(a, b)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(0, 100, allow_nan=False), min_size=4, max_size=80
    ),
)
def test_median_split_partition_property(values):
    """Property: a median split always yields two non-empty halves that
    exactly partition the region's rows, and any region with at least two
    distinct values is splittable (tie fallback included)."""
    values = np.asarray(values)
    groups = np.zeros(len(values), dtype=np.int64)
    groups[::2] = 1
    schema = Schema.of([Attribute.continuous("x")])
    ds = Dataset(schema, {"x": values}, groups, ["A", "B"])
    root = full_space(ds, ("x",), np.ones(len(values), dtype=bool))
    halves = partition_median(ds, root, "x")
    if np.unique(values).size < 2:
        assert halves is None
        return
    assert halves is not None
    left, right = halves
    col = ds.column("x")
    n_left = int(left.cover(col).sum())
    n_right = int(right.cover(col).sum())
    assert n_left + n_right == len(values)
    assert n_left >= 1 and n_right >= 1
    assert left.hi == right.lo
    # without heavy ties at the top, the median keeps the right half small
    median = float(np.median(values))
    if median < values.max():
        assert n_right <= len(values) / 2 + 1


class _FakeChunkedColumn:
    """Minimal chunked-dataset duck type for the streaming selector."""

    def __init__(self, chunks):
        self._chunks = [np.asarray(c, dtype=np.float64) for c in chunks]

    def iter_chunk_columns(self, name):
        assert name == "x"
        yield from self._chunks


def _dense_median_expectation(values):
    """The split point from ``np.median`` (None when unsplittable),
    with the sign of zero pinned to ``+0.0`` as the splitter does."""
    finite = values[~np.isnan(values)]
    if finite.size == 0:
        return None
    vmin, vmax = float(finite.min()), float(finite.max())
    if vmin == vmax:
        return None
    median = float(np.median(finite))
    if median >= vmax:
        median = float(np.unique(finite)[-2])
    return median + 0.0


def _bits(value):
    """Bytes of a float64, so ``-0.0`` and ``0.0`` differ."""
    return None if value is None else np.float64(value).tobytes()


#: Values heavy in ties and in both signed zeros, with some NaNs.
_TIE_HEAVY_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.0, -0.0, 1.0, -1.0]),
    st.integers(min_value=-3, max_value=3).map(float),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.just(float("nan")),
)

#: Chunked value lists with a matching cover mask.
_CHUNKED_SAMPLES = st.lists(
    st.lists(_TIE_HEAVY_VALUES, min_size=0, max_size=40),
    min_size=1,
    max_size=6,
)


def _draw_cover(chunks, data):
    from repro.core.cover import Cover

    sizes = tuple(len(c) for c in chunks)
    all_values = np.concatenate(
        [np.asarray(c, dtype=np.float64) for c in chunks]
    )
    mask = np.array(
        data.draw(
            st.lists(
                st.booleans(),
                min_size=all_values.size,
                max_size=all_values.size,
            )
        ),
        dtype=bool,
    )
    return all_values, mask, Cover.from_dense(mask, sizes)


class TestStreamingMedian:
    """The streaming selector reproduces np.median to the bit, with the
    gather fallback forced off via tiny budgets."""

    @given(_CHUNKED_SAMPLES, st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_np_median_bitwise(self, chunks, data):
        from repro.core import partition as part

        all_values, mask, cover = _draw_cover(chunks, data)
        fake = _FakeChunkedColumn(chunks)
        # Force the pivot loop to actually narrow: the gather fallback
        # only fires once the window is tiny.
        old = part._STREAM_GATHER_FALLBACK
        part._STREAM_GATHER_FALLBACK = 4
        try:
            got = part._streaming_median_split(fake, cover, "x")
        finally:
            part._STREAM_GATHER_FALLBACK = old
        expected = _dense_median_expectation(all_values[mask])
        assert _bits(got) == _bits(expected)  # bit-identical, sign too

    @given(_CHUNKED_SAMPLES, st.data())
    @settings(max_examples=120, deadline=None)
    def test_gather_path_matches_np_median_bitwise(self, chunks, data):
        """The gather path gives the same bytes as ``np.median`` — the
        sign of a zero split point included."""
        from repro.core import partition as part

        all_values, mask, cover = _draw_cover(chunks, data)
        fake = _FakeChunkedColumn(chunks)
        got = part._gathered_split(fake, cover, "x", "median")
        expected = _dense_median_expectation(all_values[mask])
        assert _bits(got) == _bits(expected)

    @pytest.mark.parametrize(
        "path", ["gather", "stream", "stream-narrowed"]
    )
    @pytest.mark.parametrize(
        "chunks",
        [
            [[-0.0, -0.0, 1.0]],
            [[-0.0], [-0.0, 1.0, -0.0, 2.0]],
            [[-1.0, -0.0, 0.0, 1.0]],
            [[-0.0, 0.0], [0.0, -0.0, 3.0]],
            [[-2.0, -0.0], [-0.0, -0.0, 1.0]],
        ],
    )
    def test_signed_zero_split_is_positive_zero(self, path, chunks):
        """A zero split point is always ``+0.0``, on both paths."""
        from repro.core import partition as part
        from repro.core.cover import Cover

        fake = _FakeChunkedColumn(chunks)
        cover = Cover.full(tuple(len(c) for c in chunks))
        if path == "gather":
            got = part._gathered_split(fake, cover, "x", "median")
        elif path == "stream":  # one window gather + introselect
            got = part._streaming_median_split(fake, cover, "x")
        else:  # pivot narrowing all the way down
            old = part._STREAM_GATHER_FALLBACK
            part._STREAM_GATHER_FALLBACK = 1
            try:
                got = part._streaming_median_split(fake, cover, "x")
            finally:
                part._STREAM_GATHER_FALLBACK = old
        assert _bits(got) == _bits(0.0)

    @pytest.mark.parametrize(
        "path", ["gather", "gather-mean", "stream", "stream-narrowed"]
    )
    @pytest.mark.parametrize(
        "chunks",
        [
            [[-np.inf, np.inf, -np.inf, np.inf]],
            [[-np.inf, np.inf], [np.inf, -np.inf]],
            [[np.inf], [-np.inf]],
        ],
    )
    def test_infinite_middles_split_at_the_lower_middle(self, path, chunks):
        """Middles ``-inf`` and ``+inf`` have a NaN mean; the split is
        the lower middle, ``-inf``, on every path."""
        from repro.core import partition as part
        from repro.core.cover import Cover

        fake = _FakeChunkedColumn(chunks)
        cover = Cover.full(tuple(len(c) for c in chunks))
        with np.errstate(all="raise"):
            if path.startswith("gather"):
                statistic = "mean" if path == "gather-mean" else "median"
                got = part._gathered_split(fake, cover, "x", statistic)
            elif path == "stream":
                got = part._streaming_median_split(fake, cover, "x")
            else:
                old = part._STREAM_GATHER_FALLBACK
                part._STREAM_GATHER_FALLBACK = 1
                try:
                    got = part._streaming_median_split(fake, cover, "x")
                finally:
                    part._STREAM_GATHER_FALLBACK = old
        assert got == -np.inf

    def test_partition_median_streams_large_spaces(self, monkeypatch):
        """Above the gather budget, partition_median takes the streaming
        path and still produces the dense split point exactly."""
        from repro.core import partition as part
        from repro.core.cover import Cover

        monkeypatch.setattr(part, "MEDIAN_GATHER_BUDGET", 8)
        monkeypatch.setattr(part, "_STREAM_GATHER_FALLBACK", 4)
        rng = np.random.default_rng(7)
        chunks = [rng.normal(size=20) for _ in range(4)]
        values = np.concatenate(chunks)
        sizes = (20, 20, 20, 20)

        class _FakeDataset(_FakeChunkedColumn):
            n_rows = 80

        fake = _FakeDataset(chunks)
        cover = Cover.full(sizes)
        ranges = {"x": AttributeRange("x", float(values.min()),
                                      float(values.max()))}
        space = Space(
            {"x": Interval(float(values.min()), float(values.max()),
                           True, True)},
            cover,
            np.array([80], dtype=np.int64),
            ranges,
        )
        assert space.total_count > part.MEDIAN_GATHER_BUDGET
        halves = partition_median(fake, space, "x")
        assert halves is not None
        assert _bits(halves[0].hi) == _bits(float(np.median(values)))


def _four_kth_split(values):
    """The removed selection kernel, kept as a reference: one
    ``np.partition`` with kth at the minimum, both middles and the
    maximum, and ``np.unique`` for heavy ties at the top."""
    n = values.size
    if n == 0:
        return None
    mid = n >> 1
    part = np.partition(values, sorted({0, max(mid - 1, 0), mid, n - 1}))
    vmin = float(part[0])
    vmax = float(part[-1])
    if vmin == vmax:
        return None
    if n & 1:
        median = float(part[mid])
    else:
        median = float((part[mid - 1] + part[mid]) / 2.0)
    if median >= vmax:
        median = float(np.unique(values)[-2])
    return median


def _kernel_split(values):
    """The split point ``partition_median`` picks on a dense column."""
    values = np.asarray(values, dtype=np.float64)
    schema = Schema.of([Attribute.continuous("x")])
    groups = np.zeros(values.size, dtype=np.int64)
    ds = Dataset(schema, {"x": values}, groups, ["A"])
    root = full_space(ds, ("x",), np.ones(values.size, dtype=bool))
    halves = partition_median(ds, root, "x")
    return None if halves is None else halves[0].hi


class TestSelectionKernel:
    """The one-kth kernel against the removed four-kth kernel: the same
    split bytes, up to the sign of zero."""

    INF = float("inf")

    @pytest.mark.parametrize(
        "values",
        [
            [5.0],
            [2.0, 1.0],
            [3.0, 1.0, 2.0],
            [4.0, 1.0, 3.0, 2.0],
            [9.0, 1.0, 7.0, 3.0, 5.0],
            [1.0, 2.0, 2.0, 2.0, 2.0, 3.0],
            [4.0, 2.0, 2.0, 3.0, 3.0, 1.0],
            [2.0, 2.0, 1.0, 3.0, 3.0],
            [1.0, 5.0, 5.0, 5.0],
            [0.0, 1.0, 2.0, 9.0, 9.0, 9.0, 9.0, 9.0],
            [9.0, 9.0, 9.0, 8.0],
            [-INF, 0.0, 1.0, INF],
            [1.0, INF, INF, INF],
            [-INF, -INF, -INF, 3.0],
            [-INF, 2.0, INF],
            [-0.0, 0.0, 1.0],
            [0.0, -0.0, -1.0, 1.0],
            [-0.0, -0.0, 0.0, 0.0, 0.0],
        ],
    )
    def test_matches_four_kth_reference(self, values):
        reference = _four_kth_split(np.asarray(values, dtype=np.float64))
        expected = None if reference is None else reference + 0.0
        assert _bits(_kernel_split(values)) == _bits(expected)

    @given(st.lists(_TIE_HEAVY_VALUES.filter(lambda v: v == v),
                    min_size=1, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_matches_four_kth_reference_property(self, values):
        reference = _four_kth_split(np.asarray(values, dtype=np.float64))
        expected = None if reference is None else reference + 0.0
        assert _bits(_kernel_split(values)) == _bits(expected)


@pytest.mark.parametrize("backend", ["mask", "bitmap"])
def test_one_compare_halves_equal_interval_covers(
    mixed_dataset, backend, monkeypatch
):
    """During a real depth-3 recursion, ``column <= cut`` and ``column >
    cut`` ANDed with the parent cover equal the two-sided
    ``Interval.cover`` halves ANDed with the parent, and so do the
    children ``find_combinations`` builds from them — with the packed
    backend counting, and with the unpacked reference counting."""
    from repro.core import sdad as sdad_module
    from repro.core.config import MinerConfig
    from repro.core.miner import ContrastSetMiner

    real = sdad_module.find_combinations
    checked = []

    def checking(dataset, space, splits, backend=None):
        parent = space.cover.to_dense()
        for name, (left, right) in splits.items():
            column = dataset.column(name)
            cut = left.hi
            assert np.array_equal(
                parent & (column <= cut), parent & left.cover(column)
            )
            assert np.array_equal(
                parent & (column > cut), parent & right.cover(column)
            )
        children = real(dataset, space, splits, backend)
        for child in children:
            expected = parent.copy()
            for name in splits:
                expected &= child.intervals[name].cover(
                    dataset.column(name)
                )
            assert np.array_equal(child.cover.to_dense(), expected)
        checked.append(len(splits))
        return children

    monkeypatch.setattr(sdad_module, "find_combinations", checking)
    config = MinerConfig(max_tree_depth=3)
    if backend == "mask":
        patterns = mine_with_reference(mixed_dataset, config)[0]
    else:
        patterns = ContrastSetMiner(config).mine(mixed_dataset).patterns
    assert patterns
    assert len(checked) > 10 and max(checked) == 2


@pytest.mark.parametrize("statistic", ["median", "mean"])
def test_mining_a_column_of_both_infinities_completes(statistic):
    """A column alternating ``-inf`` and ``+inf`` splits into its two
    values instead of aborting on a NaN interval endpoint."""
    from repro.core.config import MinerConfig
    from repro.core.miner import ContrastSetMiner

    x = np.tile([-np.inf, np.inf], 100)
    groups = (x > 0).astype(np.int64)
    groups[::10] = 1  # 20 of the 100 -inf rows move to group 1
    result = ContrastSetMiner(
        MinerConfig(max_tree_depth=1, split_statistic=statistic)
    ).mine(_dataset(x=x, y=np.zeros(200), groups=groups))
    counts = {
        (p.itemset.items[0].interval.lo, p.itemset.items[0].interval.hi):
        p.counts
        for p in result.patterns
    }
    assert counts[(-np.inf, -np.inf)] == (80, 20)
    assert counts[(-np.inf, np.inf)] == (0, 100)
    assert sorted(str(p.itemset) for p in result.patterns) == [
        "-inf < x <= inf", "-inf <= x <= -inf"
    ]


def test_find_combinations_rejects_a_split_that_is_not_a_median_cut():
    ds = _dataset()
    root = _root(ds, ("x",))
    lo, hi = root.intervals["x"].lo, root.intervals["x"].hi
    bad = (Interval(lo, 0.4, True, True), Interval(0.6, hi, False, True))
    with pytest.raises(ValueError, match="median cut"):
        find_combinations(ds, root, {"x": bad})
