"""Tree construction, routing, and in-place extension."""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from imondrian.data_io import load_model, save_model
from imondrian.errors import DimensionMismatchError
from imondrian.forest import ForestConfig, _leaf_depth, train_batch
from imondrian.tree import NO_NODE, Forest, _cut, _uniforms, as_points

from helpers import (
    arena_state,
    bbox_oracle,
    check_arena_invariants,
    check_tree_invariants,
    depth_oracle,
    deterministic,
    leaf_constraint_table,
    random_dataset,
    scored_depth,
    structurally_equal,
    tree_bits,
)
from reference import _cut_rule, extend_tree, fit_tree, path_length, uniform, view, views, walk


def _assert_boxes_are_smallest_blocks(tree, X):
    """Every node's box is the componentwise min/max of the training points
    routed through it, and its population is their count."""
    routed = {}
    for x in X:
        for node in walk(tree, x):
            routed.setdefault(node, []).append(x)
    assert sorted(routed) == list(range(tree.size))
    for node, pts in routed.items():
        lo, hi = bbox_oracle(pts)
        assert np.array_equal(tree.box_min[node], lo)
        assert np.array_equal(tree.box_max[node], hi)
        assert tree.population[node] == len(pts)


class TestSmallestBlock:
    """The build gives each node the tightest box around its points."""

    def test_two_points(self):
        tree = fit_tree([(0.0, 0.0), (1.0, 3.0)], key=0)
        assert np.array_equal(tree.box_min[tree.root], [0.0, 0.0])
        assert np.array_equal(tree.box_max[tree.root], [1.0, 3.0])

    def test_singleton_is_degenerate(self):
        tree = fit_tree([(2.0, 2.0)], key=0)
        assert np.array_equal(tree.box_min[tree.root], [2.0, 2.0])
        assert np.array_equal(tree.box_max[tree.root], [2.0, 2.0])

    def test_matches_componentwise_scan(self):
        pts = [(1.0, 5.0), (4.0, 1.0), (2.0, 2.0)]
        tree = fit_tree(pts, key=1)
        assert np.array_equal(tree.box_min[tree.root], [1.0, 1.0])
        assert np.array_equal(tree.box_max[tree.root], [4.0, 5.0])
        _assert_boxes_are_smallest_blocks(tree, np.array(pts))

    def test_random_sets_match_scan(self):
        rng = np.random.default_rng(11)
        sets = [random_dataset(rng, int(rng.integers(2, 80)), int(rng.integers(1, 6))) for _ in range(8)]
        sets.append(rng.normal(size=(40, 1)))
        sets.append(np.repeat(rng.normal(size=(4, 3)), 3, axis=0))
        for i, X in enumerate(sets):
            for tree in views(train_batch(X, ForestConfig(num_trees=3, psi=None, seed=i))):
                _assert_boxes_are_smallest_blocks(tree, X)

    def test_zero_bounds_are_positive_zero(self):
        # a column of 0.0 and -0.0 used to give a -0.0 bound from the build
        # and a +0.0 one from the reference, as numpy's reductions paired them
        rng = np.random.default_rng(12)
        X = rng.uniform(1.0, 2.0, size=(24, 3))
        X[:, 0] = np.where(rng.random(24) < 0.5, 0.0, -0.0)
        X[:12, 1] = np.where(np.arange(12) % 2, 0.0, -0.0)
        for sample_size in (None, 8):
            arena = Forest.grow(X, np.arange(4), sample_size)
            for t in range(4):
                tree, used = view(arena, t), arena.size[t]
                for box in (tree.box_min[:used], tree.box_max[:used]):
                    assert not np.signbit(box[box == 0.0]).any()
        assert tree_bits(view(Forest.grow(X, [0]), 0)) == tree_bits(fit_tree(X, key=0))

    def test_empty_set_is_no_rows(self):
        assert as_points([]).shape == (0, 0)
        assert as_points([], 3).shape == (0, 3)
        with pytest.raises(DimensionMismatchError):
            as_points(np.zeros((0, 2)), 3)

    def test_mixed_dimensionality_rejected(self):
        with pytest.raises(DimensionMismatchError):
            as_points([(1.0, 2.0), (1.0, 2.0, 3.0)])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            as_points([(1.0, np.nan)])

    def test_points_without_coordinates_rejected(self):
        for bad in (np.zeros((5, 0)), [[], []]):
            with pytest.raises(DimensionMismatchError):
                as_points(bad)
        with pytest.raises(DimensionMismatchError):
            as_points([[]])


class TestAsPoint:
    """A single point is validated as a one-row point set."""

    def test_valid_points(self):
        assert as_points([2.5])[0].tolist() == [2.5]
        assert as_points([[1, 2]], dim=2)[0].tolist() == [1.0, 2.0]
        assert as_points([np.array([3.0, -1.0])])[0].dtype == np.float64

    @pytest.mark.parametrize(
        "x, dim, error",
        [
            (7.0, 2, DimensionMismatchError),
            ([[1.0, 2.0]], None, DimensionMismatchError),
            ([], None, DimensionMismatchError),
            ([1.0, 2.0], 3, DimensionMismatchError),
            ([1.0, np.inf], None, ValueError),
            ([np.nan], 1, ValueError),
        ],
        ids=["scalar-of-wrong-dimension", "2-d", "empty", "wrong-dimension", "infinite", "nan"],
    )
    def test_error_types(self, x, dim, error):
        with pytest.raises(ValueError) as raised:
            as_points([x], dim)[0]
        assert type(raised.value) is error

    def test_coordinates_that_are_not_real_numbers(self):
        # text and complex values are refused as such, not as ragged input,
        # and a complex array converts without a ComplexWarning
        for bad in (["a", "b"], [1 + 2j], [[1, "x"]], np.array([1 + 2j])):
            for check in (bad, [bad]):
                with pytest.raises(ValueError, match="not real numbers") as raised:
                    as_points(check)
                assert type(raised.value) is ValueError
        with pytest.raises(DimensionMismatchError, match="single dimensionality"):
            as_points([(1.0, 2.0), (1.0,)])


_MASK = (1 << 64) - 1


def _unmix(z: int) -> int:
    """The input whose SplitMix64 finaliser is z: each xorshift and odd
    multiplier inverted, last step first."""

    def unshift(y: int, s: int) -> int:
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK
    return unshift(z, 30)


class TestUniforms:
    """The per-tree draws: uniform k of key c is a hash of (c, k)."""

    @pytest.mark.parametrize("z, u", [(0, 2.0**-53), (_MASK, 1.0 - 2.0**-53)], ids=["bits-0", "bits-1"])
    def test_extremes_lie_inside_the_unit_interval(self, z, u):
        key = (_unmix(z) - 0x9E3779B97F4A7C15) & _MASK  # counter 0 hashes key + gamma
        assert _uniforms(np.array([key], np.uint64), np.zeros(1, np.uint64)).tolist() == [u]
        assert uniform(key, 0) == u

    def test_vectorised_hash_matches_python_ints(self):
        rng = np.random.default_rng(3)
        key = np.concatenate([rng.integers(0, _MASK, size=200, dtype=np.uint64), np.array([0, _MASK], np.uint64)])
        counter = np.concatenate([rng.integers(0, 1 << 40, size=200, dtype=np.uint64), np.array([0, _MASK - 1], np.uint64)])
        got = _uniforms(key, counter)
        assert got.tolist() == [uniform(c, k) for c, k in zip(key.tolist(), counter.tolist())]
        assert ((0.0 < got) & (got < 1.0)).all()


def _two_point_roots(points, trees: int, seed: int):
    """(split dimension, split value, split time) of the root of each of
    ``trees`` trees built on two points, each tree with its own key."""
    arena = Forest.grow(np.array(points, dtype=float), np.random.SeedSequence(seed).generate_state(trees, np.uint64))
    rows = np.arange(trees)
    return arena.split_dim[rows, arena.root], arena.split_val[rows, arena.root], arena.split_time[rows, arena.root]


class TestSampleSplit:
    """The build's split law: Exp(linear dimension) waiting times, a
    dimension drawn in proportion to its side, a uniform cut value."""

    def test_dimension_drawn_proportional_to_side(self):
        draws = 20_000
        q, _, _ = _two_point_roots([[0.0, 0.0], [1.0, 3.0]], draws, seed=5)
        # P(q = dim2) = 3/4; allow ~3 sigma of binomial noise
        assert abs(np.count_nonzero(q == 1) / draws - 0.75) < 0.01

    def test_zero_width_dimension_never_chosen(self):
        q, p, _ = _two_point_roots([[0.0, 5.0], [1.0, 5.0]], 500, seed=6)
        assert np.all(q == 0)
        assert np.all((0.0 < p) & (p < 1.0))

    def test_exponential_mean_matches_rate(self):
        draws = 100_000
        _, _, e = _two_point_roots([[0.0, 0.0], [2.0, 2.0]], draws, seed=7)
        se = 0.25 / math.sqrt(draws)  # Exp(4): mean = sd = 1/4
        assert abs(e.mean() - 0.25) < 3 * se

    def test_split_value_inside_chosen_side(self):
        lo, hi = np.array([-1.0, 3.0, 0.0]), np.array([2.0, 3.5, 0.25])
        q, p, e = _two_point_roots([lo, hi], 500, seed=8)
        assert np.all(e > 0.0)
        assert np.all((lo[q] <= p) & (p <= hi[q]))


# the law tests' point sets, with the seeds of their batch-built and extended
# arenas; each set's arenas are extended with its last three points. Six
# points in 2-D, the last far out; six in 1-D, the last far out; and six in
# 2-D whose fifth repeats the second, so that extension absorbs it in a leaf
LAW_SETS = [
    (np.array([[0.0, 0.0], [1.0, 0.5], [0.3, 2.0], [2.0, 1.0], [1.5, 1.8], [9.0, 7.0]]), 101, 202),
    (np.array([[0.0], [1.0], [0.4], [2.0], [1.5], [9.0]]), 303, 404),
    (np.array([[0.0, 0.0], [1.0, 0.5], [0.3, 2.0], [2.0, 1.0], [1.0, 0.5], [9.0, 7.0]]), 505, 606),
]
LAW_TREES = 20_000
LAW_LEVEL = 1e-4  # fixed and strict: the seeds make each p-value a constant


def _law_arena(points, seed: int, extra=()) -> Forest:
    """LAW_TREES trees, each with its own key, built on ``points`` and then
    extended with each point of ``extra`` in turn."""
    arena = Forest.grow(points, np.random.SeedSequence(seed).generate_state(LAW_TREES, np.uint64))
    for x in extra:
        arena.extend(x)
    return arena


def _no_leaf_term(population: np.ndarray) -> np.ndarray:
    """A ``Forest.route`` leaf depth of 0 for every leaf, so that its
    sums are edge counts."""
    return np.zeros(population.shape)


def _root_sides(arena, X) -> np.ndarray:
    """Per tree, the bit mask of the rows of X on the same side of the root
    cut as row 0."""
    rows = np.arange(arena.num_trees)
    right = X[:, arena.split_dim[rows, arena.root]] >= arena.split_val[rows, arena.root]
    return ((right == right[0]) * (1 << np.arange(X.shape[0]))[:, None]).sum(axis=0)


def _depths(arena, x) -> np.ndarray:
    """Per tree, the depth of the leaf x reaches: one level walk over ``child``."""
    T, C = arena.population.shape
    split_dim, split_val = arena.split_dim.ravel(), arena.split_val.ravel()
    node = np.arange(T) * C + arena.root
    depth = np.zeros(T, dtype=np.int64)
    while True:
        nxt = arena.child[(x[split_dim[node]] >= split_val[node]) * T * C + node]
        moved = nxt != node
        if not moved.any():
            return depth
        depth += moved
        node = nxt


def _same_law_p(a, b) -> float:
    """Chi-square p-value that two samples of a discrete variable share one
    law; the values seen fewer than 10 times in the two together share one cell."""
    special = pytest.importorskip("scipy.special")  # a third of the import time of scipy.stats
    values, counts = np.unique(np.concatenate([a, b]), return_counts=True)
    table = np.array([[np.count_nonzero(sample == v) for v in values] for sample in (a, b)])
    sparse = counts < 10
    if sparse.any():
        table = np.column_stack([table[:, ~sparse], table[:, sparse].sum(axis=1)])
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
    return special.chdtrc(table.shape[1] - 1, ((table - expected) ** 2 / expected).sum())


def _same_mean_p(a_sum: float, b_sum: float, a, b) -> float:
    """Welch's two-sided p-value that two samples share one mean, given each
    sample's sum and its values (for the variances)."""
    special = pytest.importorskip("scipy.special")
    (na, va), (nb, vb) = ((x.size, x.var(ddof=1) / x.size) for x in (a, b))
    t = (a_sum / na - b_sum / nb) / math.sqrt(va + vb)
    df = (va + vb) ** 2 / (va**2 / (na - 1) + vb**2 / (nb - 1))
    return 2.0 * special.stdtr(df, -abs(t))


class TestExtensionLaw:
    """Extending trees built on the first three points of a set with the
    other three gives trees distributed like trees built on all six
    (projectivity of the Mondrian process; Lakshminarayanan, Roy & Teh 2014).
    Each test checks every set of LAW_SETS."""

    @pytest.fixture(scope="class")
    def arenas(self):
        """(points, batch-built arena, extended arena) of each set."""
        return [(X, _law_arena(X, built), _law_arena(X[:3], extended, X[3:])) for X, built, extended in LAW_SETS]

    def test_root_partition(self, arenas):
        for X, built, extended in arenas:
            assert _same_law_p(_root_sides(built, X), _root_sides(extended, X)) > LAW_LEVEL

    @pytest.mark.parametrize("i", range(6))
    def test_depth_of_each_point(self, arenas, i):
        for X, built, extended in arenas:
            assert _same_law_p(_depths(built, X[i]), _depths(extended, X[i])) > LAW_LEVEL

    @pytest.fixture(scope="class")
    def route_sums(self, arenas):
        """Each set's Forest.route sums in its two arenas, without the
        leaf term that a duplicate's leaf would add: E(l)'s edge count as
        scoring takes it."""
        return [[arena.route(X, _no_leaf_term) for arena in pair] for X, *pair in arenas]

    @pytest.mark.parametrize("i", range(6))
    def test_mean_depth_of_each_point(self, arenas, route_sums, i):
        for (X, *pair), sums in zip(arenas, route_sums):
            depths = [_depths(arena, X[i]) for arena in pair]
            assert [s[i] for s in sums] == [d.sum() for d in depths]
            assert _same_mean_p(sums[0][i], sums[1][i], *depths) > LAW_LEVEL

    def test_root_split_time_is_exponential_in_linear_dimension(self, arenas):
        # the root of a Mondrian on a box splits after Exp(its linear dimension)
        stats = pytest.importorskip("scipy.stats")
        for X, _, extended in arenas:
            rate = (X.max(axis=0) - X.min(axis=0)).sum()
            times = extended.split_time[np.arange(extended.num_trees), extended.root]
            assert stats.kstest(times, "expon", args=(0.0, 1.0 / rate)).pvalue > LAW_LEVEL


class TestFitTree:
    def test_single_point_is_leaf(self):
        tree = fit_tree([(3.0, 4.0)], key=0)
        assert tree.size == 1
        assert tree.left[tree.root] == NO_NODE
        assert tree.population[tree.root] == 1
        assert tree.split_time[tree.root] == math.inf

    def test_two_points_gives_one_cut(self):
        for seed in range(10):
            tree = fit_tree([0.0, 1.0], key=seed)  # two 1-D points
            assert tree.size == 3
            assert tree.left[tree.root] != NO_NODE
            assert 0.0 < tree.split_val[tree.root] < 1.0

    def test_eight_points_proper_binary(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(size=(8, 2))
        tree = fit_tree(pts, key=3)
        counts = check_tree_invariants(tree, points=pts, expected_population=8)
        assert counts == {"leaves": 8, "internals": 7}

    def test_identical_points_collapse_to_leaf(self):
        tree = fit_tree([(1.0, 2.0)] * 5, key=9)
        assert tree.size == 1
        assert tree.population[tree.root] == 5

    def test_overflowing_linear_dimension_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            fit_tree([[-1e308, -1e308], [1e308, 1e308]], key=0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            fit_tree([], key=0)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(50, 3))
        a = fit_tree(pts, key=123)
        b = fit_tree(pts, key=123)
        c = fit_tree(pts, key=124)
        assert structurally_equal(a, b)
        assert not structurally_equal(a, c)

    def test_invariants_across_random_datasets(self):
        rng = np.random.default_rng(77)
        for i in range(25):
            n = int(rng.integers(1, 120))
            d = int(rng.integers(1, 6))
            X = random_dataset(rng, n, d)
            tree = fit_tree(X, key=1000 + i)
            check_tree_invariants(tree, points=X, expected_population=n)

    def test_slots_are_breadth_first(self):
        X = np.random.default_rng(12).normal(size=(200, 3))
        tree = fit_tree(X, key=4)
        depth = np.zeros(tree.size, dtype=int)
        for node in range(1, tree.size):
            assert tree.parent[node] < node
            depth[node] = depth[tree.parent[node]] + 1
        assert tree.root == 0 and tree.parent[0] == NO_NODE
        assert np.all(np.diff(depth) >= 0)

    def test_zero_waiting_time_is_rounded_up(self, monkeypatch):
        # the root's clock, counter 0, is made to give a waiting time of 0, as
        # a rate near the largest float can; the root's time is then the
        # smallest float above its parent time 0, and nothing is redrawn:
        # each split node takes the three counters of its level
        def zero_first_clock(key, counter):
            u = _uniforms(key, counter)
            if counter.ndim == 2 and counter[0, 0] == 0:
                u[0, 0] = 0.0
            return u

        monkeypatch.setattr("imondrian.tree._uniforms", zero_first_clock)
        X = np.random.default_rng(13).normal(size=(10, 2))
        tree = view(Forest.grow(X, [5]), 0)
        assert tree.split_time[tree.root] == np.nextafter(0.0, 1.0)
        assert tree.draws == 3 * (tree.size - 1) // 2
        check_tree_invariants(tree, points=X, expected_population=10)

    def test_cut_on_lower_end_moves_to_upper_end(self, monkeypatch):
        def zero_cuts(key, counter):
            u = _uniforms(key, counter)
            if counter.ndim == 2:  # the build's (clock, dimension, value) rows
                u[:, 1:] = 0.0
            return u

        monkeypatch.setattr("imondrian.tree._uniforms", zero_cuts)
        X = np.random.default_rng(14).normal(size=(10, 2))
        tree = view(Forest.grow(X, [0]), 0)
        # each cut lands on dim 0 at the box's upper end: the largest point goes right
        assert tree.split_dim[tree.root] == 0
        assert tree.split_val[tree.root] == X[:, 0].max()
        assert tree.population[tree.right[tree.root]] == 1
        check_tree_invariants(tree, points=X, expected_population=10)

    def test_level_reranks_after_infinite_split_times(self):
        # the box of (0, 0) and (5e-324, 0) has a subnormal rate, so its split
        # time is infinite and it stays a leaf with its draws spent, while
        # nodes of its level split; the level's splits are then ranked again.
        # In this 20-tree build of seed 0, four levels do so
        X = np.array([(0, 0), (5e-324, 0), (10, 10), (11, 10.5), (12, 11), (13, 15), (3, 7), (8, 1)], dtype=float)
        forest = train_batch(X, ForestConfig(num_trees=20, psi=None, seed=0))
        check_arena_invariants(forest, points=X, expected_population=8)
        TC = forest.population.size
        leaf = (forest.child[:TC] == np.arange(TC)).reshape(forest.population.shape)
        wide = (forest.box_max > forest.box_min).any(axis=2)
        assert np.count_nonzero(leaf & wide & (forest.population > 1)) >= 4
        for t, tree in enumerate(views(forest)):
            assert tree_bits(tree) == tree_bits(fit_tree(X, key=int(forest.key[t])))


# a key whose counter 3 is the smallest uniform, 2**-53: its finaliser
# input, key + 4 * 0x9E3779B97F4A7C15, hashes to 7, whose top 52 bits are 0
TIED_KEY = (_unmix(7) - 4 * 0x9E3779B97F4A7C15) & _MASK


def _tiny_share(period: int, offset: int):
    """``_uniforms`` with every counter c where c % period == offset drawing
    the smallest uniform, 2**-53: a waiting time below half an ulp of most
    parent times."""

    def draw(key, counter):
        return np.where(counter % np.uint64(period) == offset, 2.0**-53, _uniforms(key, counter))

    return draw


class TestTiedSplitTimes:
    """A waiting time too small to move its parent's time is rounded up to
    the next float above it, in the build and in extension alike, so a child
    always splits after its parent."""

    def test_build_rounds_a_tied_time_up(self):
        # counter 3 is the clock of the two-point node at depth 1
        assert uniform(TIED_KEY, 3) == 2.0**-53
        X = np.array([[0.0], [5.0], [10.0]])
        forest = Forest.grow(X, np.array([TIED_KEY], dtype=np.uint64))
        tree = view(forest, 0)
        inner = [node for node in (tree.left[tree.root], tree.right[tree.root]) if tree.left[node] != NO_NODE]
        assert len(inner) == 1
        assert tree.split_time[inner[0]] == np.nextafter(tree.split_time[tree.root], np.inf)
        assert tree.draws == 6
        check_arena_invariants(forest, points=X, expected_population=3)
        assert tree_bits(tree) == tree_bits(fit_tree(X, key=TIED_KEY))

    def test_extension_rounds_a_tied_time_up(self, tmp_path):
        # the point lands inside the root's box, outside its leaf's: the
        # leaf is the one candidate, and its clock is counter 3
        forest = Forest.grow(np.array([[0.0], [10.0]]), np.array([TIED_KEY], dtype=np.uint64))
        reference = fit_tree([[0.0], [10.0]], key=TIED_KEY)
        x = np.array([0.999 * forest.split_val[0, forest.root[0]]])
        assert x.tolist() == [2.8116187174231153]
        forest.extend(x)
        extend_tree(reference, x)
        tree = view(forest, 0)
        assert tree.size == 5 and tree.draws == 6
        spliced = tree.left[tree.root] if tree.left[tree.left[tree.root]] != NO_NODE else tree.right[tree.root]
        assert tree.split_time[spliced] == np.nextafter(tree.split_time[tree.root], np.inf)
        assert tree_bits(tree) == tree_bits(reference)
        check_arena_invariants(forest, expected_population=3)
        save_model(forest, tmp_path / "model.imf")
        assert tree_bits(view(load_model(tmp_path / "model.imf"), 0)) == tree_bits(tree)

    @deterministic(80)
    @given(
        data=st.data(),
        period=st.integers(1, 4),
        arrivals=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=8),
    )
    def test_forests_stay_valid_under_tiny_waits(self, tmp_path_factory, data, period, arrivals):
        offset = data.draw(st.integers(0, period - 1), label="offset")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="data seed"))
        d = data.draw(st.integers(1, 3), label="d")
        X = rng.normal(size=(data.draw(st.integers(2, 24), label="n"), d))
        stream = np.array(arrivals)[:, None] * rng.uniform(0.5, 1.5, size=(len(arrivals), d))
        path = tmp_path_factory.mktemp("tied") / "model.imf"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("imondrian.tree._uniforms", _tiny_share(period, offset))
            forest = Forest.grow(X, np.arange(4, dtype=np.uint64), data.draw(st.none() | st.just(2), label="m"))
            for x in stream:
                forest.extend(x)
        check_arena_invariants(forest)
        save_model(forest, path)
        loaded = load_model(path)
        assert [tree_bits(tree) for tree in views(loaded)] == [tree_bits(tree) for tree in views(forest)]


class TestCut:
    def test_roundoff_past_the_last_width_takes_the_last_positive_one(self):
        # with the largest uniform, 1 - 2**-53, a subnormal rate rounds
        # u * rate up to rate, so every cumulative width is within it and the
        # raw q is d; the cut falls back to the last positive width
        widths = np.array([[5e-324, 0.0], [0.0, 5e-324], [2.5e-323, 5e-324]])
        rate = widths.sum(axis=1)
        u = np.tile([1.0 - 2.0**-53, 0.5], (3, 1))
        assert (u[:, 0] * rate == rate).all()
        assert ((np.cumsum(widths, axis=1) <= rate[:, None]).sum(axis=1) == 2).all()
        lo, hi = np.zeros_like(widths), widths
        q, p = _cut(lo, hi, widths, rate, u)
        assert q.tolist() == [0, 1, 1]
        rows = np.arange(3)
        assert ((lo[rows, q] < p) & (p <= hi[rows, q])).all()
        for i in rows:
            assert (q[i], p[i]) == _cut_rule(widths[i], rate[i], lo[i], hi[i], u[i])


class TestPathLength:
    def test_single_leaf_depth_zero(self):
        tree = fit_tree([(1.0,)], key=0)
        assert path_length([5.0], tree) == 0

    def test_one_cut_depth_one(self):
        tree = fit_tree([0.0, 1.0], key=2)
        for x in (-10.0, 0.3, 0.9, 42.0):
            assert path_length([x], tree) == 1

    def test_matches_constraint_table_oracle(self):
        rng = np.random.default_rng(5)
        for seed in range(8):
            pts = rng.uniform(size=(8, 2))
            tree = fit_tree(pts, key=seed)
            depths = [path_length(x, tree) for x in pts]
            assert depths == [depth_oracle(tree, x) for x in pts]
            # mean routed depth of training points == mean leaf depth
            table_mean = np.mean([d for _, d, _ in leaf_constraint_table(tree)])
            assert np.mean(depths) == table_mean

    def test_dimension_mismatch_rejected(self):
        tree = fit_tree([(0.0, 0.0), (1.0, 1.0)], key=0)
        with pytest.raises(DimensionMismatchError):
            path_length([1.0, 2.0, 3.0], tree)


class TestExtendTree:
    def _unit_box_tree(self, seed: int):
        return fit_tree([(0.0, 0.0), (1.0, 1.0)], key=seed)

    def test_outside_point_splice_samples_the_deviating_dim(self):
        spliced_roots = 0
        for seed in range(60):
            tree = self._unit_box_tree(seed)
            old_root = tree.root
            extend_tree(tree, (2.0, 0.5))
            if tree.root != old_root:
                spliced_roots += 1
                # only dim 1 deviates (by 1.0); cut must land between box and point
                assert tree.split_dim[tree.root] == 0
                assert 1.0 < tree.split_val[tree.root] <= 2.0
            check_tree_invariants(tree, expected_population=3)
        assert spliced_roots > 0

    def test_interior_point_never_creates_new_root(self):
        for seed in range(100):
            tree = self._unit_box_tree(seed)
            old_root = tree.root
            old_time = tree.split_time[old_root]
            extend_tree(tree, (0.5, 0.5))
            assert tree.root == old_root
            assert tree.split_time[tree.root] == old_time
            check_tree_invariants(tree, expected_population=3)

    def test_splice_grows_by_two_and_increments_path(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.5), (0.2, 1.0), (0.9, 0.1)])
        tree = fit_tree(pts, key=21)
        before = tree.size
        pops_before = tree.population[: tree.size].copy()
        x = np.array([5.0, 5.0])
        extend_tree(tree, x)
        assert tree.size == before + 2
        # pre-existing nodes gain at most +1, exactly along the new point's path
        delta = tree.population[:before] - pops_before
        assert set(delta.tolist()) <= {0, 1}
        assert tree.population[tree.root] == 5
        check_tree_invariants(tree, points=np.vstack([pts, x]), expected_population=5)

    def test_duplicate_point_absorbed_into_leaf(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.5), (0.2, 1.0)])
        for seed in range(20):
            tree = fit_tree(pts, key=seed)
            before = tree.size
            extend_tree(tree, pts[1])
            assert tree.size == before  # structure unchanged
            assert tree.population[tree.root] == 4
            check_tree_invariants(tree, points=pts, expected_population=4)

    def test_extension_stream_keeps_invariants(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(40, 3))
        tree = fit_tree(X, key=5)
        inserted = [X]
        for i in range(60):
            x = rng.normal(scale=3.0, size=3)
            before = tree.size
            extend_tree(tree, x)
            assert tree.size - before in (0, 2)
            inserted.append(x.reshape(1, -1))
        check_tree_invariants(
            tree, points=np.vstack(inserted), expected_population=40 + 60
        )

    def test_deterministic_extension(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 2))
        stream = rng.normal(scale=2.0, size=(20, 2))
        a = fit_tree(X, key=7)
        b = fit_tree(X, key=7)
        for x in stream:
            extend_tree(a, x)
            extend_tree(b, x)
        assert structurally_equal(a, b)

    def test_dimension_mismatch_rejected(self):
        tree = fit_tree([(0.0, 0.0), (1.0, 1.0)], key=0)
        with pytest.raises(DimensionMismatchError):
            extend_tree(tree, (1.0, 2.0, 3.0))

    def test_non_finite_rejected(self):
        tree = fit_tree([(0.0, 0.0), (1.0, 1.0)], key=0)
        with pytest.raises(ValueError):
            extend_tree(tree, (np.inf, 0.0))

    def test_overflowing_rate_rejected_before_any_write(self):
        tree = fit_tree([(0.0, 0.0), (1.0, 1.0)], key=0)
        before = copy.deepcopy(tree)
        with pytest.raises(ValueError, match="overflow"):
            extend_tree(tree, (1e308, 1e308))
        assert structurally_equal(tree, before)
        assert tree.draws == before.draws


# the largest finite float64: hostile arrivals are clipped to it
FLOAT_MAX = np.finfo(float).max


@st.composite
def _hostile_cases(draw):
    """(points, tree seeds, subsample size or None, arrivals) on hostile
    data: d = 1 to 3 and n = 2 to 24, scales from subnormal to near the
    largest float, duplicate blocks, constant columns and signed zeros; the
    arrivals lie on the data, inside its box, outside it or at the largest
    float, so that some rates overflow."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="data seed"))
    n, d = draw(st.integers(2, 24), label="n"), draw(st.integers(1, 3), label="d")
    scale = draw(st.sampled_from([1e-320, 1e-300, 1.0, 1e300, 8e307]), label="scale")
    X = rng.uniform(-1.0, 1.0, size=(n, d)) * scale
    if draw(st.booleans(), label="duplicate block"):
        X[rng.integers(0, n, size=n // 2 + 1)] = X[0]
    if draw(st.booleans(), label="constant column"):
        X[:, rng.integers(0, d)] = X[0, 0]
    if draw(st.booleans(), label="signed zeros"):
        zero = rng.random((n, d)) < 0.3
        X[zero] = np.where(rng.random((n, d)) < 0.5, 0.0, -0.0)[zero]
    seeds = draw(st.lists(st.integers(0, 2**31), min_size=1, max_size=3), label="tree seeds")
    m = draw(st.none() | st.integers(2, n), label="subsample")
    arrivals = []
    for _ in range(draw(st.integers(0, 5), label="arrivals")):
        i, j, u = rng.integers(0, n), rng.integers(0, n), rng.random()
        kind = draw(st.sampled_from(["on", "inside", "outside", "largest"]), label="arrival")
        if kind == "on":
            x = X[i].copy()
        elif kind == "inside":
            x = X[i] * (1.0 - u) + X[j] * u
        elif kind == "outside":
            with np.errstate(over="ignore"):
                x = X[i] * rng.uniform(2.0, 10.0, size=d) * rng.choice([-1.0, 1.0], size=d)
            x = np.clip(x, -FLOAT_MAX, FLOAT_MAX)
        else:
            x = FLOAT_MAX * rng.choice([-1.0, 1.0], size=d)
        arrivals.append(x)
    return X, seeds, m, arrivals


def _oracle_sum(trees, x) -> float:
    """The scoring depths of x summed in tree order, as ``route`` adds them."""
    total = 0.0
    for tree in trees:
        total += scored_depth(tree, x)
    return total


class TestKernelsMatchOracles:
    """On hostile data the lockstep kernels match the per-tree references bit
    for bit, draw counts included: ``grow``'s trees are ``fit_tree``'s,
    each ``extend`` is ``extend_tree`` in every tree, and ``route`` sums
    ``scored_depth`` over the trees. Where a reference raises ValueError,
    the kernel raises it too, and an ``extend`` that raises leaves the arena
    as it was."""

    @deterministic(150)
    @given(case=_hostile_cases())
    def test_kernels_match_references(self, case):
        X, seeds, m, arrivals = case
        refs = []
        for seed in seeds:
            sample = X if m is None else X[np.random.default_rng(seed).choice(X.shape[0], size=m, replace=False)]
            try:
                refs.append(fit_tree(sample, key=seed))
            except ValueError:
                refs.append(None)
        if None in refs:
            with pytest.raises(ValueError):
                Forest.grow(X, seeds, m)
            return
        arena = Forest.grow(X, seeds, m)
        assert [tree_bits(view(arena, t)) for t in range(len(seeds))] == [tree_bits(ref) for ref in refs]
        assert arena.route(X, _leaf_depth).tolist() == [_oracle_sum(refs, x) for x in X]
        for x in arrivals:
            # a one-point route leaves its walk to the extend that follows
            assert arena.route(x[None], _leaf_depth).tolist() == [_oracle_sum(refs, x)]
            trials = [copy.deepcopy(ref) for ref in refs]
            try:
                for trial in trials:
                    extend_tree(trial, x)
            except ValueError:
                before = arena_state(arena)
                with pytest.raises(ValueError, match="overflow"):
                    arena.extend(x)
                assert arena_state(arena) == before
                continue
            arena.extend(x)
            refs = trials
            assert [tree_bits(view(arena, t)) for t in range(len(seeds))] == [tree_bits(ref) for ref in refs]
        probes = np.vstack([X] + arrivals)
        assert arena.route(probes, _leaf_depth).tolist() == [_oracle_sum(refs, x) for x in probes]
