"""Tree construction, routing, and in-place extension."""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from imondrian.errors import DimensionMismatchError
from imondrian.forest import ForestConfig, train_batch
from imondrian.tree import NO_NODE, ForestArena, as_point, as_points

from helpers import (
    bbox_oracle,
    check_tree_invariants,
    depth_oracle,
    leaf_constraint_table,
    random_dataset,
    structurally_equal,
)
from reference import extend_tree, fit_tree, path_length, walk


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
        tree = fit_tree([(0.0, 0.0), (1.0, 3.0)], rng=0)
        assert np.array_equal(tree.box_min[tree.root], [0.0, 0.0])
        assert np.array_equal(tree.box_max[tree.root], [1.0, 3.0])

    def test_singleton_is_degenerate(self):
        tree = fit_tree([(2.0, 2.0)], rng=0)
        assert np.array_equal(tree.box_min[tree.root], [2.0, 2.0])
        assert np.array_equal(tree.box_max[tree.root], [2.0, 2.0])

    def test_matches_componentwise_scan(self):
        pts = [(1.0, 5.0), (4.0, 1.0), (2.0, 2.0)]
        tree = fit_tree(pts, rng=1)
        assert np.array_equal(tree.box_min[tree.root], [1.0, 1.0])
        assert np.array_equal(tree.box_max[tree.root], [4.0, 5.0])
        _assert_boxes_are_smallest_blocks(tree, np.array(pts))

    def test_random_sets_match_scan(self):
        rng = np.random.default_rng(11)
        sets = [random_dataset(rng, int(rng.integers(2, 80)), int(rng.integers(1, 6))) for _ in range(8)]
        sets.append(rng.normal(size=(40, 1)))
        sets.append(np.repeat(rng.normal(size=(4, 3)), 3, axis=0))
        for i, X in enumerate(sets):
            for tree in train_batch(X, ForestConfig(num_trees=3, psi=None, seed=i)).trees:
                _assert_boxes_are_smallest_blocks(tree, X)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            as_points([])

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
            as_point([])


class TestAsPoint:
    """A single point is validated as a one-row point set."""

    def test_valid_points(self):
        assert as_point(2.5).tolist() == [2.5]
        assert as_point([1, 2], dim=2).tolist() == [1.0, 2.0]
        assert as_point(np.array([3.0, -1.0])).dtype == np.float64

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
            as_point(x, dim)
        assert type(raised.value) is error


def _two_point_roots(points, trees: int, seed: int):
    """(split dimension, split value, split time) of the root of each of
    ``trees`` trees built on two points, each tree with its own generator."""
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(trees)]
    arena = ForestArena.grow(np.array(points, dtype=float), rngs)
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


# six points in 2-D, the last far out; the law tests extend with the last three
LAW_POINTS = np.array([[0.0, 0.0], [1.0, 0.5], [0.3, 2.0], [2.0, 1.0], [1.5, 1.8], [9.0, 7.0]])
LAW_TREES = 20_000
LAW_LEVEL = 1e-4  # fixed and strict: the seeds make each p-value a constant


def _law_arena(points, seed: int, extra=()) -> ForestArena:
    """LAW_TREES trees, each with its own generator, built on ``points`` and
    then extended with each point of ``extra`` in turn."""
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(LAW_TREES)]
    arena = ForestArena.grow(points, rngs)
    for x in extra:
        arena.extend(x)
    return arena


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


class TestExtensionLaw:
    """Extending trees built on the first three points with the other three
    gives trees distributed like trees built on all six (projectivity of the
    Mondrian process; Lakshminarayanan, Roy & Teh 2014)."""

    @pytest.fixture(scope="class")
    def arenas(self):
        return _law_arena(LAW_POINTS, 101), _law_arena(LAW_POINTS[:3], 202, LAW_POINTS[3:])

    def test_root_partition(self, arenas):
        built, extended = arenas
        assert _same_law_p(_root_sides(built, LAW_POINTS), _root_sides(extended, LAW_POINTS)) > LAW_LEVEL

    @pytest.mark.parametrize("i", range(len(LAW_POINTS)))
    def test_depth_of_each_point(self, arenas, i):
        built, extended = arenas
        assert _same_law_p(_depths(built, LAW_POINTS[i]), _depths(extended, LAW_POINTS[i])) > LAW_LEVEL

    def test_root_split_time_is_exponential_in_linear_dimension(self, arenas):
        # the root of a Mondrian on a box splits after Exp(its linear dimension)
        stats = pytest.importorskip("scipy.stats")
        _, extended = arenas
        rate = (LAW_POINTS.max(axis=0) - LAW_POINTS.min(axis=0)).sum()
        times = extended.split_time[np.arange(extended.num_trees), extended.root]
        assert stats.kstest(times, "expon", args=(0.0, 1.0 / rate)).pvalue > LAW_LEVEL


class TestFitTree:
    def test_single_point_is_leaf(self):
        tree = fit_tree([(3.0, 4.0)], rng=0)
        assert tree.node_count == 1
        assert tree.left[tree.root] == NO_NODE
        assert tree.population[tree.root] == 1
        assert tree.split_time[tree.root] == math.inf

    def test_two_points_gives_one_cut(self):
        for seed in range(10):
            tree = fit_tree([0.0, 1.0], rng=seed)  # two 1-D points
            assert tree.node_count == 3
            assert tree.left[tree.root] != NO_NODE
            assert 0.0 < tree.split_val[tree.root] < 1.0

    def test_eight_points_proper_binary(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(size=(8, 2))
        tree = fit_tree(pts, rng=3)
        counts = check_tree_invariants(tree, points=pts, expected_population=8)
        assert counts == {"leaves": 8, "internals": 7}

    def test_identical_points_collapse_to_leaf(self):
        tree = fit_tree([(1.0, 2.0)] * 5, rng=9)
        assert tree.node_count == 1
        assert tree.population[tree.root] == 5

    def test_overflowing_linear_dimension_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            fit_tree([[-1e308, -1e308], [1e308, 1e308]], rng=0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_tree([], rng=0)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(50, 3))
        a = fit_tree(pts, rng=123)
        b = fit_tree(pts, rng=123)
        c = fit_tree(pts, rng=124)
        assert structurally_equal(a, b)
        assert not structurally_equal(a, c)

    def test_invariants_across_random_datasets(self):
        rng = np.random.default_rng(77)
        for i in range(25):
            n = int(rng.integers(1, 120))
            d = int(rng.integers(1, 6))
            X = random_dataset(rng, n, d)
            tree = fit_tree(X, rng=1000 + i)
            check_tree_invariants(tree, points=X, expected_population=n)

    def test_slots_are_breadth_first(self):
        X = np.random.default_rng(12).normal(size=(200, 3))
        tree = fit_tree(X, rng=4)
        depth = np.zeros(tree.size, dtype=int)
        for node in range(1, tree.size):
            assert tree.parent[node] < node
            depth[node] = depth[tree.parent[node]] + 1
        assert tree.root == 0 and tree.parent[0] == NO_NODE
        assert np.all(np.diff(depth) >= 0)

    def test_zero_waiting_time_is_redrawn(self):
        class ZeroFirst(np.random.Generator):
            """Its first batch of exponentials comes out as zeros."""

            zeroed = False

            def standard_exponential(self, size=None, dtype=np.float64, method="zig", out=None):
                draws = super().standard_exponential(size, dtype, method, out)
                if out is not None and not self.zeroed:
                    self.zeroed = True
                    out[:] = 0.0
                return draws

        gen = ZeroFirst(np.random.PCG64(0))
        X = np.random.default_rng(13).normal(size=(10, 2))
        tree = ForestArena.grow(X, [gen]).tree(0)
        assert gen.zeroed
        assert tree.split_time[tree.root] > 0.0
        check_tree_invariants(tree, points=X, expected_population=10)


    def test_cut_on_lower_end_moves_to_upper_end(self):
        class ZeroUniforms(np.random.Generator):
            """Every batch of uniforms comes out as zeros."""

            def random(self, size=None, dtype=np.float64, out=None):
                draws = super().random(size, dtype, out)
                if out is not None:
                    out[:] = 0.0
                return draws

        X = np.random.default_rng(14).normal(size=(10, 2))
        tree = ForestArena.grow(X, [ZeroUniforms(np.random.PCG64(0))]).tree(0)
        # each cut lands on dim 0 at the box's upper end: the largest point goes right
        assert tree.split_dim[tree.root] == 0
        assert tree.split_val[tree.root] == X[:, 0].max()
        assert tree.population[tree.right[tree.root]] == 1
        check_tree_invariants(tree, points=X, expected_population=10)


class TestPathLength:
    def test_single_leaf_depth_zero(self):
        tree = fit_tree([(1.0,)], rng=0)
        assert path_length([5.0], tree) == 0

    def test_one_cut_depth_one(self):
        tree = fit_tree([0.0, 1.0], rng=2)
        for x in (-10.0, 0.3, 0.9, 42.0):
            assert path_length([x], tree) == 1

    def test_matches_constraint_table_oracle(self):
        rng = np.random.default_rng(5)
        for seed in range(8):
            pts = rng.uniform(size=(8, 2))
            tree = fit_tree(pts, rng=seed)
            depths = [path_length(x, tree) for x in pts]
            assert depths == [depth_oracle(tree, x) for x in pts]
            # mean routed depth of training points == mean leaf depth
            table_mean = np.mean([d for _, d, _ in leaf_constraint_table(tree)])
            assert np.mean(depths) == table_mean

    def test_dimension_mismatch_rejected(self):
        tree = fit_tree([(0.0, 0.0), (1.0, 1.0)], rng=0)
        with pytest.raises(DimensionMismatchError):
            path_length([1.0, 2.0, 3.0], tree)


class TestExtendTree:
    def _unit_box_tree(self, seed: int):
        return fit_tree([(0.0, 0.0), (1.0, 1.0)], rng=seed)

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
        tree = fit_tree(pts, rng=21)
        before = tree.node_count
        pops_before = tree.population[: tree.node_count].copy()
        x = np.array([5.0, 5.0])
        extend_tree(tree, x)
        assert tree.node_count == before + 2
        # pre-existing nodes gain at most +1, exactly along the new point's path
        delta = tree.population[:before] - pops_before
        assert set(delta.tolist()) <= {0, 1}
        assert tree.population[tree.root] == 5
        check_tree_invariants(tree, points=np.vstack([pts, x]), expected_population=5)

    def test_duplicate_point_absorbed_into_leaf(self):
        pts = np.array([(0.0, 0.0), (1.0, 0.5), (0.2, 1.0)])
        for seed in range(20):
            tree = fit_tree(pts, rng=seed)
            before = tree.node_count
            extend_tree(tree, pts[1])
            assert tree.node_count == before  # structure unchanged
            assert tree.population[tree.root] == 4
            check_tree_invariants(tree, points=pts, expected_population=4)

    def test_extension_stream_keeps_invariants(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(40, 3))
        tree = fit_tree(X, rng=5)
        inserted = [X]
        for i in range(60):
            x = rng.normal(scale=3.0, size=3)
            before = tree.node_count
            extend_tree(tree, x)
            assert tree.node_count - before in (0, 2)
            inserted.append(x.reshape(1, -1))
        check_tree_invariants(
            tree, points=np.vstack(inserted), expected_population=40 + 60
        )

    def test_deterministic_extension(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 2))
        stream = rng.normal(scale=2.0, size=(20, 2))
        a = fit_tree(X, rng=7)
        b = fit_tree(X, rng=7)
        for x in stream:
            extend_tree(a, x)
            extend_tree(b, x)
        assert structurally_equal(a, b)

    def test_dimension_mismatch_rejected(self):
        tree = fit_tree([(0.0, 0.0), (1.0, 1.0)], rng=0)
        with pytest.raises(DimensionMismatchError):
            extend_tree(tree, (1.0, 2.0, 3.0))

    def test_non_finite_rejected(self):
        tree = fit_tree([(0.0, 0.0), (1.0, 1.0)], rng=0)
        with pytest.raises(ValueError):
            extend_tree(tree, (np.inf, 0.0))

    def test_overflowing_rate_rejected_before_any_write(self):
        tree = fit_tree([(0.0, 0.0), (1.0, 1.0)], rng=0)
        before = copy.deepcopy(tree)
        with pytest.raises(ValueError, match="overflow"):
            extend_tree(tree, (1e308, 1e308))
        assert structurally_equal(tree, before)
        assert tree.rng.bit_generator.state == before.rng.bit_generator.state

