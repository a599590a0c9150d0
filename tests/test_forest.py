"""Ensemble training, scoring math, and streaming extension."""

from __future__ import annotations

import copy
import errno
import hashlib
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

import imondrian
from imondrian.data_io import SyntheticSpec, gen_synthetic, load_model, save_model
from imondrian.errors import DimensionMismatchError
from imondrian.evaluation import auc
from imondrian.forest import (
    Forest,
    ForestConfig,
    _leaf_depth,
    anomaly_score,
    c_factor,
    extend_forest,
    harmonic,
    rescore_window,
    score_all,
    train_batch,
)
from imondrian.tree import FIELD_NAMES, NO_NODE, ROUTE_LANES, ForestArena, _can_fork, _fork_join

from helpers import (
    EXTENSION_FINGERPRINT,
    ROUTE_FINGERPRINT,
    arena_fingerprint,
    arena_state,
    check_arena_invariants,
    check_tree_invariants,
    depth_oracle,
    deterministic,
    fork_on,
    random_dataset,
    scored_depth,
    structurally_equal,
    tree_bits,
)
from reference import extend_tree, fit_tree, links, path_length, view, views, walk

# frozen from 40-digit evaluation of ln(i) + 0.5772156649
H_10 = 2.8798007578940457
H_255 = 6.118479210058426
C_256 = 10.244770920116853


class TestNormalizationConstants:
    def test_harmonic_of_one(self):
        assert harmonic(1) == pytest.approx(0.5772156649, abs=1e-15)

    def test_harmonic_values(self):
        assert harmonic(10) == pytest.approx(H_10, rel=1e-14)
        assert harmonic(255) == pytest.approx(H_255, rel=1e-14)

    def test_harmonic_rejects_zero(self):
        with pytest.raises(ValueError):
            harmonic(0)

    def test_c_factor_small(self):
        assert c_factor(2) == pytest.approx(2 * 0.5772156649 - 1.0, abs=1e-15)
        assert c_factor(2) == pytest.approx(0.1544313298, abs=1e-12)

    def test_c_factor_256(self):
        assert c_factor(256) == pytest.approx(C_256, rel=1e-14)
        assert abs(c_factor(256) - 10.244770) < 1e-6

    def test_c_factor_monotone(self):
        assert c_factor(1000) > c_factor(256) > c_factor(2)

    def test_c_factor_rejects_below_two(self):
        with pytest.raises(ValueError):
            c_factor(1)

    def test_score_is_half_at_expected_depth(self):
        for n in (2, 64, 256, 5000):
            assert anomaly_score(c_factor(n), n) == 0.5


class TestTrainBatch:
    def test_subsampling_disabled_sees_everything(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 2))
        forest = train_batch(X, ForestConfig(num_trees=10, psi=None, seed=1))
        assert forest.num_trees == 10
        assert forest.n_effective == 100
        for tree in views(forest):
            assert tree.population[tree.root] == 100

    def test_subsample_size_caps_tree_population(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10_000, 3))
        forest = train_batch(X, ForestConfig(num_trees=5, psi=256, seed=2))
        assert forest.n_effective == 256
        for tree in views(forest):
            assert tree.population[tree.root] == 256
            check_tree_invariants(tree)

    def test_small_batch_ignores_psi(self):
        X = np.random.default_rng(2).normal(size=(50, 2))
        forest = train_batch(X, ForestConfig(num_trees=3, psi=256, seed=0))
        assert forest.n_effective == 50

    def test_deterministic(self):
        X = np.random.default_rng(3).normal(size=(300, 2))
        cfg = ForestConfig(num_trees=6, psi=256, seed=9)
        a = train_batch(X, cfg)
        b = train_batch(X, cfg)
        assert all(structurally_equal(x, y) for x, y in zip(views(a), views(b)))

    def test_rejects_tiny_or_invalid(self):
        with pytest.raises(ValueError):
            train_batch([[1.0, 2.0]], ForestConfig(num_trees=2))
        with pytest.raises(ValueError):
            ForestConfig(num_trees=0)
        with pytest.raises(ValueError):
            ForestConfig(psi=1)

    @pytest.mark.parametrize(
        "field, value",
        [("num_trees", 2.5), ("psi", 7.5), ("seed", 1.5), ("num_trees", True), ("seed", False), ("psi", "8"),
         ("seed", None), ("num_trees", np.float64(3.0))],
    )
    def test_config_rejects_non_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ForestConfig(**{field: value})

    def test_config_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            ForestConfig(seed=-1)

    def test_numpy_integer_config_saves_and_loads(self, tmp_path):
        cfg = ForestConfig(num_trees=np.int32(3), psi=np.int64(8), seed=np.uint8(3))
        assert [type(v) for v in (cfg.num_trees, cfg.psi, cfg.seed)] == [int, int, int]
        X = np.random.default_rng(26).normal(size=(30, 2))
        forest = train_batch(X, cfg)
        assert arena_fingerprint(forest.arena) == arena_fingerprint(train_batch(X, ForestConfig(3, 8, 3)).arena)
        save_model(forest, tmp_path / "m.imf")
        loaded = load_model(tmp_path / "m.imf")
        assert (loaded.psi, loaded.seed) == (8, 3)
        assert score_all(X, loaded)[1].tolist() == score_all(X, forest)[1].tolist()

    def test_neighbouring_seeds_share_no_tree(self):
        # per-tree streams come from SeedSequence(seed).spawn, not seed + t
        X = np.random.default_rng(4).normal(size=(200, 3))
        seed0 = train_batch(X, ForestConfig(num_trees=4, psi=None, seed=0))
        seed1 = train_batch(X, ForestConfig(num_trees=4, psi=None, seed=1))
        assert not structurally_equal(views(seed1)[0], views(seed0)[1])
        assert not any(structurally_equal(a, b) for a in views(seed0) for b in views(seed1))
        again = train_batch(X, ForestConfig(num_trees=4, psi=None, seed=1))
        assert all(structurally_equal(a, b) for a, b in zip(views(seed1), views(again)))

    def test_trees_do_not_depend_on_num_trees_or_grouping(self):
        # 7 trees take two build groups, 3 trees one; tree t is the same
        n = ROUTE_LANES // 5 + 1
        X = np.random.default_rng(23).normal(size=(n, 3))
        small = train_batch(X, ForestConfig(num_trees=3, psi=None, seed=8))
        large = train_batch(X, ForestConfig(num_trees=7, psi=None, seed=8))
        assert ROUTE_LANES // n < 7
        for a, b in zip(views(small), views(large)):
            assert structurally_equal(a, b)
            assert a.rng.bit_generator.state == b.rng.bit_generator.state
            check_tree_invariants(a)

    def test_fit_tree_is_a_one_tree_train_batch(self):
        X = np.random.default_rng(24).normal(size=(120, 2))
        for psi in (None, 50):
            forest = train_batch(X, ForestConfig(num_trees=4, psi=psi, seed=6))
            child = np.random.SeedSequence(6).spawn(4)[2]
            gen = np.random.default_rng(child)
            sample = X if psi is None else X[gen.choice(120, size=psi, replace=False)]
            tree = fit_tree(sample, rng=gen)
            assert structurally_equal(tree, views(forest)[2])
            assert tree.rng.bit_generator.state == views(forest)[2].rng.bit_generator.state

    def test_overflowing_box_raises_without_runtime_warning(self):
        X = np.array([[-1e308, 0.0], [1e308, 1.0], [0.0, 0.5]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="overflow"):
                train_batch(X, ForestConfig(num_trees=3, psi=None, seed=0))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_subnormal_box_stays_a_leaf(self):
        # a box 5e-324 wide has a split time of infinity, a leaf's time
        alone = train_batch(np.array([[0.0], [5e-324]]), ForestConfig(num_trees=3, psi=None, seed=0))
        for tree in views(alone):
            assert tree.size == 1
            check_tree_invariants(tree, expected_population=2)
        X = np.array([[0.0], [5e-324], [10.0]])
        nested = train_batch(X, ForestConfig(num_trees=6, psi=None, seed=1))
        for tree in views(nested):
            check_tree_invariants(tree, points=X, expected_population=3)
            assert tree.size == 3  # the cut isolates 10; [0, 5e-324] stays a leaf


class TestScore:
    def test_two_tree_hand_computation(self):
        # depths 3 and 5 with n_effective = 256: E = 4, s = 2^(-4 / c(256))
        X = np.random.default_rng(5).normal(size=(20, 2))
        forest = train_batch(X, ForestConfig(num_trees=2, psi=None, seed=0))
        forest.n_effective = 256
        probe = X[0]
        depths = [path_length(probe, t) for t in views(forest)]
        (epl,), (s,) = score_all([probe], forest)
        assert epl == pytest.approx(sum(depths) / 2, abs=0)
        assert s == pytest.approx(2.0 ** (-epl / c_factor(256)), rel=1e-15)
        # and the spec'd instance of that formula
        assert anomaly_score(4.0, 256) == pytest.approx(0.7628952638224997, rel=1e-12)

    def test_identical_points_score_half(self):
        forest = train_batch([[0.0], [0.0]], ForestConfig(num_trees=4, psi=None, seed=0))
        # identical points collapse every tree to one leaf of 2: E(l) = c(2)
        (epl,), (s,) = score_all([[0.0]], forest)
        assert epl == c_factor(2)
        assert s == 0.5

    def test_constant_dataset_scores_half(self):
        X = np.tile([1.5, -2.0, 3.0], (50, 1))
        forest = train_batch(X, ForestConfig(psi=None, seed=1))
        epl, s = score_all(X, forest)
        # 100 trees of one 50-point leaf each: E(l) = c(50) up to summation roundoff
        assert np.allclose(epl, c_factor(50), rtol=1e-14, atol=0.0)
        assert np.allclose(s, 0.5, rtol=1e-14, atol=0.0)

    def test_duplicate_block_is_not_anomalous(self):
        # 30 copies of a typical inlier (the row at the median distance from
        # its cluster's centre) become one leaf per tree; with c(leaf
        # population) the block scores as deep as the dense region it sits in
        for seed in range(3):
            rng = np.random.default_rng(seed)
            centres = rng.uniform(-6.0, 6.0, size=(3, 4))
            component = rng.integers(0, 3, 4096)
            X = centres[component] + rng.normal(size=(4096, 4))
            typical = np.argsort(np.linalg.norm(X - centres[component], axis=1))[2048]
            X = np.vstack([X, np.repeat(X[typical : typical + 1], 30, axis=0)])
            forest = train_batch(X, ForestConfig(num_trees=20, psi=None, seed=seed))
            _, s = score_all(X, forest)
            assert np.all(s[-30:] == s[-1])
            assert np.mean(s < s[-1]) <= 0.05

    def test_matches_brute_force_depth_tables(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(16, 3))
        forest = train_batch(X, ForestConfig(num_trees=8, psi=None, seed=11))
        for x in X:
            (epl,), (s,) = score_all([x], forest)
            expected = np.mean([depth_oracle(t, x) for t in views(forest)])
            want = 2.0 ** (-expected / c_factor(16))
            assert epl == pytest.approx(expected, rel=1e-12)
            assert s == pytest.approx(want, rel=1e-12)

    def test_score_bounds(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(64, 2))
        forest = train_batch(X, ForestConfig(num_trees=10, psi=None, seed=3))
        probes = np.vstack([X, rng.uniform(-30, 30, size=(50, 2))])
        _, s = score_all(probes, forest)
        assert ((0.0 < s) & (s <= 1.0)).all()

    def test_dimension_mismatch(self):
        forest = train_batch(np.zeros((10, 2)) + np.arange(10)[:, None], ForestConfig(num_trees=1, psi=None, seed=0))
        with pytest.raises(DimensionMismatchError):
            score_all([[1.0, 2.0, 3.0]], forest)

    def test_rows_without_coordinates_rejected(self):
        with pytest.raises(DimensionMismatchError):
            train_batch(np.zeros((5, 0)))
        X = np.random.default_rng(18).normal(size=(10, 2))
        forest = train_batch(X, ForestConfig(num_trees=2, psi=None, seed=0))
        rows = np.zeros((3, 0))
        for call in (lambda: score_all(rows, forest), lambda: rescore_window(forest, rows),
                     lambda: extend_forest(forest, rows)):
            with pytest.raises(DimensionMismatchError):
                call()
        assert forest.total_population == 10


class TestScoreAll:
    def test_empty_input(self):
        X = np.random.default_rng(8).normal(size=(30, 2))
        forest = train_batch(X, ForestConfig(num_trees=2, psi=None, seed=0))
        for empty in ([], np.zeros((0, 2))):
            epl, s = score_all(empty, forest)
            assert epl.dtype == s.dtype == np.float64
            assert epl.shape == s.shape == (0,)

    def test_matches_scalar_scoring(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(50, 3))
        # exact duplicates make leaves whose c terms are not integers
        duplicated = np.vstack([X, np.repeat(X[:2], 4, axis=0)])
        for data, trees in ((X, 5), (duplicated, 20)):
            forest = train_batch(data, ForestConfig(num_trees=trees, psi=None, seed=2))
            epl, s = score_all(data, forest)
            assert epl.dtype == s.dtype == np.float64
            assert epl.shape == s.shape == (len(data),)
            for i in range(len(data)):
                (solo_epl,), (solo_s,) = score_all(data[i : i + 1], forest)
                assert s[i] == solo_s
                assert epl[i] == solo_epl

    def test_permutation_gives_same_multiset(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(40, 2))
        forest = train_batch(X, ForestConfig(num_trees=4, psi=None, seed=1))
        perm = rng.permutation(40)
        direct = sorted(score_all(X, forest)[1])
        shuffled = sorted(score_all(X[perm], forest)[1])
        assert direct == shuffled

    def test_outliers_outscore_inliers(self):
        gaps = []
        for seed in range(10):
            ds = gen_synthetic(SyntheticSpec(n_inliers=120, n_outliers=30, seed=seed))
            forest = train_batch(ds.points, ForestConfig(num_trees=40, psi=None, seed=seed))
            _, s = score_all(ds.points, forest)
            gaps.append(s[ds.labels == 1].mean() - s[ds.labels == 0].mean())
        assert np.mean(gaps) > 0.1

    def test_expected_path_length_is_mean_over_trees(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(100, 4))
        forest = train_batch(X, ForestConfig(num_trees=6, psi=None, seed=4))
        extend_forest(forest, rng.normal(scale=3.0, size=(30, 4)))
        probes = np.vstack([X, rng.uniform(-9.0, 9.0, size=(20, 4))])
        epl, _ = score_all(probes, forest)
        for x, e in zip(probes, epl):
            mean = sum(scored_depth(t, x) for t in views(forest)) / forest.num_trees
            assert e == mean
            assert score_all([x], forest)[0][0] == mean


class TestExtendForest:
    def _forest(self, seed=0, n=60, trees=8):
        X = np.random.default_rng(seed).normal(size=(n, 2))
        return X, train_batch(X, ForestConfig(num_trees=trees, psi=None, seed=seed))

    def test_empty_extension_is_noop(self):
        X, forest = self._forest()
        snapshots = [t.size for t in views(forest)]
        for empty in ([], np.zeros((0, 2))):
            extend_forest(forest, empty)
        assert [t.size for t in views(forest)] == snapshots

    def test_population_grows_in_every_tree(self):
        X, forest = self._forest(trees=10)
        new = np.random.default_rng(99).normal(scale=2.0, size=(5, 2))
        extend_forest(forest, new)
        for tree in views(forest):
            assert tree.population[tree.root] == 65
            check_tree_invariants(tree)

    def test_n_effective_fixed_under_extension(self):
        X, forest = self._forest()
        n_eff = forest.n_effective
        extend_forest(forest, np.random.default_rng(1).normal(size=(20, 2)))
        assert forest.n_effective == n_eff

    def test_bad_point_aborts_before_mutation(self):
        X, forest = self._forest()
        pops = [int(t.population[t.root]) for t in views(forest)]
        with pytest.raises(DimensionMismatchError):
            extend_forest(forest, [np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])])
        # first (valid) point landed, offending point mutated nothing
        assert [int(t.population[t.root]) for t in views(forest)] == [p + 1 for p in pops]

    def test_dense_arrivals_drop_scores_in_their_region(self):
        # a region scored as anomalous stops looking anomalous once data
        # accumulates there
        drops = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            base = rng.normal(size=(150, 2))
            forest = train_batch(base, ForestConfig(num_trees=30, psi=None, seed=seed))
            probe_region = rng.normal(loc=(6.0, 6.0), scale=0.3, size=(40, 2))
            before = np.mean(score_all(probe_region, forest)[1])
            extend_forest(forest, probe_region)
            after = np.mean(score_all(probe_region, forest)[1])
            drops.append(before - after)
        assert np.mean(drops) > 0.05

    def test_subnormal_deviation_is_absorbed(self):
        X = np.array([[0.0], [1.0]])
        forest = train_batch(X, ForestConfig(num_trees=8, psi=None, seed=2))
        reference = [copy.deepcopy(tree) for tree in views(forest)]
        nodes = [t.size for t in views(forest)]
        extend_forest(forest, [[5e-324]])
        for tree, ref, count in zip(views(forest), reference, nodes):
            extend_tree(ref, [5e-324])
            assert structurally_equal(tree, ref)
            # the point's clock at the leaf [0, 0] has a subnormal rate and never fires
            assert tree.size == count
            check_tree_invariants(tree, points=[[5e-324]], expected_population=3)

    def test_root_splice_count_follows_the_clock_law(self):
        # [2, 0.5] deviates from every root box [0, 1]^2 by a total of 1, so
        # it splices above the root with probability 1 - exp(-root time)
        forest = train_batch([[0.0, 0.0], [1.0, 1.0]], ForestConfig(num_trees=4000, psi=None, seed=3))
        arena = forest.arena
        roots = arena.root.copy()
        p = 1.0 - np.exp(-arena.split_time[np.arange(forest.num_trees), roots])
        extend_forest(forest, [[2.0, 0.5]])
        changed = np.count_nonzero(arena.root != roots)
        z = (changed - p.sum()) / np.sqrt((p * (1.0 - p)).sum())
        assert abs(z) < 4.0

    def test_training_points_still_route_after_extensions(self):
        X, forest = self._forest(seed=3)
        stream = np.random.default_rng(12).normal(scale=4.0, size=(50, 2))
        extend_forest(forest, stream)
        everything = np.vstack([X, stream])
        for tree in views(forest):
            check_tree_invariants(tree, points=everything, expected_population=110)


def _lockstep_datasets(rng):
    """random_dataset shapes plus the edge cases: d = 1, n = 2, exact
    duplicates (down to a single repeated point) and a constant column."""
    sets = [random_dataset(rng, int(rng.integers(2, 60)), int(rng.integers(1, 6))) for _ in range(8)]
    sets.append(rng.normal(size=(30, 1)))
    sets.append(rng.normal(size=(2, 3)))
    sets.append(np.repeat(rng.normal(size=(3, 2)), 5, axis=0))
    sets.append(np.tile(rng.normal(size=(1, 2)), (4, 1)))
    constant = rng.normal(size=(25, 3))
    constant[:, 1] = 4.0
    sets.append(constant)
    return sets


def _stream(rng, X, count):
    """Points inside the data's box, far outside it, and exact duplicates."""
    lo, hi = X.min(axis=0), X.max(axis=0)
    points = []
    for j in range(count):
        kind = j % 3
        if kind == 0:
            points.append(rng.uniform(lo, hi))
        elif kind == 1:
            points.append(rng.uniform(lo - 10.0, hi + 10.0))
        else:
            points.append(X[int(rng.integers(0, X.shape[0]))].copy())
    return np.asarray(points)


class TestLockstepArena:
    def _assert_matches_reference(self, forest, reference, points=None):
        for tree, ref in zip(views(forest), reference):
            assert structurally_equal(tree, ref)
            assert tree.rng.bit_generator.state == ref.rng.bit_generator.state
            check_tree_invariants(tree, points=points)

    def test_extension_matches_per_tree_reference(self):
        rng = np.random.default_rng(20)
        for i, X in enumerate(_lockstep_datasets(rng)):
            psi = None if i % 2 else 16
            forest = train_batch(X, ForestConfig(num_trees=5, psi=psi, seed=i))
            reference = [copy.deepcopy(tree) for tree in views(forest)]
            stream = _stream(rng, X, 30)
            extend_forest(forest, stream)
            for x in stream:
                for ref in reference:
                    extend_tree(ref, x)
            self._assert_matches_reference(forest, reference, points=stream)

    def test_single_leaf_trees_beside_deeper_trees(self):
        # psi = 2 on mostly one repeated row: most trees subsample two copies
        # and stay a single leaf, so lanes parked at the root walk beside
        # lanes that descend
        rng = np.random.default_rng(24)
        X = np.vstack([np.tile(rng.normal(size=(1, 2)), (20, 1)), rng.normal(size=(4, 2))])
        forest = train_batch(X, ForestConfig(num_trees=8, psi=2, seed=4))
        sizes = [tree.size for tree in views(forest)]
        assert 1 in sizes and max(sizes) > 1
        reference = [copy.deepcopy(tree) for tree in views(forest)]
        stream = _stream(rng, X, 30)
        extend_forest(forest, stream)
        for x in stream:
            for ref in reference:
                extend_tree(ref, x)
        self._assert_matches_reference(forest, reference, points=stream)

    def test_extension_stream_is_pinned(self):
        # the kernel and extend_tree could change together; this pins both
        rng = np.random.default_rng(25)
        X = random_dataset(rng, 512, 3)
        forest = train_batch(X, ForestConfig(num_trees=20, psi=64, seed=7))
        extend_forest(forest, _stream(rng, X, 300))
        assert arena_fingerprint(forest.arena) == EXTENSION_FINGERPRINT

    def test_growth_across_capacity_boundary(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(2, 2))
        forest = train_batch(X, ForestConfig(num_trees=4, psi=None, seed=3))
        reference = [copy.deepcopy(tree) for tree in views(forest)]
        start = forest.arena.capacity
        stream = rng.uniform(-20.0, 20.0, size=(40, 2))
        for x in stream:
            extend_forest(forest, [x])
            for ref in reference:
                extend_tree(ref, x)
        assert forest.arena.capacity > 4 * start
        self._assert_matches_reference(forest, reference, points=np.vstack([X, stream]))
        assert forest.total_population == 42

    def test_full_rows_double_before_the_walk(self, monkeypatch):
        # two points fill every row (3 of 3 slots); a duplicate arrival fires
        # no clock, and the capacity still doubles, before any walk reads an
        # index, so the walk its one-point score left is taken again. The
        # next arrival finds room and reuses its score's walk
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        forest = train_batch(X, ForestConfig(num_trees=3, psi=None, seed=8))
        assert (forest.arena.size == forest.arena.capacity).all()
        reference = [copy.deepcopy(tree) for tree in views(forest)]
        walked_at = []
        real_walk = ForestArena._walk

        def walk(arena, x):
            walked_at.append(arena.capacity)
            return real_walk(arena, x)

        monkeypatch.setattr(ForestArena, "_walk", walk)
        for x in (X[1], np.array([3.0, -2.0])):
            score_all([x], forest)
            extend_forest(forest, [x])
            for ref in reference:
                extend_tree(ref, x)
        assert walked_at == [3, 8, 8]
        assert forest.arena.capacity == 8
        self._assert_matches_reference(forest, reference, points=np.vstack([X, X[1], [3.0, -2.0]]))

    def test_tree_views_are_read_only(self):
        X = np.random.default_rng(22).normal(size=(30, 2))
        forest = train_batch(X, ForestConfig(num_trees=3, psi=None, seed=0))
        tree = views(forest)[1]
        state = tree.rng.bit_generator.state
        with pytest.raises(ValueError):
            tree.left[tree.root] = 0
        with pytest.raises(ValueError):
            tree.box_min[0, 0] = 1e9
        with pytest.raises(ValueError):
            extend_tree(tree, [50.0, 50.0])
        assert forest.arena.rngs[1].bit_generator.state == state
        assert forest.total_population == 30

    def test_zero_clock_is_redrawn(self):
        class ZeroFirst(np.random.Generator):
            """The first uniform of its first batch comes out as 0."""

            zeroed = False

            def random(self, size=None, dtype=np.float64, out=None):
                draws = super().random(size, dtype, out)
                if np.ndim(draws) and not self.zeroed:
                    self.zeroed = True
                    draws[0] = 0.0
                return draws

        X = np.random.default_rng(23).normal(size=(20, 2))
        forest = train_batch(X, ForestConfig(num_trees=4, psi=None, seed=5))
        forest.arena.rngs = [ZeroFirst(np.random.PCG64(t)) for t in range(4)]
        reference = [copy.deepcopy(tree) for tree in views(forest)]
        ref_gens = [ZeroFirst(np.random.PCG64(t)) for t in range(4)]
        x = X.max(axis=0) + 1.0  # outside every root box, so the root's clock comes first
        extend_forest(forest, [x])
        for tree, ref, gen in zip(views(forest), reference, ref_gens):
            extend_tree(ref, x, rng=gen)
            assert gen.zeroed and tree.rng.zeroed
            assert structurally_equal(tree, ref)
            assert tree.rng.bit_generator.state == gen.bit_generator.state
            spliced = tree.size - 2  # the new internal node
            parent = tree.parent[spliced]
            parent_time = 0.0 if parent == NO_NODE else tree.split_time[parent]
            assert tree.split_time[spliced] > parent_time
            check_tree_invariants(tree, points=np.vstack([X, x]), expected_population=21)

    def test_overflowing_rate_raises_before_any_write(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.2]])
        forest = train_batch(X, ForestConfig(num_trees=6, psi=None, seed=1))
        snapshot = [copy.deepcopy(tree) for tree in views(forest)]
        assert (forest.arena.size == 5).all() and forest.arena.capacity == 5  # an insert would double first
        with pytest.raises(ValueError, match="overflow"):
            extend_forest(forest, [[1e308, 1e308]])
        assert forest.arena.capacity == 5
        for tree, before in zip(views(forest), snapshot):
            assert structurally_equal(tree, before)
            assert tree.rng.bit_generator.state == before.rng.bit_generator.state


def _assert_table_current(arena):
    """Every slot of the arena's child table at or past a tree's size is a
    self loop."""
    kids = arena.child.reshape(2, arena.num_trees, arena.capacity)
    unused = np.arange(arena.capacity) >= arena.size[:, None]
    flat = np.arange(arena.child.size // 2).reshape(arena.num_trees, -1)
    assert (kids[:, unused] == flat[unused]).all()


def _assert_scores_match_oracle(forest, X):
    """score_all's expected path lengths are the means of the per-tree
    scoring depths (edges plus the leaf population's c term)."""
    trees = views(forest)
    expected = [sum(scored_depth(t, x) for t in trees) / forest.num_trees for x in X]
    epl, _ = score_all(X, forest)
    assert epl.tolist() == expected


def _pinned_route_cases():
    """(forest, probes, oracle rows) for the routing pin: 100 trees of psi
    256 without duplicate leaves routing ROUTE_LANES + 3 points (two point
    blocks, one tree per pass), and 20 trees on repeated rows routing fewer
    than ROUTE_LANES points (several trees per pass, duplicate leaves)."""
    rng = np.random.default_rng(33)
    X = rng.normal(size=(4096, 4))
    clean = train_batch(X, ForestConfig(num_trees=100, psi=256, seed=5))
    assert (clean.arena.population[links(clean.arena)[0] == NO_NODE] == 1).all()
    probes = rng.normal(scale=1.5, size=(ROUTE_LANES + 3, 4))
    D = np.vstack([np.repeat(rng.normal(size=(6, 3)), 20, axis=0), rng.normal(size=(80, 3))])
    duplicate = train_batch(D, ForestConfig(num_trees=20, psi=None, seed=6))
    assert (duplicate.arena.population[links(duplicate.arena)[0] == NO_NODE] > 1).any()
    edges = np.r_[0:30, ROUTE_LANES - 10 : ROUTE_LANES + 3]  # both sides of the block edge
    return [(clean, probes, edges), (duplicate, np.vstack([D, _stream(rng, D, 700)]), np.arange(0, 900, 7))]


class TestRoutingTable:
    @pytest.fixture(scope="class")
    def pinned(self):
        return _pinned_route_cases()

    def test_route_sums_are_pinned(self, pinned):
        digest = hashlib.sha256()
        for forest, probes, _ in pinned:
            digest.update(forest.arena.route(probes, _leaf_depth).tobytes())
        assert digest.hexdigest() == ROUTE_FINGERPRINT

    def test_pinned_shapes_match_oracle(self, pinned):
        for forest, probes, rows in pinned:
            sums = forest.arena._route(probes, _leaf_depth)
            trees = views(forest)
            assert sums[rows].tolist() == [sum(scored_depth(t, x) for t in trees) for x in probes[rows]]

    def test_table_current_after_multi_group_build(self, monkeypatch):
        # in one process, 9 trees on ROUTE_LANES // 4 + 1 rows are two build
        # groups (of 4 and 5 trees), since a group holds under 2 * ROUTE_LANES lanes
        monkeypatch.setattr("imondrian.tree._usable_cpus", lambda: [0])
        X = np.random.default_rng(30).normal(size=(ROUTE_LANES // 4 + 1, 2))
        forest = train_batch(X, ForestConfig(num_trees=9, psi=None, seed=2))
        _assert_table_current(forest.arena)

    def test_two_point_blocks_match_oracle(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(ROUTE_LANES + 3, 2))
        X[-3:] = rng.uniform(-8.0, 8.0, size=(3, 2))
        forest = train_batch(X, ForestConfig(num_trees=3, psi=16, seed=4))
        _assert_table_current(forest.arena)
        _assert_scores_match_oracle(forest, X)

    def test_edge_cases_through_doubling_and_round_trip(self, tmp_path):
        rng = np.random.default_rng(32)
        for i, X in enumerate(_lockstep_datasets(rng)):
            forest = train_batch(X, ForestConfig(num_trees=4, psi=None if i % 2 else 16, seed=i))
            _assert_table_current(forest.arena)
            _assert_scores_match_oracle(forest, X)
            start = forest.arena.capacity
            arrivals = []
            for x in _stream(rng, X, 400):
                extend_forest(forest, [x])
                arrivals.append(x)
                if forest.arena.capacity > start:
                    break
            assert forest.arena.capacity > start
            extend_forest(forest, _stream(rng, X, 6))
            probes = np.vstack([X, arrivals, _stream(rng, X, 9)])
            _assert_table_current(forest.arena)
            _assert_scores_match_oracle(forest, probes)
            path = tmp_path / f"forest{i}.imf"
            save_model(forest, path)
            loaded = load_model(path)
            _assert_table_current(loaded.arena)
            _assert_scores_match_oracle(loaded, probes)


def _walked_depths(arena) -> np.ndarray:
    """Every flat slot's edge count from its tree's root, read off
    ``reference.walk`` of each tree view from the root to every leaf (a
    point in a leaf's box reaches that leaf); 0 for unused slots."""
    depth = np.zeros(arena.population.size, dtype=np.int64)
    for t in range(arena.num_trees):
        tree = view(arena, t)
        for leaf in np.flatnonzero(tree.left[: tree.size] == NO_NODE).tolist():
            path = walk(tree, tree.box_min[leaf])
            assert path[-1] == leaf
            depth[t * arena.capacity + np.array(path)] = np.arange(len(path))
    return depth


def _assert_routes_like_oracle(forest, probes, rows=None):
    """``route`` and ``_route`` on ``probes`` are bit for bit the oracle's
    sums (scoring depths added in tree order), on the probe indices ``rows``
    (every probe by default)."""
    rows = np.arange(len(probes)) if rows is None else rows
    expected = [sum(scored_depth(t, x) for t in views(forest)) for x in probes[rows]]
    for kernel in (forest.arena.route, forest.arena._route):
        assert kernel(probes, _leaf_depth)[rows].tolist() == expected


class TestNodeDepthTable:
    """``ForestArena._node_depths``, which ``_route`` reads each lane's edge
    count from, against the depths of ``reference.walk``."""

    @pytest.fixture(scope="class")
    def forests(self, tmp_path_factory):
        rng = np.random.default_rng(50)
        X = rng.normal(size=(300, 3))
        built = train_batch(X, ForestConfig(num_trees=6, psi=64, seed=1))
        extended = train_batch(X[:40], ForestConfig(num_trees=5, psi=None, seed=2))
        start = extended.arena.capacity
        for x in _stream(rng, X[:40], 400):
            extend_forest(extended, [x])
            if extended.arena.capacity > start:
                break
        assert extended.arena.capacity > start  # grown through _double
        extend_forest(extended, _stream(rng, X[:40], 9))
        D = np.vstack([np.repeat(rng.normal(size=(4, 2)), 15, axis=0), rng.normal(size=(10, 2))])
        duplicate = train_batch(D, ForestConfig(num_trees=6, psi=None, seed=3))
        assert (duplicate.arena.population[links(duplicate.arena)[0] == NO_NODE] > 1).any()
        E = np.tile(rng.normal(size=(1, 3)), (12, 1))
        equal = train_batch(E, ForestConfig(num_trees=4, psi=None, seed=4))
        assert (equal.arena.size == 1).all()  # every tree one leaf: no lane ever moves
        path = tmp_path_factory.mktemp("depths") / "extended.imf"
        save_model(extended, path)
        return {
            "built": (built, X), "extended": (extended, X[:40]), "duplicate": (duplicate, D),
            "all-equal": (equal, E), "loaded": (load_model(path), X[:40]),
        }

    @pytest.mark.parametrize("case", ["built", "extended", "duplicate", "all-equal", "loaded"])
    def test_table_matches_walked_depths(self, forests, case):
        arena = forests[case][0].arena
        table = arena._node_depths()
        assert table.dtype == np.min_scalar_type(arena.capacity)  # the smallest type that holds it
        assert np.array_equal(table, _walked_depths(arena))

    @pytest.mark.parametrize("case", ["built", "extended", "duplicate", "all-equal", "loaded"])
    def test_routes_match_oracle(self, forests, case):
        forest, data = forests[case]
        probes = np.vstack([data, _stream(np.random.default_rng(51), data, 30)])
        _assert_routes_like_oracle(forest, probes)


class TestRouteEdgeShapes:
    """``route`` and ``_route`` at the shapes where the blocks, passes and
    level checks of ``_route`` change, bit for bit against
    ``helpers.scored_depth``."""

    def test_two_points_in_one_dimension(self):
        rng = np.random.default_rng(53)
        two = train_batch(np.array([[0.0], [1.0]]), ForestConfig(num_trees=3, psi=None, seed=1))
        many = train_batch(rng.normal(size=(40, 1)), ForestConfig(num_trees=5, psi=None, seed=2))
        for forest in (two, many):
            _assert_routes_like_oracle(forest, np.array([[0.3], [-7.0]]))

    @pytest.mark.parametrize("n", [ROUTE_LANES - 1, ROUTE_LANES + 1])
    def test_one_lane_either_side_of_a_pass(self, n):
        # ROUTE_LANES - 1 points: one block, one tree per pass; ROUTE_LANES + 1:
        # a full block, then a block of one point
        rng = np.random.default_rng(54)
        probes = rng.normal(scale=1.5, size=(n, 2))
        D = np.vstack([np.repeat(rng.normal(size=(5, 2)), 8, axis=0), rng.normal(size=(30, 2))])
        clean = train_batch(probes, ForestConfig(num_trees=3, psi=16, seed=3))
        duplicate = train_batch(D, ForestConfig(num_trees=4, psi=None, seed=4))
        rows = np.r_[0:20, 100:n:397, n - 20 : n]
        for forest in (clean, duplicate):
            _assert_routes_like_oracle(forest, probes, rows)

    def test_lanes_park_on_checked_and_unchecked_levels(self):
        # a lane parks on the level equal to its leaf's depth, and only even
        # levels check for movement; small batches route every tree in one
        # pass, so each forest's deepest lane ends the walk
        rng = np.random.default_rng(55)
        deepest = set()
        for seed in range(6):
            X = rng.normal(size=(int(rng.integers(6, 40)), 2))
            forest = train_batch(X, ForestConfig(num_trees=3, psi=None, seed=seed))
            probes = np.vstack([X, _stream(rng, X, 20)])
            depths = [len(walk(t, x)) - 1 for t in views(forest) for x in probes]
            assert {d % 2 for d in depths} == {0, 1}
            deepest.add(max(depths) % 2)
            _assert_routes_like_oracle(forest, probes)
        assert deepest == {0, 1}


class TestOnePointWalk:
    """A one-point score walks every tree as an insert does and leaves the
    walk for the insert of the same point that follows it."""

    def test_one_point_scores_equal_batch_rows(self):
        rng = np.random.default_rng(34)
        for case, (forest, probes, rows) in enumerate(_pinned_route_cases()):
            for _ in range(2):  # as built, then after a stream
                batch = score_all(probes, forest)[0][rows]
                alone = np.concatenate([score_all(probes[i : i + 1], forest)[0] for i in rows])
                assert alone.tobytes() == batch.tobytes()
                if case:  # some sampled rows reach leaves of two or more points
                    assert any(t.population[walk(t, x)[-1]] > 1 for x in probes[rows] for t in views(forest))
                extend_forest(forest, _stream(rng, probes, 300))

    def test_scoring_before_each_insert_changes_nothing(self):
        # the stream of TestLockstepArena.test_extension_stream_is_pinned
        rng = np.random.default_rng(25)
        X = random_dataset(rng, 512, 3)
        forest = train_batch(X, ForestConfig(num_trees=20, psi=64, seed=7))
        for x in _stream(rng, X, 300):
            score_all([x], forest)
            extend_forest(forest, [x])
        assert arena_fingerprint(forest.arena) == EXTENSION_FINGERPRINT

    def test_a_left_walk_never_goes_stale(self):
        X = random_dataset(np.random.default_rng(35), 200, 3)
        scored, plain = (train_batch(X, ForestConfig(num_trees=20, psi=64, seed=8)) for _ in range(2))
        x = X.max(axis=0) + 1.0
        y = X.min(axis=0) - 1.0  # across every root box from x: another path, spliced onto x's paths
        score_all([x], scored)
        extend_forest(scored, [y, x])
        extend_forest(plain, [y, x])
        assert arena_fingerprint(scored.arena) == arena_fingerprint(plain.arena)
        score_all([x], scored)
        extend_forest(scored, [x, x])
        extend_forest(plain, [x, x])
        assert arena_fingerprint(scored.arena) == arena_fingerprint(plain.arena)

    def test_a_refused_insert_leaves_no_walk(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.2]])
        scored, plain = (train_batch(X, ForestConfig(num_trees=6, psi=None, seed=1)) for _ in range(2))
        before = arena_fingerprint(scored.arena)
        score_all([[1e308, 1e308]], scored)
        with pytest.raises(ValueError, match="overflow"):
            extend_forest(scored, [[1e308, 1e308]])
        assert arena_fingerprint(scored.arena) == before
        extend_forest(scored, [[2.0, -1.0]])
        extend_forest(plain, [[2.0, -1.0]])
        assert arena_fingerprint(scored.arena) == arena_fingerprint(plain.arena)


def _fork_cases(rows):
    """(forest, probes) pairs: a forest without duplicate leaves, one with
    them (exact duplicate rows, no subsampling) and a stream-extended one,
    each with ``rows`` probe points from its data's range and beyond."""
    rng = np.random.default_rng(40)
    X = rng.normal(size=(300, 3))
    clean = train_batch(X, ForestConfig(num_trees=7, psi=32, seed=1))
    D = np.vstack([np.repeat(rng.normal(size=(4, 2)), 30, axis=0), rng.normal(size=(20, 2))])
    duplicate = train_batch(D, ForestConfig(num_trees=7, psi=None, seed=2))
    assert (duplicate.arena.population[links(duplicate.arena)[0] == NO_NODE] > 1).any()
    S = rng.normal(size=(200, 2))
    extended = train_batch(S, ForestConfig(num_trees=7, psi=64, seed=3))
    extend_forest(extended, _stream(rng, S, 60))
    return [(forest, _stream(rng, data, rows)) for forest, data in ((clean, X), (duplicate, D), (extended, S))]


class TestForkJoinRoute:
    @pytest.mark.parametrize("workers, rows", [(1, 101), (2, 101), (3, 101), (8, 5)])
    def test_point_blocks_match_one_process(self, monkeypatch, workers, rows):
        if not _can_fork():
            pytest.skip("this process cannot fork without a warning")
        forks = fork_on(monkeypatch, cpus=workers, fork_lanes=1)
        mask = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        for forest, probes in _fork_cases(rows):
            expected = forest.arena._route(probes, _leaf_depth)
            assert forest.arena.route(probes, _leaf_depth).tobytes() == expected.tobytes()
        assert len(forks) == 3 * (min(workers, rows) - 1)
        # the parent runs its block bound to one CPU and is unbound afterwards
        assert mask is None or os.sched_getaffinity(0) == mask

    def test_small_batches_never_fork(self, monkeypatch):
        # the builds may fork; only the routing below is under the trap
        X = np.random.default_rng(41).normal(size=(2048, 8))
        paper = train_batch(X, ForestConfig(num_trees=100, psi=256, seed=0))
        full = train_batch(X, ForestConfig(num_trees=20, psi=None, seed=0))

        def fork():
            raise AssertionError("route forked for a small batch")

        monkeypatch.setattr("imondrian.tree._usable_cpus", lambda: list(range(64)))
        monkeypatch.setattr(os, "fork", fork)
        for x in X[:5]:
            score_all([x], paper)
        score_all(X[:200], paper)
        # subsampling off, 20 trees on 2,048 rows: 40,960 lanes, one worker
        score_all(X, full)

    @pytest.mark.parametrize("call", ["os.fork", "os.memfd_create"])
    def test_failed_fork_routes_in_process(self, monkeypatch, call):
        fork_on(monkeypatch, cpus=3, fork_lanes=1)

        def fail(*args):
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(call, fail)
        for forest, probes in _fork_cases(50):
            expected = forest.arena._route(probes, _leaf_depth)
            assert forest.arena.route(probes, _leaf_depth).tobytes() == expected.tobytes()

    def test_failed_child_block_is_routed_again(self, monkeypatch):
        if not _can_fork():
            pytest.skip("this process cannot fork without a warning")
        forks = fork_on(monkeypatch, cpus=3, fork_lanes=1)
        parent, calls = os.getpid(), []
        one_process = ForestArena._route

        def route_or_fail(arena, X, leaf_depth):
            if os.getpid() != parent:
                raise RuntimeError("the child fails, so it exits 1")
            calls.append(X.shape[0])
            return one_process(arena, X, leaf_depth)

        monkeypatch.setattr(ForestArena, "_route", route_or_fail)
        for forest, probes in _fork_cases(50):
            calls.clear()
            expected = one_process(forest.arena, probes, _leaf_depth)
            assert forest.arena.route(probes, _leaf_depth).tobytes() == expected.tobytes()
            assert sorted(calls) == [16, 17, 17]  # the parent routed all three blocks
        assert len(forks) == 6


def _build_cases():
    """(X, sample size, tree count) builds: subsampling on and off, exact
    duplicate rows, and fewer trees than workers."""
    rng = np.random.default_rng(42)
    X = rng.normal(size=(300, 3))
    D = np.vstack([np.repeat(rng.normal(size=(4, 2)), 30, axis=0), rng.normal(size=(20, 2))])
    return [(X, 32, 7), (X, None, 5), (D, None, 6), (D, 16, 2), (X[:40], None, 1)]


def _grow(X, sample_size, trees, seed=0):
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(trees)]
    return ForestArena.grow(X, rngs, sample_size)


class TestForkJoinUnforked:
    @pytest.mark.parametrize("cpus, lanes, forkable", [(1, 10**6, True), (4, 150, True), (4, 10**6, False)],
                             ids=["one-cpu", "below-the-floor", "cannot-fork"])
    def test_does_every_item_in_process_once(self, monkeypatch, cpus, lanes, forkable):
        monkeypatch.setattr("imondrian.tree._usable_cpus", lambda: list(range(cpus)))
        monkeypatch.setattr("imondrian.tree._can_fork", lambda: forkable)

        def fork():
            raise AssertionError("the fork-join forked")

        monkeypatch.setattr(os, "fork", fork)
        calls = []
        assert _fork_join(7, lanes, 100, None, lambda a, b: calls.append((a, b)), None) is None
        assert calls == [(0, 7)]


class TestForkJoinGrow:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_tree_blocks_match_one_process(self, monkeypatch, workers):
        if not _can_fork():
            pytest.skip("this process cannot fork without a warning")
        expected = [arena_fingerprint(_grow(*case)) for case in _build_cases()]
        forks = fork_on(monkeypatch, cpus=workers, build_lanes=1)
        mask = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        for case, fingerprint in zip(_build_cases(), expected):
            arena = _grow(*case)
            assert arena_fingerprint(arena) == fingerprint
            check_arena_invariants(arena, points=case[0] if case[1] is None else None)
        assert len(forks) == sum(min(workers, trees) - 1 for _, _, trees in _build_cases())
        assert mask is None or os.sched_getaffinity(0) == mask

    def test_paper_shapes_fork_above_the_floor(self, monkeypatch):
        # 100 trees on psi 256 and 20 trees on 2,048 rows have 25,600 and
        # 40,960 lanes: two build workers each; 20 trees on 256 rows, one
        if not _can_fork():
            pytest.skip("this process cannot fork without a warning")
        X = np.random.default_rng(43).normal(size=(2048, 8))
        expected = [arena_fingerprint(_grow(X, 256, 100)), arena_fingerprint(_grow(X, None, 20))]
        forks = fork_on(monkeypatch, cpus=2)
        arenas = [_grow(X, 256, 100), _grow(X, None, 20)]
        assert [arena_fingerprint(arena) for arena in arenas] == expected
        for arena in arenas:
            check_arena_invariants(arena)
        assert len(forks) == 2
        _grow(X[:256], None, 20)
        assert len(forks) == 2

    @pytest.mark.parametrize("call", ["os.fork", "os.memfd_create"])
    def test_failed_fork_builds_in_process(self, monkeypatch, call):
        expected = [arena_fingerprint(_grow(*case)) for case in _build_cases()]
        fork_on(monkeypatch, cpus=3, build_lanes=1)

        def fail(*args):
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(call, fail)
        assert [arena_fingerprint(_grow(*case)) for case in _build_cases()] == expected

    def test_failed_child_block_is_built_again(self, monkeypatch):
        if not _can_fork():
            pytest.skip("this process cannot fork without a warning")
        X, sample_size, trees = _build_cases()[0]
        expected = arena_fingerprint(_grow(X, sample_size, trees))
        forks = fork_on(monkeypatch, cpus=3, build_lanes=1)
        parent, calls = os.getpid(), []
        one_process = ForestArena._grow_trees

        def grow_or_fail(arena, X, a, b, sample_size):
            if os.getpid() != parent:
                raise RuntimeError("the child fails, so it exits 1")
            calls.append((a, b))
            return one_process(arena, X, a, b, sample_size)

        monkeypatch.setattr(ForestArena, "_grow_trees", grow_or_fail)
        arena = _grow(X, sample_size, trees)
        assert arena_fingerprint(arena) == expected
        check_arena_invariants(arena)
        assert calls == [(0, 2), (2, 4), (4, 7)]  # the parent built all three blocks
        assert len(forks) == 2

    @pytest.mark.parametrize("sample_size", [None, 2], ids=["every-tree", "last-tree"])
    def test_overflowing_box_raises(self, monkeypatch, sample_size):
        # every tree overflows on all four rows; on subsamples of two, only
        # tree 5 of seed 0 draws both far rows, in the last child's block
        X = np.array([[-1e308, 0.0], [1e308, 0.0], [0.0, 1.0], [0.0, 2.0]])
        with pytest.raises(ValueError) as one_process:
            _grow(X, sample_size, 6)
        fork_on(monkeypatch, cpus=3, build_lanes=1)
        with pytest.raises(ValueError) as forked:
            _grow(X, sample_size, 6)
        assert str(forked.value) == str(one_process.value) == "box is too large: its linear dimension overflows to infinity"


class TestRescoreWindow:
    def test_full_rescore_is_pure(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(40, 2))
        forest = train_batch(X, ForestConfig(num_trees=5, psi=None, seed=0))
        first = score_all(X, forest)
        again = rescore_window(forest, X, window=None)
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    def test_window_selects_most_recent(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(30, 2))
        forest = train_batch(X, ForestConfig(num_trees=3, psi=None, seed=0))
        epl, s = rescore_window(forest, X, window=7)
        assert epl.shape == s.shape == (7,)
        full_epl, full_s = score_all(X, forest)
        assert np.array_equal(epl, full_epl[23:])
        assert np.array_equal(s, full_s[23:])

    @pytest.mark.parametrize("window", [1, 7, 80, 200])
    def test_window_scores_like_the_tail(self, window):
        rng = np.random.default_rng(18)
        X = np.vstack([rng.normal(size=(70, 3)), np.repeat(rng.normal(size=(2, 3)), 5, axis=0)])
        forest = train_batch(X, ForestConfig(num_trees=6, psi=32, seed=2))
        extend_forest(forest, X[-10:])
        got, want = rescore_window(forest, X, window=window), score_all(X[-window:], forest)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    def test_rescore_changes_after_extension(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(80, 2))
        forest = train_batch(X, ForestConfig(num_trees=10, psi=None, seed=1))
        _, stale = score_all(X, forest)
        extend_forest(forest, rng.uniform(-6, 6, size=(40, 2)))
        _, fresh = rescore_window(forest, X)
        assert np.any(stale != fresh)

    def test_invalid_window_rejected(self):
        X = np.random.default_rng(16).normal(size=(10, 2))
        forest = train_batch(X, ForestConfig(num_trees=2, psi=None, seed=0))
        with pytest.raises(ValueError):
            rescore_window(forest, X, window=0)

    def test_empty_input(self):
        X = np.random.default_rng(17).normal(size=(10, 2))
        forest = train_batch(X, ForestConfig(num_trees=2, psi=None, seed=0))
        for window in (None, 3):
            epl, s = rescore_window(forest, np.zeros((0, 2)), window=window)
            assert epl.dtype == s.dtype == np.float64
            assert epl.shape == s.shape == (0,)


class TestAnomalyOrdering:
    def test_synthetic_blob_auc(self):
        values = []
        for seed in range(10):
            ds = gen_synthetic(SyntheticSpec(n_inliers=255, n_outliers=45, seed=seed))
            forest = train_batch(ds.points, ForestConfig(num_trees=50, psi=256, seed=seed))
            _, scores = score_all(ds.points, forest)
            values.append(auc(scores, ds.labels))
        assert np.mean(values) >= 0.95


PUBLIC_API = [
    "CsvSchema", "DataFormatError", "DimensionMismatchError", "ExperimentResult", "Forest",
    "ForestConfig", "LabeledDataset", "ModelFormatError", "StratificationError", "SyntheticSpec",
    "anomaly_score", "assign_all", "auc", "c_factor", "extend_forest", "fit_kmeans2", "gen_synthetic", "harmonic",
    "kfold_split", "load_csv", "load_model", "rescore_window", "run_kfold_experiment", "run_stream_experiment",
    "save_model", "score_all", "stream_stages", "train_batch",
]


class TestPublicApi:
    def test_exported_names(self):
        assert len(PUBLIC_API) == 28
        assert imondrian.__all__ == PUBLIC_API
        for name in PUBLIC_API:
            assert getattr(imondrian, name) is not None

    def test_tree_views_report_the_arena_shape(self):
        # a tree is inspected through its row of the arena (README): node
        # fields of shape (trees, capacity[, dim]) and both sides of child
        X = np.random.default_rng(19).normal(size=(40, 2))
        forest = train_batch(X, ForestConfig(num_trees=3, psi=16, seed=0))
        extend_forest(forest, np.random.default_rng(20).uniform(-9.0, 9.0, size=(30, 2)))
        arena, T = forest.arena, forest.num_trees
        for name in FIELD_NAMES:
            assert getattr(arena, name).shape == (T, arena.capacity) + ((2,) if name.startswith("box") else ())
        assert arena.child.shape == (2 * T * arena.capacity,)
        for t, tree in enumerate(views(forest)):
            assert tree.size == arena.size[t]
            assert tree.capacity == arena.capacity


# the largest finite float64: a point at it on two or more dimensions
# overflows the linear dimension of any box of moderate size around it
FLOAT_MAX = np.finfo(float).max


class ForestMachine(RuleBasedStateMachine):
    """Every forest operation interleaved: one-point scores, which leave a
    walk, inserts of the walked point, of it moved along one dimension, of
    another point or of a duplicate, refused inserts, fills of distinct
    points that make the arena regrow, batch scores, window rescores of the
    points seen, and saving and loading mid-stream.

    After every step, each tree equals its per-tree reference
    (``reference.extend_tree`` from copies of the trees as built), generator
    included, the arena keeps its invariants, and the forest last loaded
    from a model file, which takes every operation since, is bit for bit
    the live one. Every score is the references' mean scoring depth."""

    def __init__(self):
        super().__init__()
        self.files = tempfile.TemporaryDirectory()
        self.loaded = None

    def teardown(self):
        self.files.cleanup()

    @initialize(
        n=st.integers(2, 30), d=st.integers(2, 3), trees=st.integers(1, 4),
        psi=st.none() | st.integers(2, 12), seed=st.integers(0, 2**31), repeated=st.booleans(),
    )
    def build(self, n, d, trees, psi, seed, repeated):
        X = random_dataset(np.random.default_rng(seed), n, d)
        if repeated:  # one point n times: every tree is one leaf
            X[:] = X[0]
        self.forest = train_batch(X, ForestConfig(num_trees=trees, psi=psi, seed=seed))
        self.refs = [copy.deepcopy(tree) for tree in views(self.forest)]
        self.seen = list(X)
        self.walked = X[0]  # the last point scored alone, a training point before any

    def _forests(self):
        return [self.forest] + ([self.loaded] if self.loaded is not None else [])

    def _point(self, outside: bool, seed: int) -> np.ndarray:
        """A point inside the box of the points seen so far, or within 10 of it."""
        lo, hi = np.min(self.seen, axis=0), np.max(self.seen, axis=0)
        pad = 10.0 if outside else 0.0
        return np.random.default_rng(seed).uniform(lo - pad, hi + pad)

    def _expected(self, X) -> list[float]:
        return [sum(scored_depth(ref, x) for ref in self.refs) / len(self.refs) for x in X]

    def _score(self, X) -> None:
        for forest in self._forests():
            assert score_all(X, forest)[0].tolist() == self._expected(X)

    def _extend(self, x) -> None:
        for forest in self._forests():
            extend_forest(forest, [x])
        for ref in self.refs:
            extend_tree(ref, x)
        self.seen.append(x)

    @rule(outside=st.booleans(), seed=st.integers(0, 2**31))
    def score_one(self, outside, seed):
        self.walked = self._point(outside, seed)
        self._score([self.walked])

    @rule()
    def extend_walked(self):
        self._extend(self.walked)

    @rule(outside=st.booleans(), seed=st.integers(0, 2**31))
    def extend_other(self, outside, seed):
        self._extend(self._point(outside, seed))

    @rule(seed=st.integers(0, 2**31))
    def extend_beside_walked(self, seed):
        # the walked point moved along one dimension: a walk looked up by
        # part of the point would be taken for it
        x = self.walked.copy()
        x[seed % x.size] = self._point(True, seed)[seed % x.size]
        self._extend(x)

    @rule(i=st.integers(0, 2**31))
    def extend_duplicate(self, i):
        self._extend(self.seen[i % len(self.seen)].copy())

    @rule(sign=st.sampled_from([-1.0, 1.0]))
    def extend_overflowing(self, sign):
        for forest in self._forests():
            before = arena_state(forest.arena)
            with pytest.raises(ValueError, match="overflow"):
                extend_forest(forest, [np.full(forest.dim, sign * FLOAT_MAX)])
            assert arena_state(forest.arena) == before

    @rule()
    def save_and_load(self):
        path = os.path.join(self.files.name, "forest.imf")
        save_model(self.forest, path)
        self.loaded = load_model(path)

    @rule(count=st.integers(2, 12), seed=st.integers(0, 2**31))
    def score_batch(self, count, seed):
        rng = np.random.default_rng(seed)
        seen = [self.seen[i] for i in rng.integers(0, len(self.seen), size=count // 2)]
        self._score(np.array(seen + [self._point(True, seed + j) for j in range(count - len(seen))]))

    @precondition(lambda self: self.forest.arena.capacity <= 64)
    @rule(seed=st.integers(0, 2**31))
    def fill(self, seed):
        # each distinct point takes two slots in every tree, so the arena
        # regrows within capacity / 2 of them
        before = self.forest.arena.capacity
        while self.forest.arena.capacity == before:
            seed += 1
            self._extend(self._point(True, seed))
        assert self.forest.arena.capacity == max(2 * before, 8)

    @rule(window=st.none() | st.integers(1, 40))
    def rescore(self, window):
        tail = self._expected(self.seen[-window:] if window else self.seen)
        for forest in self._forests():
            assert rescore_window(forest, np.array(self.seen), window=window)[0].tolist() == tail

    @invariant()
    def trees_match_references(self):
        arena = self.forest.arena
        check_arena_invariants(arena)
        assert [tree_bits(view(arena, t)) for t in range(arena.num_trees)] == [tree_bits(ref) for ref in self.refs]
        if self.loaded is not None:
            assert arena_fingerprint(self.loaded.arena) == arena_fingerprint(arena)


TestForestMachine = deterministic(40, stateful_step_count=25)(ForestMachine.TestCase)
