"""AUC, stratified splits, and the streaming experiment driver."""

from __future__ import annotations

import numpy as np
import pytest

from imondrian.data_io import SyntheticSpec, gen_synthetic
from imondrian.errors import StratificationError
from imondrian.evaluation import (
    LabeledDataset,
    auc,
    kfold_split,
    run_kfold_experiment,
    run_stream_experiment,
    stream_stages,
)
from imondrian.forest import ForestConfig, score_all, train_batch

from helpers import auc_oracle


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0

    def test_all_ties_give_half(self):
        assert auc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5

    def test_hand_counted_pairs(self):
        # anomaly wins 3 of 4 (anomaly, normal) pairs
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(4, 120))
            labels = np.zeros(n, dtype=int)
            labels[: max(1, n // 4)] = 1
            rng.shuffle(labels)
            scores = rng.uniform(size=n)
            if rng.random() < 0.5:
                scores = np.round(scores, 1)  # force ties
            assert auc(scores, labels) == pytest.approx(auc_oracle(scores, labels), abs=1e-12)

    @pytest.mark.parametrize("levels", [[-0.5, 0.0, 0.5, 1.0], [-np.inf, 0.0, 0.25, np.inf]], ids=["finite", "infinite"])
    def test_matches_pairwise_oracle_on_few_levels(self, levels):
        # most scores share a value with many others
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(4, 120))
            labels = np.zeros(n, dtype=int)
            labels[: max(1, n // 4)] = 1
            rng.shuffle(labels)
            scores = np.array(levels)[rng.integers(0, len(levels), size=n)]
            assert auc(scores, labels) == pytest.approx(auc_oracle(scores, labels), abs=1e-12)

    def test_tied_infinite_scores(self):
        for labels in ([1, 0, 0], [0, 1, 0]):
            assert auc([np.inf, np.inf, 0.5], labels) == 0.75
            assert auc([-np.inf, -np.inf, 0.5], labels) == 0.25

    def test_nan_score_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            auc([np.nan, 0.5, 0.25], [1, 0, 0])

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(size=60)
        labels = (rng.uniform(size=60) < 0.3).astype(int)
        labels[0] = 1
        labels[1] = 0
        base = auc(scores, labels)
        assert auc(np.exp(3 * scores), labels) == pytest.approx(base, abs=1e-12)
        assert auc(scores**3, labels) == pytest.approx(base, abs=1e-12)

    def test_flip_identity(self):
        rng = np.random.default_rng(5)
        scores = np.round(rng.uniform(size=80), 1)
        labels = (rng.uniform(size=80) < 0.4).astype(int)
        labels[:2] = [0, 1]
        assert auc(scores, labels) + auc(scores, 1 - labels) == pytest.approx(1.0, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [1, 1])
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [0, 0])

    @pytest.mark.parametrize(
        "labels", [[1, 0, 2], [1.0, 0.0, 0.7], [1.0, 0.0, np.nan], ["1", "0", "0"]],
        ids=["two", "fraction", "nan", "digit-strings"],
    )
    def test_labels_outside_zero_one_rejected(self, labels):
        # checked before the int64 cast, which would read 0.7 as 0 and "1" as 1
        with pytest.raises(ValueError, match=r"labels must be 0 \(normal\) or 1 \(anomaly\)"):
            auc([0.9, 0.1, 0.5], labels)

    def test_float_and_bool_labels_of_zero_and_one_accepted(self):
        assert auc([0.9, 0.1, 0.5], [1.0, 0.0, 0.0]) == auc([0.9, 0.1, 0.5], [True, False, False]) == 1.0


def _toy_dataset(n=40, anomalies=8, seed=0) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=int)
    labels[:anomalies] = 1
    rng.shuffle(labels)
    return LabeledDataset(points=rng.normal(size=(n, 2)), labels=labels, name="toy")


class TestLabeledDataset:
    def test_empty_dataset_has_no_rows(self):
        ds = LabeledDataset(points=np.zeros((0, 0)), labels=[])
        assert ds.n == 0 and ds.anomaly_count == 0

    def test_empty_dataset_keeps_its_dimension(self):
        ds = LabeledDataset(points=np.zeros((0, 3)), labels=[])
        assert ds.points.shape == (0, 3) and ds.dim == 3

    def test_labels_must_match_points(self):
        with pytest.raises(ValueError, match="0 labels for 3 points"):
            LabeledDataset(points=np.ones((3, 2)), labels=[])
        with pytest.raises(ValueError, match="nonempty"):
            LabeledDataset(points=np.zeros((0, 2)), labels=[0])

    def test_fractional_labels_rejected_not_truncated(self):
        with pytest.raises(ValueError, match=r"labels must be 0 \(normal\) or 1 \(anomaly\)"):
            LabeledDataset(points=np.ones((3, 2)), labels=[0.7, 1.0, 1.9])

    def test_float_labels_of_zero_and_one_stored_as_int64(self):
        ds = LabeledDataset(points=np.ones((3, 2)), labels=[0.0, 1.0, 1.0])
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1, 1]


class TestKfoldSplit:
    def test_singleton_folds(self):
        ds = _toy_dataset(n=10, anomalies=3)
        splits = kfold_split(ds, k=10, seed=0)
        assert len(splits) == 10
        assert sorted(len(test) for _, test in splits) == [1] * 10

    def test_stratification(self):
        ds = _toy_dataset(n=10, anomalies=4)
        for _, test in kfold_split(ds, k=2, seed=1):
            assert ds.labels[test].sum() == 2

    def test_partition_property(self):
        ds = _toy_dataset(n=53, anomalies=11)
        splits = kfold_split(ds, k=5, seed=2)
        union = np.concatenate([test for _, test in splits])
        assert np.array_equal(np.sort(union), np.arange(53))
        for train, test in splits:
            assert np.intersect1d(train, test).size == 0
            assert train.size + test.size == 53

    def test_deterministic(self):
        ds = _toy_dataset(n=30, anomalies=6)
        a = kfold_split(ds, k=3, seed=7)
        b = kfold_split(ds, k=3, seed=7)
        for (tr1, te1), (tr2, te2) in zip(a, b):
            assert np.array_equal(tr1, tr2) and np.array_equal(te1, te2)

    def test_folds_pinned(self):
        # anomalies then normals, each shuffled, dealt round-robin onto the folds
        ds = LabeledDataset(points=np.arange(13.0), labels=[0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0])
        splits = kfold_split(ds, k=3, seed=11)
        assert [test.tolist() for _, test in splits] == [[3, 5, 6, 8, 11], [2, 4, 7, 9], [0, 1, 10, 12]]
        assert [train.tolist() for train, _ in splits] == [
            [0, 1, 2, 4, 7, 9, 10, 12], [0, 1, 3, 5, 6, 8, 10, 11, 12], [2, 3, 4, 5, 6, 7, 8, 9, 11],
        ]

    def test_k_bounds(self):
        ds = _toy_dataset(n=10, anomalies=3)
        with pytest.raises(ValueError):
            kfold_split(ds, k=1)
        with pytest.raises(ValueError):
            kfold_split(ds, k=11)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            kfold_split(_toy_dataset(n=10, anomalies=3), k=2, seed=-1)


class TestStreamStages:
    def test_even_partition(self):
        ds = _toy_dataset(n=100, anomalies=10, seed=3)
        stages = stream_stages(ds, num_stages=5, seed=0)
        assert len(stages) == 5
        for stage in stages:
            assert stage.size == 20
            assert ds.labels[stage].sum() == 2

    def test_within_one_stratification(self):
        ds = _toy_dataset(n=60, anomalies=9, seed=4)
        stages = stream_stages(ds, num_stages=5, seed=1)
        counts = [int(ds.labels[stage].sum()) for stage in stages]
        assert set(counts) <= {1, 2}
        assert sum(counts) == 9

    def test_stages_partition_everything(self):
        ds = _toy_dataset(n=83, anomalies=12, seed=5)
        union = np.concatenate(stream_stages(ds, num_stages=4, seed=2))
        assert np.array_equal(np.sort(union), np.arange(83))

    def test_infeasible_stratification(self):
        ds = _toy_dataset(n=50, anomalies=3, seed=6)
        with pytest.raises(StratificationError):
            stream_stages(ds, num_stages=5, seed=0)

    def test_stages_pinned(self):
        ds = LabeledDataset(points=np.arange(13.0), labels=[0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0])
        stages = stream_stages(ds, num_stages=3, seed=12)
        assert [stage.tolist() for stage in stages] == [[10, 4, 8, 9, 12], [2, 7, 0, 11], [5, 3, 6, 1]]

    def test_deterministic(self):
        ds = _toy_dataset(n=40, anomalies=10, seed=7)
        a = stream_stages(ds, num_stages=5, seed=3)
        b = stream_stages(ds, num_stages=5, seed=3)
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1, s2)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            stream_stages(_toy_dataset(n=40, anomalies=10), num_stages=5, seed=-1)


class TestRunStreamExperiment:
    def _dataset(self, seed=0):
        return gen_synthetic(SyntheticSpec(n_inliers=150, n_outliers=30, seed=seed))

    def test_single_stage_equals_batch(self):
        ds = self._dataset()
        cfg = ForestConfig(num_trees=20, psi=None, seed=0)
        result = run_stream_experiment(ds, cfg, num_stages=1)
        assert result.num_stages == 1
        assert result.stage_sizes == [ds.n]
        # stage-1 scores equal a plain batch run on the same (permuted) subset
        forest = train_batch(ds.points[result.seen_indices], cfg)
        _, want = score_all(ds.points[result.seen_indices], forest)
        assert np.allclose(result.final_scores, want, rtol=0, atol=0)

    def test_stage_counts_and_accumulation(self):
        ds = self._dataset(seed=1)
        result = run_stream_experiment(ds, ForestConfig(num_trees=10, psi=None, seed=1), num_stages=5)
        assert len(result.stage_auc) == 5
        assert len(result.stage_seconds) == 5
        assert result.stage_sizes == [36, 72, 108, 144, 180]
        assert np.array_equal(np.sort(result.seen_indices), np.arange(ds.n))
        # scored points at stage t are exactly the union of stages 1..t
        stages = stream_stages(ds, num_stages=5, seed=1)
        assert np.array_equal(result.seen_indices, np.concatenate(stages))
        assert result.stage_sizes == np.cumsum([s.size for s in stages]).tolist()

    def test_rows_shape(self):
        ds = self._dataset(seed=2)
        result = run_stream_experiment(ds, ForestConfig(num_trees=5, psi=None, seed=2), num_stages=3)
        rows = result.to_rows()
        assert [r["unit"] for r in rows] == ["stage-1", "stage-2", "stage-3"]
        assert all(r["split"] == "stream" for r in rows)
        assert all(0.0 <= r["auc"] <= 1.0 for r in rows)

    def test_windowed_rescore(self):
        ds = self._dataset(seed=3)
        result = run_stream_experiment(ds, ForestConfig(num_trees=5, psi=None, seed=3), num_stages=3, window=40)
        assert result.final_scores.size == 40

    def test_false_alarms_recover_with_data(self):
        # early stages under-represent the inlier core; later arrivals there
        # must push those scores back down
        deltas = []
        for seed in range(6):
            ds = gen_synthetic(SyntheticSpec(n_inliers=255, n_outliers=45, seed=seed))
            cfg = ForestConfig(num_trees=25, psi=None, seed=seed)
            stage1 = stream_stages(ds, num_stages=5, seed=seed)[0]
            inliers_s1 = stage1[ds.labels[stage1] == 0]
            forest = train_batch(ds.points[stage1], cfg)
            early = np.mean(score_all(ds.points[inliers_s1], forest)[1])
            result = run_stream_experiment(ds, cfg, num_stages=5)
            final_lookup = dict(zip(result.seen_indices.tolist(), result.final_scores))
            late = np.mean([final_lookup[i] for i in inliers_s1.tolist()])
            deltas.append(early - late)
        assert np.mean(deltas) > 0.0


class TestRunKfoldExperiment:
    def test_fold_metrics_present(self):
        ds = gen_synthetic(SyntheticSpec(n_inliers=80, n_outliers=20, seed=4))
        results = run_kfold_experiment(ds, ForestConfig(num_trees=10, psi=None, seed=4), k=4)
        assert len(results) == 4
        for res in results:
            assert 0.0 <= res.train_auc <= 1.0
            assert 0.0 <= res.test_auc <= 1.0
            assert res.train_seconds >= 0.0 and res.test_seconds >= 0.0

    def test_folds_cut_with_the_config_seed(self):
        # labels at random, so that each fold's AUC depends on the fold
        ds = _toy_dataset(n=60, anomalies=15, seed=5)
        cfg = ForestConfig(num_trees=5, psi=None, seed=9)
        results = run_kfold_experiment(ds, cfg, k=3)
        for res, (train, test) in zip(results, kfold_split(ds, 3, seed=9)):
            forest = train_batch(ds.points[train], cfg)
            assert res.test_auc == auc(score_all(ds.points[test], forest)[1], ds.labels[test])
