"""Score-to-label conversion: threshold rule and 1-D 2-means."""

from __future__ import annotations

import numpy as np
import pytest

from imondrian.decision import (
    KMEANS,
    THRESHOLD,
    DecisionModel,
    assign_all,
    fit_kmeans2,
)

from helpers import kmeans2_oracle


def label_at(scores, threshold=0.5):
    return assign_all(DecisionModel(mode=THRESHOLD, threshold=threshold), scores).tolist()


class TestLabelThreshold:
    def test_basic_split(self):
        assert label_at([0.4, 0.6]) == [0, 1]

    def test_boundary_is_normal(self):
        assert label_at([0.5]) == [0]

    def test_mixed(self):
        assert label_at([0.49, 0.51, 0.99, 0.01]) == [0, 1, 1, 0]

    def test_custom_threshold(self):
        assert label_at([0.2, 0.35], threshold=0.3) == [0, 1]

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_threshold_out_of_range(self, bad):
        with pytest.raises(ValueError):
            DecisionModel(mode=THRESHOLD, threshold=bad)


class TestFitKmeans2:
    def test_symmetric_separation(self):
        model = fit_kmeans2([0.1, 0.2, 0.8, 0.9])
        assert model.cluster_means == pytest.approx((0.15, 0.85))
        assert assign_all(model, [0.1, 0.2, 0.8, 0.9]).tolist() == [0, 0, 1, 1]

    def test_singleton_upper_cluster(self):
        model = fit_kmeans2([0.1, 0.1, 0.1, 0.9])
        assert assign_all(model, [0.1, 0.1, 0.1, 0.9]).tolist() == [0, 0, 0, 1]

    def test_two_bands_match_optimal_split(self):
        rng = np.random.default_rng(0)
        scores = np.concatenate(
            [rng.uniform(0.25, 0.45, 120), rng.uniform(0.6, 0.8, 80)]
        )
        rng.shuffle(scores)
        model = fit_kmeans2(scores)
        want, means = kmeans2_oracle(scores)
        assert assign_all(model, scores).tolist() == want.tolist()
        assert model.cluster_means == pytest.approx(means, rel=1e-12)

    def test_degenerate_all_equal(self):
        with pytest.raises(ValueError):
            fit_kmeans2([0.4, 0.4, 0.4])

    def test_too_few_scores(self):
        with pytest.raises(ValueError):
            fit_kmeans2([0.4])

    def test_random_vectors_match_sorted_split_oracle(self):
        rng = np.random.default_rng(123)
        for trial in range(30):
            n = int(rng.integers(2, 400))
            style = trial % 3
            if style == 0:
                scores = rng.uniform(0.0, 1.0, n)
            elif style == 1:
                scores = np.clip(np.concatenate([
                    rng.normal(0.35, 0.05, n // 2),
                    rng.normal(0.7, 0.05, n - n // 2),
                ]), 0.0, 1.0)
            else:
                scores = rng.beta(2.0, 5.0, n)
            if np.unique(scores).size < 2:
                continue
            model = fit_kmeans2(scores)
            want, _ = kmeans2_oracle(scores)
            assert assign_all(model, scores).tolist() == want.tolist()


class TestAssign:
    def test_kmeans_nearest_mean(self):
        model = DecisionModel(mode=KMEANS, cluster_means=(0.2, 0.8))
        assert assign_all(model, [0.3, 0.79]).tolist() == [0, 1]

    def test_equidistant_resolves_normal(self):
        model = DecisionModel(mode=KMEANS, cluster_means=(0.2, 0.8))
        assert assign_all(model, [0.5]).tolist() == [0]

    def test_threshold_mode(self):
        assert label_at([0.5, 0.50001]) == [0, 1]

    def test_unfitted_kmeans_rejected(self):
        with pytest.raises(ValueError):
            DecisionModel(mode=KMEANS, cluster_means=None)
        with pytest.raises(ValueError):
            DecisionModel(mode=KMEANS, cluster_means=(0.4, 0.4))

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            DecisionModel(mode="quantile")


class TestLabelMonotonicity:
    def test_both_modes(self):
        rng = np.random.default_rng(7)
        scores = rng.uniform(0.0, 1.0, 200)
        kmodel = fit_kmeans2(scores)
        tmodel = DecisionModel(mode=THRESHOLD, threshold=0.5)
        for model in (kmodel, tmodel):
            labels = assign_all(model, scores)
            order = np.argsort(scores)
            # once anomalous, higher scores stay anomalous
            flags = labels[order]
            assert np.all(np.diff(flags) >= 0)


class TestModesAgreeOnSeparatedData:
    def test_gap_straddling_half(self):
        rng = np.random.default_rng(9)
        scores = np.concatenate([rng.uniform(0.2, 0.42, 140), rng.uniform(0.58, 0.85, 60)])
        rng.shuffle(scores)
        kmodel = fit_kmeans2(scores)
        assert assign_all(kmodel, scores).tolist() == label_at(scores)
