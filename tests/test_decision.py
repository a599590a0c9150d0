"""Score-to-label conversion: one cut, fixed or from 1-D 2-means."""

from __future__ import annotations

import numpy as np
import pytest

from imondrian.decision import assign_all, fit_kmeans2

from helpers import kmeans2_oracle


def label_at(scores, threshold=0.5):
    return assign_all(threshold, scores).tolist()


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
        # the library takes any float as a cut; the CLI checks --threshold
        scores = [-1.0, 0.0, 0.5, 1.0, 3.0]
        assert label_at(scores, threshold=bad) == [int(s > bad) for s in scores]


class TestFitKmeans2:
    def test_symmetric_separation(self):
        cut = fit_kmeans2([0.1, 0.2, 0.8, 0.9])
        assert cut == pytest.approx(0.5)
        assert assign_all(cut, [0.1, 0.2, 0.8, 0.9]).tolist() == [0, 0, 1, 1]

    def test_singleton_upper_cluster(self):
        cut = fit_kmeans2([0.1, 0.1, 0.1, 0.9])
        assert assign_all(cut, [0.1, 0.1, 0.1, 0.9]).tolist() == [0, 0, 0, 1]

    def test_two_bands_match_optimal_split(self):
        rng = np.random.default_rng(0)
        scores = np.concatenate(
            [rng.uniform(0.25, 0.45, 120), rng.uniform(0.6, 0.8, 80)]
        )
        rng.shuffle(scores)
        cut = fit_kmeans2(scores)
        want, means = kmeans2_oracle(scores)
        assert assign_all(cut, scores).tolist() == want.tolist()
        assert cut == pytest.approx(sum(means) / 2, rel=1e-12)

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
            want, _ = kmeans2_oracle(scores)
            assert assign_all(fit_kmeans2(scores), scores).tolist() == want.tolist()


class TestAssign:
    def test_kmeans_nearest_mean(self):
        # the cut is the midpoint of the cluster means 0.2 and 0.8
        cut = fit_kmeans2([0.1, 0.3, 0.7, 0.9])
        assert cut == pytest.approx(0.5)
        assert assign_all(cut, [0.3, 0.49, 0.51, 0.79]).tolist() == [0, 0, 1, 1]

    def test_equidistant_resolves_normal(self):
        # a score equal to the cut is normal, the next float up an anomaly
        cut = fit_kmeans2([0.25, 0.25, 0.75, 0.75])
        assert cut == 0.5
        assert assign_all(cut, [cut, np.nextafter(cut, 1.0)]).tolist() == [0, 1]

    def test_threshold_mode(self):
        assert label_at([0.5, 0.50001]) == [0, 1]


class TestLabelMonotonicity:
    def test_both_modes(self):
        rng = np.random.default_rng(7)
        scores = rng.uniform(0.0, 1.0, 200)
        for cut in (fit_kmeans2(scores), 0.5):
            labels = assign_all(cut, scores)
            order = np.argsort(scores)
            # once anomalous, higher scores stay anomalous
            flags = labels[order]
            assert np.all(np.diff(flags) >= 0)


class TestModesAgreeOnSeparatedData:
    def test_gap_straddling_half(self):
        rng = np.random.default_rng(9)
        scores = np.concatenate([rng.uniform(0.2, 0.42, 140), rng.uniform(0.58, 0.85, 60)])
        rng.shuffle(scores)
        assert assign_all(fit_kmeans2(scores), scores).tolist() == label_at(scores)
