"""Turn anomaly scores into binary labels.

Two modes: a fixed score threshold (strict >, default 0.5), or 1-D 2-means
over the score distribution with the greater-mean cluster taken as the
anomalies. The k-means route is preferred online, where 0.5 is not
necessarily the right boundary after the forest has grown.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

THRESHOLD = "threshold"
KMEANS = "kmeans"


@dataclass(frozen=True)
class DecisionModel:
    """A fitted labeling rule; immutable, safe to share across threads."""

    mode: str
    threshold: float = 0.5
    cluster_means: tuple[float, float] | None = None

    def __post_init__(self):
        if self.mode not in (THRESHOLD, KMEANS):
            raise ValueError(f"unknown decision mode {self.mode!r}")
        if self.mode == THRESHOLD and not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")
        if self.mode == KMEANS:
            if self.cluster_means is None:
                raise ValueError("kmeans mode requires fitted cluster means")
            lo, hi = self.cluster_means
            if not lo < hi:
                raise ValueError(f"cluster means must be distinct, got {self.cluster_means}")


def fit_kmeans2(scores) -> DecisionModel:
    """Cluster scores into two groups minimizing within-cluster variance.

    In one dimension the optimal 2-means clustering is a contiguous split
    of the sorted values, so the global optimum comes from a single sweep
    over the n - 1 boundaries with running sums. (Lloyd iteration seeded at
    (min, max) sticks in local optima on roughly a fifth of random score
    vectors; the sweep is deterministic and exact, and its result is a
    converged fixed point of Lloyd.) All-equal scores are degenerate -
    callers fall back to the threshold rule.
    """
    s = np.asarray(scores, dtype=float).ravel()
    if s.size < 2:
        raise ValueError(f"2-means needs at least 2 scores, got {s.size}")
    v = np.sort(s, kind="mergesort")
    if v[0] == v[-1]:
        raise ValueError("all scores are equal; 2-means is degenerate")
    n = v.size
    # WCSS(k) = sum(v^2) - left^2/k - right^2/(n-k); maximize the subtracted part
    left = np.cumsum(v)[:-1]
    k = np.arange(1, n)
    right = left[-1] + v[-1] - left
    objective = left**2 / k + right**2 / (n - k)
    best = int(np.argmax(objective))
    m_low = float(left[best] / (best + 1))
    m_high = float(right[best] / (n - best - 1))
    return DecisionModel(mode=KMEANS, cluster_means=(m_low, m_high))


def assign_all(model: DecisionModel, scores) -> np.ndarray:
    """Label scores with a fitted model: 1 = anomaly, 0 = normal.

    Threshold mode compares strictly; kmeans mode picks the nearer cluster
    mean, with equidistant scores resolving to normal.
    """
    s = np.asarray(scores, dtype=float)
    if model.mode == THRESHOLD:
        return (s > model.threshold).astype(np.int64)
    m_low, m_high = model.cluster_means
    return (np.abs(s - m_high) < np.abs(s - m_low)).astype(np.int64)
