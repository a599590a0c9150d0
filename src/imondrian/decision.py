"""Turn anomaly scores into binary labels with one cut.

A score strictly above the cut is an anomaly. The cut is either fixed
(0.5 by default) or the boundary of the exact 1-D 2-means split of the
score distribution. The k-means cut is preferred online, where 0.5 is not
necessarily the right boundary after the forest has grown.
"""

from __future__ import annotations

import numpy as np

THRESHOLD = "threshold"
KMEANS = "kmeans"


def fit_kmeans2(scores) -> float:
    """The midpoint of the two means of the optimal 2-means split of ``scores``.

    In one dimension the optimal 2-means clustering is a contiguous split
    of the sorted values, so the global optimum comes from a single sweep
    over the n - 1 boundaries with running sums. (Lloyd iteration seeded at
    (min, max) sticks in local optima on roughly a fifth of random score
    vectors; the sweep is deterministic and exact, and its result is a
    converged fixed point of Lloyd.) Scores above the midpoint are nearer
    the upper mean. All-equal scores are degenerate - callers fall back to
    a fixed cut.
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
    return (m_low + m_high) / 2.0


def assign_all(cut: float, scores) -> np.ndarray:
    """Label scores: 1 (anomaly) where a score exceeds ``cut``, else 0.

    A score equal to the cut is normal. Any float is a cut; the CLI checks
    the range of ``--threshold``.
    """
    return (np.asarray(scores, dtype=float) > cut).astype(np.int64)
