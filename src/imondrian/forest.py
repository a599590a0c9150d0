"""Ensemble training, anomaly scoring, and streaming extension.

The anomaly score of a point is 2 ** (-E(l) / c(n)), where E(l) is the mean
over the trees of the point's root-to-leaf path length plus c(m) for the m
points its leaf holds (0 for m = 1), and c(n) is the expected path length
of a random binary search tree on the n points each tree holds (its sample,
then every arrival), as in iForest (Liu, Ting & Zhou 2008). Deep points
(hard to isolate) score near 0, shallow points near 1, and a point exactly
as deep as the expected average scores 0.5.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .tree import Forest, as_points

# truncated Euler-Mascheroni constant, exactly as used by the normalization
EULER_GAMMA = 0.5772156649


def harmonic(i: int) -> float:
    """Approximate i-th harmonic number: ln(i) plus the Euler constant."""
    if i < 1:
        raise ValueError(f"harmonic number needs i >= 1, got {i}")
    return math.log(i) + EULER_GAMMA


def c_factor(n: int) -> float:
    """Expected path length of an n-point random binary search tree.

    c(n) = 2 * harmonic(n - 1) - 2 * (n - 1) / n, defined for n >= 2.
    """
    if n < 2:
        raise ValueError(f"c_factor needs n >= 2, got {n}")
    return 2.0 * harmonic(n - 1) - 2.0 * (n - 1) / n


def _leaf_depth(population: np.ndarray) -> np.ndarray:
    """c(m) for an array of leaf populations m: the expected depth still to
    go below a leaf holding m points, as iForest's PathLength adds it (Liu,
    Ting & Zhou 2008, Alg. 3). c(1) = 0 and c(m) = c_factor(m) for m >= 2;
    a leaf holds more than one point only for exact duplicates or a box a
    subnormal width wide."""
    term = np.zeros(population.shape)
    block = np.flatnonzero(population > 1)
    if block.size:
        m, which = np.unique(population[block], return_inverse=True)
        term[block] = np.array([c_factor(int(v)) for v in m])[which]
    return term


def anomaly_score(expected_path_length, n: int):
    """Map an expected path length (a scalar or an array) in trees of n
    points to the (0, 1] anomaly scale."""
    return np.exp2(-np.asarray(expected_path_length, dtype=float) / c_factor(n))


@dataclass(frozen=True)
class ForestConfig:
    """Training hyperparameters.

    ``psi`` is the per-tree subsample size; ``None`` (or the CLI's 0)
    disables subsampling and every tree sees the full batch. Subsampling
    only kicks in when the batch is actually larger than ``psi``.
    """

    num_trees: int = 100
    psi: int | None = 256
    seed: int = 0

    def __post_init__(self):
        # integers of any integral type are kept as Python ints, which
        # config_hash writes as JSON; bools, floats and the rest are refused
        for name, low in (("num_trees", 1), ("psi", 2), ("seed", 0)):
            value = getattr(self, name)
            if value is None and name == "psi":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}{' when subsampling' * (name == 'psi')}, got {value}")
            object.__setattr__(self, name, int(value))


def train_batch(points, config: ForestConfig | None = None) -> Forest:
    """Train a forest: one tree per independent subsample (Exp-clock cuts).

    Tree t's key is word t of ``SeedSequence(config.seed).generate_state``,
    which does not depend on ``num_trees``; its subsample (when active) and
    its cuts follow from that key alone (see ``Forest``), so a (data,
    config) pair reproduces the forest tree for tree. All trees are built
    level by level in one arena (see ``Forest.grow``).
    """
    cfg = config or ForestConfig()
    X = as_points(points)
    n = X.shape[0]
    if n < 2:
        raise ValueError(f"training needs at least 2 points, got {n}")
    subsampling = cfg.psi is not None and n > cfg.psi
    key = np.random.SeedSequence(cfg.seed).generate_state(cfg.num_trees, np.uint64)
    return Forest.grow(X, key, cfg.psi if subsampling else None)


def score_all(points, forest: Forest) -> tuple[np.ndarray, np.ndarray]:
    """Score a batch: ``(expected_path_length, score)`` float64 arrays in
    input order. A single point is scored as a one-row batch, and an empty
    batch (see ``as_points``) as no rows.

    All trees are walked in lockstep, one depth level per numpy step, and
    the scores are normalised by c(``forest.total_population``).
    """
    X = as_points(points, forest.dim)
    expected = forest.route(X, _leaf_depth) / forest.num_trees if X.shape[0] else np.zeros(0)
    return expected, anomaly_score(expected, forest.total_population)


def extend_forest(forest: Forest, new_points) -> Forest:
    """Insert streamed points one by one, in arrival order, into every tree.

    The batch is validated whole (``as_points``) before the first insert,
    so a ragged, non-finite or wrongly sized point anywhere in it changes
    nothing; a point whose deviation rate would overflow is refused by
    ``Forest.extend`` when it arrives. All trees take a point in one
    lockstep pass, each drawing from its own key only, so a tree grows the
    same way in any forest. Later scores are normalised by the grown
    population. Mutates in place and returns the forest.
    """
    for x in as_points(new_points, forest.dim):
        forest.extend(x)
    return forest


def rescore_window(
    forest: Forest,
    retained_points,
    window: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Recompute scores for the last ``window`` retained points (all if None).

    Pure read: returns ``(expected_path_length, score)`` arrays whose rows
    are the last ``window`` rows of ``retained_points``, validated whole as
    ``score_all`` validates a batch (so no rows give empty arrays).
    """
    if window is not None and window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    X = as_points(retained_points, forest.dim)
    return score_all(X if window is None else X[-window:], forest)
