"""Ensemble training, anomaly scoring, and streaming extension.

The anomaly score of a point is 2 ** (-E(l) / c(n)), where E(l) is the mean
over the trees of the point's root-to-leaf path length plus c(m) for the m
points its leaf holds (0 for m = 1), and c(n) is the expected path length
of a random binary search tree on n points. Deep points (hard to isolate)
score near 0, shallow points near 1, and a point exactly as deep as the
expected average scores 0.5.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .tree import ForestArena, as_point, as_points

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


def anomaly_score(expected_path_length, n_effective: int):
    """Map an expected path length (a scalar or an array) to the (0, 1]
    anomaly scale."""
    return np.exp2(-np.asarray(expected_path_length, dtype=float) / c_factor(n_effective))


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
        # save_model can write; bools, floats and the rest are refused
        for name in ("num_trees", "psi", "seed"):
            value = getattr(self, name)
            if value is None and name == "psi":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.num_trees < 1:
            raise ValueError(f"num_trees must be >= 1, got {self.num_trees}")
        if self.psi is not None and self.psi < 2:
            raise ValueError(f"psi must be >= 2 when subsampling, got {self.psi}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Forest:
    """A trained ensemble, its trees packed into one arena.

    ``n_effective`` is the sample size the score normalization uses: the
    subsample size when subsampling was applied, the batch size otherwise.
    Streaming extension leaves it fixed while every tree takes every
    arrival and deepens, so an extended forest's scores drift down and are
    not comparable with its scores after fit: after 1,000 inserts into 100
    psi-256 trees, threshold mode at 0.5 flagged 0.045 of anomalies instead
    of 0.514 (ROADMAP.md, item 13).
    """

    arena: ForestArena = field(repr=False)
    n_effective: int
    psi: int | None
    seed: int

    @property
    def num_trees(self) -> int:
        return self.arena.num_trees

    @property
    def dim(self) -> int:
        return self.arena.dim

    @property
    def total_population(self) -> int:
        """Points inserted into each tree (batch sample plus extensions)."""
        return int(self.arena.population[0, self.arena.root[0]])


def train_batch(points, config: ForestConfig | None = None) -> Forest:
    """Train a forest: one tree per independent subsample (Exp-clock cuts).

    Each tree owns a generator spawned from ``SeedSequence(config.seed)``,
    so no two trees of any two seeds share a stream; the subsample draw
    (when active) and then the tree's cuts come from that same generator,
    so a (data, config) pair reproduces the forest tree for tree, and tree t
    does not depend on ``num_trees``. All trees are built level by level in
    one arena (see ``ForestArena.grow``).
    """
    cfg = config or ForestConfig()
    X = as_points(points)
    n = X.shape[0]
    if n < 2:
        raise ValueError(f"training needs at least 2 points, got {n}")
    subsampling = cfg.psi is not None and n > cfg.psi
    rngs = [np.random.default_rng(seq) for seq in np.random.SeedSequence(cfg.seed).spawn(cfg.num_trees)]
    arena = ForestArena.grow(X, rngs, cfg.psi if subsampling else None)
    return Forest(arena=arena, n_effective=cfg.psi if subsampling else n, psi=cfg.psi, seed=cfg.seed)


def score_all(points, forest: Forest) -> tuple[np.ndarray, np.ndarray]:
    """Score a batch: ``(expected_path_length, score)`` float64 arrays in
    input order. A single point is scored as a one-row batch.

    All trees are walked in lockstep, one depth level per numpy step.
    """
    if _is_empty(points):
        return np.zeros(0), np.zeros(0)
    expected = forest.arena.route(as_points(points, forest.dim), _leaf_depth) / forest.num_trees
    return expected, anomaly_score(expected, forest.n_effective)


def _is_empty(points) -> bool:
    if points is None:
        return True
    try:
        return len(points) == 0
    except TypeError:
        return False


def extend_forest(forest: Forest, new_points) -> Forest:
    """Insert streamed points one by one, in arrival order, into every tree.

    Each point is validated before any tree sees it, so a bad point aborts
    without partially mutating the forest for that point; all trees take a
    point in one lockstep pass (``ForestArena.extend``), each drawing from
    its own generator only, so a tree grows the same way in any forest.
    ``n_effective`` is left unchanged, so scores drift down as the trees
    deepen (see ``Forest``). Mutates in place and returns the forest.
    """
    if _is_empty(new_points):
        return forest
    for raw in new_points:
        forest.arena.extend(as_point(raw, forest.dim))
    return forest


def rescore_window(
    forest: Forest,
    retained_points,
    window: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Recompute scores for the last ``window`` retained points (all if None).

    Pure read: returns ``(expected_path_length, score)`` arrays whose rows
    are the last ``window`` rows of ``retained_points``.
    """
    if window is not None and window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if _is_empty(retained_points):
        return score_all(retained_points, forest)
    X = as_points(retained_points, forest.dim)
    return score_all(X if window is None else X[-window:], forest)
