"""Evaluation machinery: ROC-AUC, stratified splits, and experiment drivers.

The streaming driver simulates a feed by cutting a labeled dataset into
stratified stages (equal anomaly counts, to within one), training on the
first stage and extending the forest with each later stage, re-scoring the
accumulated history after every step.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import StratificationError
from .forest import Forest, ForestConfig, extend_forest, rescore_window, score_all, train_batch
from .tree import as_points


@dataclass
class LabeledDataset:
    """Feature matrix plus ground-truth anomaly labels (0 normal, 1 anomaly).

    Labels are only ever used for evaluation, never for training.
    """

    points: np.ndarray
    labels: np.ndarray
    name: str = "dataset"

    def __post_init__(self):
        self.labels = _as_labels(self.labels)
        if self.labels.size or np.size(self.points):
            self.points = as_points(self.points)
        else:  # no rows (a header-only file) is a dataset of (0, d) points; training rejects it
            self.points = np.zeros((0, np.shape(self.points)[1] if np.ndim(self.points) == 2 else 0))
        if self.labels.size != self.points.shape[0]:
            raise ValueError(
                f"{self.labels.size} labels for {self.points.shape[0]} points"
            )

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def anomaly_count(self) -> int:
        return int(self.labels.sum())


def _as_labels(labels) -> np.ndarray:
    """Anomaly labels as a flat int64 array; ValueError unless every value
    is 0 or 1, checked before the cast so that 0.7 or 2 is never read as a
    label."""
    y = np.asarray(labels).ravel()
    if y.size and not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 (normal) or 1 (anomaly)")
    return y.astype(np.int64)


def auc(scores, labels) -> float:
    """Probability that a random anomaly outscores a random normal point.

    Rank (Mann-Whitney) formulation with tied scores counted half, so the
    value depends only on the ordering of the scores; equal infinite scores
    tie too. NaN scores raise ValueError.
    """
    s = np.asarray(scores, dtype=float).ravel()
    y = _as_labels(labels)
    if s.size != y.size:
        raise ValueError(f"{s.size} scores for {y.size} labels")
    if np.isnan(s).any():
        raise ValueError("AUC needs scores that are not NaN")
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one anomaly and one normal point")
    # each tie group's average 1-based rank
    _, group, count = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(count) - (count - 1) / 2.0)[group]
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def kfold_split(dataset: LabeledDataset, k: int, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Stratified k-fold: disjoint test folds covering the dataset.

    Each class is shuffled once, and the shuffled anomalies followed by the
    shuffled normals are dealt round-robin onto the folds, so per-fold class
    counts differ by at most one and overall fold sizes stay balanced (k = n
    gives singleton folds). Deterministic under the seed, which obeys the
    rule of ``ForestConfig.seed``.
    """
    n = dataset.n
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > n:
        raise ValueError(f"k = {k} folds but only {n} points")
    rng = np.random.default_rng(ForestConfig(seed=seed).seed)
    classes = [np.flatnonzero(dataset.labels == cls) for cls in (1, 0)]
    for idx in classes:
        rng.shuffle(idx)
    dealt = np.concatenate(classes)
    everything = np.arange(n)
    tests = [np.sort(dealt[f::k]) for f in range(k)]
    return [(np.setdiff1d(everything, test, assume_unique=True), test) for test in tests]


def check_strata(labels, parts: int, unit: str, classes=(1, 0)) -> None:
    """StratificationError unless each of ``classes`` (1 anomalies, 0
    normals) has at least one member per part, so that ``parts`` stratified
    ``unit`` each hold one of it."""
    for cls in classes:
        count = int(np.count_nonzero(np.asarray(labels) == cls))
        if count < parts:
            raise StratificationError(f"{count} {('normals', 'anomalies')[cls]} cannot stratify into {parts} {unit}")


def stream_stages(dataset: LabeledDataset, num_stages: int = 5, seed: int = 0) -> list[np.ndarray]:
    """Partition a labeled dataset into stages (one index array each) with
    equal anomaly counts.

    Both classes are spread to within one item per stage. Infeasible when
    there are fewer anomalies than stages. The seed obeys the rule of
    ``ForestConfig.seed``.
    """
    if num_stages < 1:
        raise ValueError(f"num_stages must be >= 1, got {num_stages}")
    check_strata(dataset.labels, num_stages, "stages", classes=(1,))
    rng = np.random.default_rng(ForestConfig(seed=seed).seed)
    anom = np.flatnonzero(dataset.labels == 1)
    norm = np.flatnonzero(dataset.labels == 0)
    rng.shuffle(anom)
    rng.shuffle(norm)
    stages = []
    for a, b in zip(np.array_split(anom, num_stages), np.array_split(norm, num_stages)):
        stage = np.concatenate([a, b])
        rng.shuffle(stage)  # arrival order within the stage
        stages.append(stage)
    return stages


def config_hash(config: ForestConfig) -> str:
    payload = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _rows(dataset: str, config: ForestConfig, units) -> list[dict]:
    """Result-table rows, one per ``(unit, split, auc, seconds)`` of ``units``."""
    chash = config_hash(config)
    return [
        {"dataset": dataset, "unit": unit, "split": split, "auc": value, "seconds": seconds, "config_hash": chash}
        for unit, split, value, seconds in units
    ]


@dataclass
class ExperimentResult:
    """Per-stage metrics from one streaming run.

    ``final_scores`` are the recalculated scores of the points seen by the
    last stage (all of them, or the trailing ``window``), aligned with the
    tail of ``seen_indices``; the forest itself rides along for callers that
    want to keep scoring, e.g. a grid dump.
    """

    dataset: str
    config: ForestConfig
    stage_sizes: list[int]
    stage_auc: list[float]
    stage_seconds: list[float]
    window: int | None = None
    seen_indices: np.ndarray | None = field(default=None, repr=False)
    final_scores: np.ndarray | None = field(default=None, repr=False)
    forest: Forest | None = field(default=None, repr=False)

    @property
    def num_stages(self) -> int:
        return len(self.stage_auc)

    def to_rows(self) -> list[dict]:
        stages = zip(self.stage_auc, self.stage_seconds)
        return _rows(self.dataset, self.config, [(f"stage-{i + 1}", "stream", *row) for i, row in enumerate(stages)])


def run_stream_experiment(
    dataset: LabeledDataset,
    config: ForestConfig | None = None,
    num_stages: int = 5,
    window: int | None = None,
) -> ExperimentResult:
    """Train on stage 1, extend with stages 2..k, re-scoring after each.

    The stages are cut with the config's seed. The AUC of a stage covers
    every point seen up to that stage (or just the trailing ``window``
    points when a window is set), always with freshly recalculated scores.
    Stage timings cover extension plus the re-score.
    """
    cfg = config or ForestConfig()
    stages = stream_stages(dataset, num_stages=num_stages, seed=cfg.seed)
    X = dataset.points
    y = dataset.labels

    stage_auc: list[float] = []
    stage_seconds: list[float] = []
    stage_sizes: list[int] = []
    seen = stages[0]
    forest = None
    scores = None
    for stage_index, batch in enumerate(stages):
        start = time.perf_counter()
        if stage_index == 0:
            forest = train_batch(X[seen], cfg)
        else:
            extend_forest(forest, X[batch])
            seen = np.concatenate([seen, batch])
        _, scores = rescore_window(forest, X[seen], window=window)
        elapsed = time.perf_counter() - start
        stage_auc.append(auc(scores, y[seen[seen.size - scores.size :]]))
        stage_seconds.append(elapsed)
        stage_sizes.append(int(seen.size))
    return ExperimentResult(
        dataset=dataset.name,
        config=cfg,
        stage_sizes=stage_sizes,
        stage_auc=stage_auc,
        stage_seconds=stage_seconds,
        window=window,
        seen_indices=seen,
        final_scores=scores,
        forest=forest,
    )


@dataclass
class FoldResult:
    """Train/test metrics for one cross-validation fold."""

    fold: int
    train_auc: float
    test_auc: float
    train_seconds: float
    test_seconds: float


def run_kfold_experiment(
    dataset: LabeledDataset,
    config: ForestConfig | None = None,
    k: int = 10,
) -> list[FoldResult]:
    """Per-fold in-sample and held-out AUC with separate timings, on folds
    cut with the config's seed.

    Train time covers fitting plus in-sample scoring; test time covers
    scoring the held-out fold through the fitted forest (novelty path).
    Fewer than ``k`` anomalies or normals is a StratificationError, raised
    before any training.
    """
    cfg = config or ForestConfig()
    check_strata(dataset.labels, k, "folds")
    results = []
    for fold, (train_idx, test_idx) in enumerate(kfold_split(dataset, k, seed=cfg.seed)):
        t0 = time.perf_counter()
        forest = train_batch(dataset.points[train_idx], cfg)
        _, train_scores = score_all(dataset.points[train_idx], forest)
        t_train = time.perf_counter() - t0
        t0 = time.perf_counter()
        _, test_scores = score_all(dataset.points[test_idx], forest)
        t_test = time.perf_counter() - t0
        results.append(
            FoldResult(
                fold=fold,
                train_auc=auc(train_scores, dataset.labels[train_idx]),
                test_auc=auc(test_scores, dataset.labels[test_idx]),
                train_seconds=t_train,
                test_seconds=t_test,
            )
        )
    return results


def fold_rows(dataset_name: str, config: ForestConfig, results: list[FoldResult]) -> list[dict]:
    return _rows(dataset_name, config, [
        (f"fold-{res.fold + 1}", split, value, seconds)
        for res in results
        for split, value, seconds in (
            ("train", res.train_auc, res.train_seconds), ("test", res.test_auc, res.test_seconds)
        )
    ])
