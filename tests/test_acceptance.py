"""Acceptance gate: one test per release criterion, with a printed verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines and their measured margins.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
import pytest

from imondrian.data_io import (
    CsvSchema,
    SyntheticSpec,
    gen_synthetic,
    load_csv,
    load_model,
    save_model,
    write_scores,
)
from imondrian.decision import THRESHOLD, DecisionModel, assign_all, fit_kmeans2
from imondrian.evaluation import (
    LabeledDataset,
    auc,
    run_stream_experiment,
)
from imondrian.forest import (
    ForestConfig,
    c_factor,
    extend_forest,
    score_all,
    train_batch,
)
from imondrian.tree import ForestArena

from helpers import check_arena_invariants, depth_oracle, kmeans2_oracle, random_dataset, structurally_equal
from reference import views

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {verdict}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_structural_invariants():
    # three trees per dataset, so that lanes of different depths walk in
    # lockstep; tree 0 is the one a single-tree arena of seed 5000 + i grows
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for i in range(200):
        n = int(rng.integers(2, 513))
        d = int(rng.integers(1, 9))
        X = random_dataset(rng, n, d)
        arena = ForestArena.grow(X, [np.random.default_rng(seed + i) for seed in (5000, 9000, 13000)])
        check_arena_invariants(arena, points=X, expected_population=n)
        inserted = [X]
        for j in range(100):
            kind = j % 3
            if kind == 0:
                x = rng.uniform(-12.0, 12.0, size=d)  # often outside the box
            elif kind == 1:
                x = rng.normal(0.0, 2.0, size=d)
            else:
                x = X[int(rng.integers(0, n))].copy()  # exact duplicate
            before = arena.size.copy()
            arena.extend(x)
            grown = arena.size - before
            assert np.isin(grown, (0, 2)).all(), f"extension changed node counts by {grown}"
            inserted.append(x.reshape(1, -1))
        check_arena_invariants(arena, points=np.vstack(inserted), expected_population=n + 100)
    elapsed = time.perf_counter() - t0
    report(
        1,
        "structural invariants over 200 datasets x 3 trees + 100 extensions each",
        elapsed < 30.0,
        f"all invariants held, {elapsed:.1f}s < 30s",
    )


def test_criterion_2_scoring_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for trees, n, d in [(1, 2, 1), (3, 5, 2), (8, 16, 3), (8, 16, 1), (5, 9, 4)]:
        X = rng.uniform(-3.0, 3.0, size=(n, d))
        forest = train_batch(X, ForestConfig(num_trees=trees, psi=None, seed=n + trees))
        probes = np.vstack([X, rng.uniform(-4.0, 4.0, size=(5, d))])
        batch_epl, batch_score = score_all(probes, forest)
        for idx, x in enumerate(probes):
            expected = sum(depth_oracle(t, x) for t in views(forest)) / trees
            want_score = 2.0 ** (-expected / c_factor(n))
            (one_epl,), (one_score,) = score_all([x], forest)
            for value, target in (
                (one_epl, expected),
                (one_score, want_score),
                (batch_epl[idx], expected),
                (batch_score[idx], want_score),
            ):
                rel = abs(value - target) / max(abs(target), 1e-300)
                worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(
        2,
        "score matches brute-force depth tables",
        worst <= 1e-12 and elapsed < 5.0,
        f"worst relative error {worst:.2e}, {elapsed:.1f}s < 5s",
    )


def test_criterion_3_c_factor_values():
    err2 = abs(c_factor(2) - 0.1544313298)
    err256 = abs(c_factor(256) - 10.244770)
    report(
        3,
        "normalization constants",
        err2 < 1e-6 and err256 < 1e-6,
        f"|c(2)-0.1544313298|={err2:.2e}, |c(256)-10.244770|={err256:.2e}",
    )


def test_criterion_4_synthetic_batch():
    t0 = time.perf_counter()
    aucs = []
    agreements = []
    for seed in range(10):
        ds = gen_synthetic(SyntheticSpec(kind="gaussian-blob", n_inliers=255, n_outliers=45, seed=seed))
        forest = train_batch(ds.points, ForestConfig(num_trees=100, psi=256, seed=seed))
        _, s = score_all(ds.points, forest)
        aucs.append(auc(s, ds.labels))
        thresholded = assign_all(DecisionModel(mode=THRESHOLD, threshold=0.5), s)
        clustered = assign_all(fit_kmeans2(s), s)
        agreements.append(float(np.mean(thresholded == clustered)))
    elapsed = time.perf_counter() - t0
    mean_auc = float(np.mean(aucs))
    mean_agree = float(np.mean(agreements))
    report(
        4,
        "synthetic batch AUC and threshold/kmeans agreement",
        mean_auc >= 0.95 and mean_agree >= 0.95 and elapsed < 60.0,
        f"AUC {mean_auc:.4f} >= 0.95, agreement {mean_agree:.4f} >= 0.95, {elapsed:.1f}s < 60s",
    )


def _wine_dataset() -> LabeledDataset | None:
    csv = DATA_DIR / "wine.csv"
    if csv.exists():
        ds = load_csv(csv, CsvSchema(label_column="label"))
        return ds
    try:
        from sklearn.datasets import load_wine
    except ImportError:
        return None
    raw = load_wine()
    inliers = raw.data[raw.target != 0]
    outliers = raw.data[raw.target == 0][:10]
    points = np.vstack([inliers, outliers])
    labels = np.concatenate([np.zeros(len(inliers), int), np.ones(len(outliers), int)])
    return LabeledDataset(points=points, labels=labels, name="wine")


def _mean_train_auc(ds: LabeledDataset, seeds: int = 5) -> float:
    values = []
    for seed in range(seeds):
        forest = train_batch(ds.points, ForestConfig(num_trees=100, psi=256, seed=seed))
        _, s = score_all(ds.points, forest)
        values.append(auc(s, ds.labels))
    return float(np.mean(values))


def test_criterion_5_wine():
    ds = _wine_dataset()
    if ds is None:
        pytest.skip("wine data unavailable: supply data/wine.csv (see scripts/make_wine_csv.py)")
    t0 = time.perf_counter()
    mean_auc = _mean_train_auc(ds)
    elapsed = time.perf_counter() - t0
    report(
        5,
        "wine 5-seed mean train AUC",
        mean_auc >= 0.95 and elapsed < 120.0,
        f"AUC {mean_auc:.4f} >= 0.95, {elapsed:.1f}s < 2min",
    )


def test_criterion_5_ionosphere():
    csv = DATA_DIR / "ionosphere.csv"
    if not csv.exists():
        pytest.skip(
            "ionosphere data unavailable: supply data/ionosphere.csv "
            "(features + 'label' column, 1 = bad return)"
        )
    ds = load_csv(csv, CsvSchema(label_column="label"))
    t0 = time.perf_counter()
    mean_auc = _mean_train_auc(ds)
    elapsed = time.perf_counter() - t0
    report(
        5,
        "ionosphere 5-seed mean train AUC",
        mean_auc >= 0.80 and elapsed < 120.0,
        f"AUC {mean_auc:.4f} >= 0.80, {elapsed:.1f}s < 2min",
    )


def test_criterion_6_streaming_stability():
    t0 = time.perf_counter()
    per_seed = []
    for seed in range(10):
        ds = gen_synthetic(SyntheticSpec(kind="gaussian-blob", n_inliers=255, n_outliers=45, seed=100 + seed))
        result = run_stream_experiment(ds, ForestConfig(num_trees=100, psi=256, seed=seed), num_stages=5)
        per_seed.append(result.stage_auc)
    elapsed = time.perf_counter() - t0
    means = np.mean(per_seed, axis=0)
    worst_drop = float(np.max(means[0] - means))
    report(
        6,
        "5-stage streaming stability",
        worst_drop <= 0.10 and means[-1] >= 0.90 and elapsed < 120.0,
        f"stage means {np.round(means, 4).tolist()}, worst drop {worst_drop:.4f} <= 0.10, "
        f"stage-5 {means[-1]:.4f} >= 0.90, {elapsed:.1f}s < 2min",
    )


def test_criterion_7_training_scaling():
    sizes, dim, repeats, seed = [4096, 8192, 16384], 8, 3, 1
    seconds = {n: [] for n in sizes}
    for rep in range(repeats):
        data_rng = np.random.default_rng(seed + 1000 * rep)
        for n in sizes:
            X = data_rng.uniform(0.0, 1.0, size=(n, dim))
            # the criterion's fixed data stream holds a 256-row block after
            # each training set; drawing it keeps every size on the same rows
            data_rng.uniform(0.0, 1.0, size=(256, dim))
            cfg = ForestConfig(num_trees=20, psi=None, seed=seed + rep)
            t0 = time.perf_counter()
            train_batch(X, cfg)
            seconds[n].append(time.perf_counter() - t0)
    medians = [float(np.median(seconds[n])) for n in sizes]
    ratios = [medians[i + 1] / medians[i] for i in range(len(sizes) - 1)]
    median_ratio = float(np.median(ratios))
    report(
        7,
        "train-time doubling ratio at d=8, 20 trees",
        median_ratio <= 2.6,
        f"ratios {np.round(ratios, 2).tolist()}, median {median_ratio:.2f} <= 2.6",
    )


def test_criterion_8_determinism_and_persistence(tmp_path):
    ds = gen_synthetic(SyntheticSpec(n_inliers=200, n_outliers=40, seed=17))
    cfg = ForestConfig(num_trees=30, psi=128, seed=17)
    exports = []
    for name in ("run1.csv", "run2.csv"):
        forest = train_batch(ds.points, cfg)
        _, scores = score_all(ds.points, forest)
        labels = assign_all(DecisionModel(mode=THRESHOLD, threshold=0.5), scores)
        path = tmp_path / name
        write_scores(path, scores, labels, "threshold")
        exports.append(path.read_bytes())
    byte_identical = exports[0] == exports[1]

    forest = train_batch(ds.points, cfg)
    model_path = tmp_path / "model.imf"
    save_model(forest, model_path)
    loaded = load_model(model_path)
    probes = np.random.default_rng(99).uniform(-10.0, 10.0, size=(100, 2))
    before = score_all(probes, forest)
    after = score_all(probes, loaded)
    round_trip_exact = all(np.array_equal(a, b) for a, b in zip(before, after))
    structural = all(structurally_equal(a, b) for a, b in zip(views(forest), views(loaded)))
    report(
        8,
        "seeded determinism and model round-trip",
        byte_identical and round_trip_exact and structural,
        f"exports byte-identical={byte_identical}, round-trip scores exact={round_trip_exact}",
    )


def test_criterion_9_kmeans_matches_optimal_split():
    rng = np.random.default_rng(31337)
    checked = 0
    mismatches = 0
    while checked < 100:
        n = int(rng.integers(2, 1001))
        style = checked % 4
        if style == 0:
            scores = rng.uniform(0.0, 1.0, n)
        elif style == 1:
            scores = np.concatenate(
                [rng.normal(0.35, 0.06, n // 2), rng.normal(0.72, 0.06, n - n // 2)]
            )
        elif style == 2:
            scores = rng.beta(2.0, 5.0, n)
        else:
            scores = np.round(rng.uniform(0.0, 1.0, n), 2)  # heavy ties
        scores = np.clip(scores, 0.0, 1.0)
        if np.unique(scores).size < 2:
            continue
        checked += 1
        model = fit_kmeans2(scores)
        got = assign_all(model, scores)
        want, _ = kmeans2_oracle(scores)
        if got.tolist() != want.tolist():
            mismatches += 1
    report(
        9,
        "2-means equals brute-force optimal split on 100 vectors",
        mismatches == 0,
        f"{mismatches} mismatches over {checked} vectors",
    )


def test_criterion_math_spot_checks():
    # supporting identities the criteria lean on
    assert 2.0 ** (-c_factor(256) / c_factor(256)) == 0.5
    assert math.isclose(c_factor(2), 2 * 0.5772156649 - 1.0, rel_tol=0, abs_tol=1e-15)


def test_forest_extension_keeps_scoring_alive():
    # extension/scoring compatibility: no routing dead ends after heavy growth
    rng = np.random.default_rng(4)
    ds = gen_synthetic(SyntheticSpec(n_inliers=100, n_outliers=20, seed=4))
    forest = train_batch(ds.points, ForestConfig(num_trees=20, psi=None, seed=4))
    stream = rng.uniform(-10, 10, size=(200, 2))
    extend_forest(forest, stream)
    _, scores = score_all(np.vstack([ds.points, stream]), forest)
    assert scores.shape == (ds.n + 200,)
    assert ((0.0 < scores) & (scores <= 1.0)).all()
