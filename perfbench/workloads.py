"""Benchmark inputs, the three workloads, and the checks on their outputs.

Every workload is a closed loop with one caller in this process: the library
is synchronous and in-process, so there is no queue and no offered rate.

- ``batch-subsampled``: ``imondrian fit`` (psi 256, 100 trees, k-means labels,
  model file) on 16384 rows, then ``imondrian score`` of 16384 novel rows.
  The paper's default batch regime: trees are shallow (511 nodes), so
  routing, model save/load and CSV parsing outweigh tree building.
- ``batch-full``: ``imondrian fit`` with subsampling off on 2048 rows,
  20 trees, no model and no score step. Trees have 4095 nodes and the
  per-node build dominates; routing and I/O are small.
- ``stream``: train a 2048-row seed forest, then 200 arrivals that are each
  scored alone and inserted, re-scoring the last 2048 points every 50.
  Single-point calls make per-call overhead dominate, the opposite of
  ``batch-subsampled``.
"""

from __future__ import annotations

import io
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import imondrian.cli as cli
import imondrian.forest as forest_api
from adapters import as_scores
from speed import kernel_seconds

DIM = 8
# A fixed cluster layout keeps the AUC a property of the forest rather than
# of where a seed happens to put the centres; the seed draws the samples.
CENTRES = 5.0 * np.eye(DIM)[:4]
ANOMALY_FRACTION = 0.10
# Anomalies come from the same clusters with a wider spread, so they overlap
# the inliers and the AUC stays well below 1 (about 0.88 with imondrian 0.1.0).
ANOMALY_SCALE = 1.7
AUC_FLOOR = 0.75

BATCH_ROWS = 16384
FULL_ROWS = 2048
STREAM_SEED_ROWS = 2048
STREAM_ARRIVALS = 200
RESCORE_EVERY = 50
RESCORE_WINDOW = 2048
ARRIVAL_POOL = 16  # distinct 200-arrival episodes per seed; later episodes reuse them


def mixture(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n rows of the d = 8 Gaussian mixture, with 0/1 anomaly labels."""
    labels = (rng.random(n) < ANOMALY_FRACTION).astype(np.int64)
    component = rng.integers(0, CENTRES.shape[0], n)
    spread = np.where(labels == 1, ANOMALY_SCALE, 1.0)
    points = CENTRES[component] + rng.normal(size=(n, DIM)) * spread[:, None]
    return points, labels


def write_csv(path: Path, points: np.ndarray, labels: np.ndarray) -> None:
    header = ",".join([f"x{j}" for j in range(points.shape[1])] + ["label"])
    fmt = ["%.9g"] * points.shape[1] + ["%d"]
    np.savetxt(path, np.column_stack([points, labels]), delimiter=",", header=header, comments="", fmt=fmt)


def rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC with ties counted half (the benchmark's own, not the package's)."""
    order = np.argsort(scores, kind="mergesort")
    ranked = scores[order]
    ranks = np.empty(scores.size)
    # average 1-based rank over each run of equal scores
    bounds = np.flatnonzero(np.diff(ranked) != 0) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [scores.size]])
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    pos = int(labels.sum())
    neg = labels.size - pos
    return (float(ranks[labels == 1].sum()) - pos * (pos + 1) / 2.0) / (pos * neg)


def score_problem(scores: np.ndarray, expected: int) -> str | None:
    """Why a score vector is wrong, or None."""
    if scores.size != expected:
        return f"{scores.size} scores for {expected} points"
    if not np.all(np.isfinite(scores)):
        return "non-finite score"
    if not np.all((scores > 0.0) & (scores <= 1.0)):
        return f"score outside (0, 1]: min {scores.min()!r}, max {scores.max()!r}"
    return None


class Checks:
    """Operations attempted and failed; a failure stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"check failed: {what}: {problem}", file=sys.stderr)


def run_cli(argv: list[str]) -> str | None:
    """Run one ``imondrian`` command in this process; return why it failed, or None."""
    captured = io.StringIO()
    with redirect_stdout(captured), redirect_stderr(captured):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = "exception"
    if code == 0:
        return None
    return f"exit {code}: {captured.getvalue().strip()[-2000:]}"


def read_export(path: Path, labels: np.ndarray) -> tuple[np.ndarray | None, str | None]:
    """Scores from an ``index,score,label,mode`` export, checked row by row."""
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1), ndmin=2)
    except (OSError, ValueError) as exc:
        return None, f"unreadable export {path.name}: {exc}"
    if table.shape[0] != labels.size:
        return None, f"{table.shape[0]} export rows for {labels.size} input rows"
    if not np.array_equal(table[:, 0], np.arange(labels.size)):
        return None, "export indices are not 0..n-1 in order"
    scores = table[:, 1]
    problem = score_problem(scores, labels.size)
    if problem is None and (value := rank_auc(scores, labels)) < AUC_FLOOR:
        problem = f"AUC {value:.4f} below the floor {AUC_FLOOR}"
    return scores, problem


class BatchWorkload:
    """A fixed sequence of CLI commands over CSV files made from the seed."""

    def __init__(self, name: str, workdir: Path, rng: np.random.Generator):
        self.workdir = workdir
        # (command name, argv, labels of the rows it exports, export path)
        self.commands: list[tuple[str, list[str], np.ndarray, Path]]
        if name == "batch-subsampled":
            train, novel = mixture(rng, BATCH_ROWS), mixture(rng, BATCH_ROWS)
            write_csv(workdir / "train.csv", *train)
            write_csv(workdir / "novel.csv", *novel)
            model = workdir / "m.imf"
            self.commands = [
                ("fit", ["fit", "--data", str(workdir / "train.csv"), "--label-column", "label", "--psi", "256",
                         "--trees", "100", "--mode", "kmeans", "--model", str(model),
                         "--out", str(workdir / "s.csv")], train[1], workdir / "s.csv"),
                ("score", ["score", "--model", str(model), "--data", str(workdir / "novel.csv"),
                           "--label-column", "label", "--mode", "kmeans",
                           "--out", str(workdir / "t.csv")], novel[1], workdir / "t.csv"),
            ]
        else:
            full = mixture(rng, FULL_ROWS)
            write_csv(workdir / "full.csv", *full)
            self.commands = [
                ("fit", ["fit", "--data", str(workdir / "full.csv"), "--label-column", "label", "--psi", "0",
                         "--trees", "20", "--out", str(workdir / "s.csv")], full[1], workdir / "s.csv"),
            ]

    def warm_up(self) -> None:
        """Run every code path once on a tiny input and read the real inputs once."""
        tiny = self.workdir / "warm.csv"
        write_csv(tiny, *mixture(np.random.default_rng(0), 64))
        model = self.workdir / "warm.imf"
        for argv in (
            ["fit", "--data", str(tiny), "--label-column", "label", "--psi", "32", "--trees", "2",
             "--mode", "kmeans", "--model", str(model), "--out", str(self.workdir / "warm_s.csv")],
            ["score", "--model", str(model), "--data", str(tiny), "--label-column", "label",
             "--mode", "kmeans", "--out", str(self.workdir / "warm_t.csv")],
        ):
            problem = run_cli(argv)
            if problem is not None:
                raise RuntimeError(f"warm-up {argv[0]}: {problem}")
        for path in self.workdir.glob("*.csv"):
            path.read_bytes()

    def cycle(self, index: int, checks: Checks, tracer) -> dict:
        """One pass over the commands; times each and checks its export.

        Each command is one timing sample, bracketed by runs of the speed kernel.
        """
        record = {"samples": [], "auc": None}
        kernel = kernel_seconds()
        with tracer.span("bench.cycle") if tracer else nullcontext():
            for name, argv, labels, export in self.commands:
                export.unlink(missing_ok=True)
                start = time.perf_counter()
                problem = run_cli(argv)
                seconds = time.perf_counter() - start
                after = kernel_seconds()
                scores = None
                if problem is None:
                    scores, problem = read_export(export, labels)
                checks.record(f"cycle {index} {name}", problem)
                if problem is not None:
                    return record
                record["samples"].append((name, labels.size, seconds, (kernel + after) / 2))
                record["auc"] = rank_auc(scores, labels)  # the last export is the user-facing one
                kernel = after
        return record

    def finish(self, cycles: list[dict], checks: Checks) -> float:
        """The run's AUC; every cycle repeats the same work and was checked as it ran."""
        return float(np.median([c["auc"] for c in cycles]))


class StreamWorkload:
    """Seed forest, then single-point score-and-insert arrivals with periodic re-scoring."""

    def __init__(self, rng: np.random.Generator):
        self.seed_points, _ = mixture(rng, STREAM_SEED_ROWS)
        self.arrivals = [mixture(rng, STREAM_ARRIVALS) for _ in range(ARRIVAL_POOL)]

    def warm_up(self) -> None:
        points = self.seed_points[:64]
        forest = forest_api.train_batch(points, forest_api.ForestConfig(num_trees=2, psi=32))
        as_scores(forest_api.score_all(points[:1], forest))
        forest_api.extend_forest(forest, points[:1])
        as_scores(forest_api.rescore_window(forest, points, window=16))

    def cycle(self, index: int, checks: Checks, tracer) -> dict:
        """One episode: train the seed forest (a set-up sample), then the arrivals.

        The speed kernel runs before and after the training and after each block of arrivals.
        """
        points, labels = self.arrivals[index % ARRIVAL_POOL]
        span = tracer.span if tracer else (lambda name: nullcontext())
        record = {"samples": [], "latency_s": [], "scores": [], "labels": labels}
        with span("bench.cycle"):
            kernel = kernel_seconds()
            start = time.perf_counter()
            forest = forest_api.train_batch(self.seed_points, forest_api.ForestConfig(num_trees=100, psi=256))
            seconds = time.perf_counter() - start
            after = kernel_seconds()
            record["setup"] = (seconds, (kernel + after) / 2)
            kernel = after
            history = np.empty((STREAM_SEED_ROWS + STREAM_ARRIVALS, DIM))
            history[:STREAM_SEED_ROWS] = self.seed_points
            size = STREAM_SEED_ROWS
            block_start = time.perf_counter()
            for i in range(STREAM_ARRIVALS):
                x = points[i : i + 1]
                with span("bench.arrival"):
                    arrival_start = time.perf_counter()
                    try:
                        scores = as_scores(forest_api.score_all(x, forest))
                        forest_api.extend_forest(forest, x)
                        problem = score_problem(scores, 1)
                    except Exception:
                        scores, problem = None, traceback.format_exc()
                    record["latency_s"].append(time.perf_counter() - arrival_start)
                checks.record(f"episode {index} arrival {i}", problem)
                if problem is not None:
                    return record
                record["scores"].append(scores[0])
                history[size] = x[0]
                size += 1
                if (i + 1) % RESCORE_EVERY == 0:
                    expected = min(RESCORE_WINDOW, size)
                    try:
                        rescored = as_scores(forest_api.rescore_window(forest, history[:size], window=RESCORE_WINDOW))
                        problem = score_problem(rescored, expected)
                    except Exception:
                        problem = traceback.format_exc()
                    checks.record(f"episode {index} rescore after {i + 1}", problem)
                    if problem is not None:
                        return record
                    # one throughput sample: RESCORE_EVERY arrivals and the rescore that follows them
                    seconds = time.perf_counter() - block_start
                    after = kernel_seconds()
                    record["samples"].append(("block", RESCORE_EVERY, seconds, (kernel + after) / 2))
                    kernel = after
                    block_start = time.perf_counter()
        return record


    def finish(self, cycles: list[dict], checks: Checks) -> float:
        """AUC of the pre-insert arrival scores of the whole run, checked against the floor."""
        scores = np.concatenate([c["scores"] for c in cycles])
        labels = np.concatenate([c["labels"][: len(c["scores"])] for c in cycles])
        value = rank_auc(scores, labels)
        checks.record("pooled arrival AUC", None if value >= AUC_FLOOR else f"{value:.4f} below the floor {AUC_FLOOR}")
        return value


def make(name: str, workdir: Path, rng: np.random.Generator):
    if name == "stream":
        return StreamWorkload(rng)
    return BatchWorkload(name, workdir, rng)
