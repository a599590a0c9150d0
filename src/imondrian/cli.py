"""Command-line harness: fit / score / stream.

Exit codes: 0 success, 2 usage (bad flags), 3 data problems (parsing,
dimension mismatches, unreadable models), 4 infeasible stratification.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data_io import (
    _GENERATORS,
    CsvSchema,
    SyntheticSpec,
    gen_synthetic,
    load_csv,
    load_model,
    save_model,
    write_rows,
    write_scores,
)
from .decision import KMEANS, THRESHOLD, assign_all, fit_kmeans2
from .errors import DataFormatError, ModelFormatError, StratificationError
from .evaluation import (
    LabeledDataset,
    auc,
    check_strata,
    config_hash,
    fold_rows,
    run_kfold_experiment,
    run_stream_experiment,
)
from .forest import ForestConfig, score_all, train_batch

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INFEASIBLE = 4


def _add_data_flags(sub: argparse.ArgumentParser, synthetic: bool = True) -> None:
    sub.add_argument("--data", required=not synthetic, help="CSV dataset path")
    if synthetic:
        sub.add_argument(
            "--synthetic",
            choices=sorted(_GENERATORS),
            help="generate a 2-D synthetic dataset instead of reading --data",
        )
        sub.add_argument("--inliers", type=int, help="synthetic inlier count (default per shape)")
        sub.add_argument("--outliers", type=int, default=45, help="synthetic outlier count")
        sub.add_argument("--box", type=float, default=10.0, help="synthetic outlier box halfwidth")
    sub.add_argument("--label-column", help="label column name or 0-based index")
    sub.add_argument("--delimiter", default=",", help="CSV delimiter")
    sub.add_argument("--no-header", action="store_true", help="CSV has no header row")


def _add_forest_flags(sub: argparse.ArgumentParser, trees: int = 100) -> None:
    sub.add_argument("--trees", type=int, default=trees, help="number of trees")
    sub.add_argument("--psi", type=int, default=256, help="subsample size; 0 disables")
    sub.add_argument("--seed", type=int, default=0, help="master seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imondrian",
        description="Batch and online anomaly detection with isolation-scored Mondrian trees.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    fit = commands.add_parser("fit", help="train a forest, export scores, optionally cross-validate")
    _add_data_flags(fit)
    _add_forest_flags(fit)
    fit.add_argument("--mode", choices=(THRESHOLD, KMEANS), default=THRESHOLD)
    fit.add_argument("--threshold", type=float, default=0.5)
    fit.add_argument("--folds", type=int, help="also run stratified k-fold train/test evaluation")
    fit.add_argument("--out", help="score export path (CSV)")
    fit.add_argument("--model", help="model file path to write")
    fit.set_defaults(func=cmd_fit, parser=fit)

    scr = commands.add_parser("score", help="score new points against a saved model")
    _add_data_flags(scr, synthetic=False)
    scr.add_argument("--model", required=True, help="model file path to read")
    scr.add_argument("--mode", choices=(THRESHOLD, KMEANS), default=THRESHOLD)
    scr.add_argument("--threshold", type=float, default=0.5)
    scr.add_argument("--out", help="score export path (CSV)")
    scr.set_defaults(func=cmd_score, parser=scr)

    stream = commands.add_parser("stream", help="staged streaming experiment with per-stage AUC")
    _add_data_flags(stream)
    _add_forest_flags(stream)
    stream.add_argument("--stages", type=int, default=5)
    stream.add_argument("--window", type=int, help="re-score only the last N points per stage")
    stream.add_argument("--mode", choices=(THRESHOLD, KMEANS), default=KMEANS)
    stream.add_argument("--threshold", type=float, default=0.5)
    stream.add_argument("--grid", type=int, help="dump an NxN lattice of scores (2-D data only)")
    stream.add_argument("--out", help="per-stage results path (CSV)")
    stream.set_defaults(func=cmd_stream, parser=stream)

    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Reject flag values argparse cannot, through ``parser``, the subcommand's
    parser, so that the usage printed is the one of the command at fault; then
    leave the ``CsvSchema`` on ``args.schema``, ``fit``'s and ``stream``'s
    ``ForestConfig`` on ``args.config`` (and a synthetic recipe on
    ``args.spec``)."""
    def positive(name: str, floor: int = 1) -> None:
        value = getattr(args, name.replace("-", "_"), None)
        if value is not None and value < floor:
            parser.error(f"--{name} must be >= {floor}, got {value}")

    positive("trees")
    positive("stages")
    positive("window")
    positive("folds", 2)
    positive("grid", 2)
    positive("inliers", 0)
    positive("outliers", 0)
    positive("seed", 0)
    psi = getattr(args, "psi", None)
    if psi is not None and (psi < 0 or psi == 1):
        parser.error(f"--psi must be 0 (no subsampling) or >= 2, got {psi}")
    threshold = getattr(args, "threshold", None)
    if threshold is not None and not 0.0 < threshold < 1.0:
        parser.error(f"--threshold must lie in (0, 1), got {threshold}")
    label = args.label_column
    if label is not None and label.lstrip("-").isdigit():
        label = int(label)
    try:
        args.schema = CsvSchema(delimiter=args.delimiter, label_column=label, header=not args.no_header)
        if args.command in ("fit", "stream"):
            args.config = ForestConfig(num_trees=args.trees, psi=args.psi or None, seed=args.seed)
            if bool(args.data) == bool(args.synthetic):
                parser.error("exactly one of --data or --synthetic is required")
            if args.synthetic:
                args.spec = SyntheticSpec(
                    kind=args.synthetic,
                    n_inliers=args.inliers,
                    n_outliers=args.outliers,
                    outlier_halfwidth=args.box,
                    seed=args.seed,
                )
    except ValueError as exc:
        parser.error(str(exc))
    if getattr(args, "grid", None) and not args.out:
        parser.error("--grid needs --out to name the dump file")


def _load_any(args: argparse.Namespace):
    """Return (points, labels_or_None, name) from --data or --synthetic."""
    if getattr(args, "synthetic", None):
        ds = gen_synthetic(args.spec)
        return ds.points, ds.labels, ds.name
    loaded = load_csv(args.data, args.schema)
    if isinstance(loaded, LabeledDataset):
        return loaded.points, loaded.labels, loaded.name
    return loaded, None, Path(args.data).stem


def _decide(scores: np.ndarray, mode: str, threshold: float) -> tuple[float, np.ndarray]:
    """The cut for ``scores`` and their labels: the 2-means cut in kmeans
    mode where the scores have one, else ``threshold``."""
    cut = threshold
    if mode == KMEANS:
        try:
            cut = fit_kmeans2(scores)
        except ValueError as exc:
            print(f"warning: {exc}; falling back to threshold labeling", file=sys.stderr)
    return cut, assign_all(cut, scores)


def _auc_line(title: str, scores: np.ndarray, labels: np.ndarray) -> str:
    if np.unique(labels).size < 2:
        return f"{title}: undefined for one class (every label is {labels[0]})"
    return f"{title}: {auc(scores, labels):.4f}"


def cmd_fit(args: argparse.Namespace) -> int:
    points, labels, name = _load_any(args)
    if args.folds:
        if labels is None:
            raise DataFormatError("--folds needs ground-truth labels (use --label-column)")
        check_strata(labels, args.folds, "folds")
    config = args.config
    forest = train_batch(points, config)
    if args.model:
        save_model(forest, args.model)
        print(f"model written to {args.model}")
    _, scores = score_all(points, forest)
    _, predicted = _decide(scores, args.mode, args.threshold)
    if args.out:
        write_scores(args.out, scores, predicted, args.mode)
        print(f"{scores.size} score rows written to {args.out}")
    print(
        f"fit {name}: n={points.shape[0]} d={points.shape[1]} trees={config.num_trees} config={config_hash(config)}"
    )
    if labels is not None:
        print(_auc_line("train AUC", scores, labels))
        if args.folds:
            dataset = LabeledDataset(points=points, labels=labels, name=name)
            results = run_kfold_experiment(dataset, config, k=args.folds)
            rows = fold_rows(name, config, results)
            for res in results:
                print(
                    f"fold {res.fold + 1}: train AUC {res.train_auc:.4f} "
                    f"({res.train_seconds:.3f}s)  test AUC {res.test_auc:.4f} "
                    f"({res.test_seconds:.3f}s)"
                )
            if args.out:
                fold_path = Path(args.out).with_suffix(".folds.csv")
                write_rows(fold_path, rows)
                print(f"fold table written to {fold_path}")
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    forest = load_model(args.model)
    points, labels, _ = _load_any(args)
    _, scores = score_all(points, forest)
    if not scores.size:
        if args.out:
            write_scores(args.out, [], [], args.mode)
            print(f"0 score rows written to {args.out}")
        return EXIT_OK
    _, predicted = _decide(scores, args.mode, args.threshold)
    if args.out:
        write_scores(args.out, scores, predicted, args.mode)
        print(f"{scores.size} score rows written to {args.out}")
    print(f"scored {points.shape[0]} points against {args.model}")
    if labels is not None:
        print(_auc_line("AUC", scores, labels))
    return EXIT_OK


def cmd_stream(args: argparse.Namespace) -> int:
    points, labels, name = _load_any(args)
    if labels is None:
        raise DataFormatError("streaming experiments need labels (use --label-column)")
    dataset = LabeledDataset(points=points, labels=labels, name=name)
    if args.grid and dataset.dim != 2:
        args.parser.error(f"--grid needs 2-D data, got d={dataset.dim}")
    result = run_stream_experiment(dataset, args.config, num_stages=args.stages, window=args.window)
    for i in range(result.num_stages):
        value = result.stage_auc[i]
        shown = "undefined for one class" if np.isnan(value) else f"{value:.4f}"
        print(f"stage {i + 1}: n={result.stage_sizes[i]} AUC {shown} ({result.stage_seconds[i]:.3f}s)")
    if args.out:
        write_rows(args.out, result.to_rows())
        print(f"stage table written to {args.out}")
    if args.grid:
        _dump_grid(args, dataset, result)
    return EXIT_OK


def _dump_grid(args: argparse.Namespace, dataset: LabeledDataset, result) -> None:
    cut, _ = _decide(result.final_scores, args.mode, args.threshold)
    lo = dataset.points.min(axis=0)
    hi = dataset.points.max(axis=0)
    margin = 0.05 * (hi - lo)
    xs = np.linspace(lo[0] - margin[0], hi[0] + margin[0], args.grid)
    ys = np.linspace(lo[1] - margin[1], hi[1] + margin[1], args.grid)
    gx, gy = np.meshgrid(xs, ys)
    lattice = np.column_stack([gx.ravel(), gy.ravel()])
    _, scores = score_all(lattice, result.forest)
    predicted = assign_all(cut, scores)
    rows = [
        {"x": float(lattice[i, 0]), "y": float(lattice[i, 1]), "score": float(scores[i]), "label": int(predicted[i])}
        for i in range(lattice.shape[0])
    ]
    grid_path = Path(args.out).with_suffix(".grid.csv")
    write_rows(grid_path, rows)
    print(f"{args.grid}x{args.grid} grid dump written to {grid_path}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args.parser, args)
        return args.func(args)
    except StratificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DataFormatError, ModelFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
