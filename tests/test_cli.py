"""End-to-end CLI behavior and exit codes."""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from imondrian.cli import EXIT_DATA, EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main
from imondrian.data_io import SyntheticSpec, gen_synthetic
from imondrian.tree import _can_fork

from helpers import V1_MODEL, V2_MODEL, deterministic, fork_on, reseal_model


def _write_csv(path, points, labels=None):
    cols = [f"f{i}" for i in range(points.shape[1])]
    if labels is not None:
        cols.append("label")
    lines = [",".join(cols)]
    for i in range(points.shape[0]):
        cells = [repr(float(v)) for v in points[i]]
        if labels is not None:
            cells.append(str(int(labels[i])))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture()
def blob_csv(tmp_path):
    ds = gen_synthetic(SyntheticSpec(n_inliers=80, n_outliers=20, seed=5))
    path = tmp_path / "blob.csv"
    _write_csv(path, ds.points, ds.labels)
    return path


class TestFit:
    def test_synthetic_fit_writes_model_and_scores(self, tmp_path):
        out = tmp_path / "scores.csv"
        model = tmp_path / "model.imf"
        code = main([
            "fit", "--synthetic", "gaussian-blob", "--seed", "7",
            "--trees", "25", "--out", str(out), "--model", str(model),
        ])
        assert code == EXIT_OK
        assert model.exists()
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 301  # header + 255 inliers + 45 outliers

    def test_trees_zero_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["fit", "--synthetic", "gaussian-blob", "--trees", "0"])
        assert err.value.code == EXIT_USAGE

    @pytest.mark.parametrize("psi", ["1", "-1"])
    def test_bad_psi_is_usage_error(self, psi, capsys):
        with pytest.raises(SystemExit) as err:
            main(["fit", "--synthetic", "gaussian-blob", "--psi", psi])
        assert err.value.code == EXIT_USAGE
        assert "--psi" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "stream"])
    def test_negative_seed_is_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, "--synthetic", "gaussian-blob", "--seed", "-1"])
        assert err.value.code == EXIT_USAGE
        assert "--seed must be >= 0" in capsys.readouterr().err

    def test_data_and_synthetic_are_exclusive(self, blob_csv):
        with pytest.raises(SystemExit) as err:
            main(["fit", "--data", str(blob_csv), "--synthetic", "ring"])
        assert err.value.code == EXIT_USAGE

    def test_same_seed_byte_identical_export(self, tmp_path):
        outs = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            code = main([
                "fit", "--synthetic", "two-blobs", "--seed", "3",
                "--trees", "10", "--out", str(out),
            ])
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_folds_on_labeled_csv(self, tmp_path, blob_csv, capsys):
        out = tmp_path / "scores.csv"
        code = main([
            "fit", "--data", str(blob_csv), "--label-column", "label",
            "--trees", "10", "--psi", "0", "--folds", "2", "--out", str(out),
        ])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "train AUC" in printed
        assert "fold 2" in printed
        assert (tmp_path / "scores.folds.csv").exists()

    def test_folds_without_labels_fails_before_writing(self, tmp_path, capsys):
        data = tmp_path / "unlabelled.csv"
        _write_csv(data, np.random.default_rng(4).normal(size=(40, 2)))
        out, model = tmp_path / "scores.csv", tmp_path / "model.imf"
        code = main([
            "fit", "--data", str(data), "--trees", "5", "--folds", "2",
            "--out", str(out), "--model", str(model),
        ])
        assert code == EXIT_DATA
        assert not out.exists() and not model.exists()
        captured = capsys.readouterr()
        assert "--folds needs ground-truth labels" in captured.err
        assert captured.out == ""

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(["fit", "--data", str(tmp_path / "nope.csv")])
        assert code == EXIT_DATA

    def test_label_only_file_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "labels.csv"
        data.write_text("y\n0\n1\n0\n")
        assert main(["fit", "--data", str(data), "--label-column", "y"]) == EXIT_DATA
        assert "no feature columns" in capsys.readouterr().err

    def test_failed_fork_fits_in_process(self, tmp_path, monkeypatch):
        # 100 trees on subsamples of 256 of 1,000 rows: 25,600 lanes, enough
        # for two build workers; scoring the rows (100,000 lanes) forks once more
        data = tmp_path / "big.csv"
        _write_csv(data, np.random.default_rng(9).normal(size=(1000, 3)))
        forks = fork_on(monkeypatch, cpus=2)
        forked, in_process = tmp_path / "forked.imf", tmp_path / "in_process.imf"
        assert main(["fit", "--data", str(data), "--trees", "100", "--model", str(forked)]) == EXIT_OK
        assert len(forks) == (2 if _can_fork() else 0)

        def fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        assert main(["fit", "--data", str(data), "--trees", "100", "--model", str(in_process)]) == EXIT_OK
        assert in_process.read_bytes() == forked.read_bytes()

    def test_overflowing_box_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        _write_csv(data, np.array([[-1e308, -1e308], [1e308, 1e308], [0.0, 0.0]]))
        code = main(["fit", "--data", str(data), "--trees", "2"])
        assert code == EXIT_DATA
        assert "overflows" in capsys.readouterr().err

    def test_subnormal_box_fits_and_scores(self, tmp_path):
        data = tmp_path / "thin.csv"
        _write_csv(data, np.array([[0.0], [5e-324]]))
        model = tmp_path / "model.imf"
        assert main(["fit", "--data", str(data), "--trees", "3", "--model", str(model)]) == EXIT_OK
        assert main(["score", "--model", str(model), "--data", str(data)]) == EXIT_OK


class TestLabelOnlyHeader:
    """A header that names only the label column has no feature columns,
    whether or not rows follow."""

    @pytest.mark.parametrize("text", ["y\n", "y\n0\n"], ids=["header-only", "one-row"])
    def test_fit_is_data_error(self, tmp_path, text, capsys):
        data = tmp_path / "labels.csv"
        data.write_text(text)
        assert main(["fit", "--data", str(data), "--label-column", "y"]) == EXIT_DATA
        assert "no feature columns besides the label" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["y\n", "y\n0\n"], ids=["header-only", "one-row"])
    def test_score_is_data_error(self, tmp_path, blob_csv, text, capsys):
        model, out = tmp_path / "model.imf", tmp_path / "scores.csv"
        assert main(["fit", "--data", str(blob_csv), "--label-column", "label", "--model", str(model)]) == EXIT_OK
        data = tmp_path / "labels.csv"
        data.write_text(text)
        capsys.readouterr()
        argv = ["score", "--model", str(model), "--data", str(data), "--label-column", "y", "--out", str(out)]
        assert main(argv) == EXIT_DATA
        assert "no feature columns besides the label" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["y\n", "y\n0\n"], ids=["header-only", "one-row"])
    def test_stream_is_data_error(self, tmp_path, text, capsys):
        data = tmp_path / "labels.csv"
        data.write_text(text)
        assert main(["stream", "--data", str(data), "--label-column", "y"]) == EXIT_DATA
        assert "no feature columns besides the label" in capsys.readouterr().err


class TestHeaderOnlyTraining:
    @pytest.mark.parametrize("label", [None, "label"], ids=["unlabelled", "labelled"])
    def test_fit_is_data_error(self, tmp_path, label, capsys):
        data = tmp_path / "header.csv"
        data.write_text("f0,f1,label\n" if label else "f0,f1\n")
        argv = ["fit", "--data", str(data)] + (["--label-column", label] if label else [])
        assert main(argv) == EXIT_DATA
        assert "point set must be nonempty" in capsys.readouterr().err

    def test_stream_cannot_stratify(self, tmp_path, capsys):
        data = tmp_path / "header.csv"
        data.write_text("f0,f1,label\n")
        assert main(["stream", "--data", str(data), "--label-column", "label"]) == EXIT_INFEASIBLE
        assert "0 anomalies cannot stratify" in capsys.readouterr().err


class TestScore:
    @pytest.fixture()
    def fitted(self, tmp_path, blob_csv):
        model = tmp_path / "model.imf"
        out = tmp_path / "train_scores.csv"
        code = main([
            "fit", "--data", str(blob_csv), "--label-column", "label",
            "--trees", "10", "--seed", "2", "--out", str(out), "--model", str(model),
        ])
        assert code == EXIT_OK
        return model, out

    def test_scoring_training_file_matches_fit_export(self, tmp_path, blob_csv, fitted):
        model, fit_out = fitted
        out = tmp_path / "rescored.csv"
        code = main([
            "score", "--model", str(model), "--data", str(blob_csv),
            "--label-column", "label", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert out.read_bytes() == fit_out.read_bytes()

    def test_missing_data_is_usage_error(self, fitted, capsys):
        model, _ = fitted
        with pytest.raises(SystemExit) as err:
            main(["score", "--model", str(model)])
        assert err.value.code == EXIT_USAGE
        assert "--data" in capsys.readouterr().err

    def test_dimension_mismatch_is_data_error(self, tmp_path, fitted):
        model, _ = fitted
        bad = tmp_path / "threecol.csv"
        _write_csv(bad, np.zeros((4, 3)))
        code = main(["score", "--model", str(model), "--data", str(bad)])
        assert code == EXIT_DATA

    def test_resealed_bad_split_dim_is_data_error(self, tmp_path, blob_csv, fitted, capsys):
        model, _ = fitted

        def edit(meta, arrays):
            arrays["split_dim"][0, meta["root"][0]] = 7

        reseal_model(model, edit)
        code = main(["score", "--model", str(model), "--data", str(blob_csv), "--label-column", "label"])
        assert code == EXIT_DATA
        assert "split dimension" in capsys.readouterr().err

    def test_empty_points_file(self, tmp_path, fitted):
        model, _ = fitted
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        out = tmp_path / "empty_scores.csv"
        code = main([
            "score", "--model", str(model), "--data", str(empty),
            "--no-header", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert out.read_text().strip() == "index,score,label,mode"

    @pytest.mark.parametrize("label", [None, "label"], ids=["unlabelled", "labelled"])
    def test_header_only_file_writes_empty_export(self, tmp_path, fitted, label, capsys):
        model, _ = fitted
        data = tmp_path / "header.csv"
        data.write_text("f0,f1,label\n" if label else "f0,f1\n")
        out = tmp_path / "header_scores.csv"
        argv = ["score", "--model", str(model), "--data", str(data), "--out", str(out)]
        if label:
            argv += ["--label-column", label]
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == b"index,score,label,mode\r\n"
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("label", [None, "label"], ids=["unlabelled", "labelled"])
    def test_header_only_file_of_another_dimension_is_data_error(self, tmp_path, fitted, label, capsys):
        model, _ = fitted  # d = 2
        data = tmp_path / "header.csv"
        data.write_text("a,b,c,label\n" if label else "a,b,c\n")
        out = tmp_path / "header_scores.csv"
        argv = ["score", "--model", str(model), "--data", str(data), "--out", str(out)]
        if label:
            argv += ["--label-column", label]
        assert main(argv) == EXIT_DATA
        assert "points have dimension 3, expected 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["a,b\n", "a,b\n1,2\n"], ids=["header-only", "one-row"])
    def test_label_index_past_the_header_is_data_error(self, tmp_path, fitted, text, capsys):
        model, _ = fitted
        data = tmp_path / "narrow.csv"
        data.write_text(text)
        out = tmp_path / "narrow_scores.csv"
        argv = ["score", "--model", str(model), "--data", str(data), "--label-column", "5", "--out", str(out)]
        assert main(argv) == EXIT_DATA
        assert "no column 5 for the label" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_model_is_data_error(self, tmp_path, fitted):
        model, _ = fitted
        blob = model.read_bytes()
        model.write_bytes(blob[:-30])
        code = main(["score", "--model", str(model), "--data", str(model)])
        assert code == EXIT_DATA

    def test_failed_fork_scores_in_process(self, tmp_path, monkeypatch):
        # 1,000 rows x 100 trees: 100,000 lanes, enough for two route workers
        data = tmp_path / "big.csv"
        _write_csv(data, np.random.default_rng(8).normal(size=(1000, 3)))
        model = tmp_path / "model.imf"
        assert main(["fit", "--data", str(data), "--trees", "100", "--model", str(model)]) == EXIT_OK
        forks = fork_on(monkeypatch, cpus=2)
        forked, in_process = tmp_path / "forked.csv", tmp_path / "in_process.csv"
        assert main(["score", "--model", str(model), "--data", str(data), "--out", str(forked)]) == EXIT_OK
        assert len(forks) == (1 if _can_fork() else 0)

        def fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        assert main(["score", "--model", str(model), "--data", str(data), "--out", str(in_process)]) == EXIT_OK
        assert in_process.read_bytes() == forked.read_bytes()

    def test_version_1_model_is_data_error(self, tmp_path, blob_csv, capsys):
        # and a version 2 model, which this build no longer reads either
        model = tmp_path / "old.imf"
        for blob, version in [(V1_MODEL.encode(), "v1"), (V2_MODEL, "v2")]:
            model.write_bytes(blob)
            code = main(["score", "--model", str(model), "--data", str(blob_csv), "--label-column", "label"])
            assert code == EXIT_DATA
            assert f"version {version}" in capsys.readouterr().err

    def test_binary_garbage_model_is_data_error(self, tmp_path, blob_csv):
        model = tmp_path / "garbage.imf"
        model.write_bytes(np.random.default_rng(0).bytes(4096))
        code = main(["score", "--model", str(model), "--data", str(blob_csv), "--label-column", "label"])
        assert code == EXIT_DATA


class TestStream:
    def test_five_stage_run(self, tmp_path):
        out = tmp_path / "stages.csv"
        code = main([
            "stream", "--synthetic", "gaussian-blob", "--seed", "4",
            "--trees", "15", "--stages", "5", "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6  # header + 5 stages
        assert lines[0] == "dataset,unit,split,auc,seconds,config_hash"

    def test_grid_dump(self, tmp_path):
        out = tmp_path / "stages.csv"
        code = main([
            "stream", "--synthetic", "gaussian-blob", "--inliers", "60",
            "--outliers", "15", "--seed", "1", "--trees", "10", "--stages", "3",
            "--grid", "20", "--out", str(out),
        ])
        assert code == EXIT_OK
        grid = tmp_path / "stages.grid.csv"
        lines = grid.read_text().strip().splitlines()
        assert len(lines) == 401  # header + 20x20 lattice
        assert lines[0] == "x,y,score,label"

    def test_grid_rejected_for_non_2d(self, tmp_path, capsys):
        data = tmp_path / "d3.csv"
        rng = np.random.default_rng(0)
        labels = np.zeros(40, dtype=int)
        labels[:10] = 1
        _write_csv(data, rng.normal(size=(40, 3)), labels)
        out = tmp_path / "stages.csv"
        with pytest.raises(SystemExit) as err:
            main([
                "stream", "--data", str(data), "--label-column", "label",
                "--trees", "5", "--stages", "2", "--grid", "10", "--out", str(out),
            ])
        assert err.value.code == EXIT_USAGE
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("usage: imondrian stream ")
        assert lines[-1] == "imondrian stream: error: --grid needs 2-D data, got d=3"
        assert not out.exists()

    def test_too_few_anomalies_is_infeasible(self, tmp_path):
        data = tmp_path / "rare.csv"
        rng = np.random.default_rng(1)
        labels = np.zeros(60, dtype=int)
        labels[:2] = 1
        _write_csv(data, rng.normal(size=(60, 2)), labels)
        code = main([
            "stream", "--data", str(data), "--label-column", "label",
            "--trees", "5", "--stages", "5",
        ])
        assert code == EXIT_INFEASIBLE

    def test_unlabeled_stream_is_data_error(self, tmp_path):
        data = tmp_path / "plain.csv"
        _write_csv(data, np.random.default_rng(2).normal(size=(30, 2)))
        code = main(["stream", "--data", str(data), "--trees", "5"])
        assert code == EXIT_DATA


class TestSyntheticFlags:
    """A synthetic recipe the flags describe but ``SyntheticSpec`` rejects is
    a usage error, found before anything is generated."""

    @pytest.mark.parametrize("command", ["fit", "stream"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--synthetic", "ring", "--box", "3"], "does not enclose the inlier support"),
            (["--synthetic", "gaussian-blob", "--inliers", "0", "--outliers", "0"], "dataset would be empty"),
        ],
        ids=["small-box", "empty"],
    )
    def test_bad_recipe_is_usage_error(self, tmp_path, command, flags, message, capsys):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as err:
            main([command, *flags, "--trees", "2", "--out", str(out)])
        assert err.value.code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "imondrian" in capsys.readouterr().out

    def test_help_lists_only_fit_score_stream(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        assert "{fit,score,stream}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--synthetic", "ring", "--box", "3"],
            ["score", "--data", "points.csv", "--model", "forest.imf", "--threshold", "2"],
            ["stream", "--synthetic", "ring", "--stages", "0"],
        ],
        ids=["fit", "score", "stream"],
    )
    def test_usage_error_prints_the_command_usage(self, argv, capsys):
        # the usage of the command whose flags are at fault, not the top level's
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_USAGE
        message = capsys.readouterr().err
        assert message.startswith(f"usage: imondrian {argv[0]} [-h]")
        assert f"imondrian {argv[0]}: error: " in message

    def test_bench_is_not_a_command(self, capsys):
        # timing lives in perfbench/run.py; the package ships no benchmark
        with pytest.raises(SystemExit) as err:
            main(["bench"])
        assert err.value.code == EXIT_USAGE
        assert "invalid choice: 'bench'" in capsys.readouterr().err


# a number as a CSV cell: a small or any finite float, or a huge one
_NUMBER = st.one_of(
    st.floats(-1e3, 1e3).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e308", "-1.7976931348623157e308"]),
)
# a cell put in place of a good one
_ODD = st.sampled_from(["nan", "-NaN", "inf", "-Infinity", "1e400", str(10**400), "2", "1_0", "", " ", "x", '"', '""'])


@st.composite
def _csv_case(draw):
    """(CSV text, flags that read it): a table of numbers with 0/1 labels in
    one column, up to two cells replaced by odd ones or cut off, cells
    quoted, blank lines, mixed line ends, and a delimiter, header and label
    column flag that may or may not match the text."""
    delimiter = draw(st.sampled_from([",", ";", "\t", " ", "|"]))
    width, n = draw(st.integers(1, 3)), draw(st.integers(0, 8))
    label_at = draw(st.sampled_from([None, *range(width)]))
    rows = [[draw(st.sampled_from("01") if j == label_at else _NUMBER) for j in range(width)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        row = rows[draw(st.integers(0, n - 1))]
        if row and draw(st.booleans()):
            row[draw(st.integers(0, len(row) - 1))] = draw(_ODD)
        elif row:
            row.pop()
    if draw(st.booleans()):
        rows = [[f'"{cell}"' for cell in row] for row in rows]
    header = draw(st.booleans())
    lines = ([delimiter.join(f"c{j}" for j in range(width))] if header else []) + [delimiter.join(r) for r in rows]
    for at in sorted(draw(st.lists(st.integers(0, len(lines)), max_size=2)), reverse=True):
        lines.insert(at, "")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    flags = ["--delimiter", draw(st.sampled_from([delimiter, delimiter, ","]))]
    if not header:
        flags.append("--no-header")
    if label_at is not None:
        flags += ["--label-column", draw(st.sampled_from([str(label_at), f"c{label_at}", str(width), "-1"]))]
    return text, flags


class TestNeverTracebacks:
    """Whatever CSV text ``fit`` and ``score`` read, they return an exit code
    (0, 2, 3 or 4) and raise nothing."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("csv")
        model = root / "model.imf"
        X = np.random.default_rng(3).normal(size=(20, 2))
        data = root / "train.csv"
        _write_csv(data, X)
        assert main(["fit", "--data", str(data), "--trees", "3", "--psi", "8", "--model", str(model)]) == EXIT_OK
        return root, model

    @deterministic(150)
    @given(case=_csv_case(), mode=st.sampled_from(["threshold", "kmeans"]))
    def test_fit_and_score_return_an_exit_code(self, files, case, mode):
        root, model = files
        text, flags = case
        data = root / "data.csv"
        data.write_bytes(text.encode())
        out = root / "scores.csv"
        fit = ["fit", "--data", str(data), "--trees", "2", "--psi", "4", "--mode", mode, "--out", str(out)]
        score = ["score", "--data", str(data), "--model", str(model), "--mode", mode, "--out", str(out)]
        for argv in (fit, score):
            assert main(argv + flags) in (EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_INFEASIBLE)
