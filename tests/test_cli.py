"""End-to-end CLI behavior and exit codes."""

from __future__ import annotations

import csv
import errno
import hashlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import imondrian
from imondrian.cli import EXIT_DATA, EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main
from imondrian.data_io import SyntheticSpec, gen_synthetic
from imondrian.tree import _can_fork, _close_helpers

from helpers import BAD_DRAW_STATES, V1_MODEL, V2_MODEL, V3_MODEL, V4_MODEL, deterministic, fork_on, reseal_model


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

    def test_summary_line_names_the_data_and_the_config(self, capsys):
        assert main(["fit", "--synthetic", "ring", "--trees", "5", "--seed", "3"]) == EXIT_OK
        summary = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("fit "))
        assert summary.startswith("fit synthetic-ring: n=145 d=2 trees=5 config=")
        assert "n_effective" not in summary

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

    @pytest.mark.parametrize(
        "anomalies, message", [(3, "3 anomalies"), (37, "3 normals")], ids=["anomalies", "normals"]
    )
    def test_folds_that_cannot_stratify_fail_before_writing(self, tmp_path, anomalies, message, capsys):
        data = tmp_path / "rare.csv"
        labels = np.zeros(40, dtype=int)
        labels[:anomalies] = 1
        _write_csv(data, np.random.default_rng(4).normal(size=(40, 2)), labels)
        out, model = tmp_path / "scores.csv", tmp_path / "model.imf"
        code = main([
            "fit", "--data", str(data), "--label-column", "label", "--trees", "5", "--folds", "5",
            "--out", str(out), "--model", str(model),
        ])
        assert code == EXIT_INFEASIBLE
        assert not out.exists() and not model.exists()
        captured = capsys.readouterr()
        assert f"{message} cannot stratify into 5 folds" in captured.err
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
        # for two build workers; scoring the rows (100,000 lanes) uses the
        # same helper
        data = tmp_path / "big.csv"
        _write_csv(data, np.random.default_rng(9).normal(size=(1000, 3)))
        forks = fork_on(monkeypatch, cpus=2)
        forked, in_process = tmp_path / "forked.imf", tmp_path / "in_process.imf"
        assert main(["fit", "--data", str(data), "--trees", "100", "--model", str(forked)]) == EXIT_OK
        assert len(forks) == (1 if _can_fork() else 0)

        def fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        _close_helpers()  # so that the next fit must fork to split its work
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


@pytest.mark.parametrize("command", ["fit", "score", "stream"])
def test_cell_past_the_field_limit_is_data_error(tmp_path, blob_csv, command, capsys):
    model = tmp_path / "model.imf"
    assert main(["fit", "--data", str(blob_csv), "--label-column", "label", "--model", str(model)]) == EXIT_OK
    data = tmp_path / "long.csv"  # the header and 100 rows, then a row with a cell the csv module refuses
    data.write_text(blob_csv.read_text() + "0.5," + "1" * (csv.field_size_limit() + 1) + ",0\n")
    capsys.readouterr()
    argv = [command, "--data", str(data), "--label-column", "label"] + (["--model", str(model)] if command == "score" else [])
    assert main(argv) == EXIT_DATA
    assert f"row 102: field larger than field limit ({csv.field_size_limit()})" in capsys.readouterr().err


class TestHeaderOnlyTraining:
    @pytest.mark.parametrize("label", [None, "label"], ids=["unlabelled", "labelled"])
    def test_fit_is_data_error(self, tmp_path, label, capsys):
        data = tmp_path / "header.csv"
        data.write_text("f0,f1,label\n" if label else "f0,f1\n")
        argv = ["fit", "--data", str(data)] + (["--label-column", label] if label else [])
        assert main(argv) == EXIT_DATA
        assert "training needs at least 2 points, got 0" in capsys.readouterr().err

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

    def test_pipe_declaring_a_huge_arena_is_data_error(self, tmp_path, blob_csv, capsys):
        # a well-sealed metadata line for one tree of 2**50 - 1 slots, an
        # 8 PiB arena, and no array bytes: the pipe is spooled before the
        # arena is allocated, and it held none of the bytes declared
        meta = b'{"dim":1,"root":[0],"size":[1125899906842623],"key":[0],"draws":[0]}\n'
        header = f"imondrian-forest v5 sha256={hashlib.sha256(meta).hexdigest()}\n".encode()
        pipe = tmp_path / "model.pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(header + meta,), daemon=True)
        writer.start()
        code = main(["score", "--model", str(pipe), "--data", str(blob_csv), "--label-column", "label"])
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert code == EXIT_DATA
        assert "array section holds 0 bytes" in capsys.readouterr().err

    def test_resealed_bad_split_dim_is_data_error(self, tmp_path, blob_csv, fitted, capsys):
        model, _ = fitted

        def edit(meta, arrays):  # tree 0's root, among its internal slots
            size = meta["size"][0]
            inner = np.flatnonzero(arrays["child"][0, :size] != np.arange(size))
            arrays["split_dim"][np.searchsorted(inner, meta["root"][0])] = 7

        reseal_model(model, edit)
        code = main(["score", "--model", str(model), "--data", str(blob_csv), "--label-column", "label"])
        assert code == EXIT_DATA
        assert "split dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("name, edit", BAD_DRAW_STATES)
    def test_resealed_bad_draw_state_is_data_error(self, blob_csv, fitted, capsys, name, edit):
        model, _ = fitted
        reseal_model(model, lambda meta, arrays: meta.update({name: edit(meta[name])}))
        code = main(["score", "--model", str(model), "--data", str(blob_csv), "--label-column", "label"])
        assert code == EXIT_DATA
        assert "malformed payload" in capsys.readouterr().err

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
        _close_helpers()  # each score below starts without a helper
        forks = fork_on(monkeypatch, cpus=2)
        forked, in_process = tmp_path / "forked.csv", tmp_path / "in_process.csv"
        assert main(["score", "--model", str(model), "--data", str(data), "--out", str(forked)]) == EXIT_OK
        assert len(forks) == (1 if _can_fork() else 0)

        def fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        _close_helpers()
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

    def test_version_3_model_is_data_error(self, tmp_path, blob_csv, capsys):
        model = tmp_path / "v3.imf"
        model.write_bytes(V3_MODEL)
        code = main(["score", "--model", str(model), "--data", str(blob_csv), "--label-column", "label"])
        assert code == EXIT_DATA
        assert "unsupported version v3 (this build reads v5)" in capsys.readouterr().err

    def test_version_4_model_is_data_error(self, tmp_path, blob_csv, capsys):
        model = tmp_path / "v4.imf"
        model.write_bytes(V4_MODEL)
        code = main(["score", "--model", str(model), "--data", str(blob_csv), "--label-column", "label"])
        assert code == EXIT_DATA
        assert "unsupported version v4 (this build reads v5)" in capsys.readouterr().err

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

    def test_grid_without_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["stream", "--synthetic", "gaussian-blob", "--grid", "20"])
        assert err.value.code == EXIT_USAGE
        message = "imondrian stream: error: --grid needs --out to name the dump file"
        assert capsys.readouterr().err.splitlines()[-1] == message


class TestKmeansFallback:
    def test_equal_scores_fall_back_to_the_threshold(self, tmp_path, capsys):
        # identical rows make every tree one leaf, so every score is equal
        data, out = tmp_path / "same.csv", tmp_path / "scores.csv"
        _write_csv(data, np.ones((12, 2)))
        assert main(["fit", "--data", str(data), "--trees", "3", "--mode", "kmeans", "--out", str(out)]) == EXIT_OK
        warning = "warning: all scores are equal; 2-means is degenerate; falling back to threshold labeling"
        assert capsys.readouterr().err.splitlines() == [warning]
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 12 and len({row.split(",", 1)[1] for row in rows}) == 1


class TestOneClassLabels:
    """The AUC of labels of one class is undefined, which ``fit`` and
    ``score`` print; they still exit 0."""

    @pytest.mark.parametrize("label", [0, 1])
    def test_fit_and_score_print_undefined_auc(self, tmp_path, label, capsys):
        data, model, out = tmp_path / "one.csv", tmp_path / "model.imf", tmp_path / "scores.csv"
        _write_csv(data, np.random.default_rng(6).normal(size=(30, 2)), np.full(30, label))
        fit = ["fit", "--data", str(data), "--label-column", "label", "--trees", "3", "--model", str(model)]
        assert main(fit) == EXIT_OK
        assert f"train AUC: undefined for one class (every label is {label})" in capsys.readouterr().out
        score = ["score", "--data", str(data), "--label-column", "label", "--model", str(model), "--out", str(out)]
        assert main(score) == EXIT_OK
        assert f"AUC: undefined for one class (every label is {label})" in capsys.readouterr().out
        assert out.exists()

    @pytest.mark.parametrize(
        "anomalies, flags",
        [(40, ["--stages", "2"]), (10, ["--stages", "2", "--window", "1"])],
        ids=["all-anomalies", "window-of-one"],
    )
    def test_stream_prints_undefined_auc(self, tmp_path, anomalies, flags, capsys):
        """Every stage scores one class: all labels are 1, or a window of
        one point holds one label."""
        data, out = tmp_path / "one.csv", tmp_path / "stages.csv"
        labels = np.zeros(40, dtype=int)
        labels[:anomalies] = 1
        _write_csv(data, np.random.default_rng(6).normal(size=(40, 2)), labels)
        argv = ["stream", "--data", str(data), "--label-column", "label", "--trees", "3", "--out", str(out), *flags]
        assert main(argv) == EXIT_OK
        stages = [line for line in capsys.readouterr().out.splitlines() if line.startswith("stage ") and "AUC" in line]
        assert len(stages) == 2 and all("AUC undefined for one class" in line for line in stages)
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["nan", "nan"]


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


class TestSyntheticDefaults:
    @pytest.mark.parametrize(
        "kind, n", [("gaussian-blob", 300), ("two-blobs", 145), ("ring", 145), ("grid-cluster", 145)]
    )
    def test_default_inlier_count_per_shape(self, kind, n, capsys):
        assert main(["fit", "--synthetic", kind, "--trees", "2"]) == EXIT_OK
        assert f"fit synthetic-{kind}: n={n} d=2 " in capsys.readouterr().out


# flag values no run can use, each a usage error of its subcommand
_BASE_ARGV = {
    "fit": ["fit", "--synthetic", "ring"],
    "score": ["score", "--data", "points.csv", "--model", "forest.imf"],
    "stream": ["stream", "--synthetic", "ring"],
}
_HOSTILE_FLAGS = [
    *[
        (command, flags)
        for command in ("fit", "score", "stream")
        for flags in (
            ["--delimiter", ""], ["--delimiter", "ab"],
            ["--threshold", "nan"], ["--threshold", "inf"], ["--threshold", "0"], ["--threshold", "1"],
        )
    ],
    *[
        (command, flags)
        for command in ("fit", "stream")
        for flags in (
            ["--box", "nan"], ["--box", "inf"], ["--box", "-inf"], ["--box", "1e308"], ["--trees", "0"],
            ["--psi", "1"], ["--seed", "-1"], ["--inliers", "-1"], ["--outliers", "-1"],
        )
    ],
    ("fit", ["--folds", "1"]),
    ("stream", ["--stages", "0"]),
    ("stream", ["--window", "0"]),
    ("stream", ["--grid", "1"]),
]


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
            *[[*_BASE_ARGV[command], *flags] for command, flags in _HOSTILE_FLAGS],
        ],
        ids=["fit", "score", "stream", *[f"{command} {flag}={value!r}" for command, (flag, value) in _HOSTILE_FLAGS]],
    )
    def test_usage_error_prints_the_command_usage(self, argv, capsys):
        # the usage of the command whose flags are at fault, not the top level's;
        # raised as SystemExit before anything is read, never as a traceback
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


class TestStreamIsQuiet:
    def test_subnormal_stream_prints_no_warning(self, tmp_path):
        # a stream whose clock starts near the largest float, so that a start
        # plus a wait overflows (see test_overflowing_clock_sum_is_silent);
        # run in a process of its own, so that a warning reaches stderr
        data = tmp_path / "tiny.csv"
        data.write_text("x,label\n0,0\n0,0\n1e-308,1\n0.25e-308,0\n0.6e-308,1\n0.1e-308,0\n")
        script = "import sys; from imondrian.cli import main; sys.exit(main(sys.argv[1:]))"
        argv = ["stream", "--data", str(data), "--label-column", "label", "--stages", "2", "--trees", "100", "--psi", "0"]
        env = {**os.environ, "PYTHONPATH": str(Path(imondrian.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == EXIT_OK, done.stderr
        assert "Warning" not in done.stderr


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
