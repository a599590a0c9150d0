"""End-to-end CLI behavior and exit codes."""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest

from imondrian.cli import EXIT_DATA, EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main
from imondrian.data_io import SyntheticSpec, gen_synthetic
from imondrian.tree import _can_fork

from helpers import V1_MODEL, assert_no_children, reseal_model, route_on


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

    def test_corrupt_model_is_data_error(self, tmp_path, fitted):
        model, _ = fitted
        blob = model.read_bytes()
        model.write_bytes(blob[:-30])
        code = main(["score", "--model", str(model), "--data", str(model)])
        assert code == EXIT_DATA

    def test_failed_fork_scores_in_process(self, tmp_path, monkeypatch):
        # 700 rows x 100 trees: 70,000 lanes, enough for two route workers
        data = tmp_path / "big.csv"
        _write_csv(data, np.random.default_rng(8).normal(size=(700, 3)))
        model = tmp_path / "model.imf"
        assert main(["fit", "--data", str(data), "--trees", "100", "--model", str(model)]) == EXIT_OK
        forks = route_on(monkeypatch, cpus=2)
        forked, in_process = tmp_path / "forked.csv", tmp_path / "in_process.csv"
        assert main(["score", "--model", str(model), "--data", str(data), "--out", str(forked)]) == EXIT_OK
        assert len(forks) == (1 if _can_fork() else 0)

        def fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        assert main(["score", "--model", str(model), "--data", str(data), "--out", str(in_process)]) == EXIT_OK
        assert in_process.read_bytes() == forked.read_bytes()
        assert_no_children()

    def test_version_1_model_is_data_error(self, tmp_path, blob_csv, capsys):
        model = tmp_path / "old.imf"
        model.write_text(V1_MODEL)
        code = main(["score", "--model", str(model), "--data", str(blob_csv), "--label-column", "label"])
        assert code == EXIT_DATA
        assert "version v1" in capsys.readouterr().err

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

    def test_grid_rejected_for_non_2d(self, tmp_path):
        data = tmp_path / "d3.csv"
        rng = np.random.default_rng(0)
        labels = np.zeros(40, dtype=int)
        labels[:10] = 1
        _write_csv(data, rng.normal(size=(40, 3)), labels)
        out = tmp_path / "stages.csv"
        code = main([
            "stream", "--data", str(data), "--label-column", "label",
            "--trees", "5", "--stages", "2", "--grid", "10", "--out", str(out),
        ])
        assert code == EXIT_USAGE

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


class TestBench:
    def test_tiny_run(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--sizes", "64,128", "--trees", "2", "--dim", "3",
            "--repeats", "1", "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        # header + 2 sizes x 3 phases
        assert len(lines) == 7
        printed = capsys.readouterr().out
        assert "train" in printed and "ratio=" in printed

    def test_bad_sizes_usage_error(self):
        code = main(["bench", "--sizes", "abc"])
        assert code == EXIT_USAGE

    def test_dim_zero_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--sizes", "64", "--dim", "0"])
        assert err.value.code == EXIT_USAGE
        assert "--dim" in capsys.readouterr().err


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "imondrian" in capsys.readouterr().out
