"""CSV ingestion, synthetic generators, and model persistence."""

from __future__ import annotations

import numpy as np
import pytest

from imondrian.data_io import (
    CsvSchema,
    SyntheticSpec,
    _parse_cells,
    _parse_table,
    gen_synthetic,
    load_csv,
    load_model,
    save_model,
    write_scores,
)
from imondrian.errors import DataFormatError, ModelFormatError
from imondrian.evaluation import LabeledDataset
from imondrian.forest import ForestConfig, extend_forest, score_all, train_batch
from imondrian.tree import structurally_equal

from helpers import (
    V1_MODEL,
    V2_MODEL,
    V2_PATH_LENGTHS,
    V2_PROBES,
    check_tree_invariants,
    read_model,
    reseal_model,
)


def _set_root(field, value):
    def edit(meta, arrays):
        arrays[field][0, meta["root"][0]] = value
    return edit


def _widen_first_child(meta, arrays):
    child = arrays["left"][0, meta["root"][0]]
    arrays["box_max"][0, child] += 100.0


def _root_cut_outside_box(meta, arrays):
    root = meta["root"][0]
    arrays["split_val"][0, root] = arrays["box_max"][0, root, arrays["split_dim"][0, root]] + 1.0


def _bump_root_population(meta, arrays):
    arrays["population"][0, meta["root"][0]] += 1


def _empty_leaf(meta, arrays):
    leaf = np.flatnonzero(arrays["left"][0, : meta["size"][0]] == -1)[0]
    arrays["population"][0, leaf] = 0


def _finite_leaf_time(meta, arrays):
    leaf = np.flatnonzero(arrays["left"][0, : meta["size"][0]] == -1)[0]
    arrays["split_time"][0, leaf] = 1e9


class TestLoadCsv:
    def test_plain_numeric(self, tmp_path):
        p = tmp_path / "plain.csv"
        p.write_text("1.0,2.0\n3.5,-4.0\n0.0,0.25\n")
        data = load_csv(p, CsvSchema(header=False))
        assert isinstance(data, np.ndarray)
        assert data.shape == (3, 2)
        assert data[1, 1] == -4.0

    def test_header_and_label_column(self, tmp_path):
        p = tmp_path / "labeled.csv"
        p.write_text("a,b,class\n1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n")
        ds = load_csv(p, CsvSchema(label_column="class"))
        assert isinstance(ds, LabeledDataset)
        assert ds.n == 3 and ds.dim == 2
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.name == "labeled"

    def test_label_column_by_index(self, tmp_path):
        p = tmp_path / "byidx.csv"
        p.write_text("0,1.0,2.0\n1,3.0,4.0\n")
        ds = load_csv(p, CsvSchema(header=False, label_column=0))
        assert ds.labels.tolist() == [0, 1]
        assert ds.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_nan_cell_reports_position(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1.0,2.0\n3.0,NaN\n")
        with pytest.raises(DataFormatError, match="row 3, column 2"):
            load_csv(p)

    def test_garbage_cell_reports_position(self, tmp_path):
        p = tmp_path / "bad2.csv"
        p.write_text("1.0,2.0\nx,4.0\n", )
        with pytest.raises(DataFormatError, match="row 2, column 1"):
            load_csv(p, CsvSchema(header=False))

    def test_bad_label_rejected(self, tmp_path):
        p = tmp_path / "badlabel.csv"
        p.write_text("a,y\n1.0,2\n")
        with pytest.raises(DataFormatError, match="label"):
            load_csv(p, CsvSchema(label_column="y"))

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataFormatError, match="row 2"):
            load_csv(p, CsvSchema(header=False))

    def test_alternate_delimiter(self, tmp_path):
        p = tmp_path / "semi.csv"
        p.write_text("1.0;2.0\n3.0;4.0\n")
        data = load_csv(p, CsvSchema(header=False, delimiter=";"))
        assert data.shape == (2, 2)

    def test_row_order_preserved(self, tmp_path):
        p = tmp_path / "order.csv"
        rows = [f"{i}.0,{i * 2}.0" for i in range(20)]
        p.write_text("\n".join(rows) + "\n")
        data = load_csv(p, CsvSchema(header=False))
        assert data[:, 0].tolist() == [float(i) for i in range(20)]

    def test_seventeen_digit_round_trip(self, tmp_path):
        values = ["0.12345678901234567", "-9876543.2109876543", "1.7976931348623157e308"]
        p = tmp_path / "precise.csv"
        p.write_text("\n".join(values) + "\n")
        data = load_csv(p, CsvSchema(header=False))
        assert data.ravel().tolist() == [float(v) for v in values]

    def test_table_parse_matches_cell_parse(self, tmp_path):
        # whitespace, digit separators and signed zeros, a label in the middle
        rows = [[" 1.5", "0", "-0"], ["1_0", " 1 ", "2e-3 "], ["\t-7", "-0", "+3"]]
        fast = _parse_table(rows, 1)
        slow = _parse_cells(rows, 1, offset=1)
        for a, b in zip(fast, slow):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        p = tmp_path / "spaced.csv"
        p.write_text("a,y,b\n" + "\n".join(",".join(row) for row in rows) + "\n")
        ds = load_csv(p, CsvSchema(label_column="y"))
        assert ds.points.tobytes() == slow[0].tobytes()
        assert ds.labels.tolist() == [0, 1, 0]

    @pytest.mark.parametrize(
        "rows, label_idx",
        [
            ([["1", "2"], ["3"]], None),
            ([["1", "x"]], None),
            ([["1", "inf"]], None),
            ([["2", "1"]], 0),
            ([["1", "nan"]], 1),
            ([["1", "0"]], 2),
        ],
        ids=["ragged", "garbage", "infinite", "label-2", "label-nan", "no-label-column"],
    )
    def test_table_parse_defers_bad_input(self, rows, label_idx):
        # the cell parse then names the offending row and column
        assert _parse_table(rows, label_idx) is None
        with pytest.raises(DataFormatError, match=r"row \d"):
            _parse_cells(rows, label_idx, offset=1)


class TestGenSynthetic:
    def test_blob_with_box_outliers(self):
        ds = gen_synthetic(SyntheticSpec(kind="gaussian-blob", n_inliers=255, n_outliers=45, seed=3))
        assert ds.n == 300
        assert ds.dim == 2
        assert ds.anomaly_count == 45
        assert ds.anomaly_count / ds.n == pytest.approx(0.15)
        # outliers stay clear of the inlier core
        outliers = ds.points[ds.labels == 1]
        assert np.all(np.linalg.norm(outliers, axis=1) > 4.0)
        assert np.all(np.abs(outliers) <= 10.0)

    def test_zero_outliers_single_class(self):
        ds = gen_synthetic(SyntheticSpec(n_inliers=50, n_outliers=0, seed=0))
        assert ds.labels.sum() == 0

    def test_deterministic(self):
        spec = SyntheticSpec(kind="ring", n_inliers=60, n_outliers=15, seed=9)
        a = gen_synthetic(spec)
        b = gen_synthetic(spec)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("kind", ["gaussian-blob", "two-blobs", "ring", "grid-cluster"])
    def test_all_kinds_produce_valid_datasets(self, kind):
        ds = gen_synthetic(SyntheticSpec(kind=kind, n_inliers=100, n_outliers=45, seed=1))
        assert ds.n == 145
        assert ds.anomaly_count == 45

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(kind="spiral")

    def test_box_must_enclose_support(self):
        with pytest.raises(ValueError):
            SyntheticSpec(kind="ring", outlier_halfwidth=5.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_inliers=-1)


class TestModelRoundTrip:
    def _forest(self, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(120, 3))
        return X, train_batch(X, ForestConfig(num_trees=7, psi=64, seed=seed))

    def test_round_trip_scores_identical(self, tmp_path):
        X, forest = self._forest()
        path = tmp_path / "model.imf"
        save_model(forest, path)
        loaded = load_model(path)
        assert loaded.n_effective == forest.n_effective
        assert loaded.dim == forest.dim
        assert all(structurally_equal(a, b) for a, b in zip(forest.trees, loaded.trees))
        probes = np.random.default_rng(1).uniform(-5, 5, size=(100, 3))
        for before, after in zip(score_all(probes, forest), score_all(probes, loaded)):
            assert np.array_equal(before, after)  # bit-exact

    def test_round_trip_preserves_generator_stream(self, tmp_path):
        X, forest = self._forest(seed=5)
        path = tmp_path / "model.imf"
        save_model(forest, path)
        loaded = load_model(path)
        stream = np.random.default_rng(2).normal(scale=3.0, size=(15, 3))
        extend_forest(forest, stream)
        extend_forest(loaded, stream)
        assert all(structurally_equal(a, b) for a, b in zip(forest.trees, loaded.trees))

    def test_round_trip_after_capacity_doubled(self, tmp_path):
        X, forest = self._forest(seed=7)
        start_capacity = forest.arena.capacity
        rng = np.random.default_rng(3)
        while forest.arena.capacity == start_capacity:
            extend_forest(forest, rng.uniform(-40.0, 40.0, size=(10, 3)))
        path = tmp_path / "model.imf"
        save_model(forest, path)
        meta, arrays = read_model(path)
        width = int(forest.arena.size.max())
        assert meta["width"] == width < forest.arena.capacity
        assert arrays["left"].shape == (forest.num_trees, width)
        loaded = load_model(path)
        assert all(structurally_equal(a, b) for a, b in zip(forest.trees, loaded.trees))
        assert [g.bit_generator.state for g in forest.arena.rngs] == [
            g.bit_generator.state for g in loaded.arena.rngs
        ]
        probes = rng.uniform(-50.0, 50.0, size=(60, 3))
        assert np.array_equal(score_all(probes, forest)[1], score_all(probes, loaded)[1])
        more = rng.uniform(-60.0, 60.0, size=(40, 3))
        extend_forest(forest, more)
        extend_forest(loaded, more)
        assert all(structurally_equal(a, b) for a, b in zip(forest.trees, loaded.trees))
        assert np.array_equal(score_all(probes, forest)[1], score_all(probes, loaded)[1])

    def test_corrupted_byte_fails_checksum(self, tmp_path):
        X, forest = self._forest()
        path = tmp_path / "model.imf"
        save_model(forest, path)
        blob = bytearray(path.read_bytes())
        # flip one bit inside the node arrays
        blob[len(blob) // 2] ^= 0x10
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="checksum"):
            load_model(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.imf"
        path.write_text("")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_binary_garbage_rejected(self, tmp_path):
        path = tmp_path / "garbage.imf"
        for seed in range(5):
            path.write_bytes(np.random.default_rng(seed).bytes(4096))
            with pytest.raises(ModelFormatError):
                load_model(path)

    def test_version_mismatch_rejected(self, tmp_path):
        X, forest = self._forest()
        path = tmp_path / "model.imf"
        save_model(forest, path)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b" v2 ", b" v9 ", 1))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_version_1_file_rejected(self, tmp_path):
        path = tmp_path / "model.imf"
        path.write_text(V1_MODEL)
        with pytest.raises(ModelFormatError, match="version v1"):
            load_model(path)

    def test_earlier_version_2_file_loads_scores_and_resaves(self, tmp_path):
        path = tmp_path / "model.imf"
        path.write_bytes(V2_MODEL)
        loaded = load_model(path)
        assert score_all(V2_PROBES, loaded)[0].tolist() == V2_PATH_LENGTHS
        again = tmp_path / "again.imf"
        save_model(loaded, again)
        assert again.read_bytes() == V2_MODEL

    def test_subnormal_box_round_trip(self, tmp_path):
        # the box is too thin for a finite split time, so every tree is one leaf
        forest = train_batch(np.array([[0.0], [5e-324]]), ForestConfig(num_trees=3, psi=None, seed=0))
        path = tmp_path / "model.imf"
        save_model(forest, path)
        loaded = load_model(path)
        for a, b in zip(forest.trees, loaded.trees):
            assert structurally_equal(a, b)
            check_tree_invariants(b, expected_population=2)
            assert b.node_count == 1

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (_set_root("split_dim", 3), "split dimension"),
            (_set_root("split_dim", -2), "split dimension"),
            (_set_root("split_time", -1.0), "split times"),
            (_root_cut_outside_box, "split value"),
            (_widen_first_child, "nested"),
            (_set_root("population", -5), "population below 1"),
            (_empty_leaf, "population below 1"),
            (_bump_root_population, "sum of its children"),
            (_finite_leaf_time, "leaf split time"),
        ],
    )
    def test_resealed_invalid_structure_rejected(self, tmp_path, edit, problem):
        X, forest = self._forest()
        path = tmp_path / "model.imf"
        save_model(forest, path)
        load_model(path)  # the untouched file is valid
        reseal_model(path, edit)
        with pytest.raises(ModelFormatError, match=problem):
            load_model(path)

    def test_truncated_payload_rejected(self, tmp_path):
        X, forest = self._forest()
        path = tmp_path / "model.imf"
        save_model(forest, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: int(len(blob) * 0.8)])
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_resealed_wrong_byte_count_rejected(self, tmp_path):
        X, forest = self._forest()
        path = tmp_path / "model.imf"
        save_model(forest, path)

        def shrink(meta, arrays):
            meta["width"] -= 1
            meta["size"] = [min(s, meta["width"]) for s in meta["size"]]

        reseal_model(path, shrink)  # arrays keep their old width
        with pytest.raises(ModelFormatError, match="bytes"):
            load_model(path)


class TestScoreExport:
    def test_byte_identical_for_identical_runs(self, tmp_path):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 2))
        cfg = ForestConfig(num_trees=5, psi=None, seed=3)
        paths = []
        for name in ("a.csv", "b.csv"):
            forest = train_batch(X, cfg)
            _, scores = score_all(X, forest)
            path = tmp_path / name
            write_scores(path, scores, np.zeros(40, dtype=int), "threshold")
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_header_and_row_shape(self, tmp_path):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(5, 2))
        forest = train_batch(X, ForestConfig(num_trees=2, psi=None, seed=0))
        path = tmp_path / "scores.csv"
        write_scores(path, score_all(X, forest)[1], [0, 1, 0, 1, 0], "kmeans")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,score,label,mode"
        assert len(lines) == 6
        assert lines[1].endswith(",kmeans")

    def test_rows_hold_plain_float_reprs(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores(path, np.array([0.5, 0.1 + 0.2]), np.array([0, 1]), "threshold")
        assert path.read_text().splitlines()[1:] == [
            "0,0.5,0,threshold",
            "1,0.30000000000000004,1,threshold",
        ]
