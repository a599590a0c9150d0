"""CSV ingestion, synthetic generators, and model persistence."""

from __future__ import annotations

import csv
import hashlib
import io
import os
import threading

import numpy as np
import pytest

from imondrian.data_io import (
    CsvSchema,
    SyntheticSpec,
    _parse_body,
    _parse_cells,
    gen_synthetic,
    load_csv,
    load_model,
    save_model,
    write_scores,
)
from imondrian.errors import DataFormatError, ModelFormatError
from imondrian.evaluation import LabeledDataset
from imondrian.forest import ForestConfig, extend_forest, score_all, train_batch
from imondrian.tree import FIELD_NAMES, LINKS, node_fields

from helpers import (
    V1_MODEL,
    V2_MODEL,
    V2_PATH_LENGTHS,
    V2_PROBES,
    check_tree_invariants,
    node_arrays,
    read_model,
    reseal_model,
    structurally_equal,
)


def _lines(rows: list[list[str]]) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


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


def _left_past_size(meta, arrays):
    arrays["left"][0, meta["root"][0]] = meta["size"][0]


def _first_child_own_parent(meta, arrays):
    child = arrays["left"][0, meta["root"][0]]
    arrays["parent"][0, child] = child


def _root_loses_right_child(meta, arrays):
    arrays["right"][0, meta["root"][0]] = -1


def _root_children_coincide(meta, arrays):
    root = meta["root"][0]
    arrays["right"][0, root] = arrays["left"][0, root]


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

    def test_label_only_file_rejected(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("y\n0\n1\n0\n")
        with pytest.raises(DataFormatError, match="no feature columns"):
            load_csv(p, CsvSchema(label_column="y"))

    @pytest.mark.parametrize("text", ["y\n", "y", "\ny\r\n\n"])
    @pytest.mark.parametrize("label_column", ["y", 0])
    def test_label_only_header_rejected(self, tmp_path, text, label_column):
        p = tmp_path / "labels.csv"
        p.write_text(text)
        with pytest.raises(DataFormatError, match="no feature columns"):
            load_csv(p, CsvSchema(label_column=label_column))

    @pytest.mark.parametrize("text, row", [("a,b\n", 1), ("a,b\n1,2\n", 2)], ids=["header-only", "one-row"])
    def test_label_index_past_the_header_rejected(self, tmp_path, text, row):
        p = tmp_path / "narrow.csv"
        p.write_text(text)
        with pytest.raises(DataFormatError, match=f"row {row}: no column 5 for the label"):
            load_csv(p, CsvSchema(label_column=5))

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
        slow = _parse_cells(rows, 1, offset=1)
        # np.loadtxt rejects the digit separator; the other rows it reads as the cell parse does
        assert _parse_body(io.StringIO(_lines(rows)), ",", 1) is None
        fast = _parse_body(io.StringIO(_lines(rows[:1] + rows[2:])), ",", 1)
        for a, b in zip(fast, _parse_cells(rows[:1] + rows[2:], 1, offset=1)):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        p = tmp_path / "spaced.csv"
        p.write_text("a,y,b\n" + _lines(rows))
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
    def test_table_parse_defers_bad_input(self, tmp_path, rows, label_idx):
        # the cell parse then names the offending row and column
        assert _parse_body(io.StringIO(_lines(rows)), ",", label_idx) is None
        with pytest.raises(DataFormatError, match=r"row \d"):
            _parse_cells(rows, label_idx, offset=1)
        p = tmp_path / "bad.csv"
        p.write_text(_lines(rows))
        with pytest.raises(DataFormatError, match=r"row \d"):
            load_csv(p, CsvSchema(header=False, label_column=label_idx))

    @pytest.mark.parametrize("fmt", ["repr", "%.17g", "%.9g"])
    def test_table_parse_equals_cell_parse_on_random_floats(self, fmt):
        rng = np.random.default_rng(["repr", "%.17g", "%.9g"].index(fmt))
        n, d = 5000, 8
        sign = rng.choice([-1.0, 1.0], size=(n, d))
        values = sign * rng.random((n, d)) * 10.0 ** rng.uniform(-300, 300, size=(n, d))
        values[0] = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1e-300, 1.0, 0.1]
        write = repr if fmt == "repr" else (lambda v: fmt % v)
        rows = [[write(v) for v in row] + [str(label)] for row, label in zip(values.tolist(), rng.integers(0, 2, n))]
        fast = _parse_body(io.StringIO(_lines(rows)), ",", d)
        slow = _parse_cells(rows, d, offset=1)
        assert fast is not None
        for a, b in zip(fast, slow):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        if fmt != "%.9g":
            assert fast[0].tobytes() == values.tobytes()


class TestCsvDialect:
    """What ``load_csv`` accepts and how it reports the rest, cell by cell
    and line by line."""

    def _load(self, tmp_path, text, **schema):
        p = tmp_path / "data.csv"
        with p.open("w", newline="") as handle:
            handle.write(text)
        return load_csv(p, CsvSchema(**schema))

    def _error(self, tmp_path, text, **schema) -> str:
        with pytest.raises(DataFormatError) as info:
            self._load(tmp_path, text, **schema)
        return str(info.value)

    @pytest.mark.parametrize(
        "cell, value",
        [
            ('"1.5"', 1.5),
            ('"-2e3"', -2000.0),
            ("1_0", 10.0),
            ("\u0661\u0662", 12.0),
            ("\uff11\uff12", 12.0),
            ("\u0663.\u0665", 3.5),
            (" 2.5 ", 2.5),
            ("\t-7", -7.0),
            ("\xa07", 7.0),
            ("-0", -0.0),
            ("+3", 3.0),
            (".5", 0.5),
            ("5.", 5.0),
            ("1E3", 1000.0),
            ("1e-400", 0.0),
            ("5e-324", 5e-324),
            ("1.7976931348623157e308", 1.7976931348623157e308),
            ("0.1000000000000000055511151231257827021181583404541015625", 0.1),
        ],
    )
    def test_cells_read_as_float_reads_them(self, tmp_path, cell, value):
        data = self._load(tmp_path, f"a,b\n{cell},1\n-1,{cell}\n")
        assert data.tobytes() == np.array([[value, 1.0], [-1.0, value]]).tobytes()

    @pytest.mark.parametrize(
        "cell, message",
        [
            ("nan", "row 3, column 2: non-finite value 'nan' rejected"),
            ("NaN", "row 3, column 2: non-finite value 'NaN' rejected"),
            ("-nan", "row 3, column 2: non-finite value '-nan' rejected"),
            ("inf", "row 3, column 2: non-finite value 'inf' rejected"),
            ("-Infinity", "row 3, column 2: non-finite value '-Infinity' rejected"),
            ("1e400", "row 3, column 2: non-finite value '1e400' rejected"),
            ('"inf"', "row 3, column 2: non-finite value 'inf' rejected"),
            (' "1"', "row 3, column 2: could not parse '\"1\"' as a number"),
            ("x", "row 3, column 2: could not parse 'x' as a number"),
            ("", "row 3, column 2: could not parse '' as a number"),
            ("0x1p3", "row 3, column 2: could not parse '0x1p3' as a number"),
            ("1d5", "row 3, column 2: could not parse '1d5' as a number"),
            ("1e", "row 3, column 2: could not parse '1e' as a number"),
            ("nan(1)", "row 3, column 2: could not parse 'nan(1)' as a number"),
            ("1j", "row 3, column 2: could not parse '1j' as a number"),
            ("1\x00", "row 3, column 2: could not parse '1\\x00' as a number"),
        ],
    )
    def test_bad_cells_are_named_by_row_and_column(self, tmp_path, cell, message):
        assert self._error(tmp_path, f"a,b\n1,2\n3,{cell}\n") == message

    @pytest.mark.parametrize(
        "cell, label",
        [("0", 0), ("1", 1), ("-0", 0), ("1.0", 1), (" 1 ", 1), ('"1"', 1), ("0e5", 0)],
    )
    def test_labels_read_as_float_reads_them(self, tmp_path, cell, label):
        ds = self._load(tmp_path, f"a,y\n2.5,{cell}\n", label_column="y")
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [label]
        assert ds.points.tolist() == [[2.5]]

    @pytest.mark.parametrize(
        "cell, message",
        [
            ("2", "row 3, column 2: label must be 0 or 1, got '2'"),
            ("0.5", "row 3, column 2: label must be 0 or 1, got '0.5'"),
            ("nan", "row 3, column 2: label must be 0 or 1, got 'nan'"),
            ("inf", "row 3, column 2: label must be 0 or 1, got 'inf'"),
            ("x", "row 3, column 2: could not parse label 'x'"),
            ("", "row 3, column 2: could not parse label ''"),
        ],
    )
    def test_bad_labels_are_named_by_row_and_column(self, tmp_path, cell, message):
        assert self._error(tmp_path, f"a,y\n1,0\n3,{cell}\n", label_column="y") == message

    def test_blank_lines_are_skipped_and_not_counted(self, tmp_path):
        text = "a,b\n1,2\n\n3,4\r\n\r\n\n5,6\n\n"
        assert self._load(tmp_path, text).tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        # the row count skips blank lines; the message names the file line too
        assert self._error(tmp_path, "a,b\n\n1,2\n\n3,nan\n") == (
            "row 3 (line 5), column 2: non-finite value 'nan' rejected"
        )
        assert self._error(tmp_path, "a,b\n1,2\n\n3\n") == "row 3 (line 4): 1 features, expected 2"
        assert self._error(tmp_path, '"a\nb",c\n1,x\n') == "row 2 (line 3), column 2: could not parse 'x' as a number"
        assert self._error(tmp_path, "\n1,2\n", header=False, label_column=4) == "row 1 (line 2): no column 4 for the label"
        assert self._error(tmp_path, "\na\n", label_column=4) == "row 1 (line 2): no column 4 for the label"

    @pytest.mark.parametrize("line", ["  ", "\t", " \t "])
    def test_whitespace_only_line_is_a_bad_row(self, tmp_path, line):
        message = "row 3, column 1: could not parse '' as a number"
        assert self._error(tmp_path, f"a,b\n1,2\n{line}\n3,4\n") == message
        assert self._error(tmp_path, f"a\n1\n{line}\n3\n") == message
        assert self._error(tmp_path, f"a\n1\n{line}") == message

    def test_blank_lines_before_the_header(self, tmp_path):
        ds = self._load(tmp_path, "\n\r\n\na,y\n1.5,0\n-2,1\n", label_column="y")
        assert ds.points.tolist() == [[1.5], [-2.0]] and ds.labels.tolist() == [0, 1]
        assert self._error(tmp_path, "\n\na,b\n1,nan\n") == (
            "row 2 (line 4), column 2: non-finite value 'nan' rejected"
        )

    def test_quoted_header_names(self, tmp_path):
        ds = self._load(tmp_path, '"x, first",y\n1,1\n', label_column="y")
        assert ds.points.tolist() == [[1.0]] and ds.labels.tolist() == [1]
        ds = self._load(tmp_path, '"x\nfirst",y,z\n1,0,2\n', label_column="y")
        assert ds.points.tolist() == [[1.0, 2.0]] and ds.labels.tolist() == [0]
        ds = self._load(tmp_path, 'x," y "\n1,1\n', label_column="y")
        assert ds.labels.tolist() == [1]

    @pytest.mark.parametrize("newline", ["\r\n", "\r", "\n"])
    def test_line_endings(self, tmp_path, newline):
        text = newline.join(["a,y", "1.5,0", "-2,1", ""])
        ds = self._load(tmp_path, text, label_column="y")
        assert ds.points.tolist() == [[1.5], [-2.0]] and ds.labels.tolist() == [0, 1]
        bad = newline.join(["a,b", "1,2", "3,inf", ""])
        assert self._error(tmp_path, bad) == "row 3, column 2: non-finite value 'inf' rejected"

    def test_no_final_newline(self, tmp_path):
        assert self._load(tmp_path, "a,b\n1,2\n3,4").tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_trailing_delimiter_is_an_empty_cell(self, tmp_path):
        assert self._error(tmp_path, "a,b\n1,2,\n") == "row 2, column 3: could not parse '' as a number"

    def test_ragged_rows_are_named(self, tmp_path):
        assert self._error(tmp_path, "a,b\n1,2\n3\n") == "row 3: 1 features, expected 2"
        assert self._error(tmp_path, "a,b\n1,2\n3,4,5\n") == "row 3: 3 features, expected 2"
        assert self._error(tmp_path, "1,0\n2\n", header=False, label_column=1) == (
            "row 2: no column 1 for the label"
        )

    @pytest.mark.parametrize("text", ["a,b\n", "a,b", "a,b\r\n\r\n\n", "\na,b\n\n"])
    def test_header_only_file_has_no_rows(self, tmp_path, text):
        data = self._load(tmp_path, text)
        assert data.shape == (0, 2) and data.dtype == np.float64
        ds = self._load(tmp_path, text, label_column="b")
        assert ds.points.shape == (0, 1) and ds.labels.dtype == np.int64 and ds.labels.size == 0

    @pytest.mark.parametrize("text", ["", "\n", "\r\n\n"])
    def test_file_without_a_header_row(self, tmp_path, text):
        message = self._error(tmp_path, text)
        assert message.endswith("data.csv: expected a header row, file is empty")
        assert self._load(tmp_path, text, header=False).shape == (0, 0)

    @pytest.mark.parametrize("delimiter", [";", "\t", " ", "|", "e", "\x00"])
    def test_other_delimiters(self, tmp_path, delimiter):
        text = delimiter.join(["a", "b", "y"]) + "\n" + delimiter.join(["1.5", "-3", "1"]) + "\n"
        ds = self._load(tmp_path, text, delimiter=delimiter, label_column="y")
        assert ds.points.tolist() == [[1.5, -3.0]] and ds.labels.tolist() == [1]


    def test_line_break_as_delimiter_gives_one_cell_per_line(self, tmp_path):
        # np.loadtxt refuses a line break as its delimiter; the csv reader splits lines
        assert self._load(tmp_path, "1.5\n-3\n", header=False, delimiter="\n").tolist() == [[1.5], [-3.0]]

    @pytest.mark.parametrize("text", ["a,b\n1,2\n", 'a,b\n"1",2\n'], ids=["numbers", "quoted"])
    def test_pipe_is_read_once(self, tmp_path, text):
        fifo = tmp_path / "pipe.csv"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        writer.start()
        data = load_csv(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert data.tolist() == [[1.0, 2.0]]

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

    @pytest.mark.parametrize(
        "spec, digest",
        [
            (SyntheticSpec(kind="ring", n_inliers=10, n_outliers=7, seed=3),
             "a30febc067ff3aee9b6e087118a03c1067a495b268696268c8dc189c3210c89b"),
            (SyntheticSpec(kind="grid-cluster", n_inliers=5, n_outliers=20, seed=8),
             "ad41b6f9836f3e5b6b123ba22be26177adea473c57d3f4f5ad6ab9cb415ec726"),
            (SyntheticSpec(kind="two-blobs", n_inliers=0, n_outliers=3, seed=1),
             "7a3fddab5e8c8ada7478270c612b8e007ea02790b8c7668415c065ff951ad1b4"),
        ],
        ids=["ring", "grid-cluster", "outliers-only"],
    )
    def test_pinned_output(self, spec, digest):
        ds = gen_synthetic(spec)
        assert ds.points.shape == (spec.n_inliers + spec.n_outliers, 2)
        assert hashlib.sha256(ds.points.tobytes() + ds.labels.tobytes()).hexdigest() == digest

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
        # the links derived over the stored width are those over the capacity, cut
        for name, cut, full in zip(LINKS, forest.arena.links(width=width), forest.arena.links()):
            assert np.array_equal(cut, full[:, :width]) and np.array_equal(arrays[name], cut)
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

    def test_unequal_trees_load_every_slot_bit_identical(self, tmp_path):
        # duplicates give every subsample its own number of distinct points
        X = np.random.default_rng(11).integers(0, 5, size=(300, 2)).astype(float)
        forest = train_batch(X, ForestConfig(num_trees=9, psi=24, seed=11))
        extend_forest(forest, np.array([[7.5, -1.0], [0.5, 0.5]]))
        sizes = forest.arena.size
        assert sizes.min() < sizes.max()
        path = tmp_path / "model.imf"
        save_model(forest, path)
        loaded = load_model(path).arena
        width = int(sizes.max())
        assert loaded.capacity == width
        saved_arrays, loaded_arrays = node_arrays(forest.arena), node_arrays(loaded)
        for name, _, _, fill in node_fields((), forest.dim):
            saved = saved_arrays[name][:, :width]
            got = loaded_arrays[name]
            assert got.dtype == saved.dtype and got.shape == saved.shape
            assert got.tobytes() == saved.tobytes(), name
            unused = np.arange(width) >= sizes[:, None]
            assert (got[unused] == fill).all(), name
        assert np.array_equal(loaded.root, forest.arena.root)
        assert np.array_equal(loaded.size, sizes)

        def scribble(meta, arrays):  # a file's unused slots are not read
            unused = np.arange(meta["width"]) >= np.asarray(meta["size"])[:, None]
            for array in arrays.values():
                array[unused] = 7

        reseal_model(path, scribble)
        again = node_arrays(load_model(path).arena)
        for name in FIELD_NAMES:
            assert again[name].tobytes() == loaded_arrays[name].tobytes(), name

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
            (_left_past_size, "left link out of range"),
            (_first_child_own_parent, "parent link does not match"),
            (_root_loses_right_child, "exactly one child"),
            (_root_children_coincide, "not the child of exactly one"),
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
    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "scores.csv"
        scores = np.array([0.5, 0.1 + 0.2, 1e-300, 2.0 / 3.0, 1.0, 0.0, 5e-324])
        write_scores(path, scores, np.array([0, 1, 0, 1, 1, 0, 0]), "kmeans")
        assert path.read_bytes() == (
            b"index,score,label,mode\r\n"
            b"0,0.5,0,kmeans\r\n"
            b"1,0.30000000000000004,1,kmeans\r\n"
            b"2,1e-300,0,kmeans\r\n"
            b"3,0.6666666666666666,1,kmeans\r\n"
            b"4,1.0,1,kmeans\r\n"
            b"5,0.0,0,kmeans\r\n"
            b"6,5e-324,0,kmeans\r\n"
        )

    def test_golden_bytes_without_rows(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores(path, [], [], "threshold")
        assert path.read_bytes() == b"index,score,label,mode\r\n"

    @pytest.mark.parametrize("mode", ["threshold", "a,b", 'say "hi"', "two\nlines", "cr\r", "", " x "])
    def test_rows_match_the_csv_module(self, tmp_path, mode):
        path = tmp_path / "scores.csv"
        scores = np.random.default_rng(0).random(50)
        labels = (scores > 0.5).astype(np.int64)
        write_scores(path, scores, labels, mode)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["index", "score", "label", "mode"])
        for i, (s, label) in enumerate(zip(scores.tolist(), labels.tolist())):
            writer.writerow([i, repr(s), label, mode])
        assert path.read_bytes() == expected.getvalue().encode()

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
