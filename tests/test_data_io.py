"""CSV ingestion, synthetic generators, and model persistence."""

from __future__ import annotations

import csv
import hashlib
import io
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import imondrian
from imondrian.data_io import (
    CsvSchema,
    SyntheticSpec,
    _parse_body,
    _parse_cells,
    gen_synthetic,
    load_csv,
    load_model,
    save_model,
    write_rows,
    write_scores,
)
from imondrian.errors import DataFormatError, ModelFormatError
from imondrian.evaluation import LabeledDataset
from imondrian.forest import ForestConfig, extend_forest, score_all, train_batch
from imondrian.tree import FIELD_NAMES, node_fields

from helpers import (
    TREE_FIELDS,
    V1_MODEL,
    V2_MODEL,
    V2_PATH_LENGTHS,
    V2_PROBES,
    V3_MODEL,
    check_arena_invariants,
    check_tree_invariants,
    deterministic,
    node_arrays,
    read_model,
    reseal_model,
    structurally_equal,
)
from reference import views


def _lines(rows: list[list[str]]) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def _set_root(field, value):
    def edit(meta, arrays):
        arrays[field][0, meta["root"][0]] = value
    return edit


def _first_leaf(meta, arrays) -> int:
    """The first leaf of tree 0 in a model file: its first slot whose two
    ``child`` rows are self loops."""
    return int(np.flatnonzero(arrays["child"][0, 0, : meta["size"][0]] == np.arange(meta["size"][0]))[0])


def _widen_first_child(meta, arrays):
    child = arrays["child"][0, 0, meta["root"][0]]
    arrays["box_max"][0, child] += 100.0


def _root_cut_outside_box(meta, arrays):
    root = meta["root"][0]
    arrays["split_val"][0, root] = arrays["box_max"][0, root, arrays["split_dim"][0, root]] + 1.0


def _bump_root_population(meta, arrays):
    arrays["population"][0, meta["root"][0]] += 1


def _empty_leaf(meta, arrays):
    arrays["population"][0, _first_leaf(meta, arrays)] = 0


def _finite_leaf_time(meta, arrays):
    arrays["split_time"][0, _first_leaf(meta, arrays)] = 1e9


def _leaf_dim_past_dim(meta, arrays):
    arrays["split_dim"][0, _first_leaf(meta, arrays)] = meta["dim"]


def _left_past_size(meta, arrays):
    arrays["child"][0, 0, meta["root"][0]] = meta["size"][0]


def _negative_right_link(meta, arrays):
    arrays["child"][1, 0, meta["root"][0]] = -1


def _root_loses_right_child(meta, arrays):  # its right side becomes a self loop
    root = meta["root"][0]
    arrays["child"][1, 0, root] = root


def _root_children_coincide(meta, arrays):
    root = meta["root"][0]
    arrays["child"][1, 0, root] = arrays["child"][0, 0, root]


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

    @pytest.mark.parametrize("delimiter", ["", "ab"])
    def test_delimiter_must_be_one_character(self, delimiter):
        with pytest.raises(ValueError, match="one character"):
            CsvSchema(delimiter=delimiter)

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

    @pytest.mark.parametrize("halfwidth", [float("nan"), float("inf"), 1e308])
    def test_box_width_must_be_finite(self, halfwidth):
        with pytest.raises(ValueError, match="not finite"):
            SyntheticSpec(kind="ring", outlier_halfwidth=halfwidth)

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

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            SyntheticSpec(seed=-1)


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
        assert all(structurally_equal(a, b) for a, b in zip(views(forest), views(loaded)))
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
        assert all(structurally_equal(a, b) for a, b in zip(views(forest), views(loaded)))

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
        # the stored child rows are the table's first W slots, row-local
        kids = forest.arena.child.reshape(2, forest.num_trees, -1)
        assert np.array_equal(arrays["child"], kids[:, :, :width] % forest.arena.capacity)
        loaded = load_model(path)
        assert all(structurally_equal(a, b) for a, b in zip(views(forest), views(loaded)))
        assert [g.bit_generator.state for g in forest.arena.rngs] == [
            g.bit_generator.state for g in loaded.arena.rngs
        ]
        probes = rng.uniform(-50.0, 50.0, size=(60, 3))
        assert np.array_equal(score_all(probes, forest)[1], score_all(probes, loaded)[1])
        more = rng.uniform(-60.0, 60.0, size=(40, 3))
        extend_forest(forest, more)
        extend_forest(loaded, more)
        assert all(structurally_equal(a, b) for a, b in zip(views(forest), views(loaded)))
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
        unused = np.arange(width) >= sizes[:, None]
        for name in TREE_FIELDS:
            saved = saved_arrays[name][:, :width]
            got = loaded_arrays[name]
            assert got.dtype == saved.dtype and got.shape == saved.shape
            assert got.tobytes() == saved.tobytes(), name
        for name, _, _, fill in node_fields((), forest.dim):
            assert (loaded_arrays[name][unused] == fill).all(), name
        flat = np.arange(loaded.child.size // 2).reshape(loaded.num_trees, width)
        assert (loaded.child.reshape(2, loaded.num_trees, width)[:, unused] == flat[unused]).all()
        assert np.array_equal(loaded.root, forest.arena.root)
        assert np.array_equal(loaded.size, sizes)

        def scribble(meta, arrays):  # a file's unused slots are not read
            unused = np.arange(meta["width"]) >= np.asarray(meta["size"])[:, None]
            for name, array in arrays.items():
                array[(slice(None), unused) if name == "child" else unused] = 7

        reseal_model(path, scribble)
        again = load_model(path).arena
        for name, array in node_arrays(again).items():
            assert array.tobytes() == loaded_arrays[name].tobytes(), name
        assert np.array_equal(again.child, loaded.child)

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
        path.write_bytes(blob.replace(b" v3 ", b" v9 ", 1))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_version_1_file_rejected(self, tmp_path):
        # and a version 2 file, whose links were row-local left, right and parent arrays
        path = tmp_path / "model.imf"
        for blob, version in [(V1_MODEL.encode(), "v1"), (V2_MODEL, "v2")]:
            path.write_bytes(blob)
            with pytest.raises(ModelFormatError, match=f"unsupported version {version} \\(this build reads v3\\)"):
                load_model(path)

    def test_version_3_file_loads_scores_and_resaves(self, tmp_path):
        path = tmp_path / "model.imf"
        path.write_bytes(V3_MODEL)
        loaded = load_model(path)
        assert score_all(V2_PROBES, loaded)[0].tolist() == V2_PATH_LENGTHS
        again = tmp_path / "again.imf"
        save_model(loaded, again)
        assert again.read_bytes() == V3_MODEL

    def test_subnormal_box_round_trip(self, tmp_path):
        # the box is too thin for a finite split time, so every tree is one leaf
        forest = train_batch(np.array([[0.0], [5e-324]]), ForestConfig(num_trees=3, psi=None, seed=0))
        path = tmp_path / "model.imf"
        save_model(forest, path)
        loaded = load_model(path)
        for a, b in zip(views(forest), views(loaded)):
            assert structurally_equal(a, b)
            check_tree_invariants(b, expected_population=2)
            assert b.size == 1

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (_set_root("split_dim", 3), "split dimension"),
            (_set_root("split_dim", -2), "split dimension"),
            (_leaf_dim_past_dim, "split dimension"),
            (_set_root("split_time", -1.0), "split times"),
            (_root_cut_outside_box, "split value"),
            (_widen_first_child, "nested"),
            (_set_root("population", -5), "population below 1"),
            (_empty_leaf, "population below 1"),
            (_bump_root_population, "sum of its children"),
            (_finite_leaf_time, "leaf split time"),
            (_left_past_size, "left link out of range"),
            (_negative_right_link, "right link out of range"),
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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_effective", 1),
            ("n_effective", 0),
            ("n_effective", -5),
            ("n_effective", 2.7),
            ("n_effective", 3.0),
            ("n_effective", "3"),
            ("n_effective", True),
            ("n_effective", None),
            ("psi", 1),
            ("psi", 0),
            ("psi", 64.0),
            ("psi", "64"),
            ("seed", 0.5),
            ("seed", "0"),
            ("seed", None),
            ("seed", -1),
            # a callable maps the saved value to the edited one: the same
            # number as a float or a string, or a fraction added
            pytest.param("dim", float, id="dim-float"),
            pytest.param("num_trees", str, id="num_trees-str"),
            pytest.param("width", float, id="width-float"),
            pytest.param("root", lambda root: [r + 0.4 for r in root], id="root-plus-0.4"),
            pytest.param("size", lambda size: [str(s) for s in size], id="size-str"),
        ],
    )
    def test_resealed_invalid_scalar_rejected(self, tmp_path, key, value):
        X, forest = self._forest()
        path = tmp_path / "model.imf"
        save_model(forest, path)

        def edit(meta, arrays):
            meta[key] = value(meta[key]) if callable(value) else value

        reseal_model(path, edit)
        with pytest.raises(ModelFormatError, match="malformed payload"):
            load_model(path)

    def test_resealed_valid_scalars_load(self, tmp_path):
        X, forest = self._forest()
        path = tmp_path / "model.imf"
        save_model(forest, path)

        def edit(meta, arrays):
            meta.update(n_effective=2, psi=None, seed=0)

        reseal_model(path, edit)
        loaded = load_model(path)
        assert (loaded.n_effective, loaded.psi, loaded.seed) == (2, None, 0)


class TestSaveModelFile:
    def test_failed_save_keeps_the_previous_model(self, tmp_path):
        # the child re-saves a 1.68 MB model into a 200,000-byte file size limit
        path = tmp_path / "model.imf"
        X = np.random.default_rng(3).normal(size=(64, 2))
        save_model(train_batch(X, ForestConfig(num_trees=3, psi=16, seed=3)), path)
        before = path.read_bytes()
        script = f"""
import errno, resource, signal
import numpy as np
from imondrian.data_io import save_model
from imondrian.forest import ForestConfig, train_batch
forest = train_batch(np.random.default_rng(0).normal(size=(512, 8)), ForestConfig(num_trees=20, psi=256))
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (200_000, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    save_model(forest, {str(path)!r})
except OSError as exc:
    assert exc.errno == errno.EFBIG, exc
else:
    raise SystemExit("the save did not fail")
"""
        env = {**os.environ, "PYTHONPATH": str(Path(imondrian.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert path.read_bytes() == before
        load_model(path)
        assert os.listdir(tmp_path) == ["model.imf"]

    def test_save_keeps_the_target_permissions(self, tmp_path):
        X, forest = TestModelRoundTrip()._forest()
        path = tmp_path / "model.imf"
        save_model(forest, path)
        path.chmod(0o600)
        save_model(forest, path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert os.listdir(tmp_path) == ["model.imf"]

    def test_save_through_a_symlink_writes_its_target(self, tmp_path):
        X, forest = TestModelRoundTrip()._forest()
        (tmp_path / "real.imf").write_bytes(b"")
        (tmp_path / "link.imf").symlink_to("real.imf")
        save_model(forest, tmp_path / "link.imf")
        assert (tmp_path / "link.imf").is_symlink()
        assert load_model(tmp_path / "real.imf").num_trees == forest.num_trees


    def test_pipe_is_written_and_read_in_place(self, tmp_path):
        X, forest = TestModelRoundTrip()._forest()
        regular = tmp_path / "model.imf"
        save_model(forest, regular)
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got: list[bytes] = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
        reader.start()
        save_model(forest, pipe)
        reader.join(timeout=30)
        assert not reader.is_alive() and got == [regular.read_bytes()]
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        writer = threading.Thread(target=lambda: pipe.write_bytes(regular.read_bytes()), daemon=True)
        writer.start()
        loaded = load_model(pipe)
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert all(structurally_equal(a, b) for a, b in zip(views(forest), views(loaded)))


class TestModelMemory:
    def test_save_and_load_hold_no_copy_of_the_file(self, tmp_path):
        # the paper's batch shape: 100 trees on subsamples of 256, d = 8
        X = np.random.default_rng(19).normal(size=(512, 8))
        forest = train_batch(X, ForestConfig(num_trees=100, psi=256, seed=19))
        path = tmp_path / "model.imf"
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            save_model(forest, path)
            save_peak = tracemalloc.get_traced_memory()[1] - start
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loaded = load_model(path)
            load_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        arena = loaded.arena
        arena_bytes = arena.child.nbytes + sum(getattr(arena, name).nbytes for name in FIELD_NAMES)
        assert save_peak <= 0.25 * path.stat().st_size
        assert load_peak <= 1.5 * arena_bytes


@st.composite
def _forests(draw):
    """A small trained forest, sometimes extended past its first capacity:
    d = 1 to 3 and n = 2 to 40, with duplicate blocks, constant columns and
    magnitudes from about 1e-300 to 1e300."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="data seed"))
    n, d = draw(st.integers(2, 40), label="n"), draw(st.integers(1, 3), label="d")
    X = rng.normal(size=(n, d)) * 10.0 ** draw(st.sampled_from([-300, -20, 0, 20, 300]), label="magnitude")
    if draw(st.booleans(), label="duplicate block"):
        X[rng.integers(0, n, size=n // 2 + 1)] = X[0]
    if draw(st.booleans(), label="constant column"):
        X[:, rng.integers(0, d)] = X[0, 0]
    psi = draw(st.none() | st.integers(2, 16), label="psi")
    forest = train_batch(X, ForestConfig(num_trees=draw(st.integers(1, 4), label="trees"), psi=psi,
                                         seed=draw(st.integers(0, 2**31), label="seed")))
    arrivals = draw(st.integers(0, 6), label="arrivals")
    if arrivals:
        spread = np.abs(X).max() or 1.0
        extend_forest(forest, rng.uniform(-3.0 * spread, 3.0 * spread, size=(arrivals, d)))
    return forest


class TestModelRoundTripProperty:
    """On generated forests, a save and load returns every stored array bit
    for bit, a second save writes the same bytes, and a flipped byte or a
    truncated file is rejected."""

    @deterministic(60)
    @given(forest=_forests(), data=st.data())
    def test_round_trip(self, tmp_path_factory, forest, data):
        path = tmp_path_factory.mktemp("round-trip") / "model.imf"
        save_model(forest, path)
        saved = path.read_bytes()
        loaded = load_model(path)
        arena, again = forest.arena, loaded.arena
        width = int(arena.size.max())
        assert again.capacity == width
        for name in FIELD_NAMES:
            assert getattr(again, name).tobytes() == getattr(arena, name)[:, :width].tobytes(), name
        kids = arena.child.reshape(2, forest.num_trees, -1)[:, :, :width] % arena.capacity
        assert np.array_equal(again.child.reshape(2, forest.num_trees, width) % width, kids)
        assert np.array_equal(again.root, arena.root) and np.array_equal(again.size, arena.size)
        assert [g.bit_generator.state for g in again.rngs] == [g.bit_generator.state for g in arena.rngs]
        assert (loaded.n_effective, loaded.psi, loaded.seed) == (forest.n_effective, forest.psi, forest.seed)
        save_model(loaded, path)
        assert path.read_bytes() == saved

        flipped = bytearray(saved)
        at = data.draw(st.integers(saved.index(b"\n") + 1, len(saved) - 1), label="flipped byte")
        flipped[at] ^= data.draw(st.integers(1, 255), label="xor")
        path.write_bytes(bytes(flipped))
        with pytest.raises(ModelFormatError, match="checksum"):
            load_model(path)
        path.write_bytes(saved[: data.draw(st.integers(0, len(saved) - 1), label="kept bytes")])
        with pytest.raises(ModelFormatError):
            load_model(path)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    """A saved three-tree model of unequal tree sizes (2-D, psi 16 on rows
    with duplicates, then six arrivals) and the path of a copy to edit."""
    rng = np.random.default_rng(60)
    X = rng.integers(0, 4, size=(60, 2)).astype(float)
    forest = train_batch(X, ForestConfig(num_trees=3, psi=16, seed=60))
    extend_forest(forest, rng.normal(scale=3.0, size=(6, 2)))
    assert len(set(forest.arena.size.tolist())) > 1  # so the stored width has unused slots
    path = tmp_path_factory.mktemp("edits") / "model.imf"
    save_model(forest, path)
    return path.read_bytes(), path


class TestValidatorsAgree:
    """The loader's validator and ``helpers.check_arena_invariants``, which
    was written apart from it, agree on every hand edit of one element of one
    node field or of the stored ``child`` rows: the edited model fails to
    load with ModelFormatError, or it loads as a forest that passes the
    invariants."""

    @deterministic(300)
    @given(data=st.data())
    def test_one_changed_element(self, model_file, data):
        saved, path = model_file
        path.write_bytes(saved)
        meta, arrays = read_model(path)
        name = data.draw(st.sampled_from(FIELD_NAMES + ("child",)), label="field")
        field = arrays[name]
        index = data.draw(st.integers(0, field.size - 1), label="flat index")
        if field.dtype.kind == "f":
            fresh = st.floats(width=64)
        else:
            info = np.iinfo(field.dtype)
            fresh = st.integers(-2, meta["width"] + 1) | st.integers(int(info.min), int(info.max))
        value = data.draw(fresh | st.sampled_from(field.ravel().tolist()), label="value")

        def edit(meta, arrays):
            arrays[name].reshape(-1)[index] = value

        reseal_model(path, edit)
        try:
            forest = load_model(path)
        except ModelFormatError:
            return
        check_arena_invariants(forest.arena)


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


class TestResultTable:
    def test_golden_bytes(self, tmp_path):
        # a quoted dataset name, a line break and a subnormal, as the stage table has them
        path = tmp_path / "stages.csv"
        rows = [
            {"dataset": 'say "hi"', "unit": "stage-1", "auc": 0.1 + 0.2, "seconds": 5e-324},
            {"dataset": "two\nlines", "unit": "stage-2", "auc": 1.0, "seconds": 2.0 / 3.0},
        ]
        write_rows(path, rows)
        assert path.read_bytes() == (
            b"dataset,unit,auc,seconds\r\n"
            b'"say ""hi""",stage-1,0.30000000000000004,5e-324\r\n'
            b'"two\nlines",stage-2,1.0,0.6666666666666666\r\n'
        )

    def test_numpy_cells_are_written_as_numbers(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_rows(path, [{"x": np.float64(0.3), "y": np.float64(0.1) + np.float64(0.2), "label": np.int64(1)}])
        assert path.read_bytes() == b"x,y,label\r\n0.3,0.30000000000000004,1\r\n"

    def test_no_rows_make_an_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("old")
        write_rows(path, [])
        assert path.read_bytes() == b""
