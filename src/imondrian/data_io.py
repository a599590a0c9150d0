"""Dataset ingestion, synthetic data generation, and persistence.

The model file stores a forest's packed arena: a one-line header carrying
magic, version and a SHA-256 checksum, one JSON metadata line, then the node
arrays as raw little-endian bytes, with the links as row-local left, right
and parent arrays read off the arena's child table, so reloaded structures
are bit-identical (see ``save_model``).
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ModelFormatError
from .evaluation import LabeledDataset
from .forest import Forest
from .tree import LINKS, NO_NODE, ForestArena, link, node_fields

MODEL_MAGIC = "imondrian-forest"
MODEL_VERSION = 2


# -- CSV ingestion -------------------------------------------------------------


@dataclass(frozen=True)
class CsvSchema:
    """How to read a dataset file.

    ``label_column`` may be a header name or a 0-based column index; when
    set, that column must hold 0/1 anomaly labels and the rest are features.
    """

    delimiter: str = ","
    label_column: str | int | None = None
    header: bool = True


def _where(row: int, line: int) -> str:
    """A row's number in a message, and its file line where that differs."""
    return f"row {row}" if line == row else f"row {row} (line {line})"


def _numbered(reader):
    """(first file line, cells) of each non-empty row of a ``csv.reader``."""
    line = reader.line_num + 1
    for row in reader:
        if row:
            yield line, row
        line = reader.line_num + 1


def _parse_feature(cell: str, where: str, col: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataFormatError(
            f"{where}, column {col}: could not parse {cell!r} as a number"
        ) from None
    if not np.isfinite(value):
        raise DataFormatError(
            f"{where}, column {col}: non-finite value {cell!r} rejected"
        )
    return value


def _parse_label(cell: str, where: str, col: int) -> int:
    try:
        value = float(cell)
    except ValueError:
        raise DataFormatError(
            f"{where}, column {col}: could not parse label {cell!r}"
        ) from None
    if value not in (0.0, 1.0):
        raise DataFormatError(f"{where}, column {col}: label must be 0 or 1, got {cell!r}")
    return int(value)


def load_csv(path, schema: CsvSchema | None = None) -> LabeledDataset | np.ndarray:
    """Read a dataset; row order is preserved.

    Returns a LabeledDataset when the schema names a label column, a plain
    (n, d) array otherwise. Every feature cell must parse as a finite real;
    failures report their row and column (1-based, counting the header but
    not blank lines), and the file line the row starts on where that differs.
    """
    schema = schema or CsvSchema()
    path = Path(path)
    with path.open(newline="") as stream:
        # the cell parse reads the file again; a pipe is read into memory first
        handle = stream if stream.seekable() else io.StringIO(stream.read(), newline="")
        reader = csv.reader(handle, delimiter=schema.delimiter)
        header_row: list[str] | None = None
        if schema.header:
            header_line, header_row = next(_numbered(reader), (1, None))
            if header_row is None:
                raise DataFormatError(f"{path}: expected a header row, file is empty")
            header_row = [cell.strip() for cell in header_row]
        label_idx: int | None = None
        if schema.label_column is not None:
            if isinstance(schema.label_column, int):
                if schema.label_column < 0:
                    raise DataFormatError(f"label column index must be >= 0, got {schema.label_column}")
                label_idx = schema.label_column
            else:
                if header_row is None:
                    raise DataFormatError("label column given by name but the schema has no header")
                try:
                    label_idx = header_row.index(schema.label_column)
                except ValueError:
                    raise DataFormatError(
                        f"label column {schema.label_column!r} not in header {header_row}"
                    ) from None
        parsed = _parse_body(handle, schema.delimiter, label_idx)
        if parsed is None:
            handle.seek(0)
            rows = list(_numbered(csv.reader(handle, delimiter=schema.delimiter)))[1 if schema.header else 0 :]
            parsed = _parse_cells([r for _, r in rows], label_idx, 2 if schema.header else 1, [n for n, _ in rows])
    data, labels = parsed
    if not data.shape[0] and header_row is not None:  # no rows: the header names the columns
        if label_idx is not None and label_idx >= len(header_row):
            raise DataFormatError(f"{_where(1, header_line)}: no column {label_idx} for the label")
        data = np.zeros((0, sum(j != label_idx for j in range(len(header_row)))))
    if data.shape[1] == 0 and (data.shape[0] or header_row is not None):
        raise DataFormatError(f"{path}: no feature columns besides the label")
    if label_idx is None:
        return data
    return LabeledDataset(points=data, labels=labels, name=path.stem)


def _parse_body(lines, delimiter: str, label_idx: int | None) -> tuple[np.ndarray, np.ndarray] | None:
    """(features, labels) from one ``np.loadtxt`` over an iterator of data
    ``lines``, or None unless they are a rectangle of plain numbers with finite
    features and 0/1 labels. ``loadtxt`` reads each cell it accepts as ``float()``
    does; it rejects quoted cells, ``1_0`` and non-ASCII digits, which the cell parse reads."""
    first = next((line for line in lines if line.strip("\r\n")), None)
    if first is None:  # no rows; np.loadtxt would warn
        return np.zeros((0, 0)), np.zeros(0, dtype=np.int64)
    try:
        table = np.loadtxt(itertools.chain([first], lines), delimiter=delimiter, comments=None, ndmin=2)
    except (TypeError, ValueError):  # TypeError: a line break as the delimiter
        return None
    labels = np.zeros(0, dtype=np.int64)
    if label_idx is not None:
        if label_idx >= table.shape[1] or not np.isin(table[:, label_idx], (0.0, 1.0)).all():
            return None
        labels = table[:, label_idx].astype(np.int64)
        table = np.delete(table, label_idx, axis=1)
    if not np.isfinite(table).all():
        return None
    return table, labels


def _parse_cells(
    rows: list[list[str]], label_idx: int | None, offset: int, lines=None
) -> tuple[np.ndarray, np.ndarray]:
    """Cell-by-cell parse that reports the first bad cell by its row and
    column; ``offset`` is the 1-based file row of ``rows[0]``, and ``lines``
    the file line each row starts on (each row's number by default)."""
    features: list[list[float]] = []
    labels: list[int] = []
    for i, row in enumerate(rows):
        row_no = i + offset
        where = _where(row_no, row_no if lines is None else lines[i])
        if label_idx is not None and label_idx >= len(row):
            raise DataFormatError(f"{where}: no column {label_idx} for the label")
        feats = []
        for j, cell in enumerate(row):
            if label_idx is not None and j == label_idx:
                labels.append(_parse_label(cell.strip(), where, j + 1))
            else:
                feats.append(_parse_feature(cell.strip(), where, j + 1))
        if features and len(feats) != len(features[0]):
            raise DataFormatError(
                f"{where}: {len(feats)} features, expected {len(features[0])}"
            )
        features.append(feats)
    data = np.asarray(features, dtype=float) if features else np.zeros((0, 0))
    return data, np.asarray(labels, dtype=np.int64)


# -- synthetic data ------------------------------------------------------------

# per-kind inlier sampler and "core" region outliers must avoid:
# (sampler(rng, n) -> points, core(points) -> bool mask, axis extent of core)


def _blob(center, sigma, rng, n):
    return rng.normal(0.0, sigma, size=(n, 2)) + np.asarray(center, dtype=float)


def _min_center_distance(points, centers):
    pts = np.asarray(points, dtype=float)
    dists = [np.linalg.norm(pts - np.asarray(c, float), axis=1) for c in centers]
    return np.min(dists, axis=0)


_GRID_CENTERS = [(a, b) for a in (-6.0, 0.0, 6.0) for b in (-6.0, 0.0, 6.0)]

_GENERATORS = {
    "gaussian-blob": (
        lambda rng, n: _blob((0.0, 0.0), 1.0, rng, n),
        lambda pts: _min_center_distance(pts, [(0.0, 0.0)]) <= 4.0,
        4.0,
    ),
    "two-blobs": (
        lambda rng, n: np.concatenate(
            [_blob((-4.0, 0.0), 1.0, rng, n // 2), _blob((4.0, 0.0), 1.0, rng, n - n // 2)]
        ),
        lambda pts: _min_center_distance(pts, [(-4.0, 0.0), (4.0, 0.0)]) <= 3.5,
        7.5,
    ),
    "ring": (
        lambda rng, n: _ring_points(rng, n),
        lambda pts: np.abs(np.linalg.norm(pts, axis=1) - 6.0) <= 1.8,
        7.8,
    ),
    "grid-cluster": (
        lambda rng, n: _blob((0.0, 0.0), 0.6, rng, n)
        + np.asarray(_GRID_CENTERS, float)[rng.integers(0, len(_GRID_CENTERS), n)],
        lambda pts: _min_center_distance(pts, _GRID_CENTERS) <= 2.0,
        8.0,
    ),
}


def _ring_points(rng, n):
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    radius = 6.0 + rng.normal(0.0, 0.4, n)
    return np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a 2-D labeled toy dataset.

    Inliers come from the chosen shape; outliers are uniform over the
    square [-halfwidth, halfwidth]^2 minus the shape's core region.
    """

    kind: str = "gaussian-blob"
    n_inliers: int = 255
    n_outliers: int = 45
    outlier_halfwidth: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _GENERATORS:
            raise ValueError(f"unknown synthetic kind {self.kind!r}; options: {sorted(_GENERATORS)}")
        if self.n_inliers < 0 or self.n_outliers < 0:
            raise ValueError("counts must be nonnegative")
        if self.n_inliers + self.n_outliers == 0:
            raise ValueError("dataset would be empty")
        extent = _GENERATORS[self.kind][2]
        if self.outlier_halfwidth < extent:
            raise ValueError(
                f"outlier box halfwidth {self.outlier_halfwidth} does not enclose "
                f"the inlier support (needs >= {extent})"
            )


def gen_synthetic(spec: SyntheticSpec) -> LabeledDataset:
    """Deterministic synthetic dataset: inliers labeled 0, outliers 1."""
    rng = np.random.default_rng(spec.seed)
    sampler, core, _ = _GENERATORS[spec.kind]
    inliers = sampler(rng, spec.n_inliers) if spec.n_inliers else np.zeros((0, 2))
    outliers = np.zeros((0, 2))
    hw = spec.outlier_halfwidth
    attempts = 0
    while outliers.shape[0] < spec.n_outliers:
        draw = rng.uniform(-hw, hw, size=(max(spec.n_outliers, 8), 2))
        outliers = np.concatenate([outliers, draw[~core(draw)]])
        attempts += 1
        if attempts > 1000:
            raise RuntimeError("outlier rejection sampling failed to make progress")
    points = np.concatenate([inliers, outliers[: spec.n_outliers]])
    labels = np.concatenate(
        [np.zeros(spec.n_inliers, dtype=np.int64), np.ones(spec.n_outliers, dtype=np.int64)]
    )
    return LabeledDataset(points=points, labels=labels, name=f"synthetic-{spec.kind}")


# -- model persistence ---------------------------------------------------------


def save_model(forest: Forest, path) -> None:
    """Persist a forest as its packed arena; the round trip is bit exact.

    The file is a header line ``imondrian-forest v2 sha256=<hex>``, one JSON
    line (the forest's scalars, the stored width W = the largest tree's
    size, and every tree's root, size and generator state), then the first
    W slots of every node field as raw little-endian bytes, in
    ``tree.node_fields`` order, the links from ``ForestArena.links`` over
    those W slots. The
    checksum covers everything after the header line.
    """
    arena = forest.arena
    width = int(arena.size.max())
    links = dict(zip(LINKS, arena.links(width=width)))
    meta = {
        "n_effective": forest.n_effective,
        "psi": forest.psi,
        "seed": forest.seed,
        "dim": forest.dim,
        "num_trees": forest.num_trees,
        "width": width,
        "root": arena.root.tolist(),
        "size": arena.size.tolist(),
        "rng_states": [gen.bit_generator.state for gen in arena.rngs],
    }
    body = [json.dumps(meta, separators=(",", ":"), allow_nan=False).encode() + b"\n"]
    for name, dtype, _, _ in node_fields((), forest.dim):
        field = links[name] if name in LINKS else getattr(arena, name)
        body.append(field[:, :width].astype(dtype.newbyteorder("<"), copy=False).tobytes())
    digest = hashlib.sha256()
    for part in body:
        digest.update(part)
    with Path(path).open("wb") as handle:
        handle.write(f"{MODEL_MAGIC} v{MODEL_VERSION} sha256={digest.hexdigest()}\n".encode())
        handle.writelines(body)


def load_model(path) -> Forest:
    """Load a persisted forest, verifying magic, version, checksum, array
    sizes and tree structure; any problem raises ModelFormatError."""
    raw = Path(path).read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise ModelFormatError(f"{path}: not a model file (missing header)")
    header = raw[:newline]
    parts = header.decode("ascii", "replace").split()
    if len(parts) != 3 or parts[0] != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: bad magic {header[:64]!r}")
    if parts[1] != f"v{MODEL_VERSION}":
        raise ModelFormatError(
            f"{path}: unsupported version {parts[1]} (this build reads v{MODEL_VERSION})"
        )
    if not parts[2].startswith("sha256="):
        raise ModelFormatError(f"{path}: malformed checksum field")
    if hashlib.sha256(memoryview(raw)[newline + 1 :]).hexdigest() != parts[2][len("sha256=") :]:
        raise ModelFormatError(f"{path}: checksum mismatch, file is corrupt")
    meta_end = raw.find(b"\n", newline + 1)
    if meta_end < 0:
        raise ModelFormatError(f"{path}: no array section after the metadata line")
    try:
        forest, links = _unpack(json.loads(raw[newline + 1 : meta_end]), raw, meta_end + 1)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed payload: {exc}") from exc
    problem = _structure_problem(forest.arena, *links)
    if problem is not None:
        raise ModelFormatError(f"{path}: invalid tree structure: {problem}")
    return forest


def _unpack(meta: dict, raw: bytes, offset: int) -> tuple[Forest, tuple[np.ndarray, ...]]:
    """The forest described by a metadata dict and the arrays in ``raw`` from
    ``offset`` on, and the file's left, right and parent links its child
    table is built from; ValueError if they do not fit together. Unused slots
    are reset to a fresh arena's fill values, whatever the file holds there."""
    num_trees, dim, width = int(meta["num_trees"]), int(meta["dim"]), int(meta["width"])
    root = np.asarray(meta["root"], dtype=np.int64)
    size = np.asarray(meta["size"], dtype=np.int64)
    states = meta["rng_states"]
    if num_trees < 1 or dim < 1 or not root.shape == size.shape == (num_trees,) or len(states) != num_trees:
        raise ValueError("tree count or dimension does not match the metadata")
    if size.min() < 1 or size.max() != width:
        raise ValueError("tree sizes do not fit the stored width")
    fields = node_fields((num_trees, width), dim)
    expected = sum(dtype.itemsize * math.prod(shape) for _, dtype, shape, _ in fields)
    if len(raw) - offset != expected:
        raise ValueError(f"array section holds {len(raw) - offset} bytes, expected {expected}")
    arena = ForestArena(num_trees, dim, width)
    unused = np.arange(width) >= size[:, None]
    links = {name: np.empty(shape, dtype) for name, dtype, shape, _ in fields if name in LINKS}
    for name, dtype, shape, fill in fields:
        stored = np.frombuffer(raw, dtype.newbyteorder("<"), math.prod(shape), offset).reshape(shape)
        field = links[name] if name in LINKS else getattr(arena, name)
        field[...] = stored
        field[unused] = fill
        offset += stored.nbytes
    arena.root[:] = root
    arena.size[:] = size
    arena.child = link(links["left"], links["right"])
    for t, state in enumerate(states):
        arena.rngs[t] = np.random.default_rng()
        arena.rngs[t].bit_generator.state = state
    psi = meta["psi"]
    return Forest(
        arena=arena,
        n_effective=int(meta["n_effective"]),
        psi=None if psi is None else int(psi),
        seed=int(meta["seed"]),
    ), tuple(links.values())


def _structure_problem(arena: ForestArena, left, right, parent) -> str | None:
    """Why the packed trees, with a model file's (T, C) row-local links
    ``left``, ``right`` and ``parent``, are not valid partition trees, or None.

    Checked for every tree at once: links stay inside the tree's used slots;
    every node but the root is the child of exactly one internal node and
    links back to it; nodes have zero or two children; split times rise
    from parent to child (so links cannot form a cycle) and leaves have an
    infinite split time; every node holds at least one point and an internal
    node exactly its children's points; split dimensions lie in [0, dim);
    split values lie inside their node's box; and boxes are ordered and
    nest inside their parent's.
    """
    T, C = left.shape
    size = arena.size[:, None]
    used = np.arange(C) < size
    if not ((arena.root >= 0) & (arena.root < arena.size)).all():
        return "root link out of range"
    for name, links in zip(LINKS, (left, right, parent)):
        if ((links < NO_NODE) | (links >= size))[used].any():
            return f"{name} link out of range"
    leaf = left == NO_NODE
    if (leaf != (right == NO_NODE))[used].any():
        return "node with exactly one child"
    inner = np.flatnonzero(used & ~leaf)  # flat index t * C + node
    parents = np.concatenate([inner, inner])
    rows = parents - parents % C
    kids = rows + np.concatenate([left.ravel()[inner], right.ravel()[inner]])
    roots = np.arange(T) * C + arena.root
    expected = used.ravel().astype(np.int64)
    expected[roots] = 0
    if not np.array_equal(np.bincount(kids, minlength=T * C), expected):
        return "some node is not the child of exactly one internal node"
    if (parent.ravel()[roots] != NO_NODE).any() or (rows + parent.ravel()[kids] != parents).any():
        return "parent link does not match child link"
    split_time = arena.split_time.ravel()
    if not ((split_time[roots] > 0.0).all() and (split_time[kids] > split_time[parents]).all()):
        return "split times do not increase from parent to child"
    if not np.isposinf(split_time[np.flatnonzero(used & leaf)]).all():
        return "leaf split time is not infinite"
    population = arena.population.ravel()
    if (population[used.ravel()] < 1).any():
        return "population below 1"
    if (population[kids[: inner.size]] + population[kids[inner.size :]] != population[inner]).any():
        return "internal population is not the sum of its children's"
    q = arena.split_dim.ravel()[inner].astype(np.int64)
    if ((q < 0) | (q >= arena.dim)).any():
        return "split dimension out of range"
    box_min = arena.box_min.reshape(T * C, -1)
    box_max = arena.box_max.reshape(T * C, -1)
    p = arena.split_val.ravel()[inner]
    if not ((box_min[inner, q] <= p) & (p <= box_max[inner, q])).all():
        return "split value outside its node's box"
    if not (box_min[used.ravel()] <= box_max[used.ravel()]).all():
        return "box with its minimum above its maximum"
    if not ((box_min[kids] >= box_min[parents]).all() and (box_max[kids] <= box_max[parents]).all()):
        return "child box not nested in its parent's"
    return None


# -- result export -------------------------------------------------------------


def write_scores(path, scores, labels, mode: str) -> None:
    """Score export: one ``index,score,label,mode`` row per point, indices
    0..n-1 in the order of ``scores``, written as ``csv.writer`` would.

    Scores are written with shortest-round-trip precision so identical runs
    produce byte-identical files.
    """
    scores = np.asarray(scores, dtype=float).tolist()  # repr of a float, not of np.float64
    labels = np.asarray(labels, dtype=np.int64).tolist()
    if any(c in mode for c in ',"\r\n'):  # quoted as csv.writer quotes it
        mode = '"' + mode.replace('"', '""') + '"'
    rows = "".join([f"{i},{score!r},{label},{mode}\r\n" for i, (score, label) in enumerate(zip(scores, labels))])
    Path(path).write_text("index,score,label,mode\r\n" + rows, newline="")


def write_rows(path, rows: list[dict]) -> None:
    """Generic result-table export; column order is fixed by the first row."""
    if not rows:
        Path(path).write_text("")
        return
    columns = list(rows[0].keys())
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
