"""Dataset ingestion, synthetic data generation, and persistence.

The model file stores a forest's packed arena: a one-line header carrying
magic, version and a SHA-256 checksum, one JSON metadata line, then the node
arrays and the two sides of the arena's child table as raw little-endian
bytes, so reloaded structures are bit-identical (see ``save_model``). Model
files are streamed through the arena's own arrays, so neither a save nor a
load holds a copy the size of the file, and a save replaces its target in
one ``os.replace`` (see ``save_model`` and ``load_model``).
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ModelFormatError
from .evaluation import LabeledDataset
from .forest import Forest, ForestConfig
from .tree import ForestArena, node_fields

MODEL_MAGIC = "imondrian-forest"
MODEL_VERSION = 3

# a model file is hashed, written and skimmed in blocks of about this many
# bytes at most, so that no step holds a copy of the file
_BLOCK_BYTES = 1 << 20


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

    def __post_init__(self):
        if len(self.delimiter) != 1:
            raise ValueError(f"the delimiter must be one character, got {self.delimiter!r}")


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
        ForestConfig(seed=self.seed)  # the seed obeys the forest's seed rule
        if not np.isfinite(2.0 * self.outlier_halfwidth):
            raise ValueError(f"outlier box halfwidth {self.outlier_halfwidth} is not finite or overflows when doubled")
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

    The file is a header line ``imondrian-forest v3 sha256=<hex>``, one JSON
    line (the forest's scalars, the stored width W = the largest tree's
    size, and every tree's root, size and generator state), then as raw
    little-endian bytes the first W slots of every node field, in
    ``tree.node_fields`` order, and then the child table: a (2, T, W) int32
    array whose side 0 and 1 hold each slot's left and right child as a
    row-local slot, and a leaf's or unused slot's own slot on both sides.
    The checksum covers everything after the header line.

    The arrays are hashed and then written straight from the arena's own
    buffers, in blocks of whole tree rows (see ``_stored``), so the save
    holds no copy the size of the file. The file is written beside the
    target under a temporary name and moved onto it by ``os.replace``: a
    save that fails leaves the previous file as it was and no temporary
    file behind. A target that exists and is not a regular file, such as
    a device or a pipe, is written in place.
    """
    arena = forest.arena
    width = int(arena.size.max())
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
    line = json.dumps(meta, separators=(",", ":"), allow_nan=False).encode() + b"\n"
    digest = hashlib.sha256(line)
    for part in _stored(arena, width):
        digest.update(part)
    header = f"{MODEL_MAGIC} v{MODEL_VERSION} sha256={digest.hexdigest()}\n".encode()

    def write(handle):
        handle.writelines([header, line])
        handle.writelines(_stored(arena, width))

    target = Path(os.path.realpath(path))
    if target.exists() and not target.is_file():
        with target.open("wb") as handle:
            write(handle)
        return
    temp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            if target.exists():  # the new file keeps the old one's permissions
                os.fchmod(handle.fileno(), stat.S_IMODE(target.stat().st_mode))
            write(handle)
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _stored(arena: ForestArena, width: int):
    """The arrays of a model file, in file order, as C-contiguous
    little-endian blocks of whole tree rows of about ``_BLOCK_BYTES`` at
    most: views of the arena's fields when a row's first ``width`` slots
    are the whole row, a copy of one block otherwise; the child rows are
    always a converted copy of one block."""
    T, C = arena.population.shape
    rows = max(1, _BLOCK_BYTES // (8 * arena.dim * width))  # a box row is the widest
    blocks = [slice(a, a + rows) for a in range(0, T, rows)]
    for name, dtype, _, _ in node_fields((), arena.dim):
        field = getattr(arena, name)
        for block in blocks:
            yield np.ascontiguousarray(field[block, :width], dtype=dtype.newbyteorder("<"))
    for side in arena.child.reshape(2, T, C):
        for block in blocks:
            yield (side[block, :width] % C).astype("<i4")


def load_model(path) -> Forest:
    """Load a persisted forest, verifying magic, version, checksum, array
    sizes and tree structure; any problem raises ModelFormatError.

    The file is streamed into a fresh arena: after the header and the
    metadata line, the byte count the metadata declares is checked against
    the file's size before anything is allocated, then each field is read
    in place with ``readinto`` and hashed as it is read. A file whose
    checksum does not match reports that, whatever else is wrong with it:
    on any other problem the rest of the file is hashed, in blocks, before
    the error is chosen. So the load holds the arena and no copy of the file.
    """
    with Path(path).open("rb") as handle:
        header = handle.readline()
        if not header.endswith(b"\n"):
            raise ModelFormatError(f"{path}: not a model file (missing header)")
        header = header[:-1]
        parts = header.decode("ascii", "replace").split()
        if len(parts) != 3 or parts[0] != MODEL_MAGIC:
            raise ModelFormatError(f"{path}: bad magic {header[:64]!r}")
        if parts[1] != f"v{MODEL_VERSION}":
            raise ModelFormatError(
                f"{path}: unsupported version {parts[1]} (this build reads v{MODEL_VERSION})"
            )
        if not parts[2].startswith("sha256="):
            raise ModelFormatError(f"{path}: malformed checksum field")
        digest = hashlib.sha256()
        error = None
        try:
            forest = _read_forest(handle, digest, path)
        except (ModelFormatError, AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            error = exc
            for block in iter(lambda: handle.read(_BLOCK_BYTES), b""):  # the checksum has the first word
                digest.update(block)
    if digest.hexdigest() != parts[2][len("sha256=") :]:
        raise ModelFormatError(f"{path}: checksum mismatch, file is corrupt")
    if isinstance(error, ModelFormatError):
        raise error
    if error is not None:
        raise ModelFormatError(f"{path}: malformed payload: {error}") from error
    problem = _structure_problem(forest.arena)
    if problem is not None:
        raise ModelFormatError(f"{path}: invalid tree structure: {problem}")
    return forest


def _read_forest(handle, digest, path) -> Forest:
    """The forest whose metadata line and arrays follow in the open model
    file ``handle``, with every byte read fed to ``digest``; ValueError if
    they do not fit together. Unused slots are reset to a fresh arena's
    fill values and self loops, whatever the file holds there."""
    line = handle.readline()
    digest.update(line)
    if not line.endswith(b"\n"):
        raise ModelFormatError(f"{path}: no array section after the metadata line")
    meta = json.loads(line)
    config = ForestConfig(num_trees=meta["num_trees"], psi=meta["psi"], seed=meta["seed"])
    for key, low in (("n_effective", 2), ("dim", 1), ("width", 1), ("root", 0), ("size", 1)):
        bad = [v for v in (meta[key] if key in ("root", "size") else [meta[key]]) if not _is_int(v, low)]
        if bad:
            raise ValueError(f"{key}: {bad[0]!r} is not an integer >= {low}")
    num_trees, dim, width, states = config.num_trees, meta["dim"], meta["width"], meta["rng_states"]
    root = np.asarray(meta["root"], dtype=np.int64)
    size = np.asarray(meta["size"], dtype=np.int64)
    if not root.shape == size.shape == (num_trees,) or len(states) != num_trees:
        raise ValueError("tree count does not match the metadata")
    if size.max() != width:
        raise ValueError("tree sizes do not fit the stored width")
    fields = node_fields((num_trees, width), dim)
    # the node fields, then the child table's two int32 rows
    expected = sum(dtype.itemsize * math.prod(shape) for _, dtype, shape, _ in fields) + 8 * num_trees * width
    info = os.fstat(handle.fileno())
    if stat.S_ISREG(info.st_mode) and info.st_size - handle.tell() != expected:
        raise ValueError(f"array section holds {info.st_size - handle.tell()} bytes, expected {expected}")
    arena = ForestArena(num_trees, dim, width)
    unused = np.arange(width) >= size[:, None]
    for name, _, _, fill in fields:
        field = getattr(arena, name)
        _read_into(handle, field, digest)
        field[unused] = fill
    kids = np.empty((num_trees, width), dtype=np.int32)
    base = (np.arange(num_trees) * width)[:, None]
    for side in arena.child.reshape(2, num_trees, width):  # self loops in a fresh arena
        _read_into(handle, kids, digest)
        np.add(kids, base, out=side, where=~unused)
    if handle.read(1):
        raise ValueError(f"array section holds more than {expected} bytes")
    arena.root[:] = root
    arena.size[:] = size
    for t, state in enumerate(states):
        arena.rngs[t] = np.random.default_rng()
        arena.rngs[t].bit_generator.state = state
    return Forest(arena=arena, n_effective=meta["n_effective"], psi=config.psi, seed=config.seed)


def _is_int(value, low: int) -> bool:
    """Whether a JSON value is an integer (not a bool) of at least ``low``."""
    return type(value) is int and value >= low


def _read_into(handle, array: np.ndarray, digest) -> None:
    """Fill a native-order array with the next little-endian bytes of the
    file and feed those bytes to ``digest``; ValueError if the file ends."""
    if handle.readinto(memoryview(array).cast("B")) != array.nbytes:
        raise ValueError("array section ends early")
    digest.update(array)
    if sys.byteorder == "big":
        array.byteswap(inplace=True)


def _structure_problem(arena: ForestArena) -> str | None:
    """Why the packed trees of an arena are not valid partition trees, or None.

    Checked for every tree at once, on the child table itself: each side of
    a used slot is a used slot of the same tree; a node is a leaf iff both
    of its sides are self loops; every used slot but the root is entered by
    exactly one side that is not a self loop, and the root by none; split
    times rise from parent to child (so links cannot form a cycle) and
    leaves have an infinite split time; every node holds at least one point
    and an internal node exactly its children's points; split dimensions lie
    in [0, dim), and in [-1, dim) at leaves, whose dimension routing reads
    and ignores; split values lie inside their node's box; boxes are ordered
    and nest. Nesting is checked one box column at a time, so no gather is
    larger than a column of one field.
    """
    T, C = arena.population.shape
    used = np.arange(C) < arena.size[:, None]
    if not ((arena.root >= 0) & (arena.root < arena.size)).all():
        return "root link out of range"
    flat = np.arange(T * C).reshape(T, C)  # each slot's own flat index t * C + node
    first = flat[:, :1]
    sides = arena.child.reshape(2, T, C)
    for name, side in zip(("left", "right"), sides):
        if ((side < first) | (side >= first + arena.size[:, None]))[used].any():
            return f"{name} link out of range"
    leaf = sides[0] == flat
    if (leaf != (sides[1] == flat))[used].any():
        return "node with exactly one child"
    inner = np.flatnonzero(used & ~leaf)
    kids = (arena.child[inner], arena.child[T * C + inner])
    roots = first[:, 0] + arena.root
    entered = np.bincount(np.concatenate(kids), minlength=T * C)
    entered[roots] += 1
    if not np.array_equal(entered, used.ravel()):
        return "some node is not the child of exactly one internal node"
    split_time = arena.split_time.ravel()
    inner_time = split_time[inner]
    if not ((split_time[roots] > 0.0).all() and all((split_time[kid] > inner_time).all() for kid in kids)):
        return "split times do not increase from parent to child"
    if not np.isposinf(arena.split_time[used & leaf]).all():
        return "leaf split time is not infinite"
    population = arena.population.ravel()
    if (arena.population[used] < 1).any():
        return "population below 1"
    if (population[kids[0]] + population[kids[1]] != population[inner]).any():
        return "internal population is not the sum of its children's"
    q = arena.split_dim.ravel()[inner].astype(np.int64)
    if ((q < 0) | (q >= arena.dim)).any() or ((arena.split_dim < -1) | (arena.split_dim >= arena.dim)).any():
        return "split dimension out of range"
    box_min = arena.box_min.reshape(T * C, -1)
    box_max = arena.box_max.reshape(T * C, -1)
    p = arena.split_val.ravel()[inner]
    if not ((box_min.ravel()[inner * arena.dim + q] <= p) & (p <= box_max.ravel()[inner * arena.dim + q])).all():
        return "split value outside its node's box"
    if used.ravel()[np.flatnonzero(~(arena.box_min <= arena.box_max)) // arena.dim].any():  # NaN too
        return "box with its minimum above its maximum"
    for j in range(arena.dim):
        for box, nested in ((box_min, np.greater_equal), (box_max, np.less_equal)):
            column = box[:, j].copy()
            bound = column[inner]
            if not all(nested(column[kid], bound).all() for kid in kids):
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
    """Generic result-table export, written by ``csv.DictWriter``; column
    order is fixed by the first row, and no rows make an empty file."""
    with Path(path).open("w", newline="") as handle:
        if rows:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
