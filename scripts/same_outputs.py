"""Check that two checkouts write byte-identical outputs.

    python3 scripts/same_outputs.py BASE CHANGE [--small]

Writes one seeded labelled data set (d = 8, about 5% anomalies), then runs
the same commands once per checkout, each in a subprocess whose
``PYTHONPATH`` is that checkout's ``src/``:

- ``imondrian fit``: its score export and model file at psi 256 (16,384
  rows, 100 trees) and at psi 0 (the first 2,048 rows, 20 trees), and its
  score export at psi 0 on the first 512 rows each written four times in a
  row (20 trees), whose leaves hold exact duplicates, so that scoring adds
  their c term;
- ``imondrian score``: the export of the psi-256 model on its 16,384 rows;
- an episode on the library: a 100-tree psi-256 forest trained on the first
  2,048 rows takes the next 200 rows one at a time, each scored alone and
  then inserted, with the last 2,048 rows seen rescored after every 50th;
  its output is every score in order, and the model file it ends with;
- ``imondrian stream`` on the 2,048 rows: its stage table without the
  ``seconds`` column;
- a subnormal episode, on 1-D points a few subnormals apart, so that some
  split times are infinite, some leaves hold distinct points and some
  clock sums overflow: the export of a 20-tree ``imondrian fit`` at psi 0,
  then a 100-tree forest on the same points that takes ``SUBNORMAL_ARRIVALS``
  one at a time, each scored alone and then inserted. Its output is the
  export, every score, the arrivals refused as too far out, the scores of
  the points and arrivals at the end, and the model file it ends with;
- each of the three model files as that checkout's own ``load_model`` reads
  it: every node field's used slots (the child table's row-local), tree by
  tree, then ``root``, ``size``, ``key`` and ``draws``. So a change of
  model format can still show that it kept the same forests.

Prints one SHA-256 per output and side and exits 1 if any output differs
(2 if a side fails to run). ``--small`` runs the same commands on tiny
shapes, for a quick check of the script itself. Uses numpy and the standard
library only.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SHAPES = {
    "full": {"rows": 16384, "trees": 100, "full_rows": 2048, "full_trees": 20, "duplicate_rows": 512,
             "seed_rows": 2048, "arrivals": 200, "every": 50, "window": 2048, "stream_trees": 100},
    "small": {"rows": 300, "trees": 4, "full_rows": 100, "full_trees": 3, "duplicate_rows": 25,
              "seed_rows": 64, "arrivals": 12, "every": 4, "window": 32, "stream_trees": 3},
}


# 1-D points a few subnormals apart: zeros, points up to 1e-308 and three
# of the smallest subnormals, whose box has a subnormal rate
SUBNORMAL_POINTS = [0.0, 0.0, 5e-324, 1e-323, 1.5e-323] + [k * 1e-309 for k in (1, 3, 4, 7, 9, 10)]
# arrivals of the same scale, then the most negative float, which splices
# roots above everything, and the largest one, which a rate overflow refuses
SUBNORMAL_ARRIVALS = [1e-308, 0.25e-308, 0.6e-308, 0.1e-308, 2e-323, -1.7976931348623157e308,
                      1.7976931348623157e308, 2e-308, 0.0, -1e308, 3e-309]


def write_data(path: Path, rows: int) -> None:
    """A seeded labelled CSV of ``rows`` d = 8 points: a Gaussian cluster and
    every 20th row an anomaly drawn uniformly from a wider box."""
    rng = np.random.default_rng(20)
    points = rng.normal(size=(rows, 8))
    labels = (np.arange(rows) % 20 == 19).astype(int)
    points[labels == 1] = rng.uniform(-6.0, 6.0, size=(int(labels.sum()), 8))
    table = np.column_stack([points, labels])
    header = ",".join([f"f{j}" for j in range(8)] + ["label"])
    np.savetxt(path, table, delimiter=",", header=header, comments="", fmt=["%.17g"] * 8 + ["%d"])


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def forest_digest(forest) -> str:
    """SHA-256 of a loaded forest: every node field's used slots, with the
    child table's two sides as row-local slots, tree by tree, then ``root``,
    ``size``, ``key`` and ``draws``."""
    from imondrian.tree import FIELD_NAMES

    C = forest.capacity
    fields = [getattr(forest, name) for name in FIELD_NAMES] + list(forest.child.reshape(2, forest.num_trees, C) % C)
    hashed = hashlib.sha256()
    for field in fields:
        for t, used in enumerate(forest.size.tolist()):
            hashed.update(np.ascontiguousarray(field[t, :used]).tobytes())
    for name in ("root", "size", "key", "draws"):
        hashed.update(getattr(forest, name).tobytes())
    return hashed.hexdigest()


def worker(shape: dict, data: Path) -> dict[str, str]:
    """Run every command in this process, in the current directory, and
    return each output's SHA-256."""
    import imondrian
    from imondrian import (
        ForestConfig, extend_forest, load_csv, load_model, rescore_window, save_model, score_all, train_batch,
    )
    from imondrian.cli import main

    def cli(*argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--label-column", "label"])
        if code:
            sys.exit(f"imondrian {argv[0]} exited {code}")

    lines = data.read_text().splitlines(keepends=True)
    Path("full.csv").write_text("".join(lines[: shape["full_rows"] + 1]))
    Path("duplicates.csv").write_text(lines[0] + "".join(line * 4 for line in lines[1 : shape["duplicate_rows"] + 1]))
    cli("fit", "--data", str(data), "--trees", str(shape["trees"]), "--psi", "256", "--seed", "0",
        "--out", "fit256.csv", "--model", "fit256.model")
    cli("fit", "--data", "full.csv", "--trees", str(shape["full_trees"]), "--psi", "0", "--seed", "0",
        "--out", "fit0.csv", "--model", "fit0.model")
    cli("fit", "--data", "duplicates.csv", "--trees", str(shape["full_trees"]), "--psi", "0", "--seed", "0",
        "--out", "fitdup.csv")
    cli("score", "--data", str(data), "--model", "fit256.model", "--out", "score.csv")
    cli("stream", "--data", "full.csv", "--trees", str(shape["stream_trees"]), "--seed", "0", "--out", "stream.csv")

    points = load_csv(data, imondrian.CsvSchema(label_column="label")).points
    seed_rows, arrivals = shape["seed_rows"], shape["arrivals"]
    forest = train_batch(points[:seed_rows], ForestConfig(num_trees=shape["trees"], psi=256, seed=0))
    scores = hashlib.sha256()
    for i in range(seed_rows, seed_rows + arrivals):
        scores.update(score_all(points[i : i + 1], forest)[1].tobytes())
        extend_forest(forest, points[i : i + 1])
        if (i + 1 - seed_rows) % shape["every"] == 0:
            scores.update(rescore_window(forest, points[: i + 1], window=shape["window"])[1].tobytes())
    save_model(forest, "episode.model")

    Path("subnormal.csv").write_text("x,label\n" + "".join(f"{x!r},{int(x > 5e-309)}\n" for x in SUBNORMAL_POINTS))
    cli("fit", "--data", "subnormal.csv", "--trees", "20", "--psi", "0", "--seed", "0", "--out", "fitsub.csv")
    forest = train_batch(np.array(SUBNORMAL_POINTS)[:, None], ForestConfig(num_trees=100, psi=None, seed=0))
    subnormal = hashlib.sha256(Path("fitsub.csv").read_bytes())
    for i, x in enumerate(SUBNORMAL_ARRIVALS):
        subnormal.update(score_all([[x]], forest)[1].tobytes())
        try:
            extend_forest(forest, [[x]])
        except ValueError:
            subnormal.update(f"refused {i}".encode())
    subnormal.update(score_all(np.array(SUBNORMAL_POINTS + SUBNORMAL_ARRIVALS)[:, None], forest)[1].tobytes())
    save_model(forest, "subnormal.model")
    subnormal.update(Path("subnormal.model").read_bytes())

    with open("stream.csv", newline="") as handle:
        table = [{k: v for k, v in row.items() if k != "seconds"} for row in csv.DictReader(handle)]
    files = {name: digest(Path(file).read_bytes()) for name, file in (
        ("fit psi 256 export", "fit256.csv"), ("fit psi 256 model", "fit256.model"),
        ("fit psi 0 export", "fit0.csv"), ("fit psi 0 model", "fit0.model"),
        ("fit duplicates export", "fitdup.csv"), ("score export", "score.csv"),
    )}
    return {
        **files,
        "episode scores": scores.hexdigest(),
        "episode model": digest(Path("episode.model").read_bytes()),
        "stream table": digest(json.dumps(table).encode()),
        "subnormal episode": subnormal.hexdigest(),
        **{f"{name} forest": forest_digest(load_model(file)) for name, file in (
            ("fit psi 256", "fit256.model"), ("fit psi 0", "fit0.model"), ("episode", "episode.model"),
        )},
        "package": imondrian.__file__,
    }


def run_side(checkout: Path, shape: str, data: Path, workdir: Path) -> dict[str, str]:
    workdir.mkdir()
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, str(Path(__file__).resolve()), "--worker", shape, str(data)]
    done = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True)
    if done.returncode:
        print(f"{checkout}: exited {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
        sys.exit(2)
    hashes = json.loads(done.stdout.strip().splitlines()[-1])
    package = Path(hashes.pop("package")).resolve()
    if not package.is_relative_to(checkout.resolve() / "src"):
        print(f"{checkout}: imported imondrian from {package}", file=sys.stderr)
        sys.exit(2)
    return hashes


def main() -> None:
    if sys.argv[1:2] == ["--worker"]:
        print(json.dumps(worker(SHAPES[sys.argv[2]], Path(sys.argv[3]).resolve())))
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--small", action="store_true", help="tiny shapes, for a quick check of the script")
    args = parser.parse_args()
    shape = "small" if args.small else "full"
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "points.csv"
        write_data(data, SHAPES[shape]["rows"])
        base = run_side(args.base, shape, data, Path(tmp) / "base")
        change = run_side(args.change, shape, data, Path(tmp) / "change")
    differ = [name for name in base if base[name] != change.get(name)]
    for name in base:
        print(f"{name:21s} base   {base[name]}")
        print(f"{'':21s} change {change.get(name)}  {'DIFFERS' if name in differ else 'same'}")
    print(f"{len(differ)} of {len(base)} outputs differ" if differ else f"all {len(base)} outputs identical")
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
