"""Alternating benchmark pairs of two checkouts, judged by the pair rule.

    python3 scripts/bench_pairs.py BASE CHANGE --workload batch-subsampled --seeds 701-710

For each seed, runs ``perfbench/run.py`` once in each checkout (BASE first on
even pairs, CHANGE first on odd ones), reads the JSON object on the last line
of its output, the cycle count on its ``cycles:`` line and the unadjusted
throughput on its ``raw_points_per_s:`` line (``parse``), and prints both
runs' cycle counts and raw throughput beside their metrics: a metric pooled
over the cycles that fit in the run, such as ``stream`` ``auc``, can move
with the count alone, and ``points_per_s`` is scaled by a speed kernel
timed between blocks, which a block's own work can slow.
For each metric it then prints both sides' median and quartiles, the median
of the per-pair ratios (change over base), and the number of pairs the
change won, ties counting for neither, with the better direction taken from
BASE's ``BENCHMARK.json``. The host's speed drifts between pairs, so a gain
can show in the paired ratio while the two sides' medians overlap. A metric
reads ``gain`` (or ``loss``) when there are at least ten pairs, one side wins
at least nine tenths of them and the medians differ by more than the
distance between BASE's quartiles; the ratio does not enter the verdict.
An end-to-end metric also reads ``regress`` in the last column when the
change's median is worse than BASE's by more than the metric's ``bound``
in BASE's ``BENCHMARK.json`` times BASE's median (``ok`` otherwise): the
no-regression rule, which needs no count of wins. The raw throughput's
quartiles follow the ``points_per_s`` row, for reading only: no verdict is
taken on them. Each run has a session of its own, and a pair fails, naming
the pids, when a process of that session outlives its run (see
``survivors``); they are killed then. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def parse(lines: list[str]) -> tuple[dict, str, float]:
    """The metrics of a ``perfbench/run.py`` run from the lines it printed,
    its cycle count ("?" if not printed) and its ``raw_points_per_s`` (nan
    if not printed, as in a traced run)."""
    cycles = next((line.split()[1] for line in lines if line.startswith("cycles:")), "?")
    raw = next((float(line.split()[1]) for line in lines if line.startswith("raw_points_per_s:")), math.nan)
    return {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}, cycles, raw


def survivors(session: int) -> list[int]:
    """The pids of the processes of session ``session`` that still run (a
    zombie has exited), read off ``/proc``; none where there is no ``/proc``."""
    pids = []
    for entry in Path("/proc").glob("[0-9]*/stat"):
        try:
            stat = entry.read_text()
        except OSError:  # it exited meanwhile
            continue
        state, _, _, sid = stat[stat.rindex(")") + 2 :].split()[:4]
        if int(sid) == session and state != "Z":
            pids.append(int(entry.parent.name))
    return sorted(pids)


def run(checkout: Path, args, seed: int) -> tuple[dict, str, float]:
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # files, not pipes, so that a process left holding them cannot stall the read
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(argv, cwd=checkout, stdout=out, stderr=err, text=True, start_new_session=True)
        proc.wait()
        out.seek(0)
        err.seek(0)
        out, err = out.read(), err.read()
    left = survivors(proc.pid)  # the run's session id is its pid
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    if left:
        sys.exit(f"{checkout} seed {seed} left processes running: {' '.join(map(str, left))}")
    lines = out.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{checkout} seed {seed} exited {proc.returncode}:\n{err[-2000:]}")
    return parse(lines)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))
    contract = json.loads((args.base / "BENCHMARK.json").read_text())
    higher = {m["name"]: m["better"] == "higher" for m in contract["end_to_end"] + contract["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    pairs, raws = [], []
    for i, seed in enumerate(range(first, last + 1)):
        order = (args.base, args.change) if i % 2 == 0 else (args.change, args.base)
        got = {side: run(side, args, seed) for side in order}
        (b, base_cycles, base_raw), (c, change_cycles, change_raw) = got[args.base], got[args.change]
        pairs.append((b, c))
        raws.append((base_raw, change_raw))
        print(f"seed {seed}: cycles {base_cycles} -> {change_cycles}  raw_points_per_s {base_raw:.4g} -> {change_raw:.4g}  "
              + "  ".join(f"{n} {b[n]:.4g} -> {c[n]:.4g}" for n in b if n in c and n in higher), flush=True)
    print(f"{'metric':40s} {'base q1 / median / q3':>29s}  {'change q1 / median / q3':>29s}  ratio  wins  verdict  rule")
    for name in pairs[0][0]:
        if name not in higher or name not in pairs[0][1]:
            continue
        base, change = [b[name] for b, _ in pairs], [c[name] for _, c in pairs]
        sign = 1 if higher[name] else -1
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
        ratios = [c / b for b, c in zip(base, change) if b]  # a metric that reads 0 has none
        ratio = statistics.median(ratios) if ratios else float("nan")
        apart = len(pairs) >= 10 and abs(cm - bm) > b3 - b1
        verdict = "gain" if wins >= 0.9 * len(pairs) and apart else "loss" if losses >= 0.9 * len(pairs) and apart else "-"
        rule = ""
        if name in bounds:
            rule = "regress" if sign * (bm - cm) > bounds[name] * abs(bm) else "ok"
        print(f"{name:40s} {b1:9.4g} {bm:9.4g} {b3:9.4g}  {c1:9.4g} {cm:9.4g} {c3:9.4g}  {ratio:5.3f}  {wins:2d}/{len(pairs)}  {verdict:7s}  {rule}")
        if name == "points_per_s" and not any(math.isnan(v) for pair in raws for v in pair):
            (b1, bm, b3), (c1, cm, c3) = (quartiles([pair[side] for pair in raws]) for side in (0, 1))
            print(f"{'  raw_points_per_s (not judged)':40s} {b1:9.4g} {bm:9.4g} {b3:9.4g}  {c1:9.4g} {cm:9.4g} {c3:9.4g}")


if __name__ == "__main__":
    main()
