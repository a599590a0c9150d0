"""Alternating benchmark pairs of two checkouts, judged by the pair rule.

    python3 scripts/bench_pairs.py BASE CHANGE --workload batch-subsampled --seeds 701-710

For each seed, runs ``perfbench/run.py`` once in each checkout (BASE first on
even pairs, CHANGE first on odd ones), reads the JSON object on the last line
of its output and the cycle count on its ``cycles:`` line, and prints both
runs' cycle counts beside their metrics: a metric pooled over the cycles that
fit in the run, such as ``stream`` ``auc``, can move with the count alone.
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
no-regression rule, which needs no count of wins. Uses the standard library
only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, args, seed: int) -> tuple[dict, str]:
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.exit(f"{checkout} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    cycles = next((line.split()[1] for line in lines if line.startswith("cycles:")), "?")
    return {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}, cycles


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
    pairs = []
    for i, seed in enumerate(range(first, last + 1)):
        order = (args.base, args.change) if i % 2 == 0 else (args.change, args.base)
        got = {side: run(side, args, seed) for side in order}
        (b, base_cycles), (c, change_cycles) = got[args.base], got[args.change]
        pairs.append((b, c))
        print(f"seed {seed}: cycles {base_cycles} -> {change_cycles}  "
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


if __name__ == "__main__":
    main()
