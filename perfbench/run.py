"""imondrian benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload batch-subsampled --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``batch-subsampled``, ``batch-full``, ``stream``.
The package is imported from ``src/`` next to this directory; without it the
run exits with code 2 and prints no result.

Inputs are generated from ``--seed``. Cycles of the workload (one pass of its
commands, or one stream episode) run back to back until another one would
end after ``--seconds``. Outputs are checked as they come; any failed check
makes the run exit with code 1.

``--trace 0`` reports the end-to-end metrics, the same on every workload:

- ``setup_s``: median ``import imondrian`` time in a fresh interpreter, plus
  on ``stream`` the median time to train the seed forest;
- ``points_per_s``: points of one pass over the timed samples (each batch
  command; each block of 50 arrivals with its rescore) divided by the sum of
  their median times;
- ``auc``: the benchmark's own rank AUC of the user-facing scores (the
  ``score`` export, the ``fit`` export, the pre-insert arrival scores);
- ``peak_rss_mb``: peak resident memory of this process.

Both timings are scaled to the host's nominal speed (see speed.py); the raw
wall-clock throughput, the per-command throughput, per-arrival latency p50
and p95, the model file size and the error rate are printed after them.

``--trace 1`` alternates untraced and traced cycles of the same work: layer
metrics come from the spans of the traced cycles, whole-command and
per-arrival timings from the untraced ones, and ``trace.overhead_pct``
compares the two. Counts and seconds per cycle are per traced cycle.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
A report with the environment, per-cycle samples and span totals is written
to ``.perfbench_work/BENCH_<workload>[_trace].json``, and the spans of a
traced run to ``.perfbench_work/trace_<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("batch-subsampled", "batch-full", "stream")
IMPORT_PROBES = 5
TAIL = 10  # a tail percentile must have at least this many samples beyond it

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package() -> None:
    """Import imondrian from this checkout's src/, and only from there."""
    sys.path.insert(0, str(SRC))
    import imondrian

    if SRC.resolve() not in Path(imondrian.__file__).resolve().parents:
        raise ImportError(f"imondrian was imported from {imondrian.__file__}, not {SRC}")


def import_seconds() -> list[tuple[float, float]]:
    """(wall time, speed kernel time) of ``import imondrian`` in fresh interpreters.

    One unmeasured import warms the file cache first.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    kernel = speed.kernel_seconds()
    for _ in range(IMPORT_PROBES + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import imondrian"], env=env, cwd=ROOT, check=True,
                       capture_output=True, timeout=120)
        seconds = time.perf_counter() - start
        after = speed.kernel_seconds()
        samples.append((seconds, (kernel + after) / 2))
        kernel = after
    return samples[1:]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(args: argparse.Namespace) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def forest_shape(forest) -> tuple[float, float] | None:
    """Mean nodes per tree and mean unused arena slots per tree."""
    try:
        nodes = [tree.node_count for tree in forest.trees]
        slack = [tree.capacity - tree.node_count for tree in forest.trees]
    except (AttributeError, TypeError):
        return None
    return float(np.mean(nodes)), float(np.mean(slack))


def throughput(cycles: list[dict], kinds=None, adjust: bool = True) -> float:
    """Points of one pass over the sample kinds, divided by the sum of each kind's median time.

    A kind is a command of a batch workload or a block of arrivals on stream.
    """
    times: dict[str, list[tuple[int, float]]] = {}
    for c in cycles:
        for kind, points, seconds, kernel in c["samples"]:
            if kinds is None or kind in kinds:
                times.setdefault(kind, []).append((points, speed.adjusted(seconds, kernel) if adjust else seconds))
    points = sum(median(p for p, _ in v) for v in times.values())
    return ratio(points, sum(median(s for _, s in v) for v in times.values()))


def harness_figures(cycles: list[dict]) -> dict[str, float]:
    """Wall-clock throughput of each command and per-arrival latency, timed by the benchmark itself."""
    # p95 at 200 arrivals is the highest percentile with TAIL samples beyond it
    episodes = [np.sort(c["latency_s"]) for c in cycles if len(c.get("latency_s", ())) > TAIL]
    return {
        "fit_points_per_s": throughput(cycles, {"fit"}, adjust=False),
        "score_points_per_s": throughput(cycles, {"score"}, adjust=False),
        "stream_latency_ms_p50": 1e3 * median(float(np.median(e)) for e in episodes),
        "stream_latency_ms_p95": 1e3 * median(float(e[-TAIL - 1]) for e in episodes),
    }


def end_to_end(cycles: list[dict], imports: list[tuple[float, float]], auc: float) -> dict[str, float]:
    """Timings are scaled to the host's nominal speed (see speed.py)."""
    setup = median(speed.adjusted(*sample) for sample in imports)
    setup += median(speed.adjusted(*c["setup"]) for c in cycles if "setup" in c)
    return {
        "setup_s": setup,
        "points_per_s": throughput(cycles),
        "auc": auc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def raw_figures(cycles: list[dict]) -> dict[str, float]:
    """Unadjusted wall-clock throughput, and how much slower than nominal the host ran."""
    return {
        "raw_points_per_s": throughput(cycles, adjust=False),
        "host_slowdown": median(k for c in cycles for *_, k in c["samples"]) / speed.NOMINAL_S,
    }


def busy(cycle: dict) -> float:
    """Wall-clock seconds of a cycle's timed work.

    Unadjusted: traced and untraced cycles alternate, so host drift hits both
    alike, while the kernel's sub-second jitter would only add noise here.
    """
    return sum(s for _, _, s, _ in cycle["samples"])


def contract_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in contract["per_layer" if trace else "end_to_end"]}


def per_layer(spans: dict, traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Layer metrics from the traced cycles' spans; counts and seconds are per traced cycle."""

    def get(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    n = len(traced)
    shapes = [c["shape"] for c in traced if c.get("shape")]
    harness = harness_figures(untraced)
    return {
        "tree.fit_tree.us_per_node": 1e6 * ratio(get("tree.fit_tree", "total_s"), get("tree.fit_tree", "nodes")),
        "tree.fit_tree.nodes": get("tree.fit_tree", "nodes") / n,
        "tree.path_lengths.ns_per_point_tree": 1e9 * ratio(get("tree.path_lengths", "total_s"),
                                                           get("tree.path_lengths", "points")),
        "tree.path_lengths.mean_depth": ratio(get("tree.path_lengths", "depth"), get("tree.path_lengths", "points")),
        "tree.path_lengths.us_per_call": 1e6 * ratio(get("tree.path_lengths", "total_s"),
                                                     get("tree.path_lengths", "calls")),
        "tree.path_lengths.calls": get("tree.path_lengths", "calls") / n,
        "tree.extend_tree.us_per_insert_tree": 1e6 * ratio(get("tree.extend_tree", "total_s"),
                                                           get("tree.extend_tree", "calls")),
        "tree.extend_tree.calls": get("tree.extend_tree", "calls") / n,
        "tree.nodes_per_tree_end": median(s[0] for s in shapes),
        "tree.arena_slack_slots": median(s[1] for s in shapes),
        "forest.train_batch.self_s": get("forest.train_batch", "self_s") / n,
        "forest.score_all.self_s": get("forest.score_all", "self_s") / n,
        "forest.extend_forest.self_ms_per_point": 1e3 * ratio(get("forest.extend_forest", "self_s"),
                                                              get("forest.extend_forest", "points")),
        "forest.rescore_window.s": ratio(get("forest.rescore_window", "total_s"),
                                         get("forest.rescore_window", "calls")),
        "data_io.load_csv.mb_per_s": 1e-6 * ratio(get("data_io.load_csv", "bytes"),
                                                  get("data_io.load_csv", "total_s")),
        "data_io.save_model.mb_per_s": 1e-6 * ratio(get("data_io.save_model", "bytes"),
                                                    get("data_io.save_model", "total_s")),
        "data_io.load_model.mb_per_s": 1e-6 * ratio(get("data_io.load_model", "bytes"),
                                                    get("data_io.load_model", "total_s")),
        "data_io.write_scores.s": get("data_io.write_scores", "total_s") / n,
        "data_io.model_bytes": ratio(get("data_io.save_model", "bytes"), get("data_io.save_model", "calls")),
        "decision.fit_kmeans2.s": get("decision.fit_kmeans2", "total_s") / n,
        "decision.assign_all.s": get("decision.assign_all", "total_s") / n,
        "evaluation.auc.s": get("evaluation.auc", "total_s") / n,
        "cli.fit.self_s": get("cli.fit", "self_s") / n,
        "cli.score.self_s": get("cli.score", "self_s") / n,
        "cli.fit.points_per_s": harness["fit_points_per_s"],
        "cli.score.points_per_s": harness["score_points_per_s"],
        "stream.latency_ms_p50": harness["stream_latency_ms_p50"],
        "stream.latency_ms_p95": harness["stream_latency_ms_p95"],
        "trace.overhead_pct": 100.0 * (ratio(median(busy(c) for c in traced), median(busy(c) for c in untraced)) - 1.0),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import imondrian from {SRC}: {exc}", file=sys.stderr)
        return 2
    # imported only once imondrian is known to come from this checkout
    import workloads
    from tracer import Tracer

    workdir = WORK / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment(args)
    print("environment: " + json.dumps(env))

    workload = workloads.make(args.workload, workdir, np.random.default_rng(args.seed))
    checks = workloads.Checks()
    try:
        workload.warm_up()
        imports = import_seconds()
    except Exception as exc:  # a broken program fails here; report it as a failed operation
        checks.record("warm-up", f"{type(exc).__name__}: {exc}")
        imports = []

    tracer = Tracer() if args.trace else None
    cycles: list[dict] = []
    start = time.perf_counter()
    while not checks.failed:
        # stop when a cycle as long as the mean one would end after --seconds, once
        # there is a cycle of each kind
        elapsed = time.perf_counter() - start
        kinds = {c["traced"] for c in cycles}
        if cycles and elapsed * (len(cycles) + 1) / len(cycles) > args.seconds and len(kinds) == 1 + args.trace:
            break
        traced = bool(args.trace) and len(cycles) % 2 == 1
        if traced:
            tracer.install()
        try:
            record = workload.cycle(len(cycles), checks, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        record["traced"] = traced
        if traced:
            record["shape"] = forest_shape(tracer.last_forest)
        cycles.append(record)

    metrics: dict[str, float] = {}
    extras: dict[str, float] = {}
    spans: dict = {}
    if not checks.failed:
        auc = workload.finish(cycles, checks)
    if not checks.failed:
        if args.trace:
            spans = tracer.summary()
            metrics = per_layer(spans, [c for c in cycles if c["traced"]], [c for c in cycles if not c["traced"]])
            tracer.write(WORK / f"trace_{args.workload}.json")
        else:
            metrics = end_to_end(cycles, imports, auc)
            extras = {**raw_figures(cycles), **harness_figures(cycles)}
            model = workdir / "m.imf"
            extras["model_bytes"] = model.stat().st_size if model.exists() else 0
    extras["error_rate"] = ratio(checks.failed, checks.attempted)

    units = contract_units(args.trace)
    for name, value in {**metrics, **extras}.items():
        print(f"{name}: {value:.6g} {units.get(name, '')}".rstrip())
    print(f"cycles: {len(cycles)} ({sum(c['traced'] for c in cycles)} traced)")
    report = {
        "environment": env,
        "metrics": metrics,
        "extras": extras,
        "imports": imports,
        "cycles": [{k: v for k, v in c.items() if k in ("samples", "setup", "auc", "traced",
                                                         "shape")} for c in cycles],
        "spans": spans,
        "attempted": checks.attempted,
        "failed": checks.failed,
    }
    suffix = "_trace" if args.trace else ""
    with open(WORK / f"BENCH_{args.workload}{suffix}.json", "w") as handle:
        json.dump(report, handle, indent=1, default=float)
    shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()} if metrics else {},
    }
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
