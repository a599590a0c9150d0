"""The repository's helper scripts."""

from __future__ import annotations

import importlib.util
import math
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def test_same_outputs_reads_one_checkout_as_identical():
    script = REPO / "scripts" / "same_outputs.py"
    done = subprocess.run([sys.executable, str(script), "--small", str(REPO), str(REPO)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "all 13 outputs identical"
    assert sum(line.endswith("  same") for line in lines) == 13


# the tail of an untraced perfbench/run.py run, as it prints it
RUN_OUTPUT = """\
environment: {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "seed": 1, "workload": "stream", "trace": 0}
setup_s: 0.249407 s
points_per_s: 767.01 points/s
auc: 0.88975 ratio
peak_rss_mb: 66.6255 MB
raw_points_per_s: 795.167
host_slowdown: 0.972493
stream_latency_ms_p50: 0.704828
error_rate: 0
cycles: 6 (0 traced)
{"correct": true, "attempted": 1225, "failed": 0, "metrics": {"points_per_s": {"value": 767.009935205081, \
"unit": "points/s"}, "auc": {"value": 0.8897499700203861, "unit": "ratio"}}}
"""


def test_bench_pairs_reads_metrics_cycles_and_raw_throughput():
    spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    lines = RUN_OUTPUT.splitlines()
    assert bench_pairs.parse(lines) == ({"points_per_s": 767.009935205081, "auc": 0.8897499700203861}, "6", 795.167)
    metrics, cycles, raw = bench_pairs.parse([line for line in lines if not line.startswith(("cycles", "raw"))])
    assert (metrics["auc"], cycles, math.isnan(raw)) == (0.8897499700203861, "?", True)


def test_bench_pairs_fails_a_run_that_leaves_a_process(tmp_path):
    if not Path("/proc/self/stat").exists():
        pytest.skip("no /proc to find a session's processes in")
    spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    (tmp_path / "perfbench").mkdir()
    canned = tmp_path / "perfbench" / "run.py"
    args = types.SimpleNamespace(workload="stream", seconds=1.0, trace=0)
    canned.write_text(f"import sys\nsys.stdout.write({RUN_OUTPUT!r})\n")
    assert bench_pairs.run(tmp_path, args, 1)[1] == "6"
    # the same run, leaving a sleep behind in its session
    canned.write_text(f"import subprocess, sys\nprint(subprocess.Popen(['sleep', '60']).pid)\n"
                      f"sys.stdout.write({RUN_OUTPUT!r})\n")
    with pytest.raises(SystemExit) as failed:
        bench_pairs.run(tmp_path, args, 1)
    message = str(failed.value)
    assert "left processes running" in message
    sleeper = int(message.rsplit(":", 1)[1])
    time.sleep(0.1)  # the sleep was killed; its exit reaches /proc
    stat = Path(f"/proc/{sleeper}/stat")
    assert not stat.exists() or stat.read_text().rsplit(")", 1)[1].split()[0] == "Z"
