"""The repository's helper scripts."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_same_outputs_reads_one_checkout_as_identical():
    script = REPO / "scripts" / "same_outputs.py"
    done = subprocess.run([sys.executable, str(script), "--small", str(REPO), str(REPO)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "all 12 outputs identical"
    assert sum(line.endswith("  same") for line in lines) == 12
