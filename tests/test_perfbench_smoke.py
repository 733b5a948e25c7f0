"""The benchmark's smoke run: every workload at toy size against the committed
digests, so a change that moves an output digest fails here too."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = ("volume_diagrams", "surface_bottleneck", "desk_corpus")


def test_perfbench_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for name in WORKLOADS:
        assert any(line.startswith(f"smoke {name}: ok ") for line in lines), proc.stdout
