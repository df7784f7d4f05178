"""The benchmark's own self-test passes on this checkout, so a change under
src/ that breaks what perfbench/tracer.py hooks (partitions.stream and
partitions._build) or the fresh-process build count fails here."""

# standard library
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
