"""The benchmark's own self-tests pass against the current sources.

perfbench/test_checks.py runs every output check of the benchmark on real
CLI output and on a deliberately wrong copy of it, and perfbench/test_tracer.py
checks the tracer's self-time bookkeeping. Each inserts perfbench/ and src/
into its own sys.path, so each runs as a script in its own interpreter.
"""

import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("script", ["test_checks.py", "test_tracer.py"])
def test_perfbench_selftest_passes(script):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
