"""Each harness under benchmarks/ still runs, at its smallest setting.

Speed claims cite these harnesses, so a rename in the library that one of
them reads should fail here rather than when the next claim is measured.
Each runs in a fresh interpreter on the checkout's src, and must exit 0
with a table on stdout: a header and at least one row.  ab.py runs against
HEAD, so it also checks that the working tree answers every benchmark
operation as HEAD does.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SMALLEST = {
    "ab.py": ["--base", "HEAD", "--rounds", "1"],
    "bench_induced.py": ["--m", "40", "--reps", "1"],
    "bench_cli.py": ["--per-kind", "2", "--reps", "1"],
    "bench_random.py": ["--seeds", "1", "--reps", "1"],
    "bench_matmul.py": ["--sizes", "8", "--reps", "1"],
    "bench_constructions.py": ["--seeds", "1", "--number", "1", "--reps", "1"],
}


def test_every_harness_has_a_smallest_setting():
    assert sorted(SMALLEST) == sorted(p.name for p in (ROOT / "benchmarks").glob("*.py"))


def _in_git_checkout() -> bool:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                              capture_output=True)
    except OSError:         # no git installed
        return False
    return proc.returncode == 0


@pytest.mark.parametrize("script", sorted(SMALLEST))
def test_harness_prints_a_table(script):
    if script == "ab.py" and not _in_git_checkout():
        pytest.skip("ab.py extracts its base revision with git; no git checkout here")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SYMPDEC_SEED", None)
    proc = subprocess.run([sys.executable, str(ROOT / "benchmarks" / script), *SMALLEST[script]],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.strip()]
    assert len(rows) >= 2, proc.stdout
