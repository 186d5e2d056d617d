"""Smoke test: the quick demos run to completion.

Each demo calls the transitivity, topolinear or equivalence verdicts on real
codes, so a change that breaks them shows here as a non-zero exit.
`cli_walkthrough` (about 6 s, a dozen interpreter starts) stays manual: run
it by hand after a change to the command line.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["twisted_loop_tour", "q4_census",
                                  "quadratic_family", "g_loop_gallery",
                                  "composition_assembly"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
