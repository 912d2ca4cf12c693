"""Smoke runs of the digest scripts that prove byte identity between trees.

Each script runs once in a child process; only its exit status and the
shape of its lines are checked, never a hash.
"""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHA = r"sha256 [0-9a-f]{64}"


def _run(script):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_output_digest_prints_one_line_per_workload_and_a_total():
    lines = _run("output_digest.py")
    assert len(lines) == 4
    for name, line in zip(("solve_ladder: ", "diagnose_ladder: ", "scenario_suite: ", ""),
                          lines):
        assert re.fullmatch(rf"{name}\d+ commands, \d+ files, exit codes \{{0: \d+\}}, {SHA}",
                            line), line


def test_lex_fallback_digest_prints_one_line_per_instance():
    lines = _run("lex_fallback_digest.py")
    assert len(lines) == 6
    for line in lines:
        assert re.fullmatch(rf"N=\d+ n=\d+ seed=\d+: lex calls \d+, pivots \d+, {SHA}",
                            line), line
