"""Smoke runs of the scripts in ``scripts/`` at tiny sizes.

Nothing else imports the scripts, so a library signature change would
otherwise break them without a failing test.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ("coverage_sweep.py", "--trials", "2", "--deltas", "0.2"),
        ("resizing_gain.py", "--trials", "2"),
        ("comparator_sweep.py", "--rows", "0", "--trials", "2"),
    ],
    ids=lambda argv: argv[0],
)
def test_script_prints_a_table(argv, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # a title line, a header line, then at least one row of numbers
    title, header, *rows = proc.stdout.splitlines()
    assert rows and any(ch.isdigit() for ch in rows[0])


def test_algorithm_timings_lists_every_algorithm(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "algorithm_timings.py"), "--trials", "1", "--repeats", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    title, header, *rows = proc.stdout.splitlines()
    assert len(rows) == 8
    assert all(float(row.split()[1]) > 0 for row in rows)
