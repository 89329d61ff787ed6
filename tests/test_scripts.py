"""Smoke runs of the scripts in ``scripts/`` at tiny sizes.

Nothing else imports the scripts, so a library signature change would
otherwise break them without a failing test.
"""

import hashlib
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


def run_script(tmp_path, *argv):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Tables printed when each plan ran its trials on its own, before paired
# plans shared datasets and fits; the paired engine must print them unchanged.
FROZEN_TABLES = {
    ("coverage_sweep.py", "--trials", "3"): """\
jackknife_minmax: alpha=0.1, 3 trials, 10+5 envs, n=50
  delta  env cover  within-env    length
  0.050     1.0000      1.0000       inf
  0.100     1.0000      1.0000    15.443
  0.200     1.0000      0.9973    13.004
  0.300     1.0000      0.9907    11.519
  0.500     1.0000      0.9827    10.782
""",
    (
        "coverage_sweep.py", "--trials", "3", "--outliers", "--deltas", "0.1", "0.3",
        "--algorithm", "randomized_weighted_split_conformal",
    ): """\
randomized_weighted_split_conformal: alpha=0.1, 3 trials, 10+5 envs, n=50
  delta  env cover  within-env    length
  0.100     1.0000      1.0000       inf
  0.300     0.6667      0.9860    19.438
""",
    ("resizing_gain.py", "--trials", "3"): """\
3 paired trials, outlier_frac=0.2, multiplier=10.0, |L|=30
            env cover    length
     plain     1.0000    35.755
   resized     0.8000    16.929
resized strictly shorter on 3/3 trials (100.0%)
""",
}


@pytest.mark.parametrize("argv", list(FROZEN_TABLES), ids=lambda argv: " ".join(argv))
def test_paired_scripts_print_frozen_tables(argv, tmp_path):
    assert run_script(tmp_path, *argv) == FROZEN_TABLES[argv]


# sha256 of the whole ``cli_digests.py --trials 1`` output: every report,
# sweep CSV and error record byte for byte. A change that moves it must say
# which files moved and why (``report_drift.py`` shows how far).
CLI_DIGESTS_SHA256 = "dc652082b51118bda98db01192235438b240d7797b1dcd86f64b02d3f2b16524"


def test_cli_digests_cover_the_matrix(tmp_path):
    out = run_script(tmp_path, "cli_digests.py", "--trials", "1")
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_DIGESTS_SHA256
    lines = out.splitlines()
    # 8 algorithms x 2 grids x 2 generators x 4 modes, a report and a sweep
    # CSV each; two compare reports; one error record
    assert len(lines) == 8 * 2 * 2 * 4 * 2 + 2 + 1
    names = [line.split()[1] for line in lines]
    assert len(set(names)) == len(names)
    assert all(len(line.split()[0]) == 64 for line in lines)
    failed = [line for line in lines if line.endswith("(exit 1)")]
    assert failed == [lines[-1]]
    assert names[-1] == "resized-label-count-failure.report.json"


def test_report_drift_finds_no_moves_against_the_same_tree(tmp_path):
    out = run_script(tmp_path, "report_drift.py", str(SCRIPTS.parent / "src"), "--trials", "1")
    assert out == (
        "0 of 259 files moved; worst relative float move 0; 0 non-float differences\n"
    )


def test_report_drift_compare_separates_float_moves_from_other_differences():
    sys.path.insert(0, str(SCRIPTS))
    try:
        import report_drift
    finally:
        sys.path.remove(str(SCRIPTS))
    moves, others = [], []
    a = {"n": 3, "tau": 2.0, "ok": True, "rows": [[1.0, "x"]], "gone": 1}
    b = {"n": 4, "tau": 2.0 + 4e-16, "ok": False, "rows": [[1.0, "y"], []], "new": 1}
    report_drift.compare(a, b, "", moves, others)
    assert moves == [(".tau", pytest.approx(2e-16, rel=0.2))]
    assert sorted(others) == [
        ".n: 3 != 4",
        ".ok: True != False",
        ".rows: length 1 != 2",
        ".rows[0][1]: 'x' != 'y'",
        ": keys ['gone', 'new'] on one side only",
    ]


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


def test_algorithm_timings_cold_starts(tmp_path):
    out = run_script(tmp_path, "algorithm_timings.py", "--cold", "1")
    title, header, *rows = out.splitlines()
    assert title.startswith("cold start, min of 1 fresh processes")
    assert [row.rsplit(None, 1)[0] for row in rows] == ["import mecp.cli", "mecp run, 3 trials"]
    assert all(float(row.split()[-1]) > 0 for row in rows)


def test_algorithm_timings_primitives(tmp_path):
    out = run_script(tmp_path, "algorithm_timings.py", "--primitives", "--trials", "2", "--repeats", "1")
    title, header, *rows = out.splitlines()
    assert title.startswith("ms per call, min of 1 x 2 calls")
    assert [row.rsplit(None, 1)[0] for row in rows] == [
        "fit_ridge_leave_one_out, 20 refits", "leave-one-out predict, 20 refits", "fit_ridge, pooled",
        "weighted_threshold, ridge 0", "match_delta, 3-value grid"]
    assert all(float(row.split()[-1]) > 0 for row in rows)
