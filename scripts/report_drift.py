"""Show how far every report of the CLI digest matrix moved between two trees.

Runs the matrix of ``scripts/cli_digests.py`` (``run_configs``) twice, once
with this tree's ``src/`` and once with OTHER_SRC on the import path, each in
its own process, then compares the files pairwise. Report JSON and sweep
CSVs are read value by value. Per file that moved it prints the largest
relative move of a float, ``|a - b| / max(|a|, |b|)``, and every other
difference: an integer, boolean, string, key, length or missing file. A
last line sums up. Exits 1 when some difference is not a float move.

Usage:
    PYTHONPATH=src python scripts/report_drift.py ../parent/src
    PYTHONPATH=src python scripts/report_drift.py ../parent/src --trials 2 --seed 91
"""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
THIS_SRC = SCRIPTS.parent / "src"

# run in a child process so that each tree's ``mecp`` is imported on its own
CHILD = (
    "import sys, pathlib, cli_digests\n"
    "work, trials, seed = pathlib.Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])\n"
    "for path, code in cli_digests.run_matrix(work, trials, seed):\n"
    "    print(path.name)\n"
)


def start_matrix(src: Path, work: Path, trials: int, seed: int) -> subprocess.Popen:
    """Start a child process that runs the matrix with ``src`` on its import path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(SCRIPTS)])}
    return subprocess.Popen(
        [sys.executable, "-c", CHILD, str(work), str(trials), str(seed)],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )


def csv_cell(text: str):
    """A sweep-CSV cell as an int, a float or the text itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read(path: Path):
    if path.suffix == ".csv":
        with path.open(newline="") as f:
            return [[csv_cell(cell) for cell in row] for row in csv.reader(f)]
    return json.loads(path.read_text())


def compare(a, b, where: str, moves: list, others: list) -> None:
    """Append (where, relative move) of every moved float, and every other difference."""
    if isinstance(a, float) and isinstance(b, float):
        if a != b and not (math.isnan(a) and math.isnan(b)):
            scale = max(abs(a), abs(b))
            finite = math.isfinite(a) and math.isfinite(b)
            moves.append((where, abs(a - b) / scale if finite else math.inf))
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            others.append(f"{where}: keys {sorted(a.keys() ^ b.keys())} on one side only")
        for key in a.keys() & b.keys():
            compare(a[key], b[key], f"{where}.{key}", moves, others)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            others.append(f"{where}: length {len(a)} != {len(b)}")
        for k, (u, v) in enumerate(zip(a, b)):
            compare(u, v, f"{where}[{k}]", moves, others)
    elif type(a) is not type(b) or a != b:
        others.append(f"{where}: {a!r} != {b!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, help="the src/ directory of the other tree")
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if not (args.other_src / "mecp" / "__init__.py").is_file():
        parser.error(f"{args.other_src} holds no mecp package")

    with tempfile.TemporaryDirectory() as tmp:
        here, there = Path(tmp, "this"), Path(tmp, "other")
        here.mkdir()
        there.mkdir()
        children = [
            start_matrix(THIS_SRC, here, args.trials, args.seed),
            start_matrix(args.other_src.resolve(), there, args.trials, args.seed),
        ]
        outputs = [child.communicate()[0] for child in children]
        if any(child.returncode for child in children):
            raise SystemExit("a matrix run failed; its traceback is above")
        names = [out.split() for out in outputs]
        moved, worst, n_others = 0, 0.0, 0
        for name in sorted(set(names[0]) | set(names[1])):
            moves, others = [], []
            if name in names[0] and name in names[1]:
                compare(read(here / name), read(there / name), "", moves, others)
            else:
                others.append(": written by one tree only")
            if not (moves or others):
                continue
            moved += 1
            n_others += len(others)
            largest = max((rel for _, rel in moves), default=0.0)
            worst = max(worst, largest)
            print(f"{name}  floats moved {len(moves)}  max relative {largest:.3g}")
            for line in others:
                print(f"  {name}{line}")
    print(f"{moved} of {len(set(names[0]) | set(names[1]))} files moved; "
          f"worst relative float move {worst:.3g}; {n_others} non-float differences")
    return 1 if n_others else 0


if __name__ == "__main__":
    sys.exit(main())
