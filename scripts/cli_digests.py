"""Print a sha256 of every report and sweep CSV of a fixed matrix of CLI runs.

Two trees that print the same lines write the same bytes for every config
in the matrix, so a change that must keep outputs byte-identical can be
checked by diffing this script's output before and after it. The matrix:

* ``mecp run`` for each of the 8 algorithms
  x {default ridge grid, explicit ridge grid}
  x {fixed ``n_per_env``, ranged ``n_per_env`` with ``beta`` and outliers}
  x {single plan, alpha sweep, delta sweep, clipped with the fraction rule};
* ``mecp compare`` of plain and of randomized weighted split conformal
  against split conformal;
* a resized ``label_count`` sweep whose larger values fail on small
  environments, so its error record shows which failure is reported.

Each command runs in-process in a temporary directory. A command that exits
non-zero still has its error record digested, and its line says so.

Usage:
    PYTHONPATH=src python scripts/cli_digests.py
    PYTHONPATH=src python scripts/cli_digests.py --trials 1 --seed 4
"""

import argparse
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from mecp import cli
from mecp.evaluation import algorithm_names

GRIDS = {"default": None, "grid": [0.0, 0.1, 1.0, 10.0]}
GENERATORS = {
    "fixed": {"n_per_env": 40, "p": 3},
    "ranged": {
        "n_per_env": [25, 45],
        "p": 3,
        "beta": [1.0, -0.5, 2.0],
        "outlier_frac": 0.3,
        "outlier_noise_multiplier": 8.0,
    },
}
# extra config sections per mode: (plan keys, sweep section)
MODES = {
    "single": ({}, None),
    "alpha": ({}, {"param": "alpha", "values": [0.1, 0.2, 0.3]}),
    "delta": ({}, {"param": "delta", "values": [0.1, 0.2, 0.3]}),
    "clipped": ({"clip": [-4.0, 4.0], "rule": "fraction"}, None),
}
COMPARED = ("weighted_split_conformal", "randomized_weighted_split_conformal")


def base_config(generator: dict, trials: int, seed: int) -> dict:
    return {
        "dataset": {"generator": dict(generator)},
        "plan": {"trials": trials, "train_envs": 8, "test_envs": 3, "seed": seed},
    }


def run_configs(trials: int, seed: int):
    """(name, subcommand, config) for every command in the matrix."""
    for algorithm in algorithm_names():
        for grid_name, grid in GRIDS.items():
            for gen_name, generator in GENERATORS.items():
                for mode, (plan_extra, sweep) in MODES.items():
                    config = base_config(generator, trials, seed)
                    config["algorithm"] = {"name": algorithm, "alpha": 0.2, "label_count": 10}
                    if grid is not None:
                        config["algorithm"]["ridge_grid"] = grid
                    config["plan"].update(plan_extra)
                    if sweep is not None:
                        config["sweep"] = sweep
                    yield f"{algorithm}-{grid_name}-{gen_name}-{mode}", "run", config
    for method_a in COMPARED:
        config = base_config(GENERATORS["ranged"], trials, seed)
        config["algorithm"] = {"name": method_a, "alpha": 0.2}
        config["compare"] = {
            "method_a": method_a,
            "method_b": "split_conformal",
            "delta_grid": [0.1, 0.2, 0.3],
        }
        yield f"compare-{method_a}", "compare", config
    config = base_config(GENERATORS["ranged"], trials, seed)
    config["algorithm"] = {"name": "resized_split_conformal", "alpha": 0.2}
    config["sweep"] = {"param": "label_count", "values": [10, 30, 50]}
    yield "resized-label-count-failure", "run", config


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_matrix(work: Path, trials: int, seed: int):
    """Run every command of the matrix in ``work``: (output path, exit code) per file written."""
    for name, command, config in run_configs(trials, seed):
        config_path = work / f"{name}.json"
        config_path.write_text(json.dumps(config))
        report = work / f"{name}.report.json"
        argv = [command, "-c", str(config_path), "--report", str(report)]
        outputs = [report]
        if command == "run":
            sweep_csv = work / f"{name}.sweep.csv"
            argv += ["--sweep-csv", str(sweep_csv)]
            outputs.append(sweep_csv)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        for path in outputs:
            if path.exists():
                yield path, code


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        for path, code in run_matrix(Path(tmp), args.trials, args.seed):
            suffix = "" if code == 0 else f"  (exit {code})"
            print(f"{digest(path)}  {path.name}{suffix}")


if __name__ == "__main__":
    main()
