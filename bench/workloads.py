"""The benchmark's workloads: seeded plans, closed-loop ops and output checks.

Every workload is a closed loop from one caller. An op is one
``evaluation.run_trial(plan, t)`` call on the in-process workloads and one
``mecp compare`` command, run in-process through ``mecp.cli.main``, on
``cli_compare``. The workload seed becomes the plan seed; the program sees
only the plans built from it.

Why these three:

* ``loo_refit`` - 20 leave-one-environment-out ridge refits per trial, so
  ``fit_ridge`` and the quantile primitives dominate and scoring is small.
* ``split_wide`` - the mirror image: one small fit per trial and 8000 scored
  test rows, so set materialization and scoring dominate.
* ``cli_compare`` - the paired delta-matching protocol as users run it:
  many short trials through ``run_trials``, the weighted dual search, and
  the CLI's config and report handling.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# seed whose outputs are frozen under reference/
REFERENCE_SEED = 0
REL_TOL = 1e-9
ALPHA = 0.1

# trials cycled per algorithm by the in-process workloads
TRIAL_POOL = 4

# Trials per `mecp compare` command and its paired-protocol settings. Timed
# ops use the CLI's default of one worker: on a 2-vCPU virtual machine the
# 2-thread pool ran slower than serial and its run-to-run spread exceeded
# every allowed bound. The traced run still measures the pool with a
# POOL_WORKERS pass (worker_utilization, trial_inflation).
CLI_TRIALS = 10
CLI_WORKERS = 1
POOL_WORKERS = 2
CLI_DELTA_GRID = [0.1, 0.2, 0.3]

OUTLIER_GENERATOR = {
    "n_per_env": 50,
    "p": 5,
    "outlier_frac": 0.2,
    "outlier_noise_multiplier": 10.0,
}
SMOOTH_GENERATOR = {"n_per_env": 200, "p": 5}

IN_PROCESS = {
    "loo_refit": {
        "generator": OUTLIER_GENERATOR,
        "train_envs": 20,
        "test_envs": 5,
        "algorithms": ("jackknife_minmax", "hier_jackknife_plus", "jackknife_plus_quantile"),
    },
    "split_wide": {
        "generator": SMOOTH_GENERATOR,
        "train_envs": 10,
        "test_envs": 40,
        "algorithms": ("split_conformal", "hcp", "resized_split_conformal"),
    },
}
WORKLOADS = (*IN_PROCESS, "cli_compare")
# Highest tail percentile reported. A 25 s run makes 330-750 loo_refit ops,
# 750-1250 split_wide ops and 65-130 cli_compare ops; a higher cap would
# leave too few ops beyond the tail for it to be steady.
TAIL_CAPS = {"loo_refit": 95.0, "split_wide": 95.0, "cli_compare": 75.0}


@dataclass
class Op:
    """One unit of closed-loop work; ``run`` returns its comparable output."""

    key: str
    trials: int
    run: Callable[[], object]


def reference_path(workload: str) -> Path:
    return Path(__file__).resolve().parent / "reference" / f"{workload}.json"


def _record_dict(rec) -> dict:
    return {
        "trial": rec.trial,
        "env_id": rec.env_id,
        "n": rec.n,
        "covered_count": rec.covered_count,
        "env_covered": rec.env_covered,
        "mean_measure": rec.mean_measure,
    }


def _in_process_ops(workload: str, seed: int) -> list[Op]:
    from mecp import evaluation
    from mecp.data import HierGenConfig

    spec = IN_PROCESS[workload]
    m = spec["train_envs"] + spec["test_envs"]
    generator = HierGenConfig(m=m, **spec["generator"])
    plans = [
        evaluation.TrialPlan(
            generator=generator,
            algorithm=name,
            trials=TRIAL_POOL,
            train_envs=spec["train_envs"],
            test_envs=spec["test_envs"],
            alpha=ALPHA,
            seed=seed,
        )
        for name in spec["algorithms"]
    ]

    def op_for(plan, trial):
        # look run_trial up at call time so a tracer's wrapper sees the call
        return lambda: evaluation.run_trial(plan, trial)

    return [
        Op(f"{plan.algorithm}/{t}", 1, op_for(plan, t))
        for t in range(TRIAL_POOL)
        for plan in plans
    ]


def cli_config(seed: int) -> dict:
    return {
        "dataset": {"generator": {"m": 25, **OUTLIER_GENERATOR}},
        "algorithm": {"name": "weighted_split_conformal", "alpha": ALPHA},
        "plan": {"trials": CLI_TRIALS, "train_envs": 20, "test_envs": 5, "seed": seed},
        "compare": {
            "method_a": "weighted_split_conformal",
            "method_b": "split_conformal",
            "delta_grid": CLI_DELTA_GRID,
        },
    }


def _cli_ops(seed: int, work_dir: Path, workers: int) -> list[Op]:
    from mecp import cli

    work_dir.mkdir(parents=True, exist_ok=True)
    config = work_dir / f"cli_compare-seed{seed}.json"
    report = work_dir / f"cli_compare-seed{seed}-report.json"
    config.write_text(json.dumps(cli_config(seed)))
    argv = ["compare", "-c", str(config), "--workers", str(workers), "--report", str(report)]

    def run():
        report.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"mecp compare exited with code {code}")
        return report.read_bytes()

    trials = CLI_TRIALS * (1 + len(CLI_DELTA_GRID))
    # the report must not depend on the worker count, so both share one key
    return [Op("compare", trials, run)]


def build_ops(workload: str, seed: int, work_dir: Path, workers: int = CLI_WORKERS) -> list[Op]:
    """The cycle of ops a workload repeats, built from its seed."""
    if workload == "cli_compare":
        return _cli_ops(seed, work_dir, workers)
    return _in_process_ops(workload, seed)


def normalize(workload: str, output) -> object:
    """JSON-comparable form of an op's output."""
    if workload == "cli_compare":
        return json.loads(output)
    return [_record_dict(rec) for rec in output]


def diff(ref, got, path: str = "$") -> str | None:
    """First disagreement between a reference and an output, or None.

    Integers and booleans compare exactly, finite floats to a relative
    ``REL_TOL``, everything else (strings, infinities, None) exactly.
    """
    if isinstance(ref, bool) or isinstance(got, bool):
        same = type(ref) is type(got) and ref == got
    elif isinstance(ref, int) and isinstance(got, int):
        same = ref == got
    elif isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        if math.isfinite(ref) and math.isfinite(got):
            same = math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=0.0)
        else:
            same = ref == got
    elif isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return f"{path}: keys {sorted(ref)} != {sorted(got)}"
        for key in ref:
            found = diff(ref[key], got[key], f"{path}.{key}")
            if found:
                return found
        return None
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return f"{path}: length {len(ref)} != {len(got)}"
        for i, (a, b) in enumerate(zip(ref, got)):
            found = diff(a, b, f"{path}[{i}]")
            if found:
                return found
        return None
    else:
        same = type(ref) is type(got) and ref == got
    return None if same else f"{path}: expected {ref!r}, got {got!r}"


def _record_invariants(workload: str, key: str, records: list[dict]) -> str | None:
    spec = IN_PROCESS[workload]
    trial = int(key.split("/")[1])
    n_env = spec["generator"]["n_per_env"]
    if key.startswith("resized_split_conformal/"):
        n_env -= 30  # each test environment donates label_count=30 rows
    first_test = spec["train_envs"]
    expected_ids = [f"env{first_test + i}" for i in range(spec["test_envs"])]
    if [r["env_id"] for r in records] != expected_ids:
        return f"{key}: env ids {[r['env_id'] for r in records]}"
    for r in records:
        bar = math.ceil((1 - Fraction(ALPHA)) * (r["n"] + 1))
        if r["trial"] != trial or r["n"] != n_env:
            return f"{key}: record {r}"
        if not 0 <= r["covered_count"] <= r["n"]:
            return f"{key}: covered_count out of range in {r}"
        if r["env_covered"] != (r["covered_count"] >= bar):
            return f"{key}: env_covered disagrees with the count rule in {r}"
        if not r["mean_measure"] >= 0.0:
            return f"{key}: mean_measure {r['mean_measure']!r}"
    return None


def _report_invariants(report: dict, seed: int) -> str | None:
    match = report.get("match", {})
    seeds_a = report.get("method_a", {}).get("trial_seeds")
    if seeds_a != report.get("method_b", {}).get("trial_seeds") or len(seeds_a) != CLI_TRIALS:
        return "method_a and method_b trial seeds differ or have the wrong length"
    if report.get("plan", {}).get("seed") != seed:
        return f"plan seed {report.get('plan', {}).get('seed')!r} != {seed}"
    if not isinstance(match.get("found"), bool) or match.get("delta") not in CLI_DELTA_GRID:
        return f"bad match block {match}"
    grid = [pair[0] for pair in match.get("candidate_fractions", [])]
    fractions = [match.get("baseline_fraction")] + [
        pair[1] for pair in match.get("candidate_fractions", [])
    ]
    if grid != CLI_DELTA_GRID or not all(0.0 <= f <= 1.0 for f in fractions):
        return f"bad candidate fractions {match.get('candidate_fractions')}"
    return None


def check(workload: str, seed: int, key: str, output, reference: dict | None) -> str | None:
    """Why an op's normalized output is wrong, or None when it is right.

    With a reference (the frozen outputs of ``REFERENCE_SEED``) the output
    must match it; for any other seed it must satisfy the invariants that
    hold for every seed.
    """
    if reference is not None:
        if key not in reference:
            return f"{key}: no reference output"
        found = diff(reference[key], output)
        return f"{key}: {found}" if found else None
    if workload == "cli_compare":
        return _report_invariants(output, seed)
    return _record_invariants(workload, key, output)


def load_reference(workload: str) -> dict:
    return json.loads(reference_path(workload).read_text())["outputs"]
