"""Time one seeded trial of every algorithm on the ROADMAP plan.

The plan is the outlier generator (20% of environments at 10x noise),
20 train + 5 test environments, n=50 rows per environment, p=5 features,
alpha=0.1 and the default ridge grid. Each algorithm runs ``--trials``
consecutive ``run_trial`` calls ``--repeats`` times; the table reports the
fastest repeat's mean time per trial, slowest algorithm first. Wall-clock
timings on a shared machine swing, so compare rows as ratios.

``--cold N`` times cold starts instead: the fastest of N fresh Python
processes that run ``import mecp.cli``, and of N that run a 3-trial
``mecp run`` of split conformal on the same plan, each from process start
to exit.

``--primitives`` times the ridge primitives and the dual solve instead. The
ridge rows run on the 20 training environments of the plan's first trial
(1000 rows, p=5): the leave-one-out pass ``fit_ridge_leave_one_out`` that
the jackknife algorithms make once per trial, the stacked (20, 50)
predictions of its 20 refits on one 50-row test block, which the jackknife
mappings read from one batched product per block, and one pooled
``fit_ridge`` on all 1000 rows, the size of the fit in the benchmark's
``split_wide`` workload. The dual-solve row runs ``weighted_threshold`` on
the engine's constant feature column at ridge 0 (the rank read), on 10
normal scores drawn from ``--seed``, the calibration count of the
benchmark's ``cli_compare`` workload. Each runs
``--trials`` calls ``--repeats`` times; the fastest repeat's mean time per
call is reported. The last row is the ``cli_compare`` op without the CLI:
one ``match_delta`` of weighted against split conformal over the grid
0.1/0.2/0.3 on the plan's ``--trials`` trials, reported per paired trial
(the baseline plus three grid plans), fastest of ``--repeats`` calls.

Usage:
    python scripts/algorithm_timings.py
    python scripts/algorithm_timings.py --trials 30 --repeats 3 --seed 0
    python scripts/algorithm_timings.py --cold 7
    python scripts/algorithm_timings.py --primitives --trials 200
"""

import argparse
import json
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from mecp.algorithms import fit_hier_jackknife_plus, ridge_point_builder
from mecp.data import HierGenConfig
from mecp.evaluation import TrialPlan, algorithm_names, match_delta, run_trial, trial_dataset
from mecp.predictors import fit_ridge, fit_ridge_leave_one_out
from mecp.weighted import weighted_threshold

GENERATOR = {"m": 1, "n_per_env": 50, "p": 5, "outlier_frac": 0.2,
             "outlier_noise_multiplier": 10.0, "seed": 0}


def ms_per_call(call, calls: int, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for t in range(calls):
            call(t)
        best = min(best, time.perf_counter() - start)
    return 1e3 * best / calls


def ms_per_trial(plan: TrialPlan, repeats: int) -> float:
    return ms_per_call(lambda t: run_trial(plan, t), plan.trials, repeats)


def print_primitives(plan: TrialPlan, repeats: int) -> None:
    dataset = trial_dataset(plan, 0)
    envs = dataset.environments[: plan.train_envs]
    block = dataset.environments[plan.train_envs].x
    x = np.vstack([env.x for env in envs])
    y = np.concatenate([env.y for env in envs])
    sizes = [env.n for env in envs]
    train = dataset.subset(range(plan.train_envs))
    centres = fit_hier_jackknife_plus(train, ridge_point_builder(), plan.alpha).centres
    rows = [
        (f"fit_ridge_leave_one_out, {len(envs)} refits",
         ms_per_call(lambda t: fit_ridge_leave_one_out(x, y, sizes), plan.trials, repeats)),
        (f"leave-one-out predict, {len(envs)} refits",
         ms_per_call(lambda t: centres(block), plan.trials, repeats)),
        ("fit_ridge, pooled", ms_per_call(lambda t: fit_ridge(x, y), plan.trials, repeats)),
    ]
    scores = np.random.default_rng(plan.seed).normal(size=10)
    constant = np.ones((scores.size + 1, 1))
    rows.append(("weighted_threshold, ridge 0", ms_per_call(
        lambda t: weighted_threshold(scores, constant, plan.delta), plan.trials, repeats)))
    weighted = replace(plan, algorithm="weighted_split_conformal")
    rows.append(("match_delta, 3-value grid", ms_per_call(
        lambda t: match_delta("weighted_split_conformal", "split_conformal", plan.alpha,
                              (0.1, 0.2, 0.3), weighted), 1, repeats) / plan.trials))
    print(f"ms per call, min of {repeats} x {plan.trials} calls, outlier generator, "
          f"{len(envs)} envs x {GENERATOR['n_per_env']} rows, p={x.shape[1]}, default ridge grid; "
          f"leave-one-out predict on one {len(block)}-row block; "
          f"weighted_threshold on 10 scores, constant column; match_delta per trial")
    print(f"{'primitive':<38} {'ms/call':>9}")
    for name, ms in rows:
        print(f"{name:<38} {ms:>9.3f}")


def fastest_process_s(argv: list[str], runs: int) -> float:
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        best = min(best, time.perf_counter() - start)
    return best


def print_cold_starts(runs: int, seed: int) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        doc = {
            "dataset": {"generator": GENERATOR},
            "algorithm": {"name": "split_conformal", "alpha": 0.1},
            "plan": {"trials": 3, "train_envs": 20, "test_envs": 5, "seed": seed},
            "output": {"report": str(out / "report.json"), "sweep_csv": str(out / "sweep.csv")},
        }
        (out / "config.json").write_text(json.dumps(doc))
        rows = [
            ("import mecp.cli", fastest_process_s([sys.executable, "-c", "import mecp.cli"], runs)),
            ("mecp run, 3 trials", fastest_process_s(
                [sys.executable, "-m", "mecp", "run", "-c", str(out / "config.json")], runs)),
        ]
    print(f"cold start, min of {runs} fresh processes, split_conformal, "
          f"outlier generator, 20+5 envs, n=50, p=5")
    print(f"{'command':<38} {'s':>9}")
    for name, seconds in rows:
        print(f"{name:<38} {seconds:>9.3f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=30)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cold", type=int, default=None, metavar="N",
                        help="time N fresh-process cold starts instead")
    parser.add_argument("--primitives", action="store_true",
                        help="time the ridge primitives and the dual solve instead")
    args = parser.parse_args()
    if args.cold is not None:
        if args.cold < 1:
            parser.error("--cold must be at least 1")
        print_cold_starts(args.cold, args.seed)
        return

    generator = HierGenConfig(**GENERATOR)
    if args.primitives:
        print_primitives(TrialPlan(generator=generator, algorithm="jackknife_minmax",
                                   trials=args.trials, train_envs=20, test_envs=5,
                                   alpha=0.1, seed=args.seed), args.repeats)
        return
    rows = []
    for name in algorithm_names():
        plan = TrialPlan(generator=generator, algorithm=name, trials=args.trials,
                         train_envs=20, test_envs=5, alpha=0.1, seed=args.seed)
        rows.append((ms_per_trial(plan, args.repeats), name))

    print(f"ms per trial, min of {args.repeats} x {args.trials} trials, "
          f"outlier generator, 20+5 envs, n=50, p=5")
    print(f"{'algorithm':<38} {'ms/trial':>9}")
    for ms, name in sorted(rows, reverse=True):
        print(f"{name:<38} {ms:>9.1f}")


if __name__ == "__main__":
    main()
