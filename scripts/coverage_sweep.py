"""Sweep the env-level miscoverage target and tabulate what each method pays.

For every delta on the grid, runs seeded trials of the chosen algorithm on
the hierarchical generator and prints the empirical env-coverage rate, the
within-environment coverage rate, and the mean set length. All methods under
the same master seed see identical data trial by trial, so columns from
separate invocations are directly comparable.

Usage:
    python scripts/coverage_sweep.py --algorithm jackknife_minmax
    python scripts/coverage_sweep.py --algorithm split_conformal \
        --deltas 0.05 0.1 0.2 0.3 --trials 200 --outliers
"""

import argparse

from mecp.data import HierGenConfig
from mecp.evaluation import TrialPlan, algorithm_names, run_plans


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--algorithm", default="jackknife_minmax",
                        choices=algorithm_names())
    parser.add_argument("--deltas", type=float, nargs="+",
                        default=[0.05, 0.1, 0.2, 0.3, 0.5])
    parser.add_argument("--alpha", type=float, default=0.1)
    parser.add_argument("--gamma", type=float, default=0.5)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--train-envs", type=int, default=10)
    parser.add_argument("--test-envs", type=int, default=5)
    parser.add_argument("--n-per-env", type=int, default=50)
    parser.add_argument("--outliers", action="store_true",
                        help="heavy-tailed environments (20%% at 10x noise)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    generator = HierGenConfig(
        m=1, n_per_env=args.n_per_env, p=5,
        outlier_frac=0.2 if args.outliers else 0.0,
        outlier_noise_multiplier=10.0 if args.outliers else 1.0,
        seed=0)

    print(f"{args.algorithm}: alpha={args.alpha}, {args.trials} trials, "
          f"{args.train_envs}+{args.test_envs} envs, n={args.n_per_env}")
    print(f"{'delta':>7} {'env cover':>10} {'within-env':>11} {'length':>9}")
    plans = [TrialPlan(generator=generator, algorithm=args.algorithm,
                       trials=args.trials, train_envs=args.train_envs,
                       test_envs=args.test_envs, alpha=args.alpha,
                       delta=delta, gamma=args.gamma, seed=args.seed)
             for delta in args.deltas]
    # one paired run: each trial's data and fits serve every delta
    for delta, report in zip(args.deltas, run_plans(plans)):
        within = report.empirical_one_minus_alpha
        print(f"{delta:>7.3f} {report.empirical_one_minus_delta:>10.4f} "
              f"{'-' if within is None else format(within, '>11.4f')} "
              f"{report.empirical_set_length:>9.3f}")


if __name__ == "__main__":
    main()
