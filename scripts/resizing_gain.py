"""Measure what per-environment resizing buys on heavy-tailed environments.

Runs split conformal with and without resized calibration on a generator
where a fraction of environments carry a noise multiplier, pairing the two
runs trial by trial through the shared seed derivation. Reports env-level
coverage for both, mean set lengths, and the fraction of paired trials where
the resized sets are strictly shorter on average.

Usage:
    python scripts/resizing_gain.py
    python scripts/resizing_gain.py --outlier-frac 0.3 --multiplier 5 \
        --trials 200 --label-count 20
"""

import argparse
from collections import defaultdict

from mecp.data import HierGenConfig
from mecp.evaluation import TrialPlan, run_plans


def mean_length_by_trial(report) -> dict:
    acc = defaultdict(list)
    for rec in report.records:
        acc[rec.trial].append(rec.mean_measure)
    return {t: sum(v) / len(v) for t, v in acc.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outlier-frac", type=float, default=0.2)
    parser.add_argument("--multiplier", type=float, default=10.0)
    parser.add_argument("--alpha", type=float, default=0.1)
    parser.add_argument("--delta", type=float, default=0.2)
    parser.add_argument("--alpha0", type=float, default=0.05)
    parser.add_argument("--label-count", type=int, default=30)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--train-envs", type=int, default=16)
    parser.add_argument("--test-envs", type=int, default=5)
    parser.add_argument("--n-per-env", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    generator = HierGenConfig(
        m=1, n_per_env=args.n_per_env, p=5,
        outlier_frac=args.outlier_frac,
        outlier_noise_multiplier=args.multiplier, seed=0)
    shared = dict(generator=generator, trials=args.trials,
                  train_envs=args.train_envs, test_envs=args.test_envs,
                  alpha=args.alpha, delta=args.delta, gamma=0.5,
                  seed=args.seed)
    resized, plain = run_plans([
        TrialPlan(algorithm="resized_split_conformal", alpha0=args.alpha0,
                  label_count=args.label_count, **shared),
        TrialPlan(algorithm="split_conformal", **shared),
    ])

    resized_len = mean_length_by_trial(resized)
    plain_len = mean_length_by_trial(plain)
    shorter = sum(1 for t in resized_len if resized_len[t] < plain_len[t])

    print(f"{args.trials} paired trials, outlier_frac={args.outlier_frac}, "
          f"multiplier={args.multiplier}, |L|={args.label_count}")
    print(f"{'':>10} {'env cover':>10} {'length':>9}")
    print(f"{'plain':>10} {plain.empirical_one_minus_delta:>10.4f} "
          f"{plain.empirical_set_length:>9.3f}")
    print(f"{'resized':>10} {resized.empirical_one_minus_delta:>10.4f} "
          f"{resized.empirical_set_length:>9.3f}")
    print(f"resized strictly shorter on {shorter}/{args.trials} trials "
          f"({shorter / args.trials:.1%})")


if __name__ == "__main__":
    main()
