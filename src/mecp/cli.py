"""Config-driven command line for data simulation and coverage experiments.

Usage:
    mecp simulate -c config.json [--seed N] [--out data.csv]
    mecp run      -c config.json [--seed N] [--workers N] [--report out.json] [--sweep-csv out.csv]
    mecp compare  -c config.json [--seed N] [--workers N] [--report out.json]

The config is a JSON document with nested sections (dataset, algorithm,
plan, sweep, compare, output); command line flags override file values.
Outputs are deterministic given the config and seed: reports are
sorted-key JSON and sweep CSVs use repr floats, so reruns produce
identical bytes. Trials run one after another: ``--workers`` and
``plan.workers`` must be positive integers and are otherwise ignored.

Exit codes: 0 success, 2 usage or config error, 1 runtime failure (fit
errors leave a JSON error record at the report path).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from mecp.data import HierGenConfig, check_integer, generate_hierarchical, load_csv, write_csv
from mecp.evaluation import (
    CoverageReport,
    TrialPlan,
    algorithm_names,
    dataset_records,
    match_delta,
    run_plans,
    trial_data_seed,
)
from mecp.predictors import FitError
from mecp.quantiles import check_real

SWEEP_HEADER = "param,value,emp_one_minus_delta,emp_one_minus_alpha,emp_set_length"
SWEEPABLE = ("alpha", "delta", "gamma", "alpha0", "label_count", "ridge_weight")

_PLAN_KEYS = {"trials", "train_envs", "test_envs", "rule", "clip", "seed", "workers"}
_SECTION_KEYS = {
    "dataset": {"csv", "generator"},
    # TrialPlan's fields, less the plan section's and those the CLI fills in
    "algorithm": {"name"}
    | {f.name for f in fields(TrialPlan)} - _PLAN_KEYS - {"generator", "algorithm"},
    "plan": _PLAN_KEYS,
    "sweep": {"param", "values"},
    "compare": {"method_a", "method_b", "delta_grid"},
    "output": {"report", "sweep_csv", "dataset_csv"},
}
_GENERATOR_KEYS = {f.name for f in fields(HierGenConfig)}


class ConfigError(ValueError):
    """Anything wrong with the config document or flag values."""


@dataclass(frozen=True)
class RunConfig:
    """Flag-merged, validated configuration for one command invocation."""

    command: str
    dataset_csv: str | None = None
    generator: HierGenConfig | None = None
    plan: TrialPlan | None = None
    sweep_param: str | None = None
    sweep_values: tuple | None = None
    method_a: str | None = None
    method_b: str | None = None
    delta_grid: tuple[float, ...] = ()
    report_path: str = "report.json"
    sweep_csv_path: str = "sweep.csv"
    dataset_path: str = "dataset.csv"


def _load_document(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(doc) - set(_SECTION_KEYS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    return doc


def _section(doc: dict, key: str) -> dict:
    value = doc.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"section {key!r} must be an object")
    unknown = set(value) - _SECTION_KEYS[key]
    if unknown:
        raise ConfigError(f"unknown keys in section {key!r}: {sorted(unknown)}")
    return value


def _build_generator(section: dict, m: int | None, seed: int | None) -> HierGenConfig:
    unknown = set(section) - _GENERATOR_KEYS
    if unknown:
        raise ConfigError(f"unknown generator fields: {sorted(unknown)}")
    params = dict(section)
    if m is not None:
        params["m"] = m
    if "m" not in params:
        raise ConfigError("the generator needs 'm' (or plan train/test counts)")
    if seed is not None:
        params["seed"] = seed
    try:
        return HierGenConfig(**params)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad generator config: {err}") from None


def _floats(raw, name: str) -> tuple[float, ...]:
    if not isinstance(raw, list):
        raise ConfigError(f"{name} must be a list of numbers, got {raw!r}")
    return tuple(check_real(v, name) for v in raw)


def build_config(doc: dict, args: argparse.Namespace, command: str) -> RunConfig:
    dataset_sec = _section(doc, "dataset")
    csv_path = dataset_sec.get("csv")
    gen_sec = dataset_sec.get("generator")
    if (csv_path is None) == (gen_sec is None):
        raise ConfigError("dataset must name exactly one source: 'csv' or 'generator'")
    if gen_sec is not None and not isinstance(gen_sec, dict):
        raise ConfigError("dataset.generator must be an object")

    alg = _section(doc, "algorithm")
    plan_sec = _section(doc, "plan")
    comp = _section(doc, "compare")
    out = _section(doc, "output")

    method_a = comp.get("method_a")
    method_b = comp.get("method_b")
    delta_grid = _floats(comp.get("delta_grid", []), "compare.delta_grid")
    for name in (method_a, method_b):
        if name is not None and name not in algorithm_names():
            raise ConfigError(f"unknown method {name!r}; choose from {list(algorithm_names())}")

    # accepted for existing configs and command lines, then ignored
    workers = getattr(args, "workers", None)
    if workers is None:
        workers = plan_sec.get("workers", 1)
    if check_integer(workers, "workers") < 1:
        raise ConfigError("workers must be a positive integer")

    sweep = _section(doc, "sweep")
    sweep_param = sweep_values = None
    if sweep:
        sweep_param = sweep.get("param")
        if sweep_param not in SWEEPABLE:
            raise ConfigError(f"sweep.param must be one of {list(SWEEPABLE)}")
        raw = sweep.get("values")
        if not isinstance(raw, list) or not raw:
            raise ConfigError("sweep.values must be a non-empty list")
        sweep_values = tuple(raw) if sweep_param == "label_count" else _floats(raw, "sweep.values")

    plan = None
    if alg:
        name = alg.get("name")
        if name is None and command == "compare" and isinstance(method_a, str):
            name = method_a
        if not isinstance(name, str):
            raise ConfigError("algorithm.name is required")
        if "alpha" not in alg:
            raise ConfigError("algorithm.alpha is required")
        template = None
        train_envs = check_integer(plan_sec.get("train_envs", 2), "train_envs")
        test_envs = check_integer(plan_sec.get("test_envs", 1), "test_envs")
        if gen_sec is not None:
            template = _build_generator(gen_sec, m=train_envs + test_envs, seed=None)
        # only the keys the config holds: TrialPlan's defaults are the only ones
        options = {k: v for k, v in alg.items() if k != "name"}
        options.update({k: plan_sec[k] for k in ("clip", "rule", "seed") if k in plan_sec})
        if args.seed is not None:
            options["seed"] = args.seed
        try:
            plan = TrialPlan(
                generator=template,
                algorithm=name,
                trials=plan_sec.get("trials", 1),
                train_envs=train_envs,
                test_envs=test_envs,
                **options,
            )
            # cmd_run builds one plan per sweep value; reject bad values up front
            for value in sweep_values or ():
                replace(plan, **{sweep_param: value})
        except TypeError as err:
            raise ConfigError(str(err)) from None

    generator = None
    if command == "simulate" and gen_sec is not None:
        generator = _build_generator(gen_sec, m=None, seed=args.seed)

    return RunConfig(
        command=command,
        dataset_csv=csv_path,
        generator=generator,
        plan=plan,
        sweep_param=sweep_param,
        sweep_values=sweep_values,
        method_a=method_a,
        method_b=method_b,
        delta_grid=delta_grid,
        report_path=getattr(args, "report", None) or out.get("report", "report.json"),
        sweep_csv_path=getattr(args, "sweep_csv", None)
        or out.get("sweep_csv", "sweep.csv"),
        dataset_path=getattr(args, "out", None) or out.get("dataset_csv", "dataset.csv"),
    )


def _write_json(path: str, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _write_sweep_csv(path: str, rows: list) -> None:
    lines = [SWEEP_HEADER]
    for param, value, report in rows:
        lines.append(
            ",".join(
                (
                    param,
                    _csv_cell(value),
                    _csv_cell(report.empirical_one_minus_delta),
                    _csv_cell(report.empirical_one_minus_alpha),
                    _csv_cell(report.empirical_set_length),
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_simulate(config: RunConfig) -> int:
    """Write the generator's dataset as CSV."""
    if config.generator is None:
        raise ConfigError("simulate needs a dataset.generator section")
    dataset = generate_hierarchical(config.generator)
    write_csv(dataset, config.dataset_path)
    rows = sum(env.n for env in dataset.environments)
    print(f"wrote {dataset.m} environments ({rows} rows) to {config.dataset_path}")
    return 0


def _csv_report(path: str, plan: TrialPlan) -> CoverageReport:
    dataset = load_csv(path)
    rng = np.random.default_rng(plan.seed)
    records = dataset_records(dataset, plan, rng)
    return CoverageReport.from_records(records, plan.alpha, plan.rule)


def cmd_run(config: RunConfig) -> int:
    """Fit the configured algorithm, write the JSON report and sweep CSV."""
    plan = config.plan
    if plan is None:
        raise ConfigError("run needs an algorithm section")
    if config.dataset_csv is not None and plan.trials != 1:
        raise ConfigError("a csv dataset supports exactly one trial")
    if config.sweep_param is None:
        param, values = "delta", (plan.delta,)
        plans = [plan]
    else:
        param, values = config.sweep_param, config.sweep_values
        plans = [replace(plan, **{param: value}) for value in values]
    if config.dataset_csv is None:
        # every sweep point sees the same seeded data: one paired run
        reports = run_plans(plans)
    else:
        reports = [_csv_report(config.dataset_csv, p) for p in plans]
    rows = [(param, value, report) for value, report in zip(values, reports)]
    if config.sweep_param is None:
        doc = {"plan": plan.to_json_dict(), **reports[0].to_json_dict()}
    else:
        points = [
            {"value": value, "aggregates": report.to_json_dict()["aggregates"]}
            for value, report in zip(values, reports)
        ]
        doc = {"plan": plan.to_json_dict(), "sweep": {"param": param, "points": points}}
    _write_json(config.report_path, doc)
    _write_sweep_csv(config.sweep_csv_path, rows)
    print(f"wrote {config.report_path} and {config.sweep_csv_path}")
    return 0


def cmd_compare(config: RunConfig) -> int:
    """Run the paired delta-matching protocol and write its report."""
    plan = config.plan
    if plan is None:
        raise ConfigError("compare needs an algorithm section")
    if config.method_a is None or config.method_b is None:
        raise ConfigError("compare needs compare.method_a and compare.method_b")
    if not config.delta_grid:
        raise ConfigError("compare.delta_grid must be non-empty")
    if any(b <= a for a, b in zip(config.delta_grid, config.delta_grid[1:])):
        raise ConfigError("compare.delta_grid must be sorted ascending without repeats")
    if config.dataset_csv is not None:
        raise ConfigError("compare needs a generator dataset source")
    result = match_delta(
        config.method_a, config.method_b, plan.alpha, config.delta_grid, plan
    )
    # both methods derive data seeds the same way; the echo makes that auditable
    def echo(method: str) -> dict:
        seeds = [trial_data_seed(replace(plan, algorithm=method), t) for t in range(plan.trials)]
        return {"name": method, "trial_seeds": seeds}

    doc = {
        "plan": plan.to_json_dict(),
        "alpha": plan.alpha,
        "delta_grid": list(config.delta_grid),
        "method_a": echo(config.method_a),
        "method_b": echo(config.method_b),
        "match": result.to_json_dict(),
    }
    _write_json(config.report_path, doc)
    print(f"wrote {config.report_path}")
    return 0


def _jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def _write_error_record(path: str, kind: str, err: Exception) -> None:
    details = {k: _jsonable(v) for k, v in getattr(err, "details", {}).items()}
    doc = {"error": {"kind": kind, "message": str(err), "details": details}}
    try:
        _write_json(path, doc)
    except OSError:
        pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mecp",
        description="Simulate multi-environment data and run coverage experiments "
        "from a JSON config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sim = sub.add_parser("simulate", help="generate a dataset CSV")
    run = sub.add_parser("run", help="fit one algorithm over seeded trials")
    comp = sub.add_parser("compare", help="match a method's covered share to a baseline")
    for p in (sim, run, comp):
        p.add_argument("-c", "--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.add_argument("--out", default=None, help="dataset CSV path")
    for p in (run, comp):
        p.add_argument(
            "--workers", type=int, default=None, help="accepted and ignored; trials run serially"
        )
        p.add_argument("--report", default=None, help="report JSON path")
    run.add_argument("--sweep-csv", dest="sweep_csv", default=None, help="sweep CSV path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = _load_document(args.config)
        config = build_config(doc, args, args.command)
    except ValueError as err:  # a ConfigError, or a checked value's own message
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        if args.command == "simulate":
            return cmd_simulate(config)
        if args.command == "run":
            return cmd_run(config)
        return cmd_compare(config)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FitError as err:
        if args.command in ("run", "compare"):
            _write_error_record(config.report_path, "fit_failure", err)
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        if args.command in ("run", "compare"):
            _write_error_record(config.report_path, "runtime_error", err)
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
