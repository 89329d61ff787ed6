#!/usr/bin/env python3
"""Benchmark mecp's seeded Monte Carlo trial on one workload.

    python3 bench/run.py --workload loo_refit --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; mecp is imported from ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it alternates untraced and traced cycles of ops and reports
the per-layer metrics and the tracing overhead. A fixed calibration kernel
(``hostspeed.py``) is timed after every op, and every timing metric is
reported at a reference host speed; the raw wall values are printed as
``wall_*`` next to them. Every op's output is checked, and
every run also replays the reference seed's ops against the frozen outputs
under ``reference/``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is non-zero when any op failed or the checkout has no ``src/mecp``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# fresh processes that each time the set-up; setup_s is their median
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# kernel runs timed just before and just after each set-up probe
PROBE_KERNEL_RUNS = 9
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND_TAIL = 10
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="set up, print the ready time and exit (used to time set-up)",
    )
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_mecp() -> None:
    if not (SRC / "mecp" / "__init__.py").is_file():
        raise SystemExit(f"error: no mecp package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import mecp  # noqa: F401


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_info(workload: str, seed: int) -> dict:
    """Versions, CPUs, BLAS and its thread variables as found (never set)."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def set_up(workload: str, seed: int):
    """Import mecp, build the workload's ops and run one warm-up op."""
    import_mecp()
    from workloads import build_ops

    ops = build_ops(workload, seed, OUT_DIR)
    ops[0].run()
    return ops


def _probe_setup_s(workload: str, seed: int, kernel) -> tuple[float, float]:
    """Wall seconds of one fresh process's set-up, and the kernel time around it.

    The kernel is timed here, in the long-lived process, and not in the
    fresh one, whose first moments run at a speed of their own.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    before = kernel.median_time(PROBE_KERNEL_RUNS)
    start = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    words = done.stdout.split()
    if done.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr[-500:]}")
    # CLOCK_MONOTONIC is system-wide, so the child's reading is comparable
    wall = float(words[1]) - start
    return wall, (before + kernel.median_time(PROBE_KERNEL_RUNS)) / 2


class OutputCheck:
    """Checks each op's output as it arrives: reference, invariants, repeatability.

    Only the first output of each op key is kept, so memory does not grow
    with the number of ops a run makes.
    """

    def __init__(self, workload: str, seed: int):
        from workloads import REFERENCE_SEED, load_reference

        self.workload = workload
        self.seed = seed
        self.reference = load_reference(workload) if seed == REFERENCE_SEED else None
        self.first_seen = {}
        self.problems: list[str] = []

    def __call__(self, key: str, output) -> None:
        from workloads import check, normalize

        try:
            got = normalize(self.workload, output)
            if key not in self.first_seen:
                self.first_seen[key] = got
                problem = check(self.workload, self.seed, key, got, self.reference)
            elif got != self.first_seen[key]:
                problem = f"{key}: output changed between repeats of the same op"
            else:
                problem = None
        except (ValueError, TypeError, KeyError, IndexError, AttributeError) as err:
            problem = f"{key}: malformed output: {type(err).__name__}: {err}"
        if problem:
            self.problems.append(problem)


def run_closed_loop(ops, seconds: float, check: OutputCheck, kernel, run_op=None):
    """Run ops back to back until ``seconds`` of op time have passed.

    Returns the per-op durations, the trials finished and the kernel times
    measured before the first op and right after each op. An op that raises
    is recorded as a problem and the loop goes on; outputs are checked and
    the kernel timed between ops, outside the timed op.
    """
    run_op = run_op or (lambda index, op: op.run())
    durations = []
    kernel_s = [kernel.time()]
    trials = 0
    index = 0
    spent = 0.0
    while spent < seconds:
        op = ops[index % len(ops)]
        begin = time.perf_counter()
        try:
            output = run_op(index, op)
        except Exception as err:  # the loop must go on and count the failure
            check.problems.append(f"{op.key}: {type(err).__name__}: {err}")
            output = None
        durations.append(time.perf_counter() - begin)
        kernel_s.append(kernel.time())
        spent += durations[-1]
        if output is not None:
            check(op.key, output)
            trials += op.trials
        index += 1
    return durations, trials, kernel_s


def verify_reference(workload: str) -> tuple[int, list[str]]:
    """Replay every op of the reference seed once and compare with the frozen outputs."""
    from workloads import REFERENCE_SEED, build_ops

    ops = build_ops(workload, REFERENCE_SEED, OUT_DIR)
    check = OutputCheck(workload, REFERENCE_SEED)
    for op in ops:
        try:
            check(op.key, op.run())
        except Exception as err:  # counted as a failed op
            check.problems.append(f"{op.key}: {type(err).__name__}: {err}")
    return len(ops), check.problems


def tail_percentile(count: int, cap: float) -> float | None:
    """Highest ladder percentile up to ``cap`` with at least ten ops beyond it."""
    usable = [q for q in TAIL_LADDER if q <= cap and count * (1 - q / 100) >= MIN_BEYOND_TAIL]
    return usable[-1] if usable else None


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def _op_timings(workload, trials, durations, prefix):
    from workloads import TAIL_CAPS

    ms = [d * 1e3 for d in durations]
    timings = {
        f"{prefix}trials_per_s": (trials / sum(durations), "1/s", ""),
        f"{prefix}op_ms_p50": (statistics.median(ms), "ms", f"median of {len(ms)} ops"),
    }
    q = tail_percentile(len(ms), TAIL_CAPS[workload])
    if q is not None:
        timings[f"{prefix}op_ms_tail"] = (nearest_rank(ms, q), "ms", f"p{q:g} of {len(ms)} ops")
    else:
        print(f"{prefix}op_ms_tail omitted: {len(ms)} ops leave no percentile with ten beyond it")
    return timings


def _end_to_end(workload, seed, ops, seconds):
    """The end-to-end metrics at reference host speed, and their wall values."""
    from hostspeed import KERNEL_REF_MS, Kernel, rescale, speed

    check = OutputCheck(workload, seed)
    kernel = Kernel()
    durations, trials, kernel_s = run_closed_loop(ops, seconds, check, kernel)
    probes = [_probe_setup_s(workload, seed, kernel) for _ in range(SETUP_PROBES)]
    setups = [wall * KERNEL_REF_MS / 1e3 / k for wall, k in probes]
    metrics = _op_timings(workload, trials, rescale(durations, kernel_s), "")
    metrics["setup_s"] = (
        statistics.median(setups), "s",
        f"median of {SETUP_PROBES} set-ups: {', '.join(f'{s:.3f}' for s in setups)}",
    )
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = (rss_mib, "MiB", "")
    wall = _op_timings(workload, trials, durations, "wall_")
    wall["wall_setup_s"] = (
        statistics.median(w for w, _k in probes), "s",
        f"median of {SETUP_PROBES}: {', '.join(f'{w:.3f}' for w, _k in probes)}",
    )
    wall["host_speed"] = (
        speed(kernel_s), "ratio",
        f"{KERNEL_REF_MS} ms / median of {len(kernel_s)} kernel times; "
        f"set-up probes {', '.join(f'{KERNEL_REF_MS / 1e3 / k:.3f}' for _w, k in probes)}",
    )
    return len(durations), check.problems, metrics, wall


def _share_lines(per_layer: dict, op_wall_ms: float) -> list[str]:
    from tracer import LAYERS, OVERHEAD_LAYER

    lines = []
    for layer in (*LAYERS, OVERHEAD_LAYER, "op"):
        ms = per_layer.get(layer, 0.0)
        lines.append(f"  share {layer:<12} {100 * ms / op_wall_ms:6.2f}% of op wall ({ms:.1f} ms)")
    return lines


def _split_lines(workload: str, layers: dict, op_ms_per_trial: float) -> list[str]:
    def share(*names):
        return 100 * sum(layers[n] for n in names) / op_ms_per_trial

    ridge = share("predictors.fit_ridge_ms")
    sets = share("nested_sets.sets_at_ms", "algorithms.predict_sets_ms", "evaluation.score_ms")
    return [
        f"  split {workload}: fit_ridge {ridge:.1f}% of op wall "
        "(>= 60% on loo_refit, <= 15% on split_wide at the defining commit)",
        f"  split {workload}: sets_at + predict_sets + score {sets:.1f}% of op wall "
        "(>= 60% on split_wide, <= 15% on loo_refit at the defining commit)",
        f"  split {workload}: weighted.dual_ms {layers['weighted.dual_ms']:.3f} ms/trial "
        "(> 0 only on cli_compare)",
    ]


def _traced(workload, seed, ops, seconds):
    """Alternate untraced and traced cycles of ops for ``seconds``."""
    from hostspeed import Kernel, rescale
    from tracer import (
        OVERHEAD_LAYER, Tracer, layer_metrics, layer_self_ms, mean_trial_ms, worker_utilization,
    )
    from workloads import POOL_WORKERS, build_ops

    tracer = Tracer()

    def is_traced(index):
        return (index // len(ops)) % 2 == 1

    def run_op(index, op):
        if not is_traced(index):
            return op.run()
        tracer.install()
        try:
            return tracer.run_op(index, op.run)
        finally:
            tracer.uninstall()

    check = OutputCheck(workload, seed)
    durations, _trials, kernel_s = run_closed_loop(ops, seconds, check, Kernel(), run_op)
    attempted = len(durations)
    spent = {False: 0.0, True: 0.0}
    done = {False: 0, True: 0}
    # the overhead compares cycles run at different moments: rescale them
    for index, duration in enumerate(rescale(durations, kernel_s)):
        spent[is_traced(index)] += duration
        done[is_traced(index)] += ops[index % len(ops)].trials
    trials = done[True]

    utilization = inflation = 0.0
    report_bytes = 0.0
    if workload == "cli_compare":
        pool = Tracer()
        pooled = build_ops(workload, seed, OUT_DIR, workers=POOL_WORKERS)[0]
        pool.install()
        try:
            out = pool.run_op(0, pooled.run)
        finally:
            pool.uninstall()
        attempted += 1
        # the pooled report must repeat the serial one
        check(pooled.key, out)
        report_bytes = len(out)
        utilization = worker_utilization(pool.spans)
        inflation = mean_trial_ms(pool.spans) / mean_trial_ms(tracer.spans)

    layers = layer_metrics(tracer.spans, trials, report_bytes, utilization, inflation)
    untraced_tps = done[False] / spent[False]
    traced_tps = done[True] / spent[True]
    layers["trace.overhead_frac"] = untraced_tps / traced_tps - 1.0
    per_layer = layer_self_ms(tracer.spans)
    # the tracer's own counting is not part of an untraced op
    op_wall_ms = 1e3 * sum(s[3] - s[2] for s in tracer.spans if s[1] == "op")
    op_wall_ms -= per_layer.get(OVERHEAD_LAYER, 0.0)
    lines = [
        f"{attempted} ops, alternating untraced and traced cycles of {len(ops)}",
        f"  tracing overhead: untraced {untraced_tps:.3f} vs traced {traced_tps:.3f} trials/s "
        f"({100 * layers['trace.overhead_frac']:+.1f}%)",
        f"  layer self time as a share of op wall less the tracer's counting "
        f"({op_wall_ms / trials:.2f} ms per trial; shares of parallel threads add up):",
        *_share_lines(per_layer, op_wall_ms),
        *_split_lines(workload, layers, op_wall_ms / trials),
    ]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}.jsonl"
    tracer.write(spans_path, {"env": env_info(workload, seed), "metrics": layers})
    lines.append(f"  spans written to {spans_path.relative_to(ROOT)}")
    return attempted, check.problems, layers, lines


def main(argv=None) -> int:
    args = _parse_args(argv)
    seed = args.seed
    ops = set_up(args.workload, seed)
    if args.setup_probe:
        print(f"ready {time.monotonic()!r}", flush=True)
        return 0

    env = env_info(args.workload, seed)
    if args.trace:
        attempted, problems, layers, lines = _traced(args.workload, seed, ops, args.seconds)
        from tracer import UNITS as units

        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
        for line in lines:
            print(line)
        for name, value in layers.items():
            print(f"{name} {value!r} {units[name]}")
    else:
        attempted, problems, measured, wall = _end_to_end(args.workload, seed, ops, args.seconds)
        for name, (value, unit, note) in {**measured, **wall}.items():
            print(f"{name} {value!r} {unit}" + (f" ({note})" if note else ""))
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _n) in measured.items()}
    verified, verify_problems = verify_reference(args.workload)
    attempted += verified
    problems += verify_problems
    failed = len(problems)
    print(f"op_fail_frac {failed / attempted!r} ({failed} of {attempted} ops failed)")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
