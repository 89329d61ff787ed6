"""Tests of the benchmark itself: tracer targets, self time, output checks.

    python3 -m pytest bench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import run
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parents[1]


def test_every_tracer_target_resolves():
    assert len(tracer.resolve_targets()) == len(tracer.TARGETS)


def test_unresolvable_targets_are_named():
    bogus = (
        ("mecp.evaluation", "no_such_function", "evaluation.x"),
        ("mecp.no_such_module", "f", "data.y"),
        ("mecp.evaluation.NoSuchMapping", "predict_sets", "algorithms.predict_sets"),
    )
    with pytest.raises(tracer.UnresolvedTargetError) as err:
        tracer.Tracer(tracer.TARGETS + bogus)
    message = str(err.value)
    assert "mecp.evaluation.no_such_function" in message
    assert "mecp.no_such_module.f" in message
    assert "mecp.evaluation.NoSuchMapping.predict_sets" in message


def test_uninstall_restores_every_target():
    before = [getattr(owner, attr) for owner, attr, _fn, _n in tracer.resolve_targets()]
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    after = [getattr(owner, attr) for owner, attr, _fn, _n in tracer.resolve_targets()]
    assert all(a is b for a, b in zip(before, after))


def test_self_times_sum_to_root_duration_on_nested_tree():
    # [id, name, start, end, parent, op, attrs]
    spans = [
        [1, "op", 0.0, 10.0, None, 0, None],
        [2, "evaluation.run_trial", 0.5, 9.5, 1, 0, None],
        [3, "algorithms.fit", 1.0, 4.0, 2, 0, None],
        [4, "predictors.fit_ridge", 2.0, 3.0, 3, 0, None],
        [5, "algorithms.predict_sets", 5.0, 9.0, 2, 0, None],
        [6, "nested_sets.sets_at", 5.0, 6.5, 5, 0, None],
        [7, "quantiles.quant_plus", 7.0, 8.5, 5, 0, None],
    ]
    selfs = tracer.self_times(spans)
    assert [selfs[i] for i in range(1, 8)] == pytest.approx([1, 2, 2, 1, 1, 1.5, 1.5])
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert sum(tracer.layer_self_ms(spans).values()) == pytest.approx(10.0e3)


def test_overlapping_children_are_covered_once():
    # two pool threads whose trials overlap inside one run_trials span
    spans = [
        [1, "evaluation.run_trials", 5.0, 9.0, None, 0, None],
        [2, "evaluation.run_trial", 5.0, 7.0, 1, 0, None],
        [3, "evaluation.run_trial", 6.0, 8.5, 1, 0, None],
    ]
    assert tracer.self_times(spans)[1] == pytest.approx(0.5)
    spans[0][6] = {"workers": 2}
    assert tracer.worker_utilization(spans) == pytest.approx(4.5 / 8.0)


@pytest.mark.parametrize("workload", ["loo_refit", "split_wide"])
def test_layer_ms_fit_inside_a_real_op(workload, tmp_path):
    ops = workloads.build_ops(workload, 5, tmp_path)
    t = tracer.Tracer()
    t.install()
    try:
        for index, op in enumerate(ops[:3]):
            t.run_op(index, op.run)
    finally:
        t.uninstall()
    op_wall_ms = 1e3 * sum(s[3] - s[2] for s in t.spans if s[1] == "op")
    layers = tracer.layer_metrics(t.spans, 3, 0.0, 0.0, 0.0)
    layer_ms = sum(v for k, v in layers.items() if k.endswith("_ms"))
    assert 0.0 < layer_ms * 3 <= op_wall_ms
    assert sum(tracer.layer_self_ms(t.spans).values()) == pytest.approx(op_wall_ms)


def test_diff_compares_ints_exactly_and_floats_relatively():
    ref = {"n": 50, "found": True, "x": 1.0, "s": "inf", "v": [math.inf, 0.25]}
    assert workloads.diff(ref, dict(ref)) is None
    assert workloads.diff(ref, {**ref, "x": 1.0 + 5e-10}) is None
    assert "$.x" in workloads.diff(ref, {**ref, "x": 1.0 + 5e-9})
    assert "$.n" in workloads.diff(ref, {**ref, "n": 51})
    assert "$.found" in workloads.diff(ref, {**ref, "found": 1})
    assert "$.v[0]" in workloads.diff(ref, {**ref, "v": [1e308, 0.25]})


def test_rescale_cancels_a_change_in_host_speed():
    ref_s = hostspeed.KERNEL_REF_MS / 1e3
    # the host halves its speed during op 10: ops and kernel both take twice as long
    durations = [0.05] * 10 + [0.075] + [0.10] * 10
    kernel_s = [ref_s] * 11 + [2 * ref_s] * 11
    assert hostspeed.rescale(durations, kernel_s) == pytest.approx([0.05] * 21)
    # an op is rescaled by the mean of the kernel times just before and after it
    kernel_s[3] = 3 * ref_s
    assert hostspeed.rescale(durations, kernel_s)[2:4] == pytest.approx([0.025, 0.025])
    assert hostspeed.speed([2 * ref_s] * 3) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        hostspeed.rescale(durations, kernel_s[:-1])


def test_kernel_time_is_positive_and_leaves_gc_as_found():
    import gc

    kernel = hostspeed.Kernel()
    assert gc.isenabled()
    assert kernel.time() > 0.0
    assert gc.isenabled()


def test_tail_percentile_leaves_ten_ops_beyond():
    assert run.tail_percentile(412, 95.0) == 95.0
    assert run.tail_percentile(150, 95.0) == 90.0
    assert run.tail_percentile(5000, 75.0) == 75.0
    assert run.tail_percentile(15, 95.0) is None


def test_benchmark_json_names_the_code_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.UNITS
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS


def test_corrupted_reference_fails_the_command(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    (tmp_path / "src").symlink_to(BENCH_DIR.parent / "src")
    path = tmp_path / "bench" / "reference" / "split_wide.json"
    doc = json.loads(path.read_text())
    doc["outputs"]["hcp/0"][0]["covered_count"] += 1
    path.write_text(json.dumps(doc))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "split_wide", "--seed", "1",
         "--seconds", "0.2", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "hcp/0" in done.stdout


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "loo_refit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
