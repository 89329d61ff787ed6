"""No scipy module loads on any library route.

``import mecp``, ``mecp simulate``, every engine run, a run on a CSV dataset,
a weighted ``compare`` and the softmax routes run in order in one fresh
interpreter, because other test modules import scipy into this one.
``sys.modules`` is read after each step, and each case checks its own step;
a failure names the first step that loaded scipy. A static scan covers the
modules' routes that no step runs.
"""

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import mecp
from mecp.evaluation import algorithm_names

WEIGHTED_METHODS = ("weighted_split_conformal", "randomized_weighted_split_conformal")
SOFTMAX_ROUTES = ("multiclass_loss", "fit_softmax")


def write_config(tmp_path, name: str, algorithm: dict, dataset=None, **sections) -> str:
    doc = {
        "dataset": dataset or {"generator": {"n_per_env": 40, "p": 2, "outlier_frac": 0.2}},
        "algorithm": {"alpha": 0.2, "delta": 0.3, **algorithm},
        "plan": {"trials": 1, "train_envs": 6, "test_envs": 2, "seed": 5},
        "output": {"report": f"{name}.json", "dataset_csv": f"{name}.csv"},
        **sections,
    }
    (tmp_path / f"{name}.config.json").write_text(json.dumps(doc))
    return f"{name}.config.json"


def cli_step(config: str, command: str) -> str:
    return f"""
        from mecp import cli
        assert cli.main([{command!r}, "-c", {config!r}]) == 0
    """


SOFTMAX_STEPS = {
    "multiclass_loss": """
        import numpy as np
        from mecp.predictors import multiclass_loss
        logits = np.random.default_rng(4).normal(size=(30, 3)) * 50.0
        assert np.isfinite(multiclass_loss(np.arange(30) % 3, logits)).all()
    """,
    "fit_softmax": """
        import numpy as np
        from mecp.predictors import fit_softmax, multiclass_loss
        rng = np.random.default_rng(4)
        x = rng.normal(size=(60, 2))
        labels = (x[:, 0] > 0).astype(int) + (x[:, 1] > 0.5).astype(int)
        model = fit_softmax(x, labels, 3, tolerance=1e-4)
        assert np.isfinite(multiclass_loss(labels, model.logits(x))).all()
    """,
}

# runs each step and prints, as JSON, whether a scipy module is loaded after each
RUNNER = """
import json, sys
loaded = []
for label, code in json.loads(sys.argv[1]):
    exec(code, {})
    loaded.append((label, any(name.split(".")[0] == "scipy" for name in sys.modules)))
print(json.dumps(loaded))
"""


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """The run's directory and, per step label in run order, whether scipy was loaded after it."""
    tmp_path = tmp_path_factory.mktemp("cold_start")
    steps = [("import mecp", "import mecp"), ("import mecp.cli", "import mecp.cli")]
    config = write_config(tmp_path, "simulate", {"name": "split_conformal"}, dataset={
        "generator": {"m": 8, "n_per_env": 40, "p": 2, "outlier_frac": 0.2}})
    steps.append(("mecp simulate", cli_step(config, "simulate")))
    config = write_config(tmp_path, "csv_run", {"name": "split_conformal"},
                          dataset={"csv": "simulate.csv"})
    steps.append(("mecp run on a csv dataset", cli_step(config, "run")))
    for name in algorithm_names():
        config = write_config(tmp_path, name, {"name": name})
        steps.append((f"mecp run {name}", cli_step(config, "run")))
    for method in WEIGHTED_METHODS:
        config = write_config(tmp_path, f"compare_{method}", {}, compare={
            "method_a": "split_conformal", "method_b": method, "delta_grid": [0.1, 0.3]})
        steps.append((f"mecp compare {method}", cli_step(config, "compare")))
    steps += list(SOFTMAX_STEPS.items())
    # the module-scoped run misses conftest's per-test PYTHONPATH fixture, so it
    # puts the tested mecp tree first itself
    paths = [str(Path(mecp.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, json.dumps([(label, textwrap.dedent(code))
                                                   for label, code in steps])],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return tmp_path, dict(json.loads(proc.stdout.splitlines()[-1]))


def assert_no_scipy_after(loaded: dict, label: str):
    assert label in loaded
    first = next((step for step, hit in loaded.items() if hit), None)
    assert not loaded[label], f"scipy is loaded after {label!r}; {first!r} loaded it first"


@pytest.mark.parametrize("module", ["mecp", "mecp.cli"])
def test_import_loads_no_scipy(cold_run, module):
    assert_no_scipy_after(cold_run[1], f"import {module}")


def test_simulate_loads_no_scipy(cold_run):
    tmp_path, loaded = cold_run
    assert_no_scipy_after(loaded, "mecp simulate")
    assert (tmp_path / "simulate.csv").is_file()


def test_csv_run_loads_no_scipy(cold_run):
    tmp_path, loaded = cold_run
    assert_no_scipy_after(loaded, "mecp run on a csv dataset")
    assert (tmp_path / "csv_run.json").is_file()


@pytest.mark.parametrize("name", algorithm_names())
def test_run_loads_no_scipy(cold_run, name):
    tmp_path, loaded = cold_run
    assert_no_scipy_after(loaded, f"mecp run {name}")
    assert (tmp_path / f"{name}.json").is_file()


@pytest.mark.parametrize("method", WEIGHTED_METHODS)
def test_weighted_compare_loads_no_scipy(cold_run, method):
    tmp_path, loaded = cold_run
    assert_no_scipy_after(loaded, f"mecp compare {method}")
    assert "match" in json.loads((tmp_path / f"compare_{method}.json").read_text())


@pytest.mark.parametrize("route", SOFTMAX_ROUTES)
def test_softmax_loads_no_scipy(cold_run, route):
    assert_no_scipy_after(cold_run[1], route)


def test_no_module_imports_scipy():
    for path in sorted(Path(mecp.__file__).parent.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            assert not re.match(r"\s*(import|from)\s+scipy\b", line), f"{path.name}:{number}: {line}"
