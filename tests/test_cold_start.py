"""scipy stays off the engine's import path and loads only where a route needs it.

Ridge fits, the quantile rules, the closed-form weighted threshold and the
regularized general route need no scipy, so ``import mecp`` and every engine
run leave it unloaded. The LP and softmax routes import it on first use. Each case runs in a fresh
interpreter, because other test modules import scipy into this one.
"""

import json
import subprocess
import sys
import textwrap

import pytest

from mecp.evaluation import algorithm_names

# prints whether any scipy module is loaded, as the last line of output
REPORT_SCIPY = """
import sys as _sys
print(any(name.split(".")[0] == "scipy" for name in _sys.modules))
"""


def run_fresh(tmp_path, code: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + REPORT_SCIPY],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def scipy_loaded_after(tmp_path, code: str) -> bool:
    return run_fresh(tmp_path, code)[-1] == "True"


def write_config(tmp_path, algorithm: dict, **sections) -> str:
    doc = {
        "dataset": {"generator": {"n_per_env": 40, "p": 2, "outlier_frac": 0.2}},
        "algorithm": {"alpha": 0.2, "delta": 0.3, **algorithm},
        "plan": {"trials": 1, "train_envs": 6, "test_envs": 2, "seed": 5},
        **sections,
    }
    (tmp_path / "config.json").write_text(json.dumps(doc))
    return "config.json"


@pytest.mark.parametrize("module", ["mecp", "mecp.cli"])
def test_import_loads_no_scipy(tmp_path, module):
    assert not scipy_loaded_after(tmp_path, f"import {module}")


@pytest.mark.parametrize("name", algorithm_names())
def test_run_loads_no_scipy(tmp_path, name):
    config = write_config(tmp_path, {"name": name})
    code = f"""
        from mecp import cli
        assert cli.main(["run", "-c", {config!r}]) == 0
    """
    assert not scipy_loaded_after(tmp_path, code)
    assert (tmp_path / "report.json").is_file()


@pytest.mark.parametrize("method", ["weighted_split_conformal",
                                    "randomized_weighted_split_conformal"])
def test_weighted_compare_loads_no_scipy(tmp_path, method):
    config = write_config(
        tmp_path, {},
        compare={"method_a": "split_conformal", "method_b": method, "delta_grid": [0.1, 0.3]},
    )
    code = f"""
        from mecp import cli
        assert cli.main(["compare", "-c", {config!r}]) == 0
    """
    assert not scipy_loaded_after(tmp_path, code)
    assert "match" in json.loads((tmp_path / "report.json").read_text())


def test_regularized_general_route_loads_no_scipy(tmp_path):
    # [1, x_e] features at ridge 0.3 take the active set, not an LP
    code = """
        import numpy as np
        from mecp.weighted import dual_eta, randomized_threshold, weighted_threshold
        rng = np.random.default_rng(4)
        features = np.column_stack([np.ones(7), rng.normal(size=7)])
        scores = rng.normal(size=6)
        values = [weighted_threshold(scores, features, 0.4, 0.3),
                  randomized_threshold(scores, features, 0.4, rng, 0.3),
                  dual_eta(scores, features, 0.4, 0.3, 0.5).objective]
        assert np.isfinite(values).all()
    """
    assert not scipy_loaded_after(tmp_path, code)


# each route leaves its answer in ``values``; the random [1, x_e] features
# send both weighted thresholds down the general (LP) route at ridge 0
ROUTES = {
    "fit_pinball": """
        from mecp.predictors import fit_pinball
        x = rng.normal(size=(40, 2))
        values = fit_pinball(x, x @ [1.0, -0.5] + rng.normal(size=40), 0.9).theta
    """,
    "weighted_threshold": """
        from mecp.weighted import weighted_threshold
        features = np.column_stack([np.ones(7), rng.normal(size=7)])
        values = weighted_threshold(rng.normal(size=6), features, 0.4, 0.0)
    """,
    "randomized_threshold": """
        from mecp.weighted import randomized_threshold
        features = np.column_stack([np.ones(7), rng.normal(size=7)])
        values = randomized_threshold(rng.normal(size=6), features, 0.4, rng, 0.0)
    """,
    "fit_softmax": """
        from mecp.predictors import fit_softmax, multiclass_loss
        x = rng.normal(size=(60, 2))
        labels = (x[:, 0] > 0).astype(int) + (x[:, 1] > 0.5).astype(int)
        model = fit_softmax(x, labels, 3, tolerance=1e-4)
        values = multiclass_loss(labels, model.logits(x))
    """,
}


@pytest.mark.parametrize("route", list(ROUTES))
def test_scipy_routes_import_it_on_first_use(tmp_path, route):
    code = """
        import json
        import sys
        import numpy as np
        import mecp.cli
        assert not any(name.split(".")[0] == "scipy" for name in sys.modules)
        rng = np.random.default_rng(4)
    """ + ROUTES[route] + """
        print(json.dumps(np.ravel(values).tolist()))
    """
    *_, values, loaded = run_fresh(tmp_path, code)
    values = json.loads(values)
    assert values and all(abs(v) < float("inf") for v in values)
    assert loaded == "True"
