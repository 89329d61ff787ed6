"""End-to-end command line checks: exit codes, file formats, determinism."""

import argparse
import hashlib
import json
import subprocess
import sys
from dataclasses import fields

import pytest

from mecp.cli import ConfigError, build_config, main
from mecp.data import HierGenConfig
from mecp.evaluation import TrialPlan, run_trials

SWEEP_HEADER = "param,value,emp_one_minus_delta,emp_one_minus_alpha,emp_set_length"


def run_cli(tmp_path, *argv):
    return subprocess.run(
        [sys.executable, "-m", "mecp", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )


def main_in_process(capsys, *argv):
    """``mecp`` run by ``cli.main`` in the current directory: (exit code, stderr)."""
    code = main(list(argv))
    return code, capsys.readouterr().err


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return name


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generator_section(**overrides):
    section = {"n_per_env": 15, "p": 2}
    section.update(overrides)
    return section


def run_doc(**overrides):
    doc = {
        "dataset": {"generator": generator_section()},
        "algorithm": {"name": "split_conformal", "alpha": 0.2, "delta": 0.3},
        "plan": {"trials": 3, "train_envs": 6, "test_envs": 2, "seed": 9},
        "output": {"report": "report.json", "sweep_csv": "sweep.csv"},
    }
    doc.update(overrides)
    return doc


def build_plan(doc):
    args = argparse.Namespace(seed=None, workers=None, report=None, sweep_csv=None)
    return build_config(doc, args, "run").plan


class TestSimulate:
    def test_writes_one_row_per_observation(self, tmp_path):
        doc = {
            "dataset": {"generator": {"m": 4, "n_per_env": 12, "p": 3, "seed": 5}},
            "output": {"dataset_csv": "data.csv"},
        }
        proc = run_cli(tmp_path, "simulate", "-c", write_config(tmp_path, doc))
        assert proc.returncode == 0
        lines = (tmp_path / "data.csv").read_text().splitlines()
        assert lines[0] == "env_id,y,x_1,x_2,x_3"
        assert len(lines) == 1 + 4 * 12
        assert {line.split(",")[0] for line in lines[1:]} == {
            "env0",
            "env1",
            "env2",
            "env3",
        }

    def test_same_seed_same_bytes_new_seed_new_bytes(self, tmp_path):
        doc = {"dataset": {"generator": {"m": 3, "n_per_env": 8, "p": 2, "seed": 5}}}
        cfg = write_config(tmp_path, doc)
        assert run_cli(tmp_path, "simulate", "-c", cfg, "--out", "a.csv").returncode == 0
        assert run_cli(tmp_path, "simulate", "-c", cfg, "--out", "b.csv").returncode == 0
        assert run_cli(
            tmp_path, "simulate", "-c", cfg, "--out", "c.csv", "--seed", "99"
        ).returncode == 0
        assert sha(tmp_path / "a.csv") == sha(tmp_path / "b.csv")
        assert sha(tmp_path / "a.csv") != sha(tmp_path / "c.csv")

    def test_invalid_gamma_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        doc = {
            "dataset": {"generator": {"m": 4, "n_per_env": 8, "p": 2}},
            "algorithm": {"name": "split_conformal", "alpha": 0.2, "gamma": 1.5},
        }
        code, err = main_in_process(capsys, "simulate", "-c", write_config(tmp_path, doc))
        assert code == 2
        assert "gamma" in err

    def test_needs_a_generator_source(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        doc = {"dataset": {"csv": "data.csv"}}
        assert main_in_process(capsys, "simulate", "-c", write_config(tmp_path, doc))[0] == 2


class TestRun:
    def test_delta_sweep_emits_one_row_per_value(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        doc = run_doc(sweep={"param": "delta", "values": [0.1, 0.3, 0.6]})
        code, _ = main_in_process(capsys, "run", "-c", write_config(tmp_path, doc))
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 4
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["delta", "0.1"],
            ["delta", "0.3"],
            ["delta", "0.6"],
        ]
        report = json.loads((tmp_path / "report.json").read_text())
        assert [p["value"] for p in report["sweep"]["points"]] == [0.1, 0.3, 0.6]

    def test_unknown_algorithm_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        doc = run_doc()
        doc["algorithm"]["name"] = "mystery_method"
        code, err = main_in_process(capsys, "run", "-c", write_config(tmp_path, doc))
        assert code == 2
        assert "mystery_method" in err

    def test_report_matches_library_rerun(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        doc = run_doc()
        code, _ = main_in_process(capsys, "run", "-c", write_config(tmp_path, doc))
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())

        plan = TrialPlan(
            generator=HierGenConfig(m=8, n_per_env=15, p=2, seed=0),
            algorithm="split_conformal",
            trials=3,
            train_envs=6,
            test_envs=2,
            alpha=0.2,
            delta=0.3,
            seed=9,
        )
        again = run_trials(plan)
        assert report["aggregates"]["empirical_one_minus_delta"] == (
            again.empirical_one_minus_delta
        )
        assert report["aggregates"]["empirical_set_length"] == again.empirical_set_length
        assert [r["covered_count"] for r in report["records"]] == [
            r.covered_count for r in again.records
        ]

    def test_worker_count_leaves_bytes_unchanged(self, tmp_path):
        cfg = write_config(tmp_path, run_doc(sweep={"param": "delta", "values": [0.2, 0.5]}))
        for workers, report, sweep in (("1", "r1.json", "s1.csv"), ("3", "r2.json", "s2.csv")):
            proc = run_cli(
                tmp_path, "run", "-c", cfg,
                "--workers", workers, "--report", report, "--sweep-csv", sweep,
            )
            assert proc.returncode == 0
        assert sha(tmp_path / "r1.json") == sha(tmp_path / "r2.json")
        assert sha(tmp_path / "s1.csv") == sha(tmp_path / "s2.csv")

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, run_doc())
        assert run_cli(tmp_path, "run", "-c", cfg, "--report", "a.json").returncode == 0
        assert run_cli(
            tmp_path, "run", "-c", cfg, "--report", "b.json", "--seed", "9"
        ).returncode == 0
        assert run_cli(
            tmp_path, "run", "-c", cfg, "--report", "c.json", "--seed", "10"
        ).returncode == 0
        # the flag value matching the config seed reproduces the same bytes
        assert sha(tmp_path / "a.json") == sha(tmp_path / "b.json")
        a = json.loads((tmp_path / "a.json").read_text())
        c = json.loads((tmp_path / "c.json").read_text())
        assert a["records"] != c["records"]

    def test_csv_dataset_single_trial(self, tmp_path):
        sim = {
            "dataset": {"generator": {"m": 5, "n_per_env": 12, "p": 2, "seed": 1}},
            "output": {"dataset_csv": "data.csv"},
        }
        assert run_cli(tmp_path, "simulate", "-c", write_config(tmp_path, sim, "sim.json")).returncode == 0
        doc = {
            "dataset": {"csv": "data.csv"},
            "algorithm": {"name": "jackknife_minmax", "alpha": 0.2, "delta": 0.3},
            "plan": {"trials": 1, "train_envs": 4, "test_envs": 1, "seed": 2},
        }
        cfg = write_config(tmp_path, doc, "run.json")
        assert run_cli(tmp_path, "run", "-c", cfg, "--report", "a.json").returncode == 0
        assert run_cli(tmp_path, "run", "-c", cfg, "--report", "b.json").returncode == 0
        a = json.loads((tmp_path / "a.json").read_text())
        assert a["plan"]["generator"] is None
        assert len(a["records"]) == 1
        assert a["records"] == json.loads((tmp_path / "b.json").read_text())["records"]

        doc["plan"]["trials"] = 2
        proc = run_cli(tmp_path, "run", "-c", write_config(tmp_path, doc, "bad.json"))
        assert proc.returncode == 2

    def test_non_numeric_sweep_value_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        doc = run_doc(sweep={"param": "delta", "values": [0.1, "x"]})
        code, err = main_in_process(capsys, "run", "-c", write_config(tmp_path, doc))
        assert code == 2
        assert err.startswith("error: sweep.values")

    def test_bool_sweep_value_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        doc = run_doc(sweep={"param": "gamma", "values": [False, True]})
        code, err = main_in_process(capsys, "run", "-c", write_config(tmp_path, doc))
        assert code == 2
        assert err.startswith("error: sweep.values")
        assert not (tmp_path / "sweep.csv").exists()

    def test_non_integer_counts_are_config_errors(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        doc = run_doc()
        doc["plan"]["trials"] = 2.5
        bad_sweep = run_doc(sweep={"param": "label_count", "values": [5, 2.7]})
        for bad in (doc, bad_sweep):
            code, err = main_in_process(capsys, "run", "-c", write_config(tmp_path, bad))
            assert code == 2
            assert err.startswith("error: ")
            assert "integer" in err

    def test_bad_seed_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for seed in ("x", 1.5, -1, True):
            doc = run_doc()
            doc["plan"]["seed"] = seed
            code, err = main_in_process(capsys, "run", "-c", write_config(tmp_path, doc))
            assert code == 2, seed
            assert err.startswith("error: seed must be")
            assert not (tmp_path / "report.json").exists()
        cfg = write_config(tmp_path, run_doc())
        code, err = main_in_process(capsys, "run", "-c", cfg, "--seed", "-1")
        assert code == 2
        assert err.startswith("error: seed must be nonnegative")

    def test_bool_workers_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        doc = run_doc()
        doc["plan"]["workers"] = True
        code, err = main_in_process(capsys, "run", "-c", write_config(tmp_path, doc))
        assert code == 2
        assert err.startswith("error: workers")

    def test_non_positive_workers_are_config_errors(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        # the flag is ignored, but a value that could never run is still refused
        cfg = write_config(tmp_path, run_doc())
        for command, workers in (("run", "0"), ("compare", "-1")):
            code, err = main_in_process(capsys, command, "-c", cfg, "--workers", workers)
            assert code == 2, (command, workers)
            assert err.startswith("error: workers")
        doc = run_doc()
        doc["plan"]["workers"] = 0
        code, err = main_in_process(capsys, "run", "-c", write_config(tmp_path, doc))
        assert code == 2
        assert err.startswith("error: workers")
        assert not (tmp_path / "report.json").exists()

    def test_non_integer_generator_counts_are_config_errors(self, tmp_path, monkeypatch, capsys):
        cases = [
            ("simulate", {"m": 4, "p": 2.5}),
            ("simulate", {"m": 2.5}),
            ("simulate", {"m": True}),
            ("simulate", {"m": 4, "n_per_env": [2, 4.5]}),
            ("run", {"p": 2.5}),
        ]
        monkeypatch.chdir(tmp_path)
        for command, fields in cases:
            doc = run_doc()
            doc["dataset"] = {"generator": generator_section(**fields)}
            code, err = main_in_process(capsys, command, "-c", write_config(tmp_path, doc))
            assert code == 2, fields
            assert err.startswith("error: bad generator config"), err
            assert "integer" in err
        assert not (tmp_path / "dataset.csv").exists()
        assert not (tmp_path / "report.json").exists()

    def test_non_finite_generator_scales_are_config_errors(self, tmp_path, monkeypatch, capsys):
        # json reads NaN and Infinity; a scale holding one is refused by name
        cases = [
            ("simulate", {"m": 4, "noise_scale": float("nan")}, "noise_scale"),
            ("run", {"env_effect_scale": float("inf")}, "env_effect_scale"),
            ("run", {"outlier_noise_multiplier": float("inf")}, "outlier_noise_multiplier"),
            ("run", {"beta": [1.0, float("-inf")]}, "beta"),
        ]
        monkeypatch.chdir(tmp_path)
        for command, fields, name in cases:
            doc = run_doc()
            doc["dataset"] = {"generator": generator_section(**fields)}
            code, err = main_in_process(capsys, command, "-c", write_config(tmp_path, doc))
            assert code == 2, fields
            assert err.startswith("error: bad generator config"), err
            assert name in err and "finite" in err
        assert not (tmp_path / "dataset.csv").exists()
        assert not (tmp_path / "report.json").exists()

    def test_runtime_failure_leaves_error_record(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        doc = run_doc()
        doc["algorithm"] = {
            "name": "resized_split_conformal",
            "alpha": 0.1,
            "label_count": 30,
        }
        code, _ = main_in_process(capsys, "run", "-c", write_config(tmp_path, doc))
        assert code == 1
        record = json.loads((tmp_path / "report.json").read_text())
        assert record["error"]["kind"] == "runtime_error"
        assert "resizing" in record["error"]["message"]

    def test_fit_failure_names_trial_and_left_out_environment(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        # at lambda = 0 every leave-one-out pool of 4 rows interpolates p = 3
        doc = run_doc()
        doc["dataset"] = {"generator": generator_section(n_per_env=2, p=3)}
        doc["algorithm"] = {"name": "hier_jackknife_plus", "alpha": 0.2, "ridge_grid": [0.0]}
        doc["plan"].update(train_envs=3, test_envs=1)
        code, err = main_in_process(capsys, "run", "-c", write_config(tmp_path, doc))
        assert code == 1
        message = "trial 0: left-out environment env0: no usable penalty in grid"
        assert err.strip() == f"error: {message}"
        error = json.loads((tmp_path / "report.json").read_text())["error"]
        assert error["kind"] == "fit_failure"
        assert error["message"] == message
        assert error["details"]["trial"] == 0
        assert error["details"]["left_out_env"] == "env0"

    def test_undefined_coverage_average_leaves_cell_empty(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        doc = run_doc()
        doc["dataset"] = {"generator": generator_section(n_per_env=5)}
        doc["algorithm"]["alpha"] = 0.1  # bar 6 of 5: never counted covered
        code, _ = main_in_process(capsys, "run", "-c", write_config(tmp_path, doc))
        assert code == 0
        row = (tmp_path / "sweep.csv").read_text().splitlines()[1]
        assert row.split(",")[2] == "0.0"
        assert row.split(",")[3] == ""


class TestCompare:
    def compare_doc(self, **kwargs):
        doc = {
            "dataset": {"generator": generator_section()},
            "algorithm": {"alpha": 0.2},
            "plan": {"trials": 3, "train_envs": 8, "test_envs": 2, "seed": 4},
            "compare": {
                "method_a": "split_conformal",
                "method_b": "hcp",
                "delta_grid": [0.1, 0.3, 0.6],
            },
            "output": {"report": "cmp.json"},
        }
        doc["compare"].update(kwargs)
        return doc

    def test_identical_methods_match_at_grid_max(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        doc = self.compare_doc(method_a="hcp", method_b="hcp")
        code, _ = main_in_process(capsys, "compare", "-c", write_config(tmp_path, doc))
        assert code == 0
        report = json.loads((tmp_path / "cmp.json").read_text())
        assert report["match"]["found"] is True
        assert report["match"]["delta"] == 0.6

    def test_empty_grid_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        doc = self.compare_doc(delta_grid=[])
        code, _ = main_in_process(capsys, "compare", "-c", write_config(tmp_path, doc))
        assert code == 2

    def test_malformed_grid_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        # out of (0, 1) or not strictly ascending: the grid check, not a run, refuses it
        for grid in (0.3, ["x"], [0.1, True], ["0.3"], [0.1, 1.5], [0.0, 0.5], [0.3, 0.3],
                     [0.6, 0.1]):
            doc = self.compare_doc(delta_grid=grid)
            code, err = main_in_process(capsys, "compare", "-c", write_config(tmp_path, doc))
            assert code == 2
            assert err.startswith("error: compare.delta_grid")
            assert not (tmp_path / "cmp.json").exists()

    def test_paired_trial_seeds_are_identical(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        doc = self.compare_doc()
        code, _ = main_in_process(capsys, "compare", "-c", write_config(tmp_path, doc))
        assert code == 0
        report = json.loads((tmp_path / "cmp.json").read_text())
        assert len(report["method_a"]["trial_seeds"]) == 3
        assert report["method_a"]["trial_seeds"] == report["method_b"]["trial_seeds"]
        assert len(report["match"]["candidate_fractions"]) == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, self.compare_doc())
        assert run_cli(tmp_path, "compare", "-c", cfg, "--report", "a.json").returncode == 0
        assert run_cli(tmp_path, "compare", "-c", cfg, "--report", "b.json", "--workers", "2").returncode == 0
        assert sha(tmp_path / "a.json") == sha(tmp_path / "b.json")


class TestConfigValidation:
    def test_missing_config_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, err = main_in_process(capsys, "run", "-c", "nope.json")
        assert code == 2
        assert "cannot read config" in err

    def test_invalid_json(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "broken.json").write_text("{not json")
        code, err = main_in_process(capsys, "run", "-c", "broken.json")
        assert code == 2
        assert "not valid JSON" in err

    def test_unknown_section_and_key(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        doc = run_doc()
        doc["extras"] = {}
        assert main_in_process(capsys, "run", "-c", write_config(tmp_path, doc))[0] == 2
        doc = run_doc()
        doc["algorithm"]["alpha_level"] = 0.1
        assert main_in_process(capsys, "run", "-c", write_config(tmp_path, doc))[0] == 2

    def test_exactly_one_dataset_source(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        doc = run_doc()
        doc["dataset"] = {"csv": "x.csv", "generator": generator_section()}
        assert main_in_process(capsys, "run", "-c", write_config(tmp_path, doc))[0] == 2
        doc["dataset"] = {}
        assert main_in_process(capsys, "run", "-c", write_config(tmp_path, doc))[0] == 2

    @pytest.mark.parametrize("section, key", [
        ("algorithm", "ridge_weight"), ("algorithm", "ridge_grid"), ("generator", "noise_scale"),
        ("generator", "outlier_frac"), ("plan", "clip"), ("generator", "beta"),
    ])
    def test_bool_in_a_float_field_is_a_config_error(
        self, tmp_path, monkeypatch, capsys, section, key
    ):
        monkeypatch.chdir(tmp_path)
        doc = run_doc()
        target = doc["dataset"]["generator"] if section == "generator" else doc[section]
        bad = {"ridge_grid": [0.5, True], "clip": ["-1", True], "beta": [True, "2.5"]}
        target[key] = bad.get(key, True)
        code, err = main_in_process(capsys, "run", "-c", write_config(tmp_path, doc))
        assert code == 2, err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command, section, key, field", [
        ("run", "algorithm", "alpha", "alpha"), ("run", "algorithm", "delta", "delta"),
        ("run", "algorithm", "gamma", "gamma"), ("run", "algorithm", "alpha0", "alpha0"),
        ("run", "algorithm", "ridge_weight", "ridge_weight"),
        ("run", "algorithm", "ridge_grid", "ridge_grid"), ("run", "plan", "clip", "clip"),
        ("run", "sweep", "values", "sweep.values"), ("run", "generator", "beta", "beta"),
        ("run", "generator", "env_effect_scale", "env_effect_scale"),
        ("run", "generator", "noise_scale", "noise_scale"),
        ("run", "generator", "outlier_frac", "outlier_frac"),
        ("run", "generator", "outlier_noise_multiplier", "outlier_noise_multiplier"),
        ("compare", "compare", "delta_grid", "compare.delta_grid"),
    ])
    def test_number_too_large_for_a_float_is_a_config_error(
        self, tmp_path, monkeypatch, capsys, command, section, key, field
    ):
        monkeypatch.chdir(tmp_path)
        huge = 10**400
        doc = run_doc(sweep={"param": "delta", "values": [0.1]},
                      compare={"method_a": "hcp", "method_b": "hcp", "delta_grid": [0.1]})
        if command == "compare":
            del doc["sweep"]
        else:
            del doc["compare"]
        target = doc["dataset"]["generator"] if section == "generator" else doc[section]
        lists = {"ridge_grid": [0.5, huge], "clip": [-1.0, huge], "beta": [huge, 1.0],
                 "values": [0.1, huge], "delta_grid": [0.1, huge]}
        target[key] = lists.get(key, huge)
        code, err = main_in_process(capsys, command, "-c", write_config(tmp_path, doc))
        assert code == 2, err
        assert err.startswith("error: ") and field in err
        assert "too large for a float" in err and len(err) < 200
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "sweep.csv").exists()

    def test_integer_and_float_values_write_the_same_report(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        def doc(one, zero):
            d = run_doc(dataset={"generator": generator_section(
                beta=[one, 2 * one], env_effect_scale=one, noise_scale=one, outlier_frac=zero,
                outlier_noise_multiplier=3 * one)})
            d["algorithm"].update(name="weighted_split_conformal", ridge_weight=zero,
                                  ridge_grid=[one, 10 * one])
            d["plan"]["clip"] = [-10 * one, 10 * one]
            return d

        for name, one, zero in (("int.json", 1, 0), ("float.json", 1.0, 0.0)):
            cfg = write_config(tmp_path, doc(one, zero), name)
            code, err = main_in_process(capsys, "run", "-c", cfg, "--report", "r_" + name)
            assert code == 0, err
        assert sha(tmp_path / "r_int.json") == sha(tmp_path / "r_float.json")

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("weight", [0.01, 0.3])
    def test_positive_ridge_weight_is_a_config_error(
        self, tmp_path, monkeypatch, capsys, command, weight
    ):
        monkeypatch.chdir(tmp_path)
        doc = run_doc(compare={"method_a": "weighted_split_conformal",
                               "method_b": "split_conformal", "delta_grid": [0.1, 0.3]})
        doc["algorithm"].update(name="weighted_split_conformal", ridge_weight=weight)
        code, err = main_in_process(capsys, command, "-c", write_config(tmp_path, doc))
        assert code == 2, err
        assert err.startswith("error: ridge_weight must be 0")
        assert not (tmp_path / "report.json").exists()
        doc["algorithm"]["ridge_weight"] = 0
        doc["sweep"] = {"param": "ridge_weight", "values": [0.0, weight]}
        code, err = main_in_process(capsys, "run", "-c", write_config(tmp_path, doc))
        assert code == 2 and err.startswith("error: sweep.param must be one of")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("plan", "clip", 5, "clip must be a list of numbers, got 5"),
        ("algorithm", "ridge_grid", 5, "ridge_grid must be a list of numbers, got 5"),
        ("generator", "beta", 5, "beta must be a list of numbers, got 5"),
        ("plan", "clip", [1, 2, 3], r"clip must be a finite \(lo, hi\) pair"),
    ])
    def test_a_field_of_the_wrong_shape_is_named(self, section, key, value, message):
        doc = run_doc()
        target = doc["dataset"]["generator"] if section == "generator" else doc[section]
        target[key] = value
        with pytest.raises(ValueError, match=message):
            build_plan(doc)

    @pytest.mark.parametrize("key", ["alpha", "delta"])
    def test_string_probability_is_a_config_error(self, tmp_path, monkeypatch, capsys, key):
        monkeypatch.chdir(tmp_path)
        doc = run_doc()
        doc["algorithm"][key] = str(doc["algorithm"][key])
        code, err = main_in_process(capsys, "run", "-c", write_config(tmp_path, doc))
        assert code == 2, err
        assert err.startswith("error: ") and key in err
        assert not (tmp_path / "report.json").exists()

    def test_run_requires_algorithm_section(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        doc = {"dataset": {"generator": generator_section()}}
        code, err = main_in_process(capsys, "run", "-c", write_config(tmp_path, doc))
        assert code == 2
        assert "algorithm" in err

    def test_generator_takes_every_config_field(self):
        section = {
            "m": 99, "n_per_env": [10, 20], "p": 2, "beta": [1.0, -0.5],
            "env_effect_scale": 0.5, "noise_scale": 2.0, "outlier_frac": 0.1,
            "outlier_noise_multiplier": 3.0, "seed": 4,
        }
        assert set(section) == {f.name for f in fields(HierGenConfig)}
        plan = build_plan(run_doc(dataset={"generator": section}))
        assert plan.generator == HierGenConfig(**{**section, "m": 8})
        section["noise"] = 1.0
        with pytest.raises(ConfigError, match=r"unknown generator fields: \['noise'\]"):
            build_plan(run_doc(dataset={"generator": section}))

    def test_omitted_keys_take_trial_plan_defaults(self):
        generator = HierGenConfig(m=8, n_per_env=15, p=2)
        required = dict(generator=generator, algorithm="split_conformal", trials=3,
                        train_envs=6, test_envs=2, alpha=0.2)
        doc = run_doc(algorithm={"name": "split_conformal", "alpha": 0.2})
        del doc["plan"]["seed"]
        assert build_plan(doc) == TrialPlan(**required)
        options = {"delta": 0.3, "gamma": 0.4, "alpha0": 0.1, "label_count": 5,
                   "ridge_grid": [0, 1], "ridge_weight": 0, "feature_map": "constant"}
        doc["algorithm"].update(options)
        doc["plan"].update(clip=[-1, 4], rule="fraction", seed=9)
        assert build_plan(doc) == TrialPlan(**required, **options, clip=(-1, 4),
                                             rule="fraction", seed=9)

    def test_missing_subcommand_is_usage_error(self, tmp_path):
        proc = run_cli(tmp_path)
        assert proc.returncode == 2
