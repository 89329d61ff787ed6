"""End-to-end command line checks: exit codes, file formats, determinism."""

import hashlib
import json
import subprocess
import sys

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

    def test_invalid_gamma_is_a_config_error(self, tmp_path):
        doc = {
            "dataset": {"generator": {"m": 4, "n_per_env": 8, "p": 2}},
            "algorithm": {"name": "split_conformal", "alpha": 0.2, "gamma": 1.5},
        }
        proc = run_cli(tmp_path, "simulate", "-c", write_config(tmp_path, doc))
        assert proc.returncode == 2
        assert "gamma" in proc.stderr

    def test_needs_a_generator_source(self, tmp_path):
        doc = {"dataset": {"csv": "data.csv"}}
        proc = run_cli(tmp_path, "simulate", "-c", write_config(tmp_path, doc))
        assert proc.returncode == 2


class TestRun:
    def test_delta_sweep_emits_one_row_per_value(self, tmp_path):
        doc = run_doc(sweep={"param": "delta", "values": [0.1, 0.3, 0.6]})
        proc = run_cli(tmp_path, "run", "-c", write_config(tmp_path, doc))
        assert proc.returncode == 0
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

    def test_unknown_algorithm_is_a_config_error(self, tmp_path):
        doc = run_doc()
        doc["algorithm"]["name"] = "mystery_method"
        proc = run_cli(tmp_path, "run", "-c", write_config(tmp_path, doc))
        assert proc.returncode == 2
        assert "mystery_method" in proc.stderr

    def test_report_matches_library_rerun(self, tmp_path):
        doc = run_doc()
        proc = run_cli(tmp_path, "run", "-c", write_config(tmp_path, doc))
        assert proc.returncode == 0
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

    def test_non_numeric_sweep_value_is_a_config_error(self, tmp_path):
        doc = run_doc(sweep={"param": "delta", "values": [0.1, "x"]})
        proc = run_cli(tmp_path, "run", "-c", write_config(tmp_path, doc))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: sweep.values")

    def test_non_integer_counts_are_config_errors(self, tmp_path):
        doc = run_doc()
        doc["plan"]["trials"] = 2.5
        bad_sweep = run_doc(sweep={"param": "label_count", "values": [5, 2.7]})
        for bad in (doc, bad_sweep):
            proc = run_cli(tmp_path, "run", "-c", write_config(tmp_path, bad))
            assert proc.returncode == 2
            assert proc.stderr.startswith("error: ")
            assert "integer" in proc.stderr

    def test_runtime_failure_leaves_error_record(self, tmp_path):
        doc = run_doc()
        doc["algorithm"] = {
            "name": "resized_split_conformal",
            "alpha": 0.1,
            "label_count": 30,
        }
        proc = run_cli(tmp_path, "run", "-c", write_config(tmp_path, doc))
        assert proc.returncode == 1
        record = json.loads((tmp_path / "report.json").read_text())
        assert record["error"]["kind"] == "runtime_error"
        assert "resizing" in record["error"]["message"]

    def test_undefined_coverage_average_leaves_cell_empty(self, tmp_path):
        doc = run_doc()
        doc["dataset"] = {"generator": generator_section(n_per_env=5)}
        doc["algorithm"]["alpha"] = 0.1  # bar 6 of 5: never counted covered
        proc = run_cli(tmp_path, "run", "-c", write_config(tmp_path, doc))
        assert proc.returncode == 0
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

    def test_identical_methods_match_at_grid_max(self, tmp_path):
        doc = self.compare_doc(method_a="hcp", method_b="hcp")
        proc = run_cli(tmp_path, "compare", "-c", write_config(tmp_path, doc))
        assert proc.returncode == 0
        report = json.loads((tmp_path / "cmp.json").read_text())
        assert report["match"]["found"] is True
        assert report["match"]["delta"] == 0.6

    def test_empty_grid_is_a_config_error(self, tmp_path):
        doc = self.compare_doc(delta_grid=[])
        proc = run_cli(tmp_path, "compare", "-c", write_config(tmp_path, doc))
        assert proc.returncode == 2

    def test_malformed_grid_is_a_config_error(self, tmp_path):
        for grid in (0.3, ["x"]):
            doc = self.compare_doc(delta_grid=grid)
            proc = run_cli(tmp_path, "compare", "-c", write_config(tmp_path, doc))
            assert proc.returncode == 2
            assert proc.stderr.startswith("error: compare.delta_grid")

    def test_paired_trial_seeds_are_identical(self, tmp_path):
        doc = self.compare_doc()
        proc = run_cli(tmp_path, "compare", "-c", write_config(tmp_path, doc))
        assert proc.returncode == 0
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
    def test_missing_config_file(self, tmp_path):
        proc = run_cli(tmp_path, "run", "-c", "nope.json")
        assert proc.returncode == 2
        assert "cannot read config" in proc.stderr

    def test_invalid_json(self, tmp_path):
        (tmp_path / "broken.json").write_text("{not json")
        proc = run_cli(tmp_path, "run", "-c", "broken.json")
        assert proc.returncode == 2
        assert "not valid JSON" in proc.stderr

    def test_unknown_section_and_key(self, tmp_path):
        doc = run_doc()
        doc["extras"] = {}
        assert run_cli(tmp_path, "run", "-c", write_config(tmp_path, doc)).returncode == 2
        doc = run_doc()
        doc["algorithm"]["alpha_level"] = 0.1
        assert run_cli(tmp_path, "run", "-c", write_config(tmp_path, doc)).returncode == 2

    def test_exactly_one_dataset_source(self, tmp_path):
        doc = run_doc()
        doc["dataset"] = {"csv": "x.csv", "generator": generator_section()}
        assert run_cli(tmp_path, "run", "-c", write_config(tmp_path, doc)).returncode == 2
        doc["dataset"] = {}
        assert run_cli(tmp_path, "run", "-c", write_config(tmp_path, doc)).returncode == 2

    def test_run_requires_algorithm_section(self, tmp_path):
        doc = {"dataset": {"generator": generator_section()}}
        proc = run_cli(tmp_path, "run", "-c", write_config(tmp_path, doc))
        assert proc.returncode == 2
        assert "algorithm" in proc.stderr

    def test_missing_subcommand_is_usage_error(self, tmp_path):
        proc = run_cli(tmp_path)
        assert proc.returncode == 2
