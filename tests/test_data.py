from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from mecp.data import (
    EnvironmentSample,
    HierGenConfig,
    MultiEnvDataset,
    ParseError,
    generate_hierarchical,
    holdout_labels,
    load_csv,
    split_environments,
    write_csv,
)


def _toy_dataset(m=3, n=4, p=2, seed=0):
    rng = np.random.default_rng(seed)
    envs = tuple(
        EnvironmentSample(f"e{i}", rng.normal(size=(n, p)), rng.normal(size=n))
        for i in range(m)
    )
    return MultiEnvDataset(envs)


class TestContainers:
    def test_environment_validation(self):
        with pytest.raises(ValueError):
            EnvironmentSample("a", np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            EnvironmentSample("a", np.zeros((3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            EnvironmentSample("a", np.array([[np.inf, 0.0]]), np.zeros(1))

    def test_dataset_validation(self):
        e1 = EnvironmentSample("a", np.zeros((2, 2)), np.zeros(2))
        e2 = EnvironmentSample("b", np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            MultiEnvDataset((e1, e2))
        with pytest.raises(ValueError):
            MultiEnvDataset((e1, e1))
        with pytest.raises(ValueError):
            MultiEnvDataset(())

    def test_classification_labels_checked(self):
        e = EnvironmentSample("a", np.zeros((3, 1)), np.array([0, 1, 2]))
        MultiEnvDataset((e,), outcome="classification", n_classes=3)
        with pytest.raises(ValueError):
            MultiEnvDataset((e,), outcome="classification", n_classes=2)
        bad = EnvironmentSample("a", np.zeros((2, 1)), np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            MultiEnvDataset((bad,), outcome="classification", n_classes=2)


class TestCsvRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        ds = _toy_dataset(m=4, n=7, p=3, seed=11)
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        back = load_csv(path)
        assert [e.env_id for e in back.environments] == [e.env_id for e in ds.environments]
        for a, b in zip(ds.environments, back.environments):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.y, b.y)

    def test_write_is_deterministic(self, tmp_path):
        ds = _toy_dataset(seed=5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(ds, p1)
        write_csv(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_error_line_1(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,y,x_1\na,1.0,2.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == 1

    def test_non_numeric_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("env_id,y,x_1\na,1.0,2.0\na,oops,3.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == 3

    def test_ragged_row_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("env_id,y,x_1,x_2\na,1.0,2.0,3.0\na,1.0,2.0\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.line == 3

    def test_groups_preserve_first_appearance_order(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "env_id,y,x_1\n"
            "b,1.0,0.0\n"
            "a,2.0,0.0\n"
            "b,3.0,0.0\n"
        )
        ds = load_csv(path)
        assert [e.env_id for e in ds.environments] == ["b", "a"]
        assert np.array_equal(ds.environments[0].y, [1.0, 3.0])


class TestGenerator:
    def test_seed_determinism(self):
        cfg = HierGenConfig(m=3, n_per_env=5, p=2, seed=42)
        d1 = generate_hierarchical(cfg)
        d2 = generate_hierarchical(cfg)
        for a, b in zip(d1.environments, d2.environments):
            assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        d3 = generate_hierarchical(HierGenConfig(m=3, n_per_env=5, p=2, seed=43))
        assert not np.array_equal(d1.environments[0].y, d3.environments[0].y)

    def test_seed_must_be_a_nonnegative_integer(self):
        for seed in (-1, 2.5, "3", True):
            with pytest.raises(ValueError, match="seed"):
                HierGenConfig(m=2, n_per_env=3, p=1, seed=seed)
        cfg = HierGenConfig(m=2, n_per_env=3, p=1, seed=np.int64(5))
        assert type(cfg.seed) is int and cfg.seed == 5

    def test_counts_must_be_integers(self):
        # floats are refused, not truncated; bools are not counts
        for bad in (
            dict(m=2.5), dict(p=2.5), dict(m=True), dict(p=True),
            dict(n_per_env=4.5), dict(n_per_env=True),
            dict(n_per_env=(2, 4.5)), dict(n_per_env=[2.0, 4]), dict(n_per_env=(True, 4)),
        ):
            with pytest.raises(ValueError, match="integer"):
                HierGenConfig(**{"m": 2, "n_per_env": 3, "p": 1, **bad})
        cfg = HierGenConfig(m=np.int64(2), n_per_env=[np.int32(2), 4], p=np.int16(1))
        assert (cfg.m, cfg.n_per_env, cfg.p) == (2, (2, 4), 1)
        assert all(type(v) is int for v in (cfg.m, cfg.p, *cfg.n_per_env))
        assert type(HierGenConfig(m=2, n_per_env=np.int64(3), p=1).n_per_env) is int

    def test_ranged_sizes(self):
        cfg = HierGenConfig(m=40, n_per_env=(2, 6), p=1, seed=1)
        sizes = {e.n for e in generate_hierarchical(cfg).environments}
        assert sizes <= {2, 3, 4, 5, 6} and len(sizes) > 1

    def test_effect_covariance_recovered(self):
        # noiseless draws let least squares recover each theta_i exactly
        scale = 0.7
        cfg = HierGenConfig(
            m=10_000, n_per_env=6, p=3, env_effect_scale=scale, noise_scale=0.0, seed=9
        )
        ds = generate_hierarchical(cfg)
        beta = cfg.resolved_beta()
        thetas = np.array(
            [np.linalg.lstsq(e.x, e.y, rcond=None)[0] - beta for e in ds.environments]
        )
        cov = np.cov(thetas.T)
        assert np.allclose(np.diag(cov), scale**2, rtol=0.05)
        off = cov[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off) < 0.05 * scale**2)

    def test_outlier_fraction(self):
        cfg = HierGenConfig(
            m=4000, n_per_env=40, p=1, beta=(0.0,), env_effect_scale=0.0,
            noise_scale=1.0, outlier_frac=0.25, outlier_noise_multiplier=10.0, seed=2,
        )
        ds = generate_hierarchical(cfg)
        sds = np.array([e.y.std() for e in ds.environments])
        frac = float((sds > 5.0).mean())
        assert abs(frac - 0.25) < 0.03

    def test_environments_exchangeable(self):
        # across seeds, summaries of env 0 and env 2 share a distribution
        stat0, stat2 = [], []
        for seed in range(400):
            ds = generate_hierarchical(
                HierGenConfig(m=3, n_per_env=8, p=2, env_effect_scale=0.5, seed=seed)
            )
            stat0.append(ds.environments[0].y.mean())
            stat2.append(ds.environments[2].y.mean())
        assert stats.ks_2samp(stat0, stat2).pvalue > 1e-3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HierGenConfig(m=0, n_per_env=3, p=1)
        with pytest.raises(ValueError):
            HierGenConfig(m=1, n_per_env=(4, 2), p=1)
        with pytest.raises(ValueError):
            HierGenConfig(m=1, n_per_env=3, p=2, beta=(1.0,))
        with pytest.raises(ValueError):
            HierGenConfig(m=1, n_per_env=3, p=1, outlier_frac=1.5)

    def test_scales_and_beta_must_be_finite(self):
        for bad in (
            dict(env_effect_scale=np.inf), dict(noise_scale=np.nan),
            dict(outlier_noise_multiplier=np.inf), dict(beta=(1.0, np.nan)),
            dict(beta=(-np.inf, 0.0)), dict(noise_scale="1"), dict(outlier_frac="0.1"),
            dict(noise_scale=True), dict(outlier_frac=True), dict(env_effect_scale=False),
            dict(outlier_noise_multiplier=True), dict(beta=(True, 2.5)), dict(beta=(1.0, "2.5")),
            dict(beta=(np.True_, 1.0)),
        ):
            (name,) = bad
            with pytest.raises(ValueError, match=f"{name}.*finite"):
                HierGenConfig(**{"m": 2, "n_per_env": 3, "p": 2, **bad})


    def test_float_fields_store_the_checked_float(self):
        # Fraction is a real number like any other; ints are stored as floats
        cfg = HierGenConfig(m=2, n_per_env=3, p=2, beta=(1, Fraction(1, 2)),
                            env_effect_scale=2, noise_scale=Fraction(1, 4), outlier_frac=0,
                            outlier_noise_multiplier=np.int64(3))
        fields = (*cfg.beta, cfg.env_effect_scale, cfg.noise_scale, cfg.outlier_frac,
                  cfg.outlier_noise_multiplier)
        assert all(type(v) is float for v in fields)
        assert fields == (1.0, 0.5, 2.0, 0.25, 0.0, 3.0)
        with pytest.raises(ValueError, match="noise_scale must be finite and nonnegative"):
            HierGenConfig(m=2, n_per_env=3, p=1, noise_scale=-1)


class TestSplits:
    def test_round_half_up_sizes(self):
        rng = np.random.default_rng(0)
        ds3 = _toy_dataset(m=3)
        assert len(split_environments(ds3, 0.5, rng).d1) == 2
        ds5 = _toy_dataset(m=5)
        assert len(split_environments(ds5, 0.5, rng).d1) == 3
        ds20 = _toy_dataset(m=20)
        s = split_environments(ds20, 0.5, rng)
        assert len(s.d1) == 10 and len(s.d2) == 10
        assert sorted(s.d1 + s.d2) == list(range(20))

    def test_degenerate_split_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            split_environments(_toy_dataset(m=2), 0.9, rng)
        with pytest.raises(ValueError):
            split_environments(_toy_dataset(m=3), 1.0, rng)

    def test_uniform_over_subsets(self):
        ds = _toy_dataset(m=4)
        rng = np.random.default_rng(123)
        counts: dict[tuple[int, ...], int] = {}
        draws = 10_000
        for _ in range(draws):
            s = split_environments(ds, 0.5, rng)
            counts[s.d1] = counts.get(s.d1, 0) + 1
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c / draws - 1 / 6) < 0.02

    def test_holdout_partition(self):
        env = _toy_dataset(m=1, n=10).environments[0]
        labeled, rest = holdout_labels(env, 4, np.random.default_rng(3))
        assert len(labeled) == 4 and len(rest) == 6
        assert sorted(np.concatenate([labeled, rest]).tolist()) == list(range(10))
        with pytest.raises(ValueError):
            holdout_labels(env, 10, np.random.default_rng(3))
        with pytest.raises(ValueError):
            holdout_labels(env, 0, np.random.default_rng(3))

    @pytest.mark.parametrize("seed, n, count, labeled, state", [
        (0, 10, 4, [2, 4, 5, 7], (45622952943019519016089485487844936367, 70985654)),
        (1, 7, 1, [3], (183275694112599655215491715457714976113, 2198257139)),
        (2, 12, 11, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11],
         (58260785093730483622811694239692271413, 2414912633)),
    ])
    def test_holdout_is_one_frozen_draw_as_index_arrays(self, seed, n, count, labeled, state):
        env = EnvironmentSample("e", np.zeros((n, 1)), np.zeros(n))
        rng = np.random.default_rng(seed)
        got, rest = holdout_labels(env, count, rng)
        for part in (got, rest):
            assert isinstance(part, np.ndarray) and part.dtype.kind == "i"
            assert np.all(np.diff(part) > 0)
        assert not set(got.tolist()) & set(rest.tolist())
        assert sorted(np.concatenate([got, rest]).tolist()) == list(range(n))
        # indices and generator state frozen from a reference run: the same
        # single rng.choice draw, whatever container the indices come in
        assert got.tolist() == labeled
        assert rest.tolist() == sorted(set(range(n)) - set(labeled))
        after = rng.bit_generator.state
        assert (after["state"]["state"], after["uinteger"]) == state
