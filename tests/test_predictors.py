import math

import numpy as np
import pytest

from mecp.algorithms import ridge_point_builder
from mecp.data import EnvironmentSample
from mecp.predictors import (
    DEFAULT_LAMBDA_GRID,
    FitError,
    PinballModel,
    SoftmaxModel,
    fit_pinball,
    fit_ridge,
    fit_ridge_leave_one_out,
    fit_softmax,
    multiclass_loss,
    predict_logits,
    predict_ridge,
)
from oracles import (
    oracle_pinball_objective,
    oracle_pinball_vertex_min,
    oracle_ridge_loo_errors,
    oracle_softmax_grad,
)


class TestRidge:
    def test_loocv_matches_literal_refits(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 3))
        y = x @ [1.0, -2.0, 0.5] + rng.normal(size=30)
        model = fit_ridge(x, y)
        for lam, mse in model.loocv_mse:
            brute = float(np.mean(oracle_ridge_loo_errors(x, y, lam) ** 2))
            assert mse == pytest.approx(brute, abs=1e-8)

    def test_coefficients_match_direct_solve(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(25, 2))
        y = rng.normal(size=25)
        model = fit_ridge(x, y, lambda_grid=(3.5,))
        xt = np.column_stack([np.ones(25), x])
        a = xt.T @ xt + np.diag([0.0, 3.5, 3.5])
        direct = np.linalg.solve(a, xt.T @ y)
        assert model.intercept == pytest.approx(direct[0], abs=1e-10)
        assert np.allclose(model.coef, direct[1:], atol=1e-10)

    def test_intercept_unpenalized(self):
        # a huge penalty kills the slope but the intercept tracks the mean
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 1))
        y = 5.0 + 0.1 * rng.normal(size=40)
        model = fit_ridge(x, y, lambda_grid=(1e12,))
        assert abs(model.coef[0]) < 1e-6
        assert model.intercept == pytest.approx(y.mean(), abs=1e-6)

    def test_tie_keeps_smaller_penalty(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(12, 1))
        y = rng.normal(size=12)
        model = fit_ridge(x, y, lambda_grid=(0.5, 0.5))
        assert model.lam == 0.5  # duplicate candidates collapse to one entry

    def test_singular_zero_falls_back_with_flag(self):
        # duplicated feature columns make lambda=0 singular
        rng = np.random.default_rng(4)
        base = rng.normal(size=(10, 1))
        x = np.hstack([base, base])
        y = rng.normal(size=10)
        model = fit_ridge(x, y, lambda_grid=(0.0,))
        assert model.singular_fallback
        assert model.lam == min(l for l in DEFAULT_LAMBDA_GRID)
        both = fit_ridge(x, y, lambda_grid=(0.0, 0.7))
        assert both.singular_fallback and both.lam == 0.7

    @staticmethod
    def shifted_design(seed: int, n: int = 40, mean: float = 1e3):
        # a large feature mean: the centred route must not lose the intercept
        rng = np.random.default_rng(seed)
        x = mean + rng.normal(size=(n, 3)) * [1.0, 2.0, 0.5]
        y = 7.0 + (x - mean) @ [1.0, -2.0, 0.5] + rng.normal(size=n)
        return x, y

    @staticmethod
    def direct_coefficients(x, y, lam):
        # least squares on the stacked ridge system, intercept unpenalized
        n, p = x.shape
        a = np.vstack([
            np.column_stack([np.ones(n), x]),
            np.column_stack([np.zeros(p), np.sqrt(lam) * np.eye(p)]),
        ])
        return np.linalg.lstsq(a, np.concatenate([y, np.zeros(p)]), rcond=None)[0]

    def test_default_grid_matches_literal_refits_at_large_feature_mean(self):
        for seed in range(3):
            x, y = self.shifted_design(seed)
            model = fit_ridge(x, y)
            assert [lam for lam, _ in model.loocv_mse] == list(DEFAULT_LAMBDA_GRID)
            for lam, mse in model.loocv_mse:
                brute = float(np.mean(oracle_ridge_loo_errors(x, y, lam) ** 2))
                assert mse == pytest.approx(brute, rel=1e-8)
            best = min(model.loocv_mse, key=lambda row: (row[1], row[0]))
            assert model.lam == best[0]

    def test_coefficients_match_direct_solve_at_large_feature_mean(self):
        x, y = self.shifted_design(7)
        for lam in DEFAULT_LAMBDA_GRID:
            model = fit_ridge(x, y, lambda_grid=(lam,))
            direct = self.direct_coefficients(x, y, lam)
            got = np.append(model.intercept, model.coef)
            np.testing.assert_allclose(got, direct, rtol=1e-9, atol=0)

    def test_nonsingular_zero_penalty_is_ols(self):
        x, y = self.shifted_design(8, mean=5.0)
        model = fit_ridge(x, y, lambda_grid=(0.0,))
        assert model.lam == 0.0 and not model.singular_fallback
        ols = np.linalg.lstsq(np.column_stack([np.ones(len(y)), x]), y, rcond=None)[0]
        np.testing.assert_allclose(np.append(model.intercept, model.coef), ols, rtol=1e-10)
        brute = float(np.mean(oracle_ridge_loo_errors(x, y, 0.0) ** 2))
        assert model.loocv_mse[0][1] == pytest.approx(brute, rel=1e-8)

    @pytest.mark.parametrize("kind", ["constant", "duplicate"])
    def test_rank_deficient_zero_penalty_falls_back(self, kind):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(15, 2))
        if kind == "constant":
            x = np.column_stack([x, np.full(15, 3.0)])
        else:
            x = np.column_stack([x, x[:, 1]])
        y = rng.normal(size=15)
        model = fit_ridge(x, y, lambda_grid=(0.0,))
        fallback = min(DEFAULT_LAMBDA_GRID)
        assert model.singular_fallback and model.lam == fallback
        assert model.loocv_mse[0] == (0.0, math.inf)
        assert model.loocv_mse[1][0] == fallback
        brute = float(np.mean(oracle_ridge_loo_errors(x, y, fallback) ** 2))
        assert model.loocv_mse[1][1] == pytest.approx(brute, rel=1e-8)
        both = fit_ridge(x, y, lambda_grid=(0.0, 0.7))
        assert both.singular_fallback and both.lam == 0.7
        assert len(both.loocv_mse) == 2

    def test_fallback_only_when_grid_has_no_positive_penalty(self):
        # duplicate columns: the tiny positive penalty is as unusable as zero
        rng = np.random.default_rng(15)
        base = rng.normal(size=(10, 1))
        x = np.hstack([base, base])
        y = rng.normal(size=10)
        errors = []
        for grid in [(0.0, 1e-12), (1e-12,)]:
            with pytest.raises(FitError) as info:
                fit_ridge(x, y, lambda_grid=grid)
            errors.append((str(info.value), info.value.details["grid"][-1]))
        assert errors == [("no usable penalty in grid", 1e-12)] * 2

    def test_interpolating_zero_penalty_hits_hat_cut(self):
        # n = p + 1 at lambda=0 interpolates: every 1 - h_ii is zero
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=4)
        model = fit_ridge(x, y, lambda_grid=(0.0, 1.0))
        assert not model.singular_fallback
        assert model.loocv_mse[0] == (0.0, math.inf)
        assert model.lam == 1.0
        with pytest.raises(FitError, match="no usable penalty"):
            fit_ridge(x, y, lambda_grid=(0.0,))

    def test_duplicate_grid_entries_keep_one_row_each(self):
        x, y = self.shifted_design(14, mean=0.0)
        grid = (10.0, 0.1, 1.0, 0.1, 1.0)
        model = fit_ridge(x, y, lambda_grid=grid)
        assert [lam for lam, _ in model.loocv_mse] == sorted(grid)
        single = dict(fit_ridge(x, y, lambda_grid=(0.1, 1.0, 10.0)).loocv_mse)
        for lam, mse in model.loocv_mse:
            assert mse == pytest.approx(single[lam], rel=1e-12)
        best = min(model.loocv_mse, key=lambda row: (row[1], row[0]))
        assert model.lam == best[0]

    def test_predict_shapes(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 2))
        y = rng.normal(size=8)
        model = fit_ridge(x, y)
        assert isinstance(predict_ridge(model, x[0]), float)
        assert predict_ridge(model, x).shape == (8,)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_ridge(np.zeros((1, 2)), np.zeros(1))
        with pytest.raises(ValueError):
            fit_ridge(np.zeros((5, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            fit_ridge(np.zeros((5, 2)), np.zeros(5), lambda_grid=(-1.0,))


@pytest.mark.parametrize("bad", [True, math.nan, math.inf, 10**400])
def test_every_ridge_route_refuses_a_penalty_that_is_no_finite_number(bad):
    rng = np.random.default_rng(21)
    x = rng.normal(size=(12, 2))
    y = rng.normal(size=12)
    envs = [EnvironmentSample(f"e{i}", x[6 * i : 6 * i + 6], y[6 * i : 6 * i + 6])
            for i in range(2)]
    for fit in (
        lambda: fit_ridge(x, y, [bad]),
        lambda: fit_ridge_leave_one_out(x, y, (6, 6), [0.1, bad]),
        lambda: ridge_point_builder([bad])(envs),
        lambda: ridge_point_builder([bad]).leave_one_out(envs),
    ):
        with pytest.raises(ValueError, match="lambda_grid"):
            fit()


class TestRidgeLeaveOneOut:
    @staticmethod
    def blocks(seed: int, sizes, p: int = 4, offset_block=None):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(sum(sizes), p)) * rng.uniform(0.5, 3.0, size=p)
        x += np.repeat(rng.normal(size=(len(sizes), p)), sizes, axis=0)
        y = 3.0 + x @ rng.normal(size=p) + rng.normal(size=len(x))
        if offset_block is not None:
            start = sum(sizes[:offset_block])
            x[start : start + sizes[offset_block]] += 1e6
        return x, y

    @staticmethod
    def pooled_refits(x, y, sizes, grid):
        starts = np.cumsum([0, *sizes])
        for i in range(len(sizes)):
            keep = np.r_[: starts[i], starts[i + 1] : len(y)]
            yield x[keep], y[keep], fit_ridge(x[keep], y[keep], grid)

    @staticmethod
    def assert_same_fit(model, ref):
        assert model.lam == ref.lam
        assert model.singular_fallback == ref.singular_fallback
        assert [lam for lam, _ in model.loocv_mse] == [lam for lam, _ in ref.loocv_mse]
        for (_, mse), (_, ref_mse) in zip(model.loocv_mse, ref.loocv_mse):
            assert mse == pytest.approx(ref_mse, rel=1e-12, abs=0)
        np.testing.assert_allclose(model.coef, ref.coef, rtol=1e-12, atol=0)
        assert model.intercept == pytest.approx(ref.intercept, rel=1e-12, abs=0)

    @pytest.mark.parametrize("grid", [DEFAULT_LAMBDA_GRID, (0.0, 0.1, 1.0, 10.0)])
    @pytest.mark.parametrize("sizes", [(30,) * 6, (12, 40, 7, 25, 31)], ids=["equal", "ragged"])
    def test_matches_pooled_fit_ridge(self, sizes, grid):
        x, y = self.blocks(len(sizes), sizes)
        models = fit_ridge_leave_one_out(x, y, sizes, grid)
        assert len(models) == len(sizes)
        for model, (xk, yk, ref) in zip(models, self.pooled_refits(x, y, sizes, grid)):
            self.assert_same_fit(model, ref)
            brute = float(np.mean(oracle_ridge_loo_errors(xk, yk, model.lam) ** 2))
            assert dict(model.loocv_mse)[model.lam] == pytest.approx(brute, rel=1e-8)

    def test_offset_environment_costs_no_precision(self):
        # a total-minus-block Gram downdate loses ~1e-4 here when block 2 is left out
        sizes = (20, 25, 30, 22)
        x, y = self.blocks(9, sizes, offset_block=2)
        models = fit_ridge_leave_one_out(x, y, sizes, (0.1, 1.0))
        refs = list(self.pooled_refits(x, y, sizes, (0.1, 1.0)))
        self.assert_same_fit(models[2], refs[2][2])

    @pytest.mark.parametrize("grid", [(0.0,), (0.0, 0.7)])
    def test_singular_rule_on_the_combined_gram(self, grid):
        sizes = (15, 20, 18)
        x, y = self.blocks(10, sizes, p=2)
        x = np.column_stack([x, x[:, 1]])
        models = fit_ridge_leave_one_out(x, y, sizes, grid)
        for model, (_, _, ref) in zip(models, self.pooled_refits(x, y, sizes, grid)):
            assert model.singular_fallback and ref.singular_fallback
            assert model.lam == ref.lam == (0.7 if 0.7 in grid else min(DEFAULT_LAMBDA_GRID))

    def test_failed_refit_names_its_block(self):
        x, y = self.blocks(11, (1, 1, 1), p=1)
        with pytest.raises(FitError, match="n >= 2") as info:
            fit_ridge_leave_one_out(x[:2], y[:2], (1, 1))
        assert info.value.details == {"left_out": 0}
        # three rows, one feature, lambda=0 interpolates every two-row refit
        with pytest.raises(FitError, match="no usable penalty") as info:
            fit_ridge_leave_one_out(x, y, (1, 1, 1), (0.0,))
        assert info.value.details == {"grid": (0.0,), "left_out": 0}

    def test_input_validation(self):
        x, y = self.blocks(12, (5, 5))
        for sizes in [(5, 4), (10, 0), (2, 3, 5, -1)]:
            with pytest.raises(ValueError, match="sizes"):
                fit_ridge_leave_one_out(x, y, sizes)
        with pytest.raises(ValueError, match="nonnegative"):
            fit_ridge_leave_one_out(x, y, (5, 5), (-1.0,))


class TestPinball:
    def test_median_of_four(self):
        x = np.zeros((4, 0))
        y = np.array([1.0, 2.0, 3.0, 4.0])
        model = fit_pinball(x, y, 0.5)
        assert 2.0 <= model.theta[0] <= 3.0
        obj = oracle_pinball_objective(np.ones((4, 1)), y, model.theta, 0.5)
        assert obj == pytest.approx(0.5, abs=1e-9)

    def test_upper_quantile_constant(self):
        x = np.zeros((10, 0))
        y = np.arange(1.0, 11.0)
        model = fit_pinball(x, y, 0.9)
        assert 9.0 <= model.theta[0] <= 10.0

    def test_matches_vertex_enumeration_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(7, 1))
            y = rng.normal(size=7)
            level = float(rng.uniform(0.1, 0.9))
            model = fit_pinball(x, y, level)
            xd = np.column_stack([np.ones(7), x])
            got = oracle_pinball_objective(xd, y, model.theta, level)
            want = oracle_pinball_vertex_min(xd, y, level)
            assert got == pytest.approx(want, abs=1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        a = fit_pinball(x, y, 0.3)
        b = fit_pinball(x, y, 0.3)
        assert np.array_equal(a.theta, b.theta)

    def test_level_validated(self):
        with pytest.raises(ValueError):
            fit_pinball(np.zeros((3, 1)), np.zeros(3), 1.0)

    def test_predict(self):
        model = PinballModel(theta=np.array([1.0, 2.0]), level=0.5)
        assert model.predict(np.array([3.0])) == 7.0
        assert np.allclose(model.predict(np.array([[3.0], [0.0]])), [7.0, 1.0])


class TestSoftmax:
    def test_loss_matches_direct_formula(self):
        v = np.array([0.3, -1.2, 2.0])
        direct = np.log(np.exp(v - v[1]).sum())
        assert multiclass_loss(1, v) == pytest.approx(direct, abs=1e-12)

    def test_loss_shift_invariant(self):
        v = np.array([0.3, -1.2, 2.0])
        assert multiclass_loss(1, v) == pytest.approx(multiclass_loss(1, v + 3.7), abs=1e-12)

    def test_loss_stable_for_huge_logits(self):
        v = np.array([1000.0, 900.0])
        assert multiclass_loss(0, v) == pytest.approx(np.log1p(np.exp(-100.0)), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(12, 2))
        labels = rng.integers(0, 3, size=12)
        w = 0.5 * rng.normal(size=(3, 3))
        xd = np.column_stack([np.ones(12), x])
        probs = np.exp(xd @ w.T - np.max(xd @ w.T, axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        onehot = np.zeros((12, 3))
        onehot[np.arange(12), labels] = 1.0
        analytic = (probs - onehot).T @ xd / 12
        fd = oracle_softmax_grad(w, xd, labels)
        assert np.allclose(analytic, fd, atol=1e-8)

    def test_descent_converges_and_reduces_loss(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(60, 2))
        labels = (x[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(int)
        model = fit_softmax(x, labels, 2, step_schedule=0.5, tolerance=1e-5)
        final = float(np.mean(multiclass_loss(labels, model.logits(x))))
        assert final < np.log(2)  # better than the uninformed fit
        single = predict_logits(model, x[0])
        assert single.shape == (2,)

    def test_divergence_raises(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 2))
        labels = rng.integers(0, 2, size=20)
        with pytest.raises(FitError):
            fit_softmax(x, labels, 2, step_schedule=1e6, max_iter=50)

    def test_non_convergence_raises(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 2))
        labels = rng.integers(0, 3, size=20)
        with pytest.raises(FitError):
            fit_softmax(x, labels, 3, step_schedule=1e-9, tolerance=1e-10, max_iter=5)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            fit_softmax(np.zeros((3, 1)), np.array([0, 1, 3]), 2)
