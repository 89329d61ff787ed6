import hashlib
import math

import numpy as np
import pytest

from mecp import predictors
from mecp.algorithms import ridge_point_builder
from mecp.data import EnvironmentSample
from mecp.predictors import (
    DEFAULT_LAMBDA_GRID,
    FitError,
    SoftmaxModel,
    _log_sum_exp,
    _softmax,
    fit_ridge,
    fit_ridge_leave_one_out,
    fit_softmax,
    multiclass_loss,
)
from oracles import oracle_ridge_loo_errors, oracle_softmax_grad


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
        assert isinstance(model.predict(x[0]), float)
        assert model.predict(x).shape == (8,)

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

    @staticmethod
    def assert_table_matches_oracle(model, xk, yk):
        for lam, mse in model.loocv_mse:
            if math.isfinite(mse):
                brute = float(np.mean(oracle_ridge_loo_errors(xk, yk, lam) ** 2))
                assert mse == pytest.approx(brute, rel=1e-8)

    @pytest.mark.parametrize("grid", [DEFAULT_LAMBDA_GRID, (0.0, 0.1, 1.0, 10.0)])
    @pytest.mark.parametrize("sizes", [(30,) * 6, (12, 40, 7, 25, 31)], ids=["equal", "ragged"])
    def test_matches_pooled_fit_ridge(self, sizes, grid):
        x, y = self.blocks(len(sizes), sizes)
        models = fit_ridge_leave_one_out(x, y, sizes, grid)
        assert len(models) == len(sizes)
        for model, (xk, yk, ref) in zip(models, self.pooled_refits(x, y, sizes, grid)):
            self.assert_same_fit(model, ref)
            self.assert_table_matches_oracle(model, xk, yk)

    # sha256 of the float.hex of every refit's coefficients, intercept and
    # penalty, then of the pooled fit_ridge on all rows; a faster scan must
    # not move one bit of a fit
    PINNED_BITS = {
        "equal": ((50,) * 20, 5, DEFAULT_LAMBDA_GRID, [1.0] * 20,
                  "52593729416d225111a0eae38893ab7dc61c18bcc7e6a04bc26a2316a862dc6f",
                  "893ed9c7a346a975fbf85a1548df72b3f2bc4e9b09ff6585239b0c57997d24b9"),
        "ragged": ((12, 40, 7, 25, 31), 4, (0.0, 0.1, 1.0, 10.0), [10.0, 10.0, 1.0, 10.0, 10.0],
                   "64d27b597aa9c46042ad9edf9163c911f6ce6c75405bb5bb7ccb86d99f0d1b5e",
                   "b34573fb4f286c7a204c2fdc30b0093b58e36991f1f9862f76dbc116f22da10d"),
    }

    @pytest.mark.parametrize("case", sorted(PINNED_BITS))
    def test_fits_are_bit_identical_to_the_pinned_pass(self, case):
        sizes, p, grid, lams, loo_digest, pooled_digest = self.PINNED_BITS[case]
        x, y = self.blocks(len(sizes), sizes, p=p)

        def digest(models):
            text = " ".join(float(v).hex() for m in models for v in (*m.coef, m.intercept, m.lam))
            return hashlib.sha256(text.encode()).hexdigest()

        models = fit_ridge_leave_one_out(x, y, sizes, grid)
        assert [m.lam for m in models] == lams
        assert digest(models) == loo_digest
        assert digest([fit_ridge(x, y, grid)]) == pooled_digest

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
        for model, (xk, yk, ref) in zip(models, self.pooled_refits(x, y, sizes, grid)):
            assert model.singular_fallback and ref.singular_fallback
            assert model.lam == ref.lam == (0.7 if 0.7 in grid else min(DEFAULT_LAMBDA_GRID))
            assert model.loocv_mse[0] == (0.0, math.inf)
            # the fallback penalty is scanned on this refit's own rows
            scanned = list(grid) if 0.7 in grid else [0.0, min(DEFAULT_LAMBDA_GRID)]
            assert [lam for lam, _ in model.loocv_mse] == scanned
            self.assert_table_matches_oracle(model, xk, yk)

    def test_unusable_fallback_names_its_block(self):
        # block 0's rows are huge, so every refit holding them is singular at
        # the fallback penalty too; refit 0 leaves them out and falls back
        sizes = (15, 20, 18)
        x, y = self.blocks(10, sizes, p=2)
        x = np.column_stack([x, x[:, 1]])
        x[:15] *= 1e5
        with pytest.raises(FitError, match="fallback penalty also unusable") as info:
            fit_ridge_leave_one_out(x, y, sizes, (0.0,))
        assert info.value.details == {"lam": min(DEFAULT_LAMBDA_GRID), "left_out": 1}
        refit_0 = fit_ridge(x[15:], y[15:], (0.0,))
        assert refit_0.singular_fallback and refit_0.lam == min(DEFAULT_LAMBDA_GRID)

    def test_interpolating_refits_hit_the_hat_cut(self):
        # p = 3 and four kept rows: lambda=0 interpolates every refit
        sizes = (4, 4)
        x, y = self.blocks(13, sizes, p=3)
        models = fit_ridge_leave_one_out(x, y, sizes, (0.0, 1.0))
        for model, (xk, yk, ref) in zip(models, self.pooled_refits(x, y, sizes, (0.0, 1.0))):
            assert not model.singular_fallback and model.lam == 1.0
            assert model.loocv_mse[0] == (0.0, math.inf)
            self.assert_same_fit(model, ref)
            self.assert_table_matches_oracle(model, xk, yk)

    def test_failed_refit_names_its_block(self):
        x, y = self.blocks(11, (1, 1, 1), p=1)
        with pytest.raises(FitError, match="n >= 2") as info:
            fit_ridge_leave_one_out(x[:2], y[:2], (1, 1))
        assert info.value.details == {"left_out": 0}
        # a lone block leaves its refit no rows: refused before any refit mean is formed
        x6, y6 = self.blocks(11, (6,), p=1)
        for sizes in [(6,), (5, 1)]:
            with pytest.raises(FitError, match="n >= 2") as info:
                fit_ridge_leave_one_out(x6, y6, sizes)
            assert info.value.details == {"left_out": 0}
        # three rows, one feature, lambda=0 interpolates every two-row refit
        with pytest.raises(FitError, match="no usable penalty") as info:
            fit_ridge_leave_one_out(x, y, (1, 1, 1), (0.0,))
        assert info.value.details == {"grid": (0.0,), "left_out": 0}

    def test_input_validation(self):
        x, y = self.blocks(12, (5, 5))
        for sizes in [(5, 4), (10, 0), (2, 3, 5, -1), (5.9, 5.0), (5.0, 5.0), np.array([5.0, 5.0]),
                      (True, True, 8), (np.True_, 9), [[5, 5]], 10]:
            with pytest.raises(ValueError, match="sizes must be positive block sizes"):
                fit_ridge_leave_one_out(x, y, sizes)
        for sizes in [(5, 5), np.array([5, 5]), (np.int64(5), 5)]:
            assert len(fit_ridge_leave_one_out(x, y, sizes)) == 2
        with pytest.raises(ValueError, match="nonnegative"):
            fit_ridge_leave_one_out(x, y, (5, 5), (-1.0,))


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

    @pytest.mark.parametrize("scale", [1.0, 30.0, 1e3, 1e6, "tiny"])
    def test_loss_and_probabilities_match_scipy(self, scale):
        # the numpy log-sum-exp and softmax against scipy.special within 1e-12
        # relative, batched and one row at a time: ordinary and large-magnitude
        # rows with some -inf logits, and ("tiny") rows whose label holds the
        # max 20 to 700 above the rest (losses down to 1e-300, kept only by the
        # log1p form)
        from scipy.special import logsumexp, softmax

        rng = np.random.default_rng(21)
        if scale == "tiny":
            v = np.column_stack([np.zeros(20), -rng.uniform(20.0, 700.0, size=(20, 3))])
            labels = np.zeros(len(v), dtype=int)
        else:
            v = rng.normal(size=(40, 4)) * scale
            v[:, 1:][rng.random((len(v), 3)) < 0.25] = -np.inf
            labels = rng.integers(0, 4, size=len(v))
        want = logsumexp(v, axis=1) - v[np.arange(len(v)), labels]
        if scale == "tiny":
            assert ((0.0 < want) & (want < 1e-8)).all() and want.min() < 1e-100
        else:
            assert np.isinf(v).any() and np.isinf(want).any()
        np.testing.assert_allclose(multiclass_loss(labels, v), want, rtol=1e-12, atol=0.0)
        for row, label, loss in zip(v, labels, want):
            np.testing.assert_allclose(multiclass_loss(label, row), loss, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(_softmax(v), softmax(v, axis=1), rtol=1e-12, atol=0.0)

    def test_rows_whose_max_is_not_finite_match_scipy(self):
        # all -inf gives -inf, a +inf entry gives +inf, a NaN gives NaN, and no
        # warning is raised (the suite turns warnings into errors)
        from scipy.special import logsumexp

        edge = np.array([[-np.inf] * 3, [np.inf, 1.0, -np.inf], [np.nan, 1.0, 2.0]])
        np.testing.assert_array_equal(_log_sum_exp(edge), logsumexp(edge, axis=1))
        np.testing.assert_array_equal(_log_sum_exp(edge), [-np.inf, np.inf, np.nan])

    def test_tied_maxima_leave_the_sum(self):
        # m tied maxima give log(m) + max exactly, as scipy's arithmetic does
        for m, top in ((1, 0.0), (2, 3.5), (5, -1e6), (7, 1e300)):
            row = np.append(np.full(m, top), -np.inf)
            assert _log_sum_exp(row[None, :])[0] == math.log(m) + top

    def test_fit_matches_the_scipy_arithmetic(self, monkeypatch):
        # the numpy routes change no fitted weight: a fit whose log-sum-exp and
        # softmax are scipy.special's returns the same floats
        from scipy.special import logsumexp, softmax

        rng = np.random.default_rng(2)
        x = rng.normal(size=(60, 2))
        labels = (x[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(int) + (x[:, 1] > 0.5)
        got = fit_softmax(x, labels, 3, tolerance=1e-5)
        monkeypatch.setattr(predictors, "_log_sum_exp", lambda v: logsumexp(v, axis=-1))
        monkeypatch.setattr(predictors, "_softmax", lambda v: softmax(v, axis=-1))
        want = fit_softmax(x, labels, 3, tolerance=1e-5)
        np.testing.assert_array_equal(got.weights, want.weights)

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
        single = model.logits(x[0])
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
