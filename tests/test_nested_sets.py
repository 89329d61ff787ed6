import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecp.nested_sets import (
    EMPTY_SET,
    BandFamily,
    Interval,
    IntervalUnion,
    LabelSet,
    LossSublevelFamily,
    SymmetricFamily,
    bounds_at,
    bounds_measure,
    contains,
    mask_at,
    measure,
    sets_at,
    thresholds,
    union_sets,
)
from mecp.predictors import multiclass_loss
from oracles import oracle_interval_measure, oracle_label_sets, oracle_union_measure_exact

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def const_symmetric(value):
    return SymmetricFamily(predict=lambda xs, v=value: np.full(xs.shape[0], float(v)))


def const_band(low, high):
    return BandFamily(
        lower=lambda xs, v=low: np.full(xs.shape[0], float(v)),
        upper=lambda xs, v=high: np.full(xs.shape[0], float(v)),
    )


def const_logits(values):
    row = np.asarray(values, dtype=float)
    return LossSublevelFamily(
        logits=lambda xs, r=row: np.tile(r, (xs.shape[0], 1)), n_classes=len(row)
    )


class TestSetTypes:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)
        assert Interval(1, 2).lo == 1.0  # endpoints normalized to floats

    def test_union_must_be_sorted_and_disjoint(self):
        with pytest.raises(ValueError):
            IntervalUnion((Interval(0, 2), Interval(1, 3)))
        with pytest.raises(ValueError):
            IntervalUnion((Interval(0, 1), Interval(1, 2)))  # touching merges
        with pytest.raises(ValueError):
            IntervalUnion((Interval(2, 3), Interval(0, 1)))

    def test_label_set_validation(self):
        with pytest.raises(ValueError):
            LabelSet((-1, 2))
        with pytest.raises(ValueError):
            LabelSet((2, 1))
        with pytest.raises(ValueError):
            LabelSet((1, 1))


class TestCoverageThreshold:
    def test_symmetric(self):
        assert thresholds(const_symmetric(3.0), np.zeros((1, 2)), [5.0])[0] == 2.0

    def test_band_inside_is_negative(self):
        assert thresholds(const_band(0.0, 4.0), np.zeros((1, 2)), [2.0])[0] == -2.0

    def test_uniform_logits(self):
        fam = const_logits([0.0, 0.0, 0.0])
        for label in range(3):
            got = thresholds(fam, np.zeros((1, 1)), [label])[0]
            assert got == pytest.approx(math.log(3.0), abs=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=2)
        fam = SymmetricFamily(predict=lambda xs, w=w: xs @ w)
        xs = rng.normal(size=(6, 2))
        ys = rng.normal(size=6)
        batch = thresholds(fam, xs, ys)
        scalar = [thresholds(fam, x[None], [y])[0] for x, y in zip(xs, ys)]
        assert np.allclose(batch, scalar, atol=0)


class TestSetAt:
    def test_symmetric_zero_tau_is_singleton(self):
        got = sets_at(const_symmetric(1.5), np.zeros((1, 1)), 0.0)
        assert got == [Interval(1.5, 1.5)]

    def test_infinite_tau_is_full_line(self):
        got = sets_at(const_symmetric(1.5), np.zeros((1, 1)), math.inf)
        assert got == [Interval(-math.inf, math.inf)]

    def test_negative_tau_is_empty(self):
        (got,) = sets_at(const_symmetric(1.5), np.zeros((1, 1)), -0.5)
        assert got == EMPTY_SET
        assert measure(got) == 0.0

    def test_band_shrinks_then_empties(self):
        fam = const_band(0.0, 4.0)
        x = np.zeros((1, 1))
        assert sets_at(fam, x, -2.0) == [Interval(2.0, 2.0)]
        assert sets_at(fam, x, -3.0) == [EMPTY_SET]
        assert sets_at(fam, x, math.inf) == [Interval(-math.inf, math.inf)]

    def test_sublevel_label_sets(self):
        fam = const_logits([2.0, 0.0, 0.0])
        x = np.zeros((1, 1))
        assert sets_at(fam, x, 0.1) == [LabelSet(())]
        assert sets_at(fam, x, 1.0) == [LabelSet((0,))]
        assert sets_at(fam, x, math.inf) == [LabelSet((0, 1, 2))]

    def test_label_sets_match_per_class_scalar_oracle(self):
        rng = np.random.default_rng(4)
        for draw in range(30):
            k = int(rng.integers(1, 6))
            w = rng.normal(size=(k, 3))
            if draw % 2 == 0:
                # integer logits: classes tie and taus land exactly on losses
                w = np.round(2.0 * w)
            # some classes at -inf logit, so their loss is +inf (never class 0)
            dead = rng.random((9, k)) < 0.2 * (draw % 3 == 0)
            dead[:, 0] = False

            def logits(xs, w=w, dead=dead):
                return np.where(dead, -math.inf, np.column_stack([np.ones(len(xs)), xs]) @ w.T)

            fam = LossSublevelFamily(logits=logits, n_classes=k)
            xs = np.round(rng.normal(size=(9, 2)))
            ys = rng.integers(0, k, size=9)
            taus = [0.0, -1.0, math.inf, *thresholds(fam, xs, ys).tolist()]
            for tau in taus:
                want = oracle_label_sets(logits(xs), k, tau, multiclass_loss)
                assert sets_at(fam, xs, tau) == [LabelSet(labels) for labels in want]
                mask = [[c in labels for c in range(k)] for labels in want]
                assert mask_at(fam, xs, tau).tolist() == mask

    def test_sets_at_matches_pointwise(self):
        # predictor evaluates row by row so its rounding cannot differ by shape
        rng = np.random.default_rng(1)
        w = rng.normal(size=3)
        fam = SymmetricFamily(
            predict=lambda xs, w=w: np.array([float(row @ w) for row in xs])
        )
        xs = rng.normal(size=(10, 3))
        batch = sets_at(fam, xs, 0.7)
        single = [sets_at(fam, x[None], 0.7)[0] for x in xs]
        assert batch == single

    def test_nan_tau_rejected(self):
        with pytest.raises(ValueError):
            sets_at(const_symmetric(0.0), np.zeros((1, 1)), float("nan"))

    def test_membership_threshold_consistency(self):
        # the two routes to "is y covered at tau" must agree case by case
        rng = np.random.default_rng(2)
        for case in range(1000):
            kind = case % 3
            x = rng.normal(size=2)
            if kind == 0:
                w = rng.normal(size=2)
                fam = SymmetricFamily(predict=lambda xs, w=w: xs @ w)
                y = rng.normal() * 3.0
            elif kind == 1:
                w1, w2 = rng.normal(size=2), rng.normal(size=2)
                off = float(rng.uniform(0.0, 2.0))
                fam = BandFamily(
                    lower=lambda xs, w=w1, o=off: xs @ w - o,
                    upper=lambda xs, w=w2, o=off: xs @ w + o,
                )
                y = rng.normal() * 3.0
            else:
                fam = const_logits(rng.normal(size=4))
                y = int(rng.integers(0, 4))
            tau = float(rng.uniform(-1.0, 3.0))
            if case % 17 == 0:
                tau = math.inf if case % 2 else -math.inf
            member = contains(sets_at(fam, x[None], tau)[0], y)
            assert member == (thresholds(fam, x[None], [y])[0] <= tau)

    @given(center=finite, y=finite, tau1=finite, tau2=finite)
    def test_nesting_in_tau(self, center, y, tau1, tau2):
        lo, hi = sorted((tau1, tau2))
        fam = const_symmetric(center)
        x = np.zeros((1, 1))
        if contains(sets_at(fam, x, lo)[0], y):
            assert contains(sets_at(fam, x, hi)[0], y)


class TestBoundsAt:
    """Columnar bounds against per-row sets built from the family definitions."""

    X = np.array([[0.0, 1.0], [-2.0, 0.5], [3.0, -2.0], [1e20, 0.25], [1.0, -0.0]])

    @staticmethod
    def expected_rows(family, x, tau):
        if isinstance(family, SymmetricFamily):
            return [
                EMPTY_SET if tau < 0 else Interval(c - tau, c + tau)
                for c in family.predict(x).tolist()
            ]
        rows = []
        for low, high in zip(family.lower(x).tolist(), family.upper(x).tolist()):
            lo, hi = low - tau, high + tau
            rows.append(EMPTY_SET if lo > hi else Interval(lo, hi))
        return rows

    @pytest.mark.parametrize("tau", [-0.5, 0.0, math.inf])
    def test_matches_sets_at_for_both_interval_families(self, tau):
        families = (
            SymmetricFamily(predict=lambda xs: xs[:, 0]),
            # upper below lower on rows with a negative second column
            BandFamily(lower=lambda xs: xs[:, 0], upper=lambda xs: xs[:, 0] + xs[:, 1]),
        )
        for family in families:
            lo, hi = bounds_at(family, self.X, tau)
            expected = self.expected_rows(family, self.X, tau)
            assert sets_at(family, self.X, tau) == expected
            for a, b, want in zip(lo.tolist(), hi.tolist(), expected):
                if want == EMPTY_SET:
                    assert a > b
                else:
                    assert (a, b) == (want.lo, want.hi)
                    assert math.copysign(1, a) == math.copysign(1, want.lo)
                    assert math.copysign(1, b) == math.copysign(1, want.hi)

    def test_huge_center_at_negative_tau_stays_empty(self):
        # 1e20 +- 0.5 rounds to 1e20 on both ends; the set must still be empty
        lo, hi = bounds_at(const_symmetric(1e20), np.zeros((2, 1)), -0.5)
        assert np.all(lo > hi)

    def test_rejects_label_family_and_nan_tau(self):
        with pytest.raises(TypeError):
            bounds_at(const_logits([0.0, 1.0]), np.zeros((1, 1)), 1.0)
        with pytest.raises(ValueError):
            bounds_at(const_symmetric(0.0), np.zeros((1, 1)), math.nan)

    def test_mask_rejects_interval_family_and_nan_tau(self):
        with pytest.raises(TypeError):
            mask_at(const_symmetric(0.0), np.zeros((1, 1)), 1.0)
        with pytest.raises(ValueError):
            mask_at(const_logits([0.0, 1.0]), np.zeros((1, 1)), math.nan)

    def test_bounds_measure_matches_measure(self):
        lo = np.array([-1.0, 2.0, -math.inf, 0.0, math.inf, -0.0])
        hi = np.array([1.0, 1.0, math.inf, 0.0, math.inf, 0.0])
        sets = [EMPTY_SET if a > b else Interval(a, b) for a, b in zip(lo, hi)]
        for clip in (None, (-0.5, 0.25)):
            assert bounds_measure(lo, hi, clip).tolist() == [measure(s, clip) for s in sets]


class TestMeasure:
    def test_clip_to_reporting_range(self):
        assert measure(Interval(-2.0, 4.0), clip=(0.0, 2000.0)) == 4.0

    def test_label_count(self):
        assert measure(LabelSet((1, 4, 7))) == 3.0

    def test_union_clipped(self):
        u = IntervalUnion((Interval(0.0, 1.0), Interval(2.0, 4.0)))
        assert measure(u, clip=(0.5, 3.0)) == 1.5

    def test_infinite_and_empty(self):
        assert measure(Interval(-math.inf, math.inf)) == math.inf
        assert measure(Interval(-math.inf, math.inf), clip=(-1.0, 3.0)) == 4.0
        assert measure(EMPTY_SET) == 0.0

    def test_bad_clip(self):
        with pytest.raises(ValueError):
            measure(Interval(0.0, 1.0), clip=(2.0, 1.0))


class TestUnionSets:
    def test_overlap_merges(self):
        assert union_sets([Interval(1, 3), Interval(2, 5)]) == Interval(1.0, 5.0)

    def test_disjoint_keeps_components(self):
        got = union_sets([Interval(0, 1), Interval(2, 3)])
        assert isinstance(got, IntervalUnion) and len(got.parts) == 2
        assert measure(got) == 2.0

    def test_touching_closed_intervals_merge(self):
        assert union_sets([Interval(0, 1), Interval(1, 2)]) == Interval(0.0, 2.0)

    def test_unions_flatten(self):
        u = IntervalUnion((Interval(0, 1), Interval(4, 5)))
        got = union_sets([u, Interval(1, 2)])
        assert got == IntervalUnion((Interval(0.0, 2.0), Interval(4.0, 5.0)))

    def test_label_sets_union(self):
        got = union_sets([LabelSet((0, 2)), LabelSet((1, 2))])
        assert got == LabelSet((0, 1, 2))

    def test_empty_input(self):
        assert union_sets([]) == EMPTY_SET
        assert union_sets([EMPTY_SET, EMPTY_SET]) == EMPTY_SET

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError):
            union_sets([Interval(0, 1), LabelSet((0,))])

    def test_measure_matches_partition_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            k = int(rng.integers(1, 9))
            raw = np.sort(rng.uniform(-10.0, 10.0, size=(k, 2)), axis=1)
            parts = [Interval(a, b) for a, b in raw]
            got = measure(union_sets(parts))
            assert got == pytest.approx(oracle_union_measure_exact(raw), abs=1e-6)
            # coarse uniform-grid rasterization as a second, dumber route
            grid = oracle_interval_measure(raw, clip=(-10.0, 10.0))
            assert got == pytest.approx(grid, abs=5e-4)

    @settings(max_examples=200)
    @given(
        spans=st.lists(st.tuples(finite, finite), min_size=1, max_size=6),
        y=finite,
    )
    def test_union_membership_and_subadditivity(self, spans, y):
        parts = [Interval(min(a, b), max(a, b)) for a, b in spans]
        u = union_sets(parts)
        assert contains(u, y) == any(contains(p, y) for p in parts)
        assert measure(u) <= sum(measure(p) for p in parts) + 1e-9


