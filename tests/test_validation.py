from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

import oracles
from gazescore import validation
from gazescore.ingest import GameEvent
from gazescore.scoring import ScoringConfig
from gazescore.validation import (
    GamePerformance,
    ValidationReport,
    classify_assessment,
    game_accuracy,
    mae,
    pearson,
    rmse,
    spearman,
    validate_scores,
)

MODEL = [99.7, 99.0, 98.9]
TRUTH = [94.4, 97.8, 87.2]

series = st.lists(st.floats(0, 100, allow_nan=False), min_size=2, max_size=20)

# Ties, constants, round scores, and the subnormal, underflow and
# tiny-spread values of TestPearson.
SPECIAL_VALUES = [
    0.0, -0.0, 50.0, 100.0, 1.9, 0.5, 0.5 + 9.467340811979241e-14,
    1.5473850336077475e-158, 5e-324, 2.2250738585072014e-308, 1e20, -1e20,
]
values = st.one_of(
    st.sampled_from(SPECIAL_VALUES),
    st.integers(0, 3).map(float),
    st.floats(0, 100).map(lambda v: round(v, 1)),
    st.floats(-1e20, 1e20),
)


@st.composite
def paired_series(draw, min_size: int, max_size: int) -> tuple[list[float], list[float]]:
    n = draw(st.integers(min_size, max_size))
    series_of_n = st.one_of(
        st.lists(values, min_size=n, max_size=n),
        values.map(lambda v: [v] * n),
    )
    return draw(series_of_n), draw(series_of_n)


def _metrics(module, m, t) -> list[float | None]:
    """Every figure the metrics give for one input, plain floats or None."""
    report = module.validate_scores(m, t)
    got = [report.mae_pct, report.rmse_pct, report.pearson_r, report.spearman_rho,
           module.mae(m, t), module.rmse(m, t)]
    if len(m) >= 2:
        got += [module.pearson(m, t), module.spearman(m, t)]
    return [None if v is None else float(v) for v in got]


def events_for(kind, correct, total):
    return [GameEvent(i, kind, i < correct) for i in range(total)]


class TestGameAccuracy:
    @pytest.mark.parametrize(
        "clicks,answers,expected",
        [
            ((15, 18), (36, 36), 94.4),
            ((11, 11), (33, 34), 97.8),
            ((10, 13), (31, 34), 87.2),
        ],
    )
    def test_published_rows(self, clicks, answers, expected):
        events = events_for("mouse_click", *clicks) + events_for("answer", *answers)
        performance = game_accuracy(events)
        assert performance.total_events == clicks[1] + answers[1]
        assert performance.accuracy_pct == pytest.approx(expected, abs=0.05)

    def test_zero_events_undefined(self):
        performance = game_accuracy([])
        assert performance.accuracy_pct is None
        assert performance.total_events == 0

    def test_more_correct_than_total_rejected(self):
        with pytest.raises(ValueError, match="correct counts cannot exceed totals"):
            GamePerformance(3, 2, 0, 0, 2, 150.0)

    def test_kind_tallies(self):
        events = events_for("mouse_click", 2, 5) + events_for("answer", 3, 3)
        performance = game_accuracy(events)
        assert (performance.correct_clicks, performance.total_clicks) == (2, 5)
        assert (performance.correct_answers, performance.total_answers) == (3, 3)


class TestErrorMetrics:
    def test_mae_published_pairs(self):
        assert mae(MODEL, TRUTH) == pytest.approx(6.07, abs=0.1)

    def test_rmse_published_pairs(self):
        assert rmse(MODEL, TRUTH) == pytest.approx(7.45, abs=0.1)

    def test_identical_series(self):
        assert mae(MODEL, MODEL) == 0.0
        assert rmse(MODEL, MODEL) == 0.0

    def test_single_pair(self):
        assert mae([10], [4]) == 6.0

    def test_rmse_symmetry(self):
        assert rmse([0, 0], [3, -3]) == pytest.approx(3.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mae([1, 2], [1])

    def test_empty(self):
        with pytest.raises(ValueError):
            rmse([], [])

    @given(m=series, seed=st.integers(0, 10**6))
    def test_mae_at_most_rmse(self, m, seed):
        rng = np.random.default_rng(seed)
        t = rng.uniform(0, 100, len(m)).tolist()
        assert mae(m, t) <= rmse(m, t) + 1e-12


class TestPearson:
    def test_published_pairs_against_two_pass_oracle(self):
        m = np.asarray(MODEL)
        t = np.asarray(TRUTH)
        dm, dt = m - m.mean(), t - t.mean()
        oracle = float((dm * dt).sum() / np.sqrt((dm**2).sum() * (dt**2).sum()))
        assert pearson(MODEL, TRUTH) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(0.31, abs=0.01)

    def test_perfect_correlation(self):
        assert pearson(TRUTH, TRUTH) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        m = [-1.0, 0.0, 1.0]
        assert pearson(m, [-v for v in m]) == pytest.approx(-1.0)

    def test_constant_series_undefined(self):
        assert pearson([1, 1, 1], [1, 2, 3]) is None

    @pytest.mark.parametrize(
        "m",
        [[0.5, 0.5 + 9.467340811979241e-14], [0.0, 1.5473850336077475e-158], [0.0, 5e-324]],
        ids=["spread-tiny-next-to-values", "squares-underflow", "subnormal-values"],
    )
    def test_two_distinct_values_correlate_exactly(self, m):
        # Any two distinct points lie on a line: r is exactly +-1.
        assert pearson(m, [10.0, 20.0]) == pytest.approx(1.0, abs=1e-12)
        assert pearson(m, [20.0, 10.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_series_with_inexact_mean_undefined(self):
        # 1.9 has no exact binary mean, so the deviations are not all 0.
        assert pearson([1.9, 1.9, 1.9], [80.0, 90.0, 70.0]) is None
        assert pearson([80.0, 90.0, 70.0], [1.9, 1.9, 1.9]) is None

    def test_too_short(self):
        with pytest.raises(ValueError):
            pearson([1], [2])

    @given(m=series, seed=st.integers(0, 10**6))
    def test_against_scipy(self, m, seed):
        rng = np.random.default_rng(seed)
        t = rng.uniform(0, 100, len(m)).tolist()
        ours = pearson(m, t)
        if ours is None:
            return
        assert ours == pytest.approx(scipy_stats.pearsonr(m, t)[0], abs=1e-9)
        assert -1 - 1e-9 <= ours <= 1 + 1e-9

    @given(m=series, a=st.floats(0.1, 5), b=st.floats(-50, 50), seed=st.integers(0, 10**6))
    def test_affine_invariance(self, m, a, b, seed):
        rng = np.random.default_rng(seed)
        t = rng.uniform(0, 100, len(m)).tolist()
        base = pearson(m, t)
        scaled = pearson([a * v + b for v in m], t)
        if base is None or scaled is None:
            return
        assert scaled == pytest.approx(base, abs=1e-9)


class TestCorrelationRange:
    def test_pearson_equal_series_exactly_one(self):
        # The unclamped quotient is 1.0000000000000002 here.
        assert pearson([0, 1, 0], [0, 1, 0]) == 1.0

    @given(
        m=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=2, max_size=20),
        data=st.data(),
    )
    def test_coefficients_within_unit_interval(self, m, data):
        t = data.draw(
            st.one_of(
                st.just(list(m)),
                st.just([-v for v in m]),
                st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=len(m),
                         max_size=len(m)),
            )
        )
        for coefficient in (pearson, spearman):
            r = coefficient(m, t)
            assert r is None or -1.0 <= r <= 1.0


class TestSpearman:
    def test_published_pairs(self):
        assert spearman(MODEL, TRUTH) == 0.5

    def test_monotone_series(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_reversed_ranks(self):
        assert spearman([1, 2, 3], [9, 5, 1]) == -1.0

    def test_constant_series_undefined(self):
        assert spearman([5, 5, 5], [1, 2, 3]) is None

    def test_too_short(self):
        with pytest.raises(ValueError):
            spearman([1], [1])

    @given(m=series, seed=st.integers(0, 10**6))
    def test_against_scipy_tie_free(self, m, seed):
        if len(set(m)) != len(m):
            return
        rng = np.random.default_rng(seed)
        t = rng.permutation(len(m)).astype(float).tolist()
        assert spearman(m, t) == pytest.approx(scipy_stats.spearmanr(m, t)[0], abs=1e-9)

    @pytest.mark.filterwarnings("ignore::scipy.stats.ConstantInputWarning")
    def test_against_scipy_with_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(3, 15))
            m = rng.integers(0, 5, n).astype(float).tolist()
            t = rng.integers(0, 5, n).astype(float).tolist()
            ours = spearman(m, t)
            expected = scipy_stats.spearmanr(m, t)[0]
            if ours is None:
                assert len(set(m)) == 1 or len(set(t)) == 1 or np.isnan(expected)
            else:
                assert ours == pytest.approx(expected, abs=1e-9)

    @given(m=series, seed=st.integers(0, 10**6))
    def test_monotone_transform_invariance(self, m, seed):
        rng = np.random.default_rng(seed)
        t = rng.uniform(0, 100, len(m)).tolist()
        base = spearman(m, t)
        cubed = spearman([v**3 + 2 * v for v in m], t)  # strictly increasing map
        if base is None or cubed is None:
            return
        assert cubed == pytest.approx(base, abs=1e-9)

    @given(m=series, seed=st.integers(0, 10**6))
    def test_equals_pearson_on_ranks(self, m, seed):
        rng = np.random.default_rng(seed)
        t = rng.uniform(0, 100, len(m)).tolist()
        ours = spearman(m, t)
        if ours is None:
            return
        rank_m = scipy_stats.rankdata(m)
        rank_t = scipy_stats.rankdata(t)
        assert ours == pytest.approx(pearson(rank_m, rank_t), abs=1e-9)


class TestValidateScores:
    def test_full_report(self):
        report = validate_scores(MODEL, TRUTH)
        assert report.n == 3
        assert report.mae_pct <= report.rmse_pct
        assert report.spearman_rho == 0.5

    @given(paired_series(1, 12))
    def test_record_equals_the_checked_one(self, pair):
        """The record, built without ``__init__``, equals and prints as the one
        the constructor builds from the same fields."""
        report = validate_scores(*pair)
        checked = ValidationReport(**vars(report))
        assert report == checked and repr(report) == repr(checked)

    def test_single_pair_correlations_undefined(self):
        report = validate_scores([50.0], [40.0])
        assert report.n == 1
        assert report.pearson_r is None and report.spearman_rho is None
        assert report.mae_pct == 10.0

    def test_constant_model_undefined(self):
        report = validate_scores([100.0, 100.0, 100.0], TRUTH)
        assert report.pearson_r is None and report.spearman_rho is None

    def test_constant_model_with_inexact_mean_undefined(self):
        report = validate_scores([1.9, 1.9, 1.9], TRUTH)
        assert report.pearson_r is None and report.spearman_rho is None


class TestAgainstNumpyOracle:
    @settings(max_examples=400, deadline=None)
    @given(paired_series(1, 7))
    def test_bit_equal_below_eight_pairs(self, pair):
        # NumPy sums fewer than 8 values left to right, as the plain floats do.
        m, t = pair
        want = [None if v is None else v.hex() for v in _metrics(oracles, m, t)]
        got = [None if v is None else v.hex() for v in _metrics(validation, m, t)]
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(paired_series(8, 60))
    def test_close_from_eight_pairs(self, pair):
        # NumPy sums 8 or more values pairwise: only the rounding differs.
        m, t = pair
        for got, want in zip(_metrics(validation, m, t), _metrics(oracles, m, t)):
            assert (got is None) == (want is None)
            if got is not None:
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


class TestTruthHalfCache:
    """The truth series' half of the correlations is kept per series: cold
    and warm calls give the oracle's figures bit for bit."""

    # Tied, tie-free and constant truth series, each under more than one
    # model series; a truth series with 0.0 and then one with -0.0 share a
    # key, and their mean is 0, so their deviations keep the zero's sign.
    CASES = [
        ([60.0, 70.0, 80.0], [50.0, 100.0, 100.0]),
        ([80.0, 75.5, 60.0], [50.0, 100.0, 100.0]),
        ([1.0, 2.0, 3.0], [0.0, 1.0, -1.0]),
        ([3.0, 3.0, 2.0], [-0.0, 1.0, -1.0]),
        ([2.0, 1.0, 3.0], [-0.0, 1.0, -1.0]),
        ([1.0, 2.0, 3.0], [40.0, 40.0, 40.0]),
        ([99.7, 99.0, 98.9], [94.4, 97.8, 87.2]),
        ([50.0, 50.0, 50.0], [94.4, 97.8, 87.2]),
    ]

    @staticmethod
    def _hex(module, m, t):
        return [None if v is None else v.hex() for v in _metrics(module, m, t)]

    def test_cold_and_warm_calls_match_oracle(self):
        for m, t in self.CASES:
            want = self._hex(oracles, m, t)
            validation._truth_half.cache_clear()
            assert self._hex(validation, m, t) == want
            assert self._hex(validation, m, t) == want

    def test_entries_found_by_later_series_match_oracle(self):
        validation._truth_half.cache_clear()
        for m, t in self.CASES:
            assert self._hex(validation, m, t) == self._hex(oracles, m, t)
        assert validation._truth_half.cache_info().hits > 0

    def test_signed_zero_keys_share_an_entry(self):
        validation._truth_half.cache_clear()
        validate_scores([1.0, 2.0, 3.0], [0.0, 1.0, -1.0])
        validate_scores([1.0, 2.0, 3.0], [-0.0, 1.0, -1.0])
        assert validation._truth_half.cache_info().currsize == 1


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("metric", [validate_scores, mae, rmse, pearson, spearman])
    def test_raises_naming_the_first_non_finite_pair(self, metric, bad):
        with pytest.raises(ValueError, match="non-finite value in pair 1"):
            metric([1.0, bad, 2.0], [1.0, 2.0, bad])
        with pytest.raises(ValueError, match="non-finite value in pair 0"):
            metric([1.0, 2.0, 3.0], [bad, 2.0, 3.0])


def _case_id(kind: str):
    """Case ids spell a label as ``<kind>.<LABEL>``, e.g. ``CalibrationLabel.GOOD``."""
    return lambda value: f"{kind}.{value.upper()}" if isinstance(value, str) else None


class TestAssessments:
    @pytest.mark.parametrize(
        "diff,expected",
        [
            (1.3, "Excellent"),
            (5.2, "Good"),
            (11.6, "Fair"),
            (20.0, "Poor"),
        ],
        ids=_case_id("CalibrationLabel"),
    )
    def test_calibration_labels(self, diff, expected):
        _, label = classify_assessment(90.0, diff)
        assert label == expected

    @pytest.mark.parametrize(
        "score,expected",
        [
            (92.0, "Mastery"),
            (85.0, "Mastery"),
            (70.0, "Developing"),
            (59.9, "Struggling"),
        ],
        ids=_case_id("PerformanceCategory"),
    )
    def test_performance_categories(self, score, expected):
        category, _ = classify_assessment(score, 0.0)
        assert category == expected

    def test_missing_ground_truth(self):
        category, label = classify_assessment(88.0, None)
        assert category == "Mastery" and label is None

    def test_custom_thresholds(self):
        config = ScoringConfig(calibration_excellent=1.0, calibration_good=2.0,
                               calibration_fair=3.0)
        _, label = classify_assessment(90.0, 2.5, config)
        assert label == "Fair"
