"""Tests for the analysis layer: Paley–Zygmund, bound curves and statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.bounds import (
    BoundCurves,
    committee_good_phase_probability,
    crossover_versus_chor_coan,
    example_speedup_at_three_quarters,
    expected_spoilable_phases,
    gap_to_lower_bound,
    message_curves,
    predicted_phases_chor_coan_under_straddle,
    predicted_phases_under_straddle,
)
from repro.analysis.paley_zygmund import (
    coin_success_lower_bound,
    common_coin_bias_bound,
    exact_common_coin_probability,
    paley_zygmund_bound,
    sum_exceeds_probability,
)
from repro.analysis.statistics import (
    geometric_mean,
    loglog_slope,
    mean_confidence_interval,
    relative_ci_width,
    success_rate,
    trials_for_rate_width,
)


class TestPaleyZygmund:
    def test_inequality_holds_for_bernoulli_example(self):
        # X ~ Bernoulli(p) scaled: E[X] = p, E[X^2] = p; P(X > theta*p) = p for theta<1.
        p, theta = 0.3, 0.5
        assert paley_zygmund_bound(p, p, theta) <= p + 1e-12

    def test_inequality_monotone_in_theta(self):
        bounds = [paley_zygmund_bound(1.0, 2.0, theta) for theta in (0.0, 0.3, 0.6, 0.9)]
        assert bounds == sorted(bounds, reverse=True)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            paley_zygmund_bound(1.0, 2.0, 1.5)
        with pytest.raises(ValueError):
            paley_zygmund_bound(-1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            paley_zygmund_bound(1.0, 0.0, 0.5)

    def test_theorem3_constant_is_at_least_one_twelfth(self):
        for n in (16, 64, 256, 1024, 4096):
            assert coin_success_lower_bound(n) >= 1 / 12 - 1e-9

    def test_theorem3_bound_validated_by_monte_carlo(self):
        # P(X > sqrt(n)/2) for the honest-sum X must dominate the PZ bound.
        n = 100
        g = n - int(0.5 * math.sqrt(n))
        rng = np.random.default_rng(0)
        sums = rng.choice([-1, 1], size=(20000, g)).sum(axis=1)
        empirical = float(np.mean(sums > 0.5 * math.sqrt(n)))
        assert empirical >= coin_success_lower_bound(n)

    def test_sum_exceeds_probability_exact_small_case(self):
        # 3 flips: P(S > 1) = P(S = 3) = 1/8.
        assert sum_exceeds_probability(3, 1) == pytest.approx(1 / 8)
        # P(S > 0) = P(S in {1, 3}) = 4/8.
        assert sum_exceeds_probability(3, 0) == pytest.approx(0.5)
        assert sum_exceeds_probability(0, 0) == 0.0
        assert sum_exceeds_probability(4, 10) == 0.0

    def test_exact_common_coin_probability_decreases_with_byzantine(self):
        probs = [exact_common_coin_probability(64, f) for f in (0, 2, 4, 8, 16)]
        assert probs == sorted(probs, reverse=True)
        assert probs[0] > 0.9  # no Byzantine: only a tie can be ambiguous

    def test_exact_common_coin_probability_at_corollary_threshold(self):
        # At f = sqrt(k)/2 the guarantee is a constant bounded away from 0.
        for k in (16, 64, 256):
            f = int(0.5 * math.sqrt(k))
            assert exact_common_coin_probability(k, f) >= 1 / 12

    def test_bias_bound_is_symmetric_interval(self):
        low, high = common_coin_bias_bound(64, 4)
        assert 0 < low < 0.5 < high < 1
        assert low + high == pytest.approx(1.0)

    def test_degenerate_cases(self):
        assert exact_common_coin_probability(4, 4) == 0.0
        with pytest.raises(ValueError):
            exact_common_coin_probability(0, 0)
        with pytest.raises(ValueError):
            sum_exceeds_probability(-1, 0)


class TestBoundCurves:
    def test_curve_ordering_small_t(self):
        curves = BoundCurves.at(4096, 30)
        assert curves.lower_bound <= curves.this_paper + 1e-9
        assert curves.this_paper <= curves.deterministic + 1

    def test_speedup_grows_as_t_shrinks(self):
        n = 1 << 20
        curves = [BoundCurves.at(n, t) for t in (200000, 20000, 2000)]
        speedups = [curve.chor_coan / curve.this_paper for curve in curves]
        assert speedups == sorted(speedups)

    def test_gap_to_lower_bound_is_polylog_at_sqrt_n(self):
        n = 1 << 20
        t = int(math.sqrt(n))
        gap = gap_to_lower_bound(n, t)
        assert gap <= math.log2(n) ** 2.5

    def test_crossover_value(self):
        n = 4096
        assert crossover_versus_chor_coan(n) == pytest.approx(n / (12.0 * 12.0))

    def test_example_speedup_direction(self):
        ours, chor_coan = example_speedup_at_three_quarters(1 << 40)
        assert ours > 0 and chor_coan > 0

    def test_message_curves_ordering(self):
        curves = message_curves(1 << 14, 64)
        assert curves["this_paper"] <= curves["chor_coan"] + 1e-9
        assert curves["lower_bound_nt"] <= curves["this_paper"]

    def test_good_phase_probability_behaviour(self):
        assert committee_good_phase_probability(64, 0) > committee_good_phase_probability(64, 8)
        assert committee_good_phase_probability(64, 64) == 0.0
        assert committee_good_phase_probability(0, 0) == 0.0

    def test_expected_spoilable_phases_scales_inversely_with_committee_size(self):
        few = expected_spoilable_phases(1024, 100, committee_size=256)
        many = expected_spoilable_phases(1024, 100, committee_size=4)
        assert few < many
        assert expected_spoilable_phases(1024, 0, 16) == 0.0

    def test_straddle_phase_predictions_favor_paper_for_small_t(self):
        n, t = 4096, 40
        ours = predicted_phases_under_straddle(n, t)
        chor_coan = predicted_phases_chor_coan_under_straddle(n, t)
        assert ours < chor_coan


class TestStatistics:
    def test_success_rate_interval_contains_truth(self):
        estimate = success_rate(90, 100)
        assert estimate.rate == pytest.approx(0.9)
        assert estimate.low < 0.9 < estimate.high
        assert estimate.contains(0.9)
        assert not estimate.contains(0.5)

    def test_success_rate_validation(self):
        with pytest.raises(ValueError):
            success_rate(5, 0)
        with pytest.raises(ValueError):
            success_rate(11, 10)

    def test_mean_confidence_interval(self):
        mean, low, high = mean_confidence_interval([2.0, 4.0, 6.0, 8.0])
        assert mean == pytest.approx(5.0)
        assert low < mean < high
        single = mean_confidence_interval([3.0])
        assert single == (3.0, 3.0, 3.0)
        with pytest.raises(ValueError):
            mean_confidence_interval([])

    def test_loglog_slope_recovers_exponents(self):
        xs = [2, 4, 8, 16, 32]
        assert loglog_slope(xs, [x**2 for x in xs]) == pytest.approx(2.0)
        assert loglog_slope(xs, [5 * x for x in xs]) == pytest.approx(1.0)

    def test_loglog_slope_validation(self):
        with pytest.raises(ValueError):
            loglog_slope([1, 2], [1])
        with pytest.raises(ValueError):
            loglog_slope([1], [1])
        with pytest.raises(ValueError):
            loglog_slope([0, 1], [1, 2])
        with pytest.raises(ValueError):
            loglog_slope([2, 2], [1, 2])

    def test_geometric_mean(self):
        assert geometric_mean([1, 4, 16]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, -2.0])


class TestWilsonCalibration:
    """Statistical-guarantee tests: the Wilson interval must actually deliver
    (close to) its nominal coverage, everywhere the adaptive executor relies
    on it.  Seeded Monte-Carlo, so the measured coverages are exact
    repeatable numbers; the tolerance (3 points under nominal) absorbs the
    known oscillation of the Wilson interval's exact coverage, whose worst
    dip on this grid is ~0.932 at p=0.01, n=400 (computed exactly from the
    binomial pmf), plus ~0.7 points of Monte-Carlo noise at 4000 reps —
    never a real calibration failure.
    """

    REPS = 4000
    TOLERANCE = 0.03

    def _coverage(self, p, trials, *, z=1.96, nominal=None, seed=0):
        rng = np.random.default_rng([seed, trials, int(p * 1000)])
        covered = 0
        for successes in rng.binomial(trials, p, size=self.REPS):
            if success_rate(int(successes), trials, z=z).contains(p):
                covered += 1
        return covered / self.REPS

    @pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("trials", [20, 400])
    def test_coverage_is_at_least_nominal_at_95(self, p, trials):
        assert self._coverage(p, trials) >= 0.95 - self.TOLERANCE

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_coverage_tracks_a_different_quantile(self, p):
        # z = 1.0 is nominal 68.3%: the interval must recalibrate with z,
        # not just happen to work at 1.96.
        coverage = self._coverage(p, 100, z=1.0)
        assert 0.683 - 0.03 <= coverage

    def test_coverage_is_not_grossly_conservative(self):
        # A degenerate "[0, 1] always" interval would pass the floor checks;
        # at the easiest cell the coverage must stay below 100%.
        assert self._coverage(0.5, 400) < 0.999

    def test_all_failures_interval_is_anchored_at_zero(self):
        estimate = success_rate(0, 25)
        assert estimate.rate == 0.0
        assert estimate.low == 0.0
        assert 0.0 < estimate.high < 1.0

    def test_all_successes_interval_is_anchored_at_one(self):
        estimate = success_rate(25, 25)
        assert estimate.rate == 1.0
        assert estimate.high == 1.0
        assert 0.0 < estimate.low < 1.0
        # At the boundary the width is exactly z^2 / (n + z^2) — the hard
        # floor that sizes the adaptive executor's minimum trial count.
        z = 1.96
        assert estimate.width == pytest.approx(z * z / (25 + z * z))

    def test_width_shrinks_with_trials_and_grows_with_z(self):
        widths = [success_rate(n // 2, n).width for n in (20, 80, 320)]
        assert widths[0] > widths[1] > widths[2]
        by_z = [success_rate(50, 100, z=z).width for z in (1.0, 1.96, 3.0)]
        assert by_z[0] < by_z[1] < by_z[2]

    def test_interval_always_stays_inside_the_unit_range(self):
        for trials in (1, 7, 33):
            for successes in range(trials + 1):
                estimate = success_rate(successes, trials)
                assert 0.0 <= estimate.low <= estimate.rate <= estimate.high <= 1.0


def _relative_width(values):
    return relative_ci_width(mean_confidence_interval(values))


class TestAdaptivePrecisionHelpers:
    def test_relative_ci_width_matches_the_interval(self):
        values = [10.0, 12.0, 9.0, 11.0, 13.0, 8.0]
        mean, low, high = mean_confidence_interval(values)
        assert relative_ci_width((mean, low, high)) == pytest.approx((high - low) / mean)

    def test_relative_ci_width_is_scale_free_above_one(self):
        values = [10.0, 12.0, 9.0, 11.0]
        scaled = [v * 100 for v in values]
        assert _relative_width(values) == pytest.approx(_relative_width(scaled))

    def test_relative_ci_width_of_a_constant_sample_is_zero(self):
        assert _relative_width([7.0, 7.0, 7.0]) == 0.0
        assert _relative_width([5.0]) == 0.0

    def test_relative_ci_width_guards_near_zero_means(self):
        # The max(|mean|, 1) denominator keeps near-zero means from
        # exploding the relative width.
        values = [-0.01, 0.01, -0.01, 0.01]
        assert _relative_width(values) < 1.0

    def test_trials_for_rate_width_is_achievable(self):
        # Running the planned trial count at the planned rate must land at
        # or under the requested width (the bound is conservative).
        for rate in (0.0, 0.5, 0.9, 1.0):
            for width in (0.05, 0.1, 0.2):
                needed = trials_for_rate_width(rate, width)
                successes = round(rate * needed)
                assert success_rate(successes, needed).width <= width * 1.05

    def test_trials_for_rate_width_monotonicity(self):
        assert trials_for_rate_width(0.5, 0.05) > trials_for_rate_width(0.5, 0.1)
        assert trials_for_rate_width(1.0, 0.1) == trials_for_rate_width(0.0, 0.1)

    def test_trials_for_rate_width_validation(self):
        with pytest.raises(ValueError):
            trials_for_rate_width(1.5, 0.1)
        with pytest.raises(ValueError):
            trials_for_rate_width(0.5, 0.0)
        with pytest.raises(ValueError):
            trials_for_rate_width(0.5, 1.0)
