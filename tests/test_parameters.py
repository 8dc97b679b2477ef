"""Unit tests for the committee-count formula and complexity predictions."""

from __future__ import annotations

import math

import pytest

from repro.core.parameters import (
    ProtocolParameters,
    Regime,
    log2n,
    lower_bound_bar_joseph_ben_or,
    max_tolerable_t,
    predicted_messages,
    predicted_messages_chor_coan,
    predicted_rounds,
    predicted_rounds_chor_coan,
    predicted_rounds_deterministic,
    validate_n_t,
)
from repro.exceptions import ConfigurationError


class TestValidation:
    def test_rejects_t_at_or_above_n_over_3(self):
        with pytest.raises(ConfigurationError):
            validate_n_t(9, 3)
        validate_n_t(10, 3)  # 3 < 10/3

    def test_rejects_negative_and_empty(self):
        with pytest.raises(ConfigurationError):
            validate_n_t(0, 0)
        with pytest.raises(ConfigurationError):
            validate_n_t(10, -1)

    def test_max_tolerable_t(self):
        assert max_tolerable_t(10) == 3
        assert max_tolerable_t(9) == 2
        assert max_tolerable_t(4) == 1
        assert max_tolerable_t(1) == 0
        assert all(3 * max_tolerable_t(n) < n for n in range(1, 100))


class TestDerive:
    def test_formula_matches_paper_quadratic_branch(self):
        # For large n and sqrt(n) << t << n/log^2 n the quadratic branch
        # alpha * ceil(t^2/n) * log n is the smaller of the two.
        n, t, alpha = 1 << 20, 2000, 4.0
        params = ProtocolParameters.derive(n, t, alpha)
        expected = math.ceil(alpha * math.ceil(t * t / n) * log2n(n))
        assert params.num_phases == expected
        assert params.regime == Regime.QUADRATIC

    def test_formula_matches_paper_linear_branch(self):
        n, t, alpha = 256, 80, 4.0
        params = ProtocolParameters.derive(n, t, alpha)
        expected = math.ceil(min(alpha * math.ceil(t * t / n) * log2n(n), 3 * alpha * t / log2n(n)))
        assert params.num_phases == expected
        assert params.regime == Regime.LINEAR

    def test_zero_faults_degenerates_to_one_phase(self):
        params = ProtocolParameters.derive(64, 0)
        assert params.num_phases == 1
        assert params.committee_size == 64

    def test_committee_size_times_count_covers_n(self):
        for n, t in [(64, 5), (128, 20), (1000, 111), (4096, 1000)]:
            params = ProtocolParameters.derive(n, t)
            assert params.committee_size * params.num_committees >= n
            assert 1 <= params.committee_size <= n

    def test_phase_count_clamped_to_n(self):
        params = ProtocolParameters.derive(10, 3, alpha=100.0)
        assert params.num_phases <= 10

    def test_invalid_alpha(self):
        with pytest.raises(ConfigurationError):
            ProtocolParameters.derive(16, 2, alpha=0.0)

    def test_committee_schedule(self):
        params = ProtocolParameters.derive(100, 30)
        assert params.committee_for_phase(1) == 0
        # The schedule cycles after num_committees phases.
        assert params.committee_for_phase(params.num_committees + 1) == 0
        with pytest.raises(ConfigurationError):
            params.committee_for_phase(0)

    def test_summary_contains_key_fields(self):
        summary = ProtocolParameters.derive(64, 10).summary()
        assert summary["n"] == 64 and summary["t"] == 10
        assert summary["regime"] in ("quadratic", "linear")
        assert summary["total_rounds"] >= 2 * summary["num_phases"]


class TestPredictions:
    def test_round_bound_takes_the_min_of_both_branches(self):
        n = 1 << 14
        small_t, large_t = 8, n // 4
        assert predicted_rounds(n, small_t) < predicted_rounds_chor_coan(n, small_t)
        ratio = predicted_rounds(n, large_t) / predicted_rounds_chor_coan(n, large_t)
        assert ratio <= 1.0 + 1e-9

    def test_paper_example_t_equals_n_to_three_quarters(self):
        # Paper, Section 1.2: at t = n^0.75 our bound ~ n^0.5 log n beats
        # Chor-Coan's ~ n^0.75 / log n.  The asymptotics require n^0.25 to
        # dominate log^2 n, hence the very large (purely analytic) n.
        n = 1 << 60
        t = int(n**0.75)
        assert predicted_rounds(n, t) < predicted_rounds_chor_coan(n, t)

    def test_lower_bound_below_upper_bound(self):
        for n, t in [(1024, 32), (4096, 64), (1 << 14, 100)]:
            assert lower_bound_bar_joseph_ben_or(n, t) <= predicted_rounds(n, t) + 1e-9

    def test_deterministic_bound(self):
        assert predicted_rounds_deterministic(10) == 11.0

    def test_message_bounds_ordering(self):
        n, t = 1 << 14, 50
        assert predicted_messages(n, t) <= predicted_messages_chor_coan(n, t)

    def test_trivial_t_values(self):
        assert predicted_rounds(100, 0) == 1.0
        assert predicted_rounds_chor_coan(100, 0) == 1.0
        assert lower_bound_bar_joseph_ben_or(100, 0) == 1.0
