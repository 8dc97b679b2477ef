"""Empirical statistics used to compare measurements against analytic curves.

Kept dependency-light: plain normal-approximation confidence intervals and a
least-squares slope on log–log data are all the experiments need (the paper
makes asymptotic, not distributional, claims).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

#: Normal quantile of a two-sided 95% interval: the ``z`` of every interval
#: here unless a caller passes its own.
Z_95 = 1.96


@dataclass(frozen=True)
class RateEstimate:
    """A Bernoulli rate with a Wilson confidence interval."""

    successes: int
    trials: int
    rate: float
    low: float
    high: float

    def contains(self, value: float) -> bool:
        """True when ``value`` lies inside the confidence interval."""
        return self.low <= value <= self.high

    @property
    def width(self) -> float:
        """Full width of the confidence interval (the precision measure the
        adaptive executor targets)."""
        return self.high - self.low


def success_rate(successes: int, trials: int, *, z: float = Z_95) -> RateEstimate:
    """Wilson score interval for a Bernoulli success rate.

    Args:
        successes: Number of successful trials.
        trials: Total number of trials (must be positive).
        z: Normal quantile (1.96 = 95% confidence).
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, {trials}], got {successes}")
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p_hat + z * z / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
    return RateEstimate(
        successes=successes,
        trials=trials,
        rate=p_hat,
        low=max(0.0, centre - margin),
        high=min(1.0, centre + margin),
    )


def mean_confidence_interval(
    values: Sequence[float], *, z: float = Z_95
) -> tuple[float, float, float]:
    """Mean with a normal-approximation confidence interval.

    Returns:
        ``(mean, low, high)``.  With fewer than two values the interval
        degenerates to the single value.
    """
    if not values:
        raise ValueError("values must be non-empty")
    mean = statistics.fmean(values)
    if len(values) < 2:
        return mean, mean, mean
    stderr = statistics.stdev(values) / math.sqrt(len(values))
    return mean, mean - z * stderr, mean + z * stderr


def relative_ci_width(interval: tuple[float, float, float]) -> float:
    """Full width of a :func:`mean_confidence_interval`, relative to the mean.

    The scale-free precision measure the adaptive executor applies to round
    counts: ``(high - low) / max(|mean|, 1)`` for ``interval = (mean, low,
    high)``, so a target of ``0.1`` reads as "the mean is pinned to within
    ±5%".  The interval of a single value (or a constant sample) has zero
    width — deterministic round schedules converge immediately.
    """
    mean, low, high = interval
    return (high - low) / max(abs(mean), 1.0)


def trials_for_rate_width(rate: float, width: float, *, z: float = Z_95) -> int:
    """Trials needed for a Wilson interval of ``width`` at a true ``rate``.

    A normal-approximation planning bound (used to size adaptive batches and
    document expected costs, never to decide convergence — the executor
    always measures the realised interval): the Wilson width is approximately
    ``2 z sqrt(p(1-p)/n)`` away from the boundaries and ``z^2 / (n + z^2)``
    at them, so the max of the two solved for ``n`` covers both regimes.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must lie in [0, 1], got {rate}")
    if not 0.0 < width < 1.0:
        raise ValueError(f"width must lie in (0, 1), got {width}")
    wald = (2.0 * z / width) ** 2 * rate * (1.0 - rate)
    boundary = z * z * (1.0 - width) / width
    return max(1, math.ceil(max(wald, boundary)))


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x``.

    Used to check growth exponents: measured rounds of Algorithm 3 against
    ``t`` (expected slope ~2 in the quadratic regime) and of Chor–Coan
    (expected slope ~1).

    Raises:
        ValueError: On mismatched lengths, fewer than two points, or
            non-positive coordinates (which have no logarithm).
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a slope")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("log-log fit requires strictly positive coordinates")
    log_x = [math.log(x) for x in xs]
    log_y = [math.log(y) for y in ys]
    mean_x = statistics.fmean(log_x)
    mean_y = statistics.fmean(log_y)
    sxx = sum((x - mean_x) ** 2 for x in log_x)
    if sxx == 0:
        raise ValueError("xs are all identical; slope is undefined")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(log_x, log_y))
    return sxy / sxx


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (used for speedup ratios across a sweep)."""
    if not values:
        raise ValueError("values must be non-empty")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(statistics.fmean(math.log(v) for v in values))
