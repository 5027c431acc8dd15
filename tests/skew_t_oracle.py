"""Test-side oracle for the frozen skew-t constants of ``kfpca.simgen``.

The skewed score law is the unit (location 0, scale 1) skew-t of Azzalini
and Capitanio (2003) calibrated to skewness 1.5 and excess kurtosis 5.1.
The library keeps only the solved shape (``SKEW_T_SLANT``, ``SKEW_T_DF``)
and the mean and variance that standardize a draw; the tests re-derive them
here from the moment formulas.
"""

import math

import numpy as np
from scipy import optimize, special

TARGET_SKEWNESS = 1.5
TARGET_EXCESS_KURTOSIS = 5.1

_DF_MAX = 1e6
_DELTA_MAX = 1.0 - 1e-12


def _skew_t_b(df: float) -> float:
    return math.sqrt(df / math.pi) * math.exp(
        special.gammaln((df - 1.0) / 2.0) - special.gammaln(df / 2.0)
    )


def skew_t_shape_moments(slant: float, df: float) -> tuple[float, float, float, float]:
    """Mean, variance, skewness, and excess kurtosis of the unit skew-t
    (df > 4)."""
    delta = slant / math.sqrt(1.0 + slant * slant)
    return _moments_from_delta(delta, df)


def _moments_from_delta(delta: float, df: float):
    b = _skew_t_b(df)
    mu = b * delta
    m2 = df / (df - 2.0)
    var = m2 - mu * mu
    skew = (
        mu
        * (df * (3.0 - delta * delta) / (df - 3.0) - 3.0 * m2 + 2.0 * mu * mu)
        / var**1.5
    )
    exkurt = (
        3.0 * df * df / ((df - 2.0) * (df - 4.0))
        - 4.0 * mu * mu * df * (3.0 - delta * delta) / (df - 3.0)
        + 6.0 * mu * mu * m2
        - 3.0 * mu**4
    ) / var**2 - 3.0
    return mu, var, skew, exkurt


def _delta_for_skewness(target: float, df: float) -> float | None:
    """Delta in (0, 1) matching a positive skewness target at fixed df, or
    None when the target exceeds the family's reach at that df."""
    if _moments_from_delta(_DELTA_MAX, df)[2] < target:
        return None
    return optimize.brentq(
        lambda dl: _moments_from_delta(dl, df)[2] - target,
        0.0,
        _DELTA_MAX,
        xtol=1e-15,
    )


def solve_skew_t_params(
    target_skewness: float, target_excess_kurtosis: float
) -> tuple[float, float]:
    """(slant, df) matching positive skewness and excess kurtosis targets.

    Nested bisection: for each df the slant is solved from the skewness
    equation, then df from the kurtosis equation, bracketed by the first
    sign change on a log grid of df over (4, 1e6].  Raises ValueError when
    there is no bracket or a moment residual exceeds 1e-8.
    """

    def kurt_gap(df):
        delta = _delta_for_skewness(target_skewness, df)
        if delta is None:
            return None
        return _moments_from_delta(delta, df)[3] - target_excess_kurtosis

    grid = np.exp(np.linspace(np.log(4.0 + 1e-6), np.log(_DF_MAX), 300))
    gaps = [kurt_gap(df) for df in grid]
    crossing = next(
        (
            (grid[i], grid[i + 1])
            for i in range(len(grid) - 1)
            if gaps[i] is not None
            and gaps[i + 1] is not None
            and gaps[i] * gaps[i + 1] <= 0
        ),
        None,
    )
    if crossing is None:
        raise ValueError("no df brackets the targets")

    df = optimize.brentq(kurt_gap, crossing[0], crossing[1], xtol=1e-12)
    delta = _delta_for_skewness(target_skewness, df)
    _, _, got_skew, got_kurt = _moments_from_delta(delta, df)
    if (
        abs(got_skew - target_skewness) > 1e-8
        or abs(got_kurt - target_excess_kurtosis) > 1e-8
    ):
        raise ValueError("skew-t moment solve did not converge")
    return delta / math.sqrt(1.0 - delta * delta), float(df)
