"""Regime laws for I_{m,n} when n scales with m.

Linear regime: I/n -> f(n/m); intermediate: I/sqrt(mn) -> sqrt(2/pi);
cubic: I/m^2 -> g(n/m^3); critical n ~ m^3 log m / pi^2 window with a
refined m-linear correction.  The laws are limits; at desk-scale m each
one's first-order remainder is still visible (see the docstrings below).
In the intermediate regime, matching the first-order terms of f at large
kappa and of g at small kappa gives
I/sqrt(mn) = sqrt(2/pi) - (1/4) sqrt(m/n) - (2/pi) sqrt(n/m^3) + ...,
so at n = m^2 the ratio sits about (1/4 + 2/pi)/sqrt(m) below its limit.
``predict`` classifies (m, n) by
engineering thresholds (the crossovers are asymptotic, not sharp) and
clamps into the rigorous sandwich bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from mpmath import mpf, workprec

from .budget import check_budget
from .formulas import bounds


@dataclass(frozen=True)
class RegimeEstimate:
    regime: str
    predicted: float
    normalizer: str
    kappa: float | None
    clamped: bool
    lower: float
    upper: float


F_PRECISION = 150   # working bits of both f methods
F_QUADRATURE_MAX = 3e31  # largest kappa at which the quadrature is verified
G_TOL = 1e-12       # absolute accuracy of g's truncated theta series


def f_kappa(kappa: float, method: str = "series") -> float:
    """Linear-regime ratio f(kappa) = lim I_{m, kappa m} / (kappa m).

    ``series``: the entire series sum_j t_j, t_j = (-1)^j (2j)! (2k)^j /
    (j! (j+1)!^2), is a hypergeometric 2F2(1/2, 1; 2, 2; -8k): t_0 = 1 and
    t_{j+1}/t_j = -(2j+2)(2j+1)(2k) / ((j+1)(j+2)^2) = -8k (j+1/2) / (j+2)^2,
    which is (j+1/2)(j+1) z / ((j+2)(j+2)(j+1)) at z = -8k.  mpmath sums it,
    or uses its asymptotic expansion at large |z| (DLMF 16.11).
    ``quadrature``: with x = 8k, f = (1/(2 pi k)) int_0^inf (1 - e^{-x t^2/(1+t^2)})
    / (t^2 (1+t^2)) dt = (4/pi) int_0^inf h, h = that integrand over x (h(0) = 1),
    by tanh-sinh over [0, 1, inf].  mpmath's quadrature controls the absolute
    error, so h is kept O(1): unscaled, the result is off by 4e-9 at k = 1e-300.

    Both run at ``F_PRECISION`` bits.  They give the same float for every
    k = 10^(e/10), e = -60..120, and 1e-300 <= k <= 3e31 at the points
    checked; above that, tanh-sinh stops resolving h's drop at t ~ 1/sqrt(x)
    and drifts silently (2e-11 relative at 1e50, 28x too small at 1e100),
    so the quadrature refuses k > ``F_QUADRATURE_MAX`` with ``ValueError``.

    For large kappa, f(k) = sqrt(2/(pi k)) - 1/(4k) + O(k^-3/2): split
    1/(t^2(1+t^2)) = 1/t^2 - 1/(1+t^2) in the integral; the second piece
    tends to pi/2 and gives the -1/(4k).  So sqrt(k) f(k) approaches
    sqrt(2/pi) only like 1/sqrt(k) (3.1% below it at k = 100).
    """
    if method not in ("series", "quadrature"):
        raise ValueError(f"method must be 'series' or 'quadrature', got {method!r}")
    if not 0 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
    if method == "quadrature" and kappa > F_QUADRATURE_MAX:
        raise ValueError(f"quadrature is verified only for kappa <= {F_QUADRATURE_MAX:g}, "
                         f"got {kappa}; use method='series'")
    if kappa == 0:
        return 1.0
    with workprec(F_PRECISION):
        x = 8 * mpf(kappa)
        if method == "series":
            return float(mpmath.hyp2f2(0.5, 1, 2, 2, -x))

        def h(t):
            if t == 0:
                return mpf(1)
            t2 = t * t
            return -mpmath.expm1(-x * t2 / (1 + t2)) / (x * t2 * (1 + t2))

        return float(4 * mpmath.quad(h, [0, 1, mpmath.inf]) / mpmath.pi)


def g_kappa(kappa: float) -> float:
    """Cubic-regime ratio g(kappa) = 1/4 - (16/pi^4) (sum_j e^{-k pi^2 (2j+1)^2/2}/(2j+1)^2)^2.

    The theta-like series is truncated where the analytic tail bound
    (geometric-in-j^2 decay under the 1/(2j+1)^2 envelope) puts g within
    ``G_TOL``; the term count is known before summing and is charged to the
    work budget.  kappa <= 0 is an error: the series only converges for
    positive kappa (the kappa -> 0+ limit is 0 but is not computed).

    For small kappa, g(k) = sqrt(2k/pi) - (2/pi) k up to terms exponentially
    small in 1/k, so g(k)/sqrt(k) = sqrt(2/pi) - (2/pi) sqrt(k) + ...
    """
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    with workprec(120):
        pi2 = mpmath.pi() ** 2
        rate = mpf(kappa) * pi2 / 2
        # Summing j = 0..J leaves a tail below e^{-rate (2J+3)^2} pi^2/8, and
        # |dg| <= (32/pi^4) S tail with S <= pi^2/8, so g is within G_TOL once
        # (2J+3)^2 > log(1/(2 G_TOL)) / rate: J + 1 = floor((s+1)/2) terms,
        # s = sqrt(log(1/(2 G_TOL)) / rate), and at least one.
        s = mpmath.sqrt(mpmath.log(1 / (2 * mpf(G_TOL))) / rate)
        terms = max(1, int((s + 1) / 2))
        # One term (an exp and a division at 120 bits) took 7-8 us on a
        # 2-core x86_64 VM: 500 units of about 16 ns.
        check_budget(500 * terms, f"g_kappa kappa={kappa}: {terms} series terms")
        total = sum((mpmath.exp(-rate * (2 * j + 1) ** 2) / (2 * j + 1) ** 2
                     for j in range(terms)), mpf(0))
        return float(mpf(1) / 4 - 16 / pi2**2 * total**2)


def critical_estimate(m: int, alpha: float) -> float:
    """Refined estimate in the n ~ m^3 log m / pi^2 + alpha m^3 window.

    m(m+1)/4 - (16/pi^4) e^{-alpha pi^2} m, with error o(m).  The correction
    term is the leading-order form of the top eigenvalue's corner term
    16 (m+1)^2 x00^n / pi^4, x00 = 1 - (4/m) sin^2(pi/(2m+2)).  With
    L = log m + alpha pi^2, n log x00 = -L (1 - 2/m + O(m^-2)), so the two
    differ by a relative amount of about 2L/m and the absolute error is
    about (32/pi^4) L e^{-alpha pi^2}.  At m = 60 the measured relative
    difference is 0.18 (alpha = 0) and 0.63 (alpha = 1).
    """
    if m < 3:
        raise ValueError(f"m must be >= 3, got {m}")
    with workprec(100):
        pi2 = mpmath.pi() ** 2
        return float(mpf(m) * (m + 1) / 4 - 16 * m / pi2**2 * mpmath.exp(-mpf(alpha) * pi2))


def critical_step_count(m: int, alpha: float) -> int:
    """n = round(m^3 log m / pi^2) + alpha m^3, the critical-window schedule."""
    return round(m**3 * math.log(m) / math.pi**2 + alpha * m**3)


def predict(m: int, n: int) -> RegimeEstimate:
    """Classify (m, n) into a regime and evaluate the matching limit law.

    Thresholds carry factor-of-10 buffers around each law's validity
    region; the regimes are only separated asymptotically, so the
    crossovers here are engineering choices (reported in the estimate).
    The prediction is clamped into the rigorous sandwich bounds.
    """
    if m < 3:
        raise ValueError(f"predict requires m >= 3 (bounds domain), got {m}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")

    log_m = math.log(m)
    n_critical = m**3 * log_m / math.pi**2
    kappa: float | None

    if n < m / 10:
        regime, normalizer = "sublinear", "n"
        kappa = None
        predicted = float(n)
    elif n <= 10 * m:
        regime, normalizer = "linear", "n"
        kappa = n / m
        predicted = n * f_kappa(kappa)
    elif n < m**3 / (10 * max(1.0, log_m)) :
        regime, normalizer = "intermediate", "sqrt(m*n)"
        kappa = None
        predicted = math.sqrt(2 * m * n / math.pi)
    elif abs(n - n_critical) <= 5 * m**3:
        regime, normalizer = "critical_log", "m"
        kappa = (n - n_critical) / m**3  # alpha
        predicted = critical_estimate(m, kappa)
    elif n <= 10 * m**3:
        regime, normalizer = "cubic", "m^2"
        kappa = n / m**3
        predicted = m**2 * g_kappa(kappa)
    else:
        regime, normalizer = "supercubic", "m^2"
        kappa = None
        predicted = m * (m + 1) / 4

    pair = bounds(m, n)
    lower, upper = float(pair.lower), float(pair.upper)
    clamped = False
    if predicted < lower:
        predicted, clamped = lower, True
    elif predicted > upper:
        predicted, clamped = upper, True
    return RegimeEstimate(regime=regime, predicted=predicted, normalizer=normalizer,
                          kappa=kappa, clamped=clamped, lower=lower, upper=upper)


def consistency_limits() -> dict:
    """Check sqrt(k) f(k) (k -> inf) and g(k)/sqrt(k) (k -> 0+) against sqrt(2/pi)."""
    target = math.sqrt(2 / math.pi)
    f_points = [10.0, 50.0, 100.0]
    g_points = [1e-2, 1e-3, 1e-4]
    f_values = [math.sqrt(k) * f_kappa(k, method="quadrature") for k in f_points]
    g_values = [g_kappa(k) / math.sqrt(k) for k in g_points]
    f_dev = [abs(v - target) for v in f_values]
    g_dev = [abs(v - target) for v in g_values]
    return {
        "target": target,
        "f_kappas": f_points,
        "f_values": f_values,
        "f_deviations": f_dev,
        "f_monotone": all(a > b for a, b in zip(f_dev, f_dev[1:])),
        "g_kappas": g_points,
        "g_values": g_values,
        "g_deviations": g_dev,
        "g_monotone": all(a > b for a, b in zip(g_dev, g_dev[1:])),
    }
