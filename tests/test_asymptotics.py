import math
import time

import pytest

from invwalk import asymptotics as asy


def test_f_limit_at_zero():
    assert asy.f_kappa(0.0) == 1.0
    assert asy.f_kappa(0.0, method="quadrature") == 1.0


def test_f_small_kappa_expansion():
    # 1 - k + (4/3)k^2 - ... at k = 0.01; remainder below the cubic term.
    assert asy.f_kappa(0.01) == pytest.approx(0.9901316851, abs=1e-8)


@pytest.mark.parametrize("kappa", [1e-4, 0.01, 0.1, 0.5, 1.0, 5.0, 20.0, 100.0, 1e4, 1e6])
def test_f_series_quadrature_agree(kappa):
    a = asy.f_kappa(kappa, method="series")
    b = asy.f_kappa(kappa, method="quadrature")
    assert abs(a - b) <= 1e-14 * abs(a)


@pytest.mark.parametrize("method", ["series", "quadrature"])
def test_f_large_kappa_timing_guard(method):
    # The series' terms reach e^{8 kappa} here; neither method may pay for that.
    start = time.perf_counter()
    value = asy.f_kappa(1e4, method=method)
    assert time.perf_counter() - start < 1
    # Two-term expansion; the next term is O(kappa^-3/2), 3e-6 relative here.
    assert value == pytest.approx(math.sqrt(2 / (math.pi * 1e4)) - 1 / 4e4, rel=1e-5)


def test_f_quadrature_refuses_beyond_verified_range():
    # Above 3e31 tanh-sinh drifts from 2F2 (28x too small at 1e100).
    limit = asy.F_QUADRATURE_MAX
    assert limit == 3e31
    assert asy.f_kappa(limit, method="quadrature") == asy.f_kappa(limit, method="series")
    for kappa in (1e32, 1e100):
        with pytest.raises(ValueError, match="kappa"):
            asy.f_kappa(kappa, method="quadrature")
        assert asy.f_kappa(kappa) > 0


def test_f_monotone_decreasing():
    grid = [k / 10 for k in range(1, 51)]
    values = [asy.f_kappa(k) for k in grid]
    assert all(v > 0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


def test_f_domain_errors():
    with pytest.raises(ValueError):
        asy.f_kappa(-0.5)
    with pytest.raises(ValueError):
        asy.f_kappa(1.0, method="magic")
    for bad in (math.nan, math.inf):
        for method in ("series", "quadrature"):
            with pytest.raises(ValueError, match="kappa"):
                asy.f_kappa(bad, method=method)
    with pytest.raises(ValueError, match="method"):
        asy.f_kappa(0.0, method="magic")


def test_g_monotone_increasing_in_band():
    grid = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0]
    values = [asy.g_kappa(k) for k in grid]
    assert all(0 < v < 0.25 for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_g_limits():
    assert asy.g_kappa(10.0) == 0.25  # correction below float epsilon
    assert asy.g_kappa(1e-4) < 1e-2
    # Regression pin for the truncated series.
    assert asy.g_kappa(0.1) == pytest.approx(0.18851777748213505, rel=1e-12)
    with pytest.raises(ValueError):
        asy.g_kappa(0.0)
    with pytest.raises(ValueError):
        asy.g_kappa(-1.0)
    with pytest.raises(ValueError, match="kappa"):
        asy.g_kappa(math.nan)


def test_critical_estimate():
    assert asy.critical_estimate(100, 0.0) == \
        pytest.approx(2525 - 1600 / math.pi**4, rel=1e-12)
    # Large alpha: the correction vanishes.
    assert asy.critical_estimate(7, 50.0) == pytest.approx(14.0, abs=1e-12)
    with pytest.raises(ValueError):
        asy.critical_estimate(2, 0.0)


def test_critical_step_count():
    assert asy.critical_step_count(60, 0) == round(60**3 * math.log(60) / math.pi**2)
    assert asy.critical_step_count(60, 1) == \
        asy.critical_step_count(60, 0) + 60**3


def test_predict_sublinear():
    estimate = asy.predict(10**6, 10**3)
    assert estimate.regime == "sublinear"
    assert estimate.predicted == pytest.approx(1000, rel=1e-6)


def test_predict_linear():
    estimate = asy.predict(200, 200)
    assert estimate.regime == "linear"
    assert estimate.kappa == 1.0
    assert estimate.predicted == pytest.approx(200 * asy.f_kappa(1.0), rel=1e-9)


def test_predict_intermediate():
    estimate = asy.predict(100, 10**4)
    assert estimate.regime == "intermediate"
    assert estimate.predicted == pytest.approx(math.sqrt(2 * 10**6 / math.pi),
                                               rel=1e-9)


def test_predict_critical_and_beyond():
    n_crit = asy.critical_step_count(30, 0)
    assert asy.predict(30, n_crit).regime == "critical_log"
    assert asy.predict(30, 100 * 30**3).regime == "supercubic"
    cubic = asy.predict(30, 30**3 // 2)
    assert cubic.regime in ("cubic", "critical_log")


@pytest.mark.parametrize("m,n", [(5, 0), (5, 3), (12, 40), (30, 10**4),
                                 (60, 10**6), (40, 10**9)])
def test_predict_respects_bounds(m, n):
    estimate = asy.predict(m, n)
    assert estimate.lower - 1e-12 <= estimate.predicted <= estimate.upper + 1e-12
    assert 0 <= estimate.predicted <= m * (m + 1) / 4 + 1e-9


def test_predict_domain():
    with pytest.raises(ValueError):
        asy.predict(2, 10)
    with pytest.raises(ValueError):
        asy.predict(5, -1)


def test_consistency_limits():
    report = asy.consistency_limits()
    target = math.sqrt(2 / math.pi)
    assert report["target"] == pytest.approx(target, rel=1e-12)
    assert report["f_monotone"] and report["g_monotone"]
    # The f deviation decays like 1/sqrt(kappa): ~3.1% at kappa = 100.
    assert abs(report["f_values"][-1] - target) / target < 0.035
    assert abs(report["g_values"][-1] - target) / target < 0.02
