from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from invwalk import chain, formulas, genfun, spectral
from invwalk.budget import WorkBudgetError
from invwalk.genfun import Polynomial, RationalFunction


def poly(*coeffs):
    return Polynomial(coeffs)


def test_polynomial_arithmetic():
    a = poly(1, 2)
    b = poly(0, 1, 1)
    assert (a + b).coeffs == (1, 3, 1)
    assert (a * b).coeffs == (0, 1, 3, 2)
    assert (a - a).is_zero()
    assert poly(0, 0, 0).degree == -1
    quo, rem = poly(-1, 0, 1).divmod(poly(1, 1))
    assert quo.coeffs == (-1, 1) and rem.is_zero()


def test_polynomial_gcd_and_content():
    g = (poly(1, 1) * poly(2, -2)).gcd(poly(1, 1) * poly(0, 3))
    assert g == poly(1, 1)
    assert poly(4, -6).content() == 2
    assert poly(Fraction(1, 2), Fraction(3, 4)).primitive().coeffs == (2, 3)


def test_format_polynomial():
    assert genfun.format_polynomial(poly(1, 0, -1)) == "1 - t^2"
    assert genfun.format_polynomial(poly(0, 2, 1)) == "2*t + t^2"
    assert genfun.format_polynomial(poly()) == "0"
    assert genfun.format_polynomial(poly(-1, 1)) == "-1 + t"


def test_rational_function_normal_form():
    rf = RationalFunction(poly(0, -1), poly(-1, 0, 1))
    assert str(rf) == "t / (1 - t^2)"
    # Reduction by the common factor.
    rf = RationalFunction(poly(0, 1) * poly(1, 1), poly(1, 0, -1))
    assert rf.num == poly(0, 1)
    assert rf.den == poly(1, -1)
    with pytest.raises(ValueError):
        RationalFunction(poly(1), poly(0, 1))  # pole at t=0
    with pytest.raises(ZeroDivisionError):
        RationalFunction(poly(1), poly())


def test_series_of_geometric():
    rf = RationalFunction(poly(1), poly(1, -1))
    assert genfun.series(rf, 4) == [1, 1, 1, 1, 1]
    assert genfun.series(rf, 0) == [1]


@settings(max_examples=40, deadline=None)
@given(num=st.lists(st.integers(-5, 5), min_size=1, max_size=4),
       den_tail=st.lists(st.integers(-5, 5), min_size=0, max_size=3))
def test_series_satisfies_recurrence(num, den_tail):
    den = poly(1, *den_tail)
    rf = RationalFunction(poly(*num), den)
    coeffs = genfun.series(rf, 12)
    # Multiplying back by the denominator must reproduce the numerator.
    for n in range(8):
        conv = sum(rf.den.coeffs[j] * coeffs[n - j]
                   for j in range(min(n, rf.den.degree) + 1))
        expected = rf.num.coeffs[n] if n <= rf.num.degree else 0
        assert conv == expected


def _printed_gfs():
    one_minus_t = poly(1, -1)
    return {
        1: RationalFunction(poly(0, 1), poly(1, 0, -1)),
        2: RationalFunction(poly(0, 2, 1),
                            one_minus_t * poly(2, -1) * poly(1, 1)),
        3: RationalFunction(3 * poly(0, 27, 9, -7, -1),
                            one_minus_t * poly(9, 6, -1) * poly(9, -6, -1)),
        4: RationalFunction(poly(0, 256, -192, -48, 44, -5),
                            one_minus_t * poly(16, 0, -5) * poly(16, -20, 5)),
    }


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_build_gf_matches_reference(m):
    built = genfun.build_gf(m)
    reference = _printed_gfs()[m]
    assert built.num == reference.num
    assert built.den == reference.den


def test_build_gf_canonical_string():
    assert str(genfun.build_gf(1)) == "t / (1 - t^2)"


def test_series_examples():
    assert genfun.series(genfun.build_gf(1), 5) == [0, 1, 0, 1, 0, 1]
    assert genfun.series(genfun.build_gf(2), 4) == \
        [0, 1, 1, Fraction(3, 2), Fraction(5, 4)]


@pytest.mark.parametrize("m", range(1, 9))
def test_series_equals_dp(m):
    assert genfun.series(genfun.build_gf(m), 30) == \
        list(chain.iterate_totals(m, 30))


def test_dimension_limit(monkeypatch):
    def no_solves(*args):
        raise AssertionError("build_gf solved a point before refusing")

    monkeypatch.setattr(genfun, "_solve_at_point", no_solves)
    with pytest.raises(WorkBudgetError):
        genfun.build_gf(50)  # d = 1275 > DEFAULT_DIMENSION_LIMIT


def test_aperiodic_gf_identity_at_p_one():
    rf = genfun.build_gf(2)
    assert genfun.aperiodic_gf(rf, 2, Fraction(1)) is rf


def test_aperiodic_gf_m1_half():
    rf = genfun.aperiodic_gf(genfun.build_gf(1), 1, Fraction(1, 2))
    assert genfun.series(rf, 6) == [0] + [Fraction(1, 2)] * 6


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_aperiodic_gf_matches_exact_mix(m):
    base = genfun.build_gf(m)
    for p in (Fraction(1, 2), Fraction(m, m + 1)):
        rf = genfun.aperiodic_gf(base, m, p)
        coeffs = genfun.series(rf, 15)
        for n, c in enumerate(coeffs):
            assert c == formulas.aperiodic_expected(m, n, p)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_pole_check_passes(m):
    table = spectral.build_table(m, 128)
    report = genfun.pole_check(genfun.build_gf(m), table)
    assert report.passed
    assert report.unmatched_degree == 0


def test_pole_check_m2_candidates():
    table = spectral.build_table(2, 128)
    report = genfun.pole_check(genfun.build_gf(2), table)
    roots = sorted(root for root, _, _ in report.matched)
    assert roots == pytest.approx([-1.0, 1.0, 2.0])


def test_pole_check_rejects_alien_root():
    table = spectral.build_table(2, 128)
    alien = RationalFunction(poly(1), poly(1, 0, 0, -1) * genfun.build_gf(2).den)
    report = genfun.pole_check(alien, table)
    assert not report.passed
    assert report.unmatched_degree > 0
