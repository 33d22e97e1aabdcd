import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from invwalk import chain, formulas, genfun, spectral
from invwalk.budget import WorkBudgetError
from invwalk.genfun import Polynomial, RationalFunction

from gf_reference import poly, poly_add, poly_mul, printed_gfs, series_reference


def _euclid_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd by Euclid over Q: the coprimality oracle (genfun takes none)."""
    a, b = list(a.coeffs), list(b.coeffs)
    while b:
        while len(a) >= len(b):  # a <- a mod b
            factor = a[-1] / b[-1]
            shift = len(a) - len(b)
            for j, bj in enumerate(b):
                a[shift + j] -= factor * bj
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return Polynomial([c / a[-1] for c in a])


def _exact_quotient(a: Polynomial, b: Polynomial) -> Polynomial:
    rem, quo = list(a.coeffs), [Fraction(0)] * (a.degree - b.degree + 1)
    for shift in range(len(quo) - 1, -1, -1):
        quo[shift] = rem[shift + b.degree] / b.coeffs[-1]
        for j, bj in enumerate(b.coeffs):
            rem[shift + j] -= quo[shift] * bj
    assert not any(rem)
    return Polynomial(quo)


def _substituted_then_reduced(rf: RationalFunction, p: Fraction) -> RationalFunction:
    """The lazy GF as written, 1/(1-qt) * I(tp/(1-qt)) over (1-qt)^deg, then
    divided through by the Euclid gcd."""
    q = 1 - p
    deg = max(rf.num.degree, rf.den.degree)

    def substituted(coeffs):
        acc = Polynomial()
        for i, c in enumerate(coeffs):
            term = Polynomial([c * p**i])
            for _ in range(i):
                term = poly_mul(term, poly(0, 1))
            for _ in range(deg - i):
                term = poly_mul(term, poly(1, -q))
            acc = poly_add(acc, term)
        return acc

    num = substituted(rf.num.coeffs)
    den = poly_mul(substituted(rf.den.coeffs), poly(1, -q))
    g = _euclid_gcd(num, den)
    return RationalFunction(_exact_quotient(num, g), _exact_quotient(den, g))


def test_polynomial_arithmetic():
    a = poly(1, 2)
    b = poly(0, 1, 1)
    for x, y in ((a, b), (a, 3), (3, b), (a, Fraction(1, 2))):
        with pytest.raises(TypeError):
            x * y  # genfun multiplies no polynomials; the tests own the product
    assert poly_add(a, b).coeffs == (1, 3, 1)
    assert poly_mul(a, b).coeffs == (0, 1, 3, 2)
    assert poly(0, 0, 0).degree == -1


def test_polynomial_gcd_and_content():
    # The oracle's gcd; genfun itself takes none.
    g = _euclid_gcd(poly_mul(poly(1, 1), poly(2, -2)), poly_mul(poly(1, 1), poly(0, 3)))
    assert g == poly(1, 1)
    assert _euclid_gcd(poly(1, 1), poly(2, 1)) == poly(1)
    assert poly(4, -6).content() == 2


def test_format_polynomial():
    assert genfun.format_polynomial(poly(1, 0, -1)) == "1 - t^2"
    assert genfun.format_polynomial(poly(0, 2, 1)) == "2*t + t^2"
    assert genfun.format_polynomial(poly()) == "0"
    assert genfun.format_polynomial(poly(-1, 1)) == "-1 + t"


def test_rational_function_normal_form():
    rf = RationalFunction(poly(0, -1), poly(-1, 0, 1))
    assert str(rf) == "t / (1 - t^2)"
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


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30)


@settings(max_examples=150, deadline=None)
@given(num=st.lists(rationals, max_size=9),
       den=st.lists(rationals, min_size=1, max_size=6).filter(lambda d: d[0] != 0),
       N=st.integers(0, 30))
def test_series_equals_fraction_recurrence(num, den, N):
    # Constant terms other than 1 and negative ones (normalisation flips the
    # sign), rational numerators, numerators longer than the denominator,
    # degree-0 denominators and the zero numerator.
    rf = RationalFunction(Polynomial(num), Polynomial(den))
    assert genfun.series(rf, N) == series_reference(rf, N)


@pytest.mark.parametrize("m", range(1, 13))
def test_series_of_lazy_gfs_equals_fraction_recurrence(m):
    base = genfun.build_gf(m)
    N = m * (m + 1) + 2
    for p in (None, Fraction(1, 2), Fraction(1, 7), Fraction(999, 1000)):
        rf = base if p is None else genfun.aperiodic_gf(base, m, p)
        assert genfun.series(rf, N) == series_reference(rf, N)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_build_gf_matches_reference(m):
    built = genfun.build_gf(m)
    reference = printed_gfs()[m]
    assert built.num == reference.num
    assert built.den == reference.den


def test_build_gf_canonical_string():
    assert str(genfun.build_gf(1)) == "t / (1 - t^2)"


def test_series_examples():
    assert genfun.series(genfun.build_gf(1), 5) == [0, 1, 0, 1, 0, 1]
    assert genfun.series(genfun.build_gf(2), 4) == \
        [0, 1, 1, Fraction(3, 2), Fraction(5, 4)]


def _dp_bm_gf(m: int) -> RationalFunction:
    """I_m(t) straight from the DP, the oracle of ``build_gf``: the state is
    affine of dimension d = m(m+1)/2, so Berlekamp-Massey on m^n I_{m,n},
    n < 2(d+1), gives the minimal denominator C(m t), and the numerator is
    (C S) mod t^L."""
    values = list(chain.iterate_totals(m, m * (m + 1) + 1))
    scaled, order = genfun.berlekamp_massey([v.numerator * (m**n // v.denominator)
                                             for n, v in enumerate(values)])
    den = Polynomial([c / Fraction(m) ** i for i, c in enumerate(scaled.coeffs)])
    num = [sum(den.coeffs[i] * values[k - i] for i in range(min(k, den.degree) + 1))
           for k in range(order)]
    return RationalFunction(Polynomial(num), den)


@pytest.mark.parametrize("m", range(1, 15))
def test_build_gf_equals_dp_oracle(m):
    rf = genfun.build_gf(m)
    oracle = _dp_bm_gf(m)
    assert rf.num.coeffs == oracle.num.coeffs
    assert rf.den.coeffs == oracle.den.coeffs


@pytest.mark.parametrize("m", range(1, 17))
def test_order_within_orbit_count(m):
    # V(u) = u size^T (I - u N_q)^-1 e_q on the h orbits has order <= h + 1.
    v = [0] + formulas._eriksen_weights(m, genfun.gf_terms(m) - 1)
    assert genfun.berlekamp_massey(v)[1] <= chain.orbit_count(m) + 1


@pytest.mark.parametrize("m", range(1, 11))
def test_series_equals_dp(m):
    # Ten terms past the 2(d+1) of the DP oracle's construction, and at least 30.
    n_max = max(30, m * (m + 1) + 12)
    rf = genfun.build_gf(m)
    dp = list(chain.iterate_totals(m, n_max))
    assert genfun.series(rf, n_max) == dp
    assert _euclid_gcd(rf.num, rf.den).degree == 0
    # The DP's shortest recurrence has the GF's order: V's, plus 1 - t.
    scaled = [v.numerator * (m**n // v.denominator) for n, v in enumerate(dp[:2 * rf.order + 1])]
    assert genfun.berlekamp_massey(scaled)[1] == rf.order <= chain.orbit_count(m) + 2


def test_dimension_limit(monkeypatch):
    def no_terms(*args):
        raise AssertionError("build_gf computed a term before refusing")

    monkeypatch.setattr(formulas, "_eriksen_weights", no_terms)
    for m in (25, 50):  # 340 and 1302 terms; the default budget admits m <= 24
        with pytest.raises(WorkBudgetError, match="Berlekamp-Massey"):
            genfun.build_gf(m)


def test_gf_budget_follows_env(monkeypatch):
    monkeypatch.setenv("INVWALK_BUDGET", str(10**4))
    assert genfun.build_gf(3).den.degree == 5
    with pytest.raises(WorkBudgetError, match="Berlekamp-Massey"):
        genfun.build_gf(8)


# num and den coefficients of I_m(t), m = 5..8, from the earlier
# Cramer's-rule (evaluation-interpolation) construction.
_GF_COEFFS = {
    5: ([0, 390625, -937500, 800000, -252500, -18375, 29600, -6390, 492, -12],
        [390625, -1562500, 2484375, -1937500, 675625, 15000, -90375, 27900, -3258,
         108]),
    6: ([0, 30233088, -115893504, 182518272, -150745536, 68094432, -15037488,
         530712, 382536, -58788, 2463],
        [30233088, -166281984, 393030144, -519701184, 417687840, -205562448,
         57366792, -6060312, -1044108, 364713, -33464, 923]),
    7: ([0, 33232930569601, -242125637007093, 806019677575833, -1623652195113305,
         2208940911041305, -2144458591100581, 1529632810407289, -812726308704009,
         322305860900135, -94536026053987, 20046767219983, -2940352070831,
         272918083935, -12695665731, -7619073, 18212593],
        [33232930569601, -299096375126409, 1242504669459368, -3160131963434712,
         5502797504778364, -6949188289361948, 6575253204240728, -4747500172460360,
         2638115708661566, -1128852265049166, 369241110730744, -90781937406664,
         16266616754892, -2007083363628, 151030961480, -4525955672, -177051447,
         13053263]),
    8: ([0, 562949953421312, -4996180836614144, 20490498695233536,
         -51505522691538944, 88728664216174592, -110961064207712256,
         104075016156479488, -74578083381772288, 41194830793015296,
         -17564806093471744, 5748514572992512, -1424765759913984, 261216111321088,
         -34084180194304, 2965483718400, -152223571232, 3418639106],
        [562949953421312, -5981343255101440, 29625241298796544, -90822958989180928,
         192984769078755328, -301557539412115456, 358782062313865216,
         -331965696072220672, 241852732388933632, -139579652208328704,
         63858102019555328, -23059427961012224, 6508103529046016, -1412001412729856,
         229467820946432, -26821659623648, 2109118354178, -98579447867,
         2028086809]),
}


@pytest.mark.parametrize("m", [5, 6, 7, 8])
def test_build_gf_coefficients_pinned(m):
    rf = genfun.build_gf(m)
    num, den = _GF_COEFFS[m]
    assert rf.num.coeffs == tuple(num)
    assert rf.den.coeffs == tuple(den)


def test_berlekamp_massey_fibonacci():
    den, order = genfun.berlekamp_massey([0, 1, 1, 2, 3, 5])
    assert order == 2
    assert [c / den.coeffs[0] for c in den.coeffs] == [1, -1, -1]


def test_build_gf_timing_guard():
    start = time.perf_counter()
    genfun.build_gf(12)
    assert time.perf_counter() - start < 2.0


def test_aperiodic_gf_identity_at_p_one():
    rf = genfun.build_gf(2)
    assert genfun.aperiodic_gf(rf, 2, Fraction(1)) is rf


def test_aperiodic_gf_m1_half():
    rf = genfun.aperiodic_gf(genfun.build_gf(1), 1, Fraction(1, 2))
    assert genfun.series(rf, 6) == [0] + [Fraction(1, 2)] * 6


@pytest.mark.parametrize("m", range(1, 9))
def test_aperiodic_gf_equals_substituted_then_reduced(m):
    base = genfun.build_gf(m)
    for p in (Fraction(1, 2), Fraction(m, m + 1), Fraction(1, 1000), Fraction(999, 1000)):
        rf = genfun.aperiodic_gf(base, m, p)
        oracle = _substituted_then_reduced(base, p)
        assert rf.num.coeffs == oracle.num.coeffs
        assert rf.den.coeffs == oracle.den.coeffs
        assert _euclid_gcd(rf.num, rf.den).degree == 0


def test_aperiodic_gf_default_and_domain():
    base = genfun.build_gf(2)
    assert genfun.aperiodic_gf(base, 2) == genfun.aperiodic_gf(base, 2, Fraction(2, 3))
    for p in (Fraction(0), Fraction(3, 2)):
        with pytest.raises(ValueError, match="p must lie in"):
            genfun.aperiodic_gf(base, 2, p)


def test_aperiodic_gf_timing_guard():
    base = genfun.build_gf(12)
    start = time.perf_counter()
    genfun.aperiodic_gf(base, 12, Fraction(1, 2))
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_aperiodic_gf_matches_exact_mix(m):
    base = genfun.build_gf(m)
    for p in (Fraction(1, 2), Fraction(m, m + 1)):
        rf = genfun.aperiodic_gf(base, m, p)
        coeffs = genfun.series(rf, 15)
        for n, c in enumerate(coeffs):
            assert c == formulas.aperiodic_expected(m, n, p)


@pytest.mark.parametrize("m", range(1, 17))
def test_pole_check_passes(m):
    rf = genfun.build_gf(m)
    report = genfun.pole_check(rf, spectral.build_table(m, 128))
    assert report.passed
    assert report.unmatched_degree == 0
    assert len(report.matched) == rf.den.degree
    assert all(multiplicity == 1 for _, _, multiplicity in report.matched)


def test_pole_check_m2_candidates():
    table = spectral.build_table(2, 128)
    report = genfun.pole_check(genfun.build_gf(2), table)
    roots = sorted(root for root, _, _ in report.matched)
    assert roots == pytest.approx([-1.0, 1.0, 2.0])


@pytest.mark.parametrize("m", range(2, 17))
@pytest.mark.parametrize("alien",
                         [poly(13, -10), poly(3, -1), poly(2, 0, -1), poly(1, 0, 0, -1)],
                         ids=["t=13/10", "t=3", "t^2=2", "t^3=1"])
def test_pole_check_rejects_alien_root(m, alien):
    # t^3 = 1 makes t = 1 a double pole, which no disc can certify.
    table = spectral.build_table(m, 128)
    rf = RationalFunction(poly(1), poly_mul(alien, genfun.build_gf(m).den))
    report = genfun.pole_check(rf, table)
    assert not report.passed
    assert report.unmatched_degree > 0


@pytest.mark.parametrize("m", [2, 7, 8, 12])
def test_pole_check_rejects_pole_near_one(m):
    """The root t = 1 moved to 1 + 2^-40: 1/(1 - t) is swapped for
    1/((2^40 + 1) - 2^40 t)."""
    den = genfun.build_gf(m).den
    rest = _exact_quotient(den, poly(1, -1))
    moved = RationalFunction(poly(1), poly_mul(rest, poly(2**40 + 1, -2**40)))
    report = genfun.pole_check(moved, spectral.build_table(m, 128))
    assert not report.passed
    assert "1" not in [label for _, label, _ in report.matched]
