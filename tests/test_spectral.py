import dataclasses
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import workprec

from invwalk import spectral


def test_table_values_m2():
    table = spectral.build_table(2, 53)
    with workprec(53):
        assert abs(table.c[0] - mpmath.sqrt(3) / 2) < 1e-15
        assert table.c[1] == 0
        assert table.s[1] == 1
        assert table.c[2] == -table.c[0]
        assert table.s[2] == table.s[0]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 12, 33])
def test_mirror_symmetry_is_exact(m):
    # Bit-exact, not approximate: downstream symmetry halving relies on it.
    table = spectral.build_table(m, 128)
    with workprec(table.precision):  # negation must not re-round
        for k in range(m + 1):
            assert table.c[m - k] == -table.c[k]
            assert table.s[m - k] == table.s[k]
    if m % 2 == 0:
        assert table.c[m // 2] == 0
        assert table.s[m // 2] == 1


def test_eigenvalue_examples():
    t1 = spectral.build_table(1, 53)
    assert float(spectral.eigenvalue(t1, 0, 0)) == pytest.approx(-1, abs=1e-15)
    t2 = spectral.build_table(2, 53)
    certified = sorted(
        float(spectral.eigenvalue(t2, j, k))
        for j in range(3) for k in range(3)
        if spectral.is_certified_eigenvalue(t2, j, k)
    )
    assert certified == pytest.approx([-1, -1, -1, -1, 0.5, 0.5])


def test_certification_predicate():
    table = spectral.build_table(4, 53)
    for j in range(5):
        for k in range(5):
            assert spectral.is_certified_eigenvalue(table, j, k) == (j + k != 4)


@pytest.mark.parametrize("m", [3, 5, 8, 20, 101])
def test_certified_eigenvalues_inside_unit_disc(m):
    table = spectral.build_table(m, 53)
    for j in range(m + 1):
        for k in range(j, m + 1):
            if j + k == m:
                continue
            x = spectral.eigenvalue(table, j, k)
            assert abs(x) < 1
            if m >= 8:
                assert 0 < x < 1


@pytest.mark.parametrize("m", [1, 2, 5, 40])
@pytest.mark.parametrize("precision", [53, 128])
def test_identities_exact_targets(m, precision):
    table = spectral.build_table(m, precision)
    report = spectral.verify_identities(table)
    assert report.all_passed
    exacts = [check.exact for check in report.checks]
    assert exacts == [
        (m + 1) ** 2,
        m * (m + 1),
        Fraction(m * (m + 1), 2),
        2 * m * (m + 1) ** 3,
        2 * m * (m + 1) ** 2,
        (2 * m + 1) * (m + 1) ** 2,
        2 * m * (m + 1) ** 3,
    ]


@pytest.mark.parametrize("m", [10, 64, 90])
def test_direct_and_factored_evaluations_agree(m):
    # The factored restructuring must reproduce the literal double sums.
    table = spectral.build_table(m, 128)
    direct = spectral.verify_identities(table, direct=True)
    factored = spectral.verify_identities(table, direct=False)
    for a, b in zip(direct.checks, factored.checks):
        assert a.name == b.name
        assert a.passed and b.passed


@settings(max_examples=25, deadline=None)
@given(m=st.integers(min_value=1, max_value=300),
       precision=st.sampled_from([53, 128]))
def test_identities_property(m, precision):
    table = spectral.build_table(m, precision)
    report = spectral.verify_identities(table)
    tol = (m + 1) ** 3 * math.ldexp(1, -precision + 7)
    assert report.all_passed
    assert report.max_residual < tol


@pytest.mark.parametrize("m", [5, 64, 90])
def test_identities_reject_perturbed_table(m):
    # The seven sums are evaluated on guarded values, so only the entry
    # bound can see a table that is off.
    table = spectral.build_table(m, 53)
    with workprec(53):
        scaled = dataclasses.replace(table, c=tuple(c * (1 + mpmath.mpf(1e-6)) for c in table.c))
        s = list(table.s)
        s[m // 3] += mpmath.ldexp(1, -50)  # 8 * 2^-p
        shifted = dataclasses.replace(table, s=tuple(s))
    assert spectral.verify_identities(table).all_passed
    for bad in (scaled, shifted):
        report = spectral.verify_identities(bad)
        assert report.max_residual == 0
        assert report.table_error > spectral.TABLE_ERROR_BOUND
        assert not report.all_passed


@pytest.mark.parametrize("m", [2, 3])
def test_certify_spectrum(m):
    report = spectral.certify_spectrum(m)
    assert report["passed"]
    assert all(r < 1e-8 for r in report["residuals"].values())


def test_transition_matrix_is_stochastic():
    matrix = spectral.transition_matrix(3)
    for row in matrix:
        assert sum(row) == 1
        assert all(v >= 0 for v in row)
