import dataclasses
import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import workprec

from invwalk import spectral
from invwalk.budget import WorkBudgetError


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
        if j + k != 2
    )
    assert certified == pytest.approx([-1, -1, -1, -1, 0.5, 0.5])


def test_orbit_pairs_cover_the_certified_spectrum():
    # One representative j <= k, j + k < m per mirror orbit, and every
    # certified pair's eigenvalue is its representative's, bit for bit.
    assert list(spectral.orbit_pairs(4)) == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2)]
    for m in range(1, 61):
        pairs = list(spectral.orbit_pairs(m))
        assert len(pairs) == len(set(pairs)) == (m + 1) // 2 * (m // 2 + 1), m
        for precision in (53, 128, 256):
            table = spectral.build_table(m, precision)
            values = {pair: spectral.eigenvalue(table, *pair)._mpf_ for pair in pairs}
            for j in range(m + 1):
                for k in range(m + 1):
                    if j + k == m:
                        continue
                    a, b = min(j, k), max(j, k)
                    representative = (a, b) if a + b < m else (m - b, m - a)
                    assert spectral.eigenvalue(table, j, k)._mpf_ == values[representative], \
                        (m, precision, j, k)


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


def _identity_sums_direct(m, c, s):
    """Literal evaluation of the seven sums, the last four as (m+1)^2 double sums."""
    one = mpmath.mpf(1)
    pairs = [(j, k) for j in range(m + 1) for k in range(m + 1)]
    return (
        mpmath.fsum(one / (1 - cj) for cj in c),
        mpmath.fsum(cj / (1 - cj) for cj in c),
        mpmath.fsum((c[k] / s[k]) ** 2 for k in range((m - 1) // 2 + 1)),
        mpmath.fsum((c[j] + c[k]) ** 2 / (s[j] ** 2 * s[k] ** 2) for j, k in pairs),
        mpmath.fsum((c[j] + c[k]) * (1 - c[j] * c[k]) / ((1 - c[j]) * (1 - c[k]))
                    for j, k in pairs),
        mpmath.fsum((1 - c[j] * c[k]) ** 2 / ((1 - c[j]) * (1 - c[k])) for j, k in pairs),
        mpmath.fsum((c[j] + c[k]) / ((1 - c[j]) * (1 - c[k])) for j, k in pairs),
    )


@pytest.mark.parametrize("m", [1, 2, 10, 63, 64, 90])
def test_direct_and_factored_evaluations_agree(m, monkeypatch):
    # verify_identities evaluates the double sums as products of single
    # sums; the literal double sums, on the same guarded c and s, are the oracle.
    identity_sums = spectral._identity_sums
    pairs = []

    def with_oracle(m, c, s):
        sums = identity_sums(m, c, s)
        pairs[:] = zip(sums, _identity_sums_direct(m, c, s))
        return sums

    monkeypatch.setattr(spectral, "_identity_sums", with_oracle)
    for precision in (53, 128):
        report = spectral.verify_identities(spectral.build_table(m, precision))
        assert report.all_passed
        for check, (factored, direct) in zip(report.checks, pairs, strict=True):
            with workprec(precision):
                factored, direct = +factored, +direct
                assert check.computed == float(factored)
                assert abs(factored - direct) < check.tolerance, (precision, check.name)


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


def test_transition_matrix_is_stochastic():
    matrix = spectral.transition_matrix(3)
    for row in matrix:
        assert sum(row) == 1
        assert all(v >= 0 for v in row)


def _no_work(*args):
    raise AssertionError("work started before the budget check")


def test_certification_budget(monkeypatch):
    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    monkeypatch.setattr(spectral, "build_table", admitted)
    with pytest.raises(Admitted):  # m = 4 passes the default budget
        spectral.certify_spectrum(4)
    monkeypatch.setattr(spectral, "build_table", _no_work)
    monkeypatch.setattr(spectral, "transition_matrix", _no_work)
    for m in (5, 7, 10**6):
        with pytest.raises(WorkBudgetError, match="certify_spectrum"):
            spectral.certify_spectrum(m)


def test_table_budget(monkeypatch):
    # Unbounded, build_table(10**8) would run about 15 min and hold about 31 GB.
    monkeypatch.delenv("INVWALK_BUDGET", raising=False)
    monkeypatch.setattr(spectral, "_mirrored_cos_sin", _no_work)
    start = time.perf_counter()
    with pytest.raises(WorkBudgetError, match="build_table m=100000000"):
        spectral.build_table(10**8)
    assert time.perf_counter() - start < 1


def test_identities_budget(monkeypatch):
    # Unbounded, the guarded recompute of a table of m = 10^7 would run
    # 4-10 min.  An empty table stands in: refusing it must not read it.
    monkeypatch.delenv("INVWALK_BUDGET", raising=False)
    monkeypatch.setattr(spectral, "_mirrored_cos_sin", _no_work)
    table = spectral.SpectralTable(m=10**7, precision=53, c=(), s=())
    start = time.perf_counter()
    with pytest.raises(WorkBudgetError, match="verify_identities m=10000000"):
        spectral.verify_identities(table)
    assert time.perf_counter() - start < 1
    # The largest tables the bench and ``verify --level full`` check are admitted.
    monkeypatch.undo()
    monkeypatch.delenv("INVWALK_BUDGET", raising=False)
    assert spectral.verify_identities(spectral.build_table(200, 256)).all_passed


def test_transition_matrix_budget(monkeypatch):
    monkeypatch.setattr(spectral, "permutations", _no_work)
    for m in (7, 10**6):  # 1.6e9 entries; the default budget admits m <= 6
        with pytest.raises(WorkBudgetError, match="transition_matrix"):
            spectral.transition_matrix(m)
