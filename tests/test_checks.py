import dataclasses

import mpmath
import pytest

from invwalk import chain, checks, spectral


def test_registry_names_and_order():
    assert list(checks.CHECKS) == [
        "trig identities", "cross-method grid", "functional equation",
        "sandwich bounds", "spectral certification", "monte carlo",
    ]


def test_quick_records_pass():
    for name, check in checks.CHECKS.items():
        record = check("quick")
        assert record.passed, record.detail
        assert record.name == name
        assert record.parameters
        assert record.measured and set(record.measured) == set(record.tolerance)
        assert isinstance(record.elapsed_s, float) and record.elapsed_s >= 0
        assert record.detail


def test_unknown_level_refused():
    with pytest.raises(ValueError):
        checks.sandwich("medium")


def test_identities_check_fails_on_perturbed_table(monkeypatch):
    build_table = spectral.build_table

    def perturbed(m, precision):
        table = build_table(m, precision)
        with mpmath.workprec(precision):
            return dataclasses.replace(table, c=tuple(c * (1 + mpmath.mpf(1e-6)) for c in table.c))

    monkeypatch.setattr(spectral, "build_table", perturbed)
    record = checks.identities("quick")
    assert not record.passed
    assert record.measured["residual/tol"] == 0  # the sums alone cannot see it
    assert record.measured["table error/2^-p"] > record.tolerance["table error/2^-p"]


def test_identities_check_fails_on_wrong_sum(monkeypatch):
    identity_sums = spectral._identity_sums

    def one_off(m, c, s):
        sums = list(identity_sums(m, c, s))
        sums[4] += 1
        return tuple(sums)

    monkeypatch.setattr(spectral, "_identity_sums", one_off)
    report = spectral.verify_identities(spectral.build_table(5, 53))
    assert not report.all_passed
    assert [check.passed for check in report.checks] == [True] * 4 + [False] + [True] * 2
    assert report.max_residual / report.checks[4].tolerance > 1
    record = checks.identities("quick")
    assert not record.passed
    assert record.measured["residual/tol"] > record.tolerance["residual/tol"]
    assert record.measured["table error/2^-p"] <= record.tolerance["table error/2^-p"]


def test_functional_equation_check_fails_without_diagonal_injection(monkeypatch):
    step = chain._orbit_step
    monkeypatch.setattr(chain, "_orbit_step",
                        lambda u, q, lazy, inject: step(u, q, lazy, 0))
    record = checks.functional_equation("quick")
    assert not record.passed
    assert record.measured["residual"] > 0


def test_checks_fail_on_wrong_self_weight(monkeypatch):
    # One unit too much self weight on the orbit of the corner cell (0, 0).
    step = chain._orbit_step

    def wrong(u, q, lazy, inject):
        out = step(u, q, lazy, inject)
        corner = q.orbit[chain.cell_index(q.m, 0, 0)]
        out[corner] += u[corner]
        return out

    monkeypatch.setattr(chain, "_orbit_step", wrong)
    record = checks.functional_equation("quick")
    assert not record.passed
    assert record.measured["residual"] > 0
    record = checks.cross_method("quick")
    assert not record.passed
    assert record.measured["exact mismatches"] > 0


def test_spectrum_check_fails_on_shifted_eigenvalue(monkeypatch):
    # One representative off by 1e-3 leaves every pivot of the elimination
    # of P - x Id far above the certified ratio, at m = 2 and at m = 3,
    # where |det(P - x Id)| is 5.7e-12 or less.
    eigenvalue = spectral.eigenvalue
    for shifted_at in [(2, 0, 0), (3, 0, 0), (3, 0, 1)]:
        def shifted(table, j, k):
            x = eigenvalue(table, j, k)
            return x + 1e-3 if (table.m, j, k) == shifted_at else x

        monkeypatch.setattr(spectral, "eigenvalue", shifted)
        record = checks.spectrum("full")
        worst = record.measured["pivot ratio"]
        assert not record.passed, shifted_at
        assert worst > 1e-3 > record.tolerance["pivot ratio"], shifted_at
        m, j, k = shifted_at
        assert record.detail == f"uncertified at m={m}: x[{j},{k}] pivot ratio {worst:.3g}"
