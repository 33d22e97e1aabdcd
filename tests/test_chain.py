from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from invwalk import chain
from invwalk.budget import WorkBudgetError


def test_cell_index_is_dense():
    for m in (1, 2, 5):
        cells = chain._triangle_cells(m)
        assert [chain.cell_index(m, i, j) for i, j in cells] == list(range(len(cells)))
        assert len(cells) == m * (m + 1) // 2


def test_neighbors_stay_in_triangle():
    for m in (1, 2, 3, 6):
        self_coeff, nbrs, diag = chain.stencil(m)
        cells = chain._triangle_cells(m)
        d = len(cells)
        assert nbrs.shape == (d, 4) and self_coeff.shape == (d,)
        assert sorted(diag) == [chain.cell_index(m, i, i) for i in range(m)]
        position = {chain.cell_index(m, k, l): (k, l)
                    for k in range(m) for l in range(k, m)}
        for i, j in cells:
            row = chain.cell_index(m, i, j)
            real = [c for c in nbrs[row] if 0 <= c < d]
            padding = [c for c in nbrs[row] if not 0 <= c < d]
            assert padding == [d] * (4 - len(real))
            for c in real:
                k, l = position[c]
                assert 0 <= k <= l < m
                assert abs(k - i) + abs(l - j) == 1
            # No neighbour is missing or listed twice.
            assert sorted(position[c] for c in real) == sorted(
                (k, l) for k, l in position.values() if abs(k - i) + abs(l - j) == 1)
            # Rows of m*A conserve mass: m minus the diagonal's 2p outflow.
            assert self_coeff[row] + len(real) == m - 2 * (i == j)


def _probabilities(m, n):
    """{(i, j): p_ij} after n exact DP steps."""
    for p in chain._exact_numerators(m, n):
        pass
    return {cell: Fraction(p[chain.cell_index(m, *cell)], m**n)
            for cell in chain._triangle_cells(m)}


def test_initial_state():
    assert _probabilities(3, 0) == dict.fromkeys(chain._triangle_cells(3), 0)


def test_single_step_m2():
    assert _probabilities(2, 1) == {
        (0, 0): Fraction(1, 2), (0, 1): Fraction(0), (1, 1): Fraction(1, 2),
    }
    assert chain.expected_inversions_dp(2, 1) == 1


@pytest.mark.parametrize("m,n,expected", [
    (1, 0, 0), (1, 1, 1), (1, 5, 1), (1, 6, 0),
    (2, 1, 1), (2, 3, Fraction(3, 2)),
])
def test_dp_examples(m, n, expected):
    assert chain.expected_inversions_dp(m, n) == expected


@pytest.mark.parametrize("m,n", [(1, 6), (2, 6), (3, 5)])
def test_dp_equals_brute_force(m, n):
    for steps in range(n + 1):
        assert chain.expected_inversions_dp(m, steps) == \
            chain.brute_force_expected(m, steps)


def test_symmetry_holds_along_trajectory():
    # p_{i,j} == p_{m-j-1, m-i-1} exactly (conjugation by the reversal).
    m = 4
    cells = chain._triangle_cells(m)
    for p in chain._exact_numerators(m, 12):
        assert all(p[chain.cell_index(m, i, j)] == p[chain.cell_index(m, m - j - 1, m - i - 1)]
                   for i, j in cells)


def test_probabilities_bounded():
    m = 3
    for n, p in enumerate(chain._exact_numerators(m, 20)):
        assert all(0 <= v <= m**n for v in p)


@pytest.mark.parametrize("m", [8, 9, 10])
def test_totals_monotone_nondecreasing(m):
    values = list(chain.iterate_totals(m, 200))
    assert all(a <= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("m", [3, 4, 5])
def test_totals_approach_limit_from_below(m):
    limit = Fraction(m * (m + 1), 4)
    value = chain.expected_inversions_dp(m, 2000)
    assert value < limit
    assert float(limit - value) < 1e-10


@pytest.mark.parametrize("m,n", [(2, 10), (3, 15), (5, 30), (8, 25),
                                 (40, 40), (60, 120)])
def test_float_dp_tracks_exact(m, n):
    exact = float(chain.expected_inversions_dp(m, n))
    approx = chain.expected_inversions_float(m, n)
    assert approx == pytest.approx(exact, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(min_value=1, max_value=6),
       n=st.integers(min_value=0, max_value=40))
def test_dp_total_in_range(m, n):
    value = chain.expected_inversions_dp(m, n)
    assert 0 <= value <= Fraction(m * (m + 1), 2)
    # Denominator always divides m^n.
    assert (value * m**n).denominator == 1


@pytest.mark.parametrize("m,N", [(1, 6), (2, 6), (3, 5)])
def test_functional_equation_residual_is_zero(m, N):
    assert chain.functional_equation_residual(m, N) == 0


def test_functional_equation_detects_missing_diagonal_injection(monkeypatch):
    step = chain._step
    monkeypatch.setattr(chain, "_step", lambda p, rule, inject: step(p, rule, 0))
    assert chain.functional_equation_residual(3, 5) == Fraction(1, 3)


def test_budget_refusal():
    with pytest.raises(WorkBudgetError):
        chain.brute_force_expected(3, 50)


def test_domain_errors():
    with pytest.raises(ValueError):
        chain.expected_inversions_dp(0, 1)
    with pytest.raises(ValueError):
        chain.expected_inversions_float(2, -1)
