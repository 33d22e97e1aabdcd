import math
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invwalk import chain, formulas
from invwalk.budget import WorkBudgetError

from brute_force import brute_force_expected


def _triangle_cells(m):
    """Every cell (i, j), 0 <= i <= j < m, in row-major order."""
    return [(i, j) for j in range(m) for i in range(j + 1)]


def test_cell_index_is_dense():
    for m in (1, 2, 5):
        cells = _triangle_cells(m)
        assert [chain.cell_index(m, i, j) for i, j in cells] == list(range(len(cells)))
        assert len(cells) == m * (m + 1) // 2
        assert list(zip(*chain._cell_coords(m))) == cells


# --- the full-triangle oracle ---------------------------------------------
# The DP steps the jump kernel on the reversal orbits, built from one
# representative cell each; these functions write the rule down on every
# cell of the triangle and step m A literally from it, so the reversal
# symmetry and the quotient's build are checked rather than assumed.


def stencil(m):
    """The walk's step rule on the triangle 0 <= i <= j < m, cell_index layout.

    Returns ``(self_coeff, nbrs, diag)``: ``nbrs`` is a (d, 4) array holding
    each cell's grid neighbour inside the triangle, one column per direction,
    padded with ``d``; ``self_coeff`` is m minus the neighbour count, minus
    2 on the diagonal; ``diag`` lists the diagonal cells.  One step is then
    ``m p' = self_coeff p + sum_c p[nbrs[:, c]] + e`` with e injected on the
    diagonal, so each row of ``m A`` sums to ``m - 2 [i == j]``.
    """
    d = m * (m + 1) // 2
    i, j = chain._cell_coords(m)
    nbrs = np.full((d, 4), d, dtype=np.intp)
    for c, (di, dj) in enumerate(((-1, 0), (1, 0), (0, -1), (0, 1))):
        k, l = i + di, j + dj
        inside = (0 <= k) & (k <= l) & (l < m)
        nbrs[inside, c] = chain.cell_index(m, k[inside], l[inside])
    on_diag = i == j
    self_coeff = m - (nbrs < d).sum(axis=1) - 2 * on_diag
    return self_coeff, nbrs, np.flatnonzero(on_diag)


def test_neighbors_stay_in_triangle():
    for m in (1, 2, 3, 6):
        self_coeff, nbrs, diag = stencil(m)
        cells = _triangle_cells(m)
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


def _full_step(p, rule, inject):
    """m times one chain step of p: self_coeff p + neighbours + inject on the diagonal."""
    self_coeff, nbrs, diag = rule
    padded = np.append(p, 0)
    out = self_coeff * p
    for column in nbrs.T:
        out += padded[column]
    out[diag] += inject
    return out


def _oracle_numerators(m, n):
    """Yield the numerators of p^{(k)} over m^k on every cell, k = 0..n."""
    rule = stencil(m)
    p = np.zeros(m * (m + 1) // 2, dtype=object)
    yield p
    den = 1
    for _ in range(n):
        p = _full_step(p, rule, den)
        den *= m
        yield p


def _expanded_numerators(m, n):
    q = chain.quotient(m)
    for u in chain._numerators(q, n):
        yield u[q.orbit]


def _probabilities(m, n):
    """{(i, j): p_ij} after n exact DP steps, expanded from the orbits."""
    for p in _expanded_numerators(m, n):
        pass
    return {cell: Fraction(p[chain.cell_index(m, *cell)], m**n)
            for cell in _triangle_cells(m)}


def test_initial_state():
    assert _probabilities(3, 0) == dict.fromkeys(_triangle_cells(3), 0)


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


@pytest.mark.parametrize("m", range(1, 15))
def test_jump_kernel_shape(m):
    # N = m A - (m - 4) I: self weight [i = 0] + [j = m-1], row sums
    # 4 - 2 [i = j], nonnegative, and symmetric as the neighbour relation is.
    self_coeff, nbrs, diag = stencil(m)
    d = len(self_coeff)
    for i, j in _triangle_cells(m):
        row = chain.cell_index(m, i, j)
        self_weight = self_coeff[row] - (m - 4)
        assert self_weight == (i == 0) + (j == m - 1)
        assert self_weight + (nbrs[row] < d).sum() == 4 - 2 * (i == j)
        assert all(row in nbrs[c] for c in nbrs[row] if c < d)


@pytest.mark.parametrize("m", range(1, 41))
def test_orbit_step_is_the_folded_full_step(m):
    # On reversal-invariant states the orbit kernel, expanded, is the full
    # triangle's m A - (m - 4) I, with and without the injection.
    q = chain.quotient(m)
    self_coeff, nbrs, diag = rule = stencil(m)
    h = chain.orbit_count(m)
    d = m * (m + 1) // 2
    assert len(q.size) == h and q.size.sum() == d
    assert sorted(q.orbit[diag]) == sorted(np.repeat(q.diag, q.size[q.diag]))
    # Each orbit's sources, in order: its representative's neighbours in
    # the stencil's direction order, then its self loops.
    for i, j in _triangle_cells(m):
        if i + j <= m - 1:
            cell = chain.cell_index(m, i, j)
            o = q.orbit[cell]
            assert [column[o] for column in q.columns if o < len(column)] == \
                [q.orbit[c] for c in nbrs[cell] if c < d] + [o] * (self_coeff[cell] - (m - 4))
    u = np.array([(7 * o * o + 3 * o + 1) % 11 for o in range(h)], dtype=object)
    full = u[q.orbit]
    assert list(chain._orbit_step(u, q, 0, 0)[q.orbit]) == \
        list(_full_step(full, rule, 0) - (m - 4) * full)
    assert list(chain._orbit_step(u, q, m - 4, 5)[q.orbit]) == list(_full_step(full, rule, 5))


@pytest.mark.parametrize("m", range(1, 13))
def test_dp_equals_full_triangle_oracle(m):
    oracle = list(_oracle_numerators(m, 60))
    totals = [Fraction(p.sum(), m**k) for k, p in enumerate(oracle)]
    assert list(chain.iterate_totals(m, 60)) == totals
    assert [chain.expected_inversions_dp(m, n) for n in range(61)] == totals
    for expanded, p in zip(_expanded_numerators(m, 60), oracle):
        assert list(expanded) == list(p)


@pytest.mark.parametrize("m,n", [(10, 50), (20, 200), (30, 400)])
def test_dp_equals_full_triangle_oracle_at_benchmark_sizes(m, n):
    totals = list(chain.iterate_totals(m, n))
    for k, (expanded, p) in enumerate(zip(_expanded_numerators(m, n), _oracle_numerators(m, n))):
        assert totals[k] == Fraction(p.sum(), m**k)
        assert list(expanded) == list(p)
    assert chain.expected_inversions_dp(m, n) == totals[n]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 9])
def test_jump_weights_divide_exactly(m):
    # Descending synthetic division of (a z + bm - 4a)^n - (bm)^n by z - 4,
    # for the plain chain (p = 1) and lazy ones (p = a/b); m = 4 at p = 1
    # and m = 2 at p = 1/2 have bm - 4a = 0.
    for a, b in ((1, 1), (1, 2), (m, m + 1), (1, 1000), (2, 3)):
        B = b * m
        A = B - 4 * a
        for n in range(12):
            numerator = [math.comb(n, r) * a**r * A ** (n - r) for r in range(n + 1)]
            numerator[0] -= B**n
            quotient, carry = [], 0
            for coefficient in reversed(numerator[1:]):
                carry = coefficient + 4 * carry
                quotient.append(carry)
            assert numerator[0] + 4 * carry == 0
            assert list(chain._jump_weights(a, B, A, n)) == quotient[::-1], (a, b, n)


def test_symmetry_holds_along_trajectory():
    # p_{i,j} == p_{m-j-1, m-i-1} exactly (conjugation by the reversal), on
    # the full-triangle oracle: the DP stores one value per orbit.
    m = 4
    cells = _triangle_cells(m)
    for p in _oracle_numerators(m, 12):
        assert all(p[chain.cell_index(m, i, j)] == p[chain.cell_index(m, m - j - 1, m - i - 1)]
                   for i, j in cells)


def test_probabilities_bounded():
    m = 3
    for n, p in enumerate(_oracle_numerators(m, 20)):
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


def test_functional_equation_detects_missing_diagonal_injection(monkeypatch):
    step = chain._orbit_step
    monkeypatch.setattr(chain, "_orbit_step",
                        lambda u, q, lazy, inject: step(u, q, lazy, 0))
    assert chain.functional_equation_residual(3, 5) == Fraction(1, 3)


def test_functional_equation_detects_wrong_self_weight(monkeypatch):
    monkeypatch.setattr(chain, "_orbit_step", wrong_corner_self_weight(chain._orbit_step))
    assert chain.functional_equation_residual(3, 5) != 0


def test_functional_equation_refused_before_allocating(monkeypatch):
    # 2e5 powers of t with integers of 2e5 bits: about 80 GB held at once,
    # and minutes of work one power at a time.
    def no_allocation(m):
        raise AssertionError("the functional equation allocated before the budget check")

    monkeypatch.delenv("INVWALK_BUDGET", raising=False)
    monkeypatch.setattr(chain, "_cell_coords", no_allocation)
    monkeypatch.setattr(chain, "quotient", no_allocation)
    with pytest.raises(WorkBudgetError, match="functional equation m=2, N=200000"):
        chain.functional_equation_residual(2, 2 * 10**5)


def test_functional_equation_holds_few_planes():
    # Each power of t adds its shifted terms into one carried plane by
    # slices, so the peak stays under three planes of m^N-sized integers.
    m, N = 20, 100
    tracemalloc.start()
    try:
        assert chain.functional_equation_residual(m, N) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * (m + 2) ** 2 * (8 + sys.getsizeof(m**N))


@pytest.mark.parametrize("entry", [
    lambda m: chain.expected_inversions_dp(m, 1),
    lambda m: list(chain.iterate_totals(m, 2)),
    lambda m: chain.expected_inversions_float(m, 1),
    lambda m: chain.functional_equation_residual(m, 1),
], ids=["dp", "iterate_totals", "float", "functional_equation"])
def test_peak_memory_within_work_charge(entry, monkeypatch):
    # At m >> n the quotient's build sets the peak: each entry point holds
    # no more traced bytes than the units it is charged, so the budget
    # bounds memory too.
    charged = []
    check_budget = chain.check_budget

    def recording(units, what):
        charged.append(units)
        check_budget(units, what)

    monkeypatch.setattr(chain, "check_budget", recording)
    tracemalloc.start()
    try:
        entry(500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(charged) == 1 and peak <= charged[0]


def test_one_step_builds_no_quotient():
    # a_0 = m takes no jump step, so n = 1 builds no quotient: at m = 3000
    # its build alone peaks near 260 MiB traced.
    tracemalloc.start()
    try:
        value = chain.expected_inversions_dp(3000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 1
    assert peak < 4 * 2**20, peak


def wrong_corner_self_weight(step):
    """The orbit step with one unit too much self weight on the orbit of the
    corner cell (0, 0)."""
    def wrong(u, q, lazy, inject):
        out = step(u, q, lazy, inject)
        corner = q.orbit[chain.cell_index(q.m, 0, 0)]
        out[corner] += u[corner]
        return out
    return wrong


def test_budget_refusal():
    with pytest.raises(WorkBudgetError):
        brute_force_expected(3, 50)


def test_domain_errors():
    with pytest.raises(ValueError):
        chain.expected_inversions_dp(0, 1)
    with pytest.raises(ValueError):
        chain.expected_inversions_float(2, -1)


def _memo_grid():
    return [(m, n, p) for m in range(1, 13) for n in range(41)
            for p in (1, Fraction(1, 2), Fraction(m, m + 1), Fraction(1, 7))]


def test_memo_answers_equal_cold_answers_in_any_order():
    grid = _memo_grid()
    random.Random(27).shuffle(grid)
    warm = {case: chain.expected_inversions_dp(*case) for case in grid}
    assert chain._memo.bits > 0
    for case in grid:
        chain._memo.clear()
        assert chain.expected_inversions_dp(*case) == warm[case], case
    for m, n, p in grid:
        if p == 1:
            assert warm[m, n, p] == formulas.eriksen(m, n), (m, n)


def test_memo_over_cap_returns_the_cold_value(monkeypatch):
    cold = chain.expected_inversions_dp(12, 300)
    chain._memo.clear()
    chain.expected_inversions_dp(5, 40)  # one entry the cap must evict
    cap = 20_000
    monkeypatch.setattr(chain, "MEMO_BITS", cap)
    assert chain.expected_inversions_dp(12, 300) == cold
    assert 0 < chain._memo.bits <= cap
    stored = chain._memo.get(12).moments
    assert 1 < len(stored) < 300
    assert chain.expected_inversions_dp(12, 300) == cold
    assert chain._memo.get(5) is None
    monkeypatch.setattr(chain, "MEMO_BITS", 10)  # not even a_0 and e fit
    chain._memo.clear()
    assert chain.expected_inversions_dp(12, 300) == cold
    assert chain._memo.bits == 0 and chain._memo.get(12) is None


def test_refused_call_leaves_memo_unchanged(monkeypatch):
    chain.expected_inversions_dp(10, 50)
    before, bits = chain._memo.get(10), chain._memo.bits

    def no_work(*args):
        raise AssertionError("the DP started before the budget check")

    monkeypatch.setattr(chain, "quotient", no_work)
    monkeypatch.setattr(chain, "_orbit_step", no_work)
    monkeypatch.delenv("INVWALK_BUDGET", raising=False)
    with pytest.raises(WorkBudgetError):
        chain.expected_inversions_dp(10, 10**6)
    assert chain._memo.get(10) is before and chain._memo.bits == bits
    # A call inside the stored prefix neither folds nor steps.
    assert chain.expected_inversions_dp(10, 40) == formulas.eriksen(10, 40)


def test_memo_keeps_the_longer_entry_under_threads():
    # A call that read a shorter prefix and stores after a longer one did
    # (another thread's) leaves the longer entry in place.
    chain.expected_inversions_dp(6, 5)
    shorter = chain._memo.get(6)
    chain._memo.clear()
    chain.expected_inversions_dp(6, 30)
    longer, bits = chain._memo.get(6), chain._memo.bits
    chain._memo.put(6, shorter)
    assert chain._memo.get(6) is longer and chain._memo.bits == bits
    # More threads than cores, switching often: a lost update of the memo's
    # bit count or a torn entry would show below.
    grid = _memo_grid()
    random.Random(6).shuffle(grid)
    chain._memo.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            values = list(pool.map(lambda case: chain.expected_inversions_dp(*case), grid,
                                   timeout=120))
    finally:
        sys.setswitchinterval(interval)
    entries = [chain._memo.get(m) for m in range(1, 13)]
    assert chain._memo.bits == sum(entry.bits for entry in entries)
    assert all(len(entry.moments) == 40 for entry in entries)
    for case, value in zip(grid[::37], values[::37]):
        chain._memo.clear()
        assert chain.expected_inversions_dp(*case) == value, case
