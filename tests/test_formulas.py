import math
import random
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import workprec

from invwalk import asymptotics, chain, formulas, genfun, spectral
from invwalk.budget import WorkBudgetError


def _as_mpf(fraction, precision=200):
    with workprec(precision):
        return mpmath.mpf(fraction.numerator) / fraction.denominator


@pytest.mark.parametrize("m,n,expected", [
    (2, 1, 1), (2, 3, Fraction(3, 2)), (1, 4, 0), (1, 5, 1),
])
def test_eriksen_examples(m, n, expected):
    assert formulas.eriksen(m, n) == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_eriksen_equals_dp(m):
    for n, value in enumerate(chain.iterate_totals(m, 12)):
        assert formulas.eriksen(m, n) == value


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mn=st.integers(min_value=1, max_value=40).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(min_value=0, max_value=3 * m))))
def test_eriksen_dp_property(mn):
    # n up to 3m: the half row wraps x^(m+1) = -1, at odd and even m.
    m, n = mn
    assert formulas.eriksen(m, n) == chain.expected_inversions_dp(m, n)


def _jump_moments(m, N):
    """[a_0, ..., a_{N-1}], a_r = 1^T N^r e, by the DP's jump kernel."""
    q = chain.quotient(m)
    u = np.zeros(len(q.size), dtype=object)
    u[q.diag] = 1
    moments = []
    for _ in range(N):
        moments.append(chain._cell_sum(u, q))
        u = chain._orbit_step(u, q, 0, 0)
    return moments


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 12, 20])
@pytest.mark.parametrize("N", [0, 1, 2, 45])
def test_eriksen_series_equals_dp(m, N):
    # Eriksen's weight series v_1..v_N equals the DP's jump moments,
    # v_s = a_{s-1}: binomial sums against walks on the triangle.
    assert formulas._eriksen_weights(m, N) == _jump_moments(m, N)


def test_eriksen_budget():
    with pytest.raises(WorkBudgetError):
        formulas.eriksen(2, 10**6)


def _g_coefficient(s, m):
    """Eriksen's g_s as the literal sum of binomials: the recurrence's oracle."""
    half = (s + 1) // 2  # ceil(s/2)
    top = 2 * half - 1
    total = 0
    for l in range(m + 1):
        k = 0
        while True:
            idx = half + l + k * (m + 1)
            if idx > top:
                break
            total += (-1) ** k * (m - 2 * l) * math.comb(top, idx)
            k += 1
    return total


def _h_coefficient(s, m):
    """Eriksen's h_s as the literal sum of binomials: the recurrence's oracle."""
    half = s // 2  # floor(s/2)
    top = 2 * half
    total = 0
    j = -(half // (m + 1)) - 1
    while True:
        idx = half + j * (m + 1)
        if idx > top:
            break
        if idx >= 0:
            total += (1 - 2 * (j & 1)) * math.comb(top, idx)
        j += 1
    return total


def _negacyclic_row(m, k):
    """[c_0, ..., c_m] of x^-k (1 + x)^2k modulo x^(m+1) + 1, from binomials."""
    row = [0] * (m + 1)
    for i in range(2 * k + 1):
        wraps, l = divmod(i - k, m + 1)
        row[l] += -math.comb(2 * k, i) if wraps & 1 else math.comb(2 * k, i)
    return row


def test_g_recurrence_on_the_oracle():
    # g_1 = m and g_{2k+3} = 4 g_{2k+1} - h_{2k+2}, on the literal sums.
    for m in range(1, 61):
        assert _g_coefficient(1, m) == m, m
        for k in range(2 * m + 20):
            assert (_g_coefficient(2 * k + 3, m)
                    == 4 * _g_coefficient(2 * k + 1, m) - _h_coefficient(2 * k + 2, m)), (m, k)


def test_half_row_is_antisymmetric_and_steps():
    # c_{m+1-l} = -c_l (so c_{(m+1)/2} = 0 at odd m), and the half-row step
    # gives the next row's half entry by entry, its two boundary taps included.
    for m in range(1, 61):
        half = m // 2
        for k in range(half, 2 * m + 6):
            row = _negacyclic_row(m, k)
            for l in range(1, m + 1):
                assert row[m + 1 - l] == -row[l], (m, k, l)
            stepped = formulas._half_row_step(row[:half + 1], m)
            expected = _negacyclic_row(m, k + 1)[:half + 1]
            assert len(stepped) == half + 1, m
            for l in (0, half) + tuple(range(1, half)):  # the boundary entries first
                assert stepped[l] == expected[l], ("odd" if m & 1 else "even", m, k, l)


def test_g_h_recurrence_equals_oracle():
    for m in range(1, 61):
        top = 3 * (m + 1) + 40  # the rows wrap x^(m+1) = -1 several times
        g, h = formulas._g_h_coefficients(m, top // 2)
        for s in range(1, top + 1):
            assert g[(s + 1) // 2 - 1] == _g_coefficient(s, m), (m, s)
            assert h[s // 2] == _h_coefficient(s, m), (m, s)
    # The closed forms alone (K = 30 < m/2), and across the switch at
    # 2k > m, where the row C(2k, .) is folded into m + 1 coefficients.
    cases = [(100, 30), (1000, 30)] + [(m, K) for m in (100, 101) for K in (49, 50, 51, 52, 60)]
    for m, K in cases:
        g, h = formulas._g_h_coefficients(m, K)
        assert len(g) == len(h) == K + 1, (m, K)
        for s in range(1, 2 * K + 2):
            assert g[(s + 1) // 2 - 1] == _g_coefficient(s, m), (m, s)
            assert h[s // 2] == _h_coefficient(s, m), (m, s)


def test_eriksen_large_m_small_n_needs_no_row_of_m():
    # While 2k <= m the inner sums are closed forms and no row is built,
    # so m >> n costs no memory of order m.
    cases = ((10**9, 0, 0), (10**8, 1, 1), (10**9, 2, Fraction(2 * 10**9 - 2, 10**9)))
    for m, n, expected in cases:
        tracemalloc.start()
        try:
            value = formulas.eriksen(m, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == expected
        assert peak < 2**16, (m, n, peak)


@pytest.mark.parametrize("m,n", [
    (10, 400), (30, 400),  # the exact-routes workload's largest sizes
    (4, 150), (1, 151), (2, 150), (3, 149),  # m - 4 = 0 and m - 4 < 0
    (1, 0), (1, 1), (4, 0), (4, 1), (30, 0), (30, 1),
    (200, 30), (101, 101),  # m > n: the band never wraps, or wraps once
])
def test_eriksen_equals_dp_at_edges(m, n):
    assert formulas.eriksen(m, n) == chain.expected_inversions_dp(m, n)


@pytest.mark.parametrize("m", [4, 20])
def test_eriksen_series_ends_at_eriksen(m):
    # The GF built from Eriksen's weights, expanded to n = 300.
    assert genfun.series(genfun.build_gf(m), 300)[-1] == formulas.eriksen(m, 300)


def test_eriksen_refuses_before_work(monkeypatch):
    monkeypatch.delenv("INVWALK_BUDGET", raising=False)
    assert formulas.eriksen(2, 2000) == chain.expected_inversions_dp(2, 2000)

    def no_work(*args):
        raise AssertionError("the recurrence ran before the budget refused")

    monkeypatch.setattr(formulas, "_g_h_coefficients", no_work)
    with pytest.raises(WorkBudgetError, match="eriksen"):
        formulas.eriksen(2, 10**5)
    with pytest.raises(WorkBudgetError, match="eriksen"):
        formulas.eriksen(10**9, 10**4)
    monkeypatch.setenv("INVWALK_BUDGET", str(formulas.eriksen_work(30, 400) - 1))
    with pytest.raises(WorkBudgetError, match="eriksen m=30, n=400"):
        formulas.eriksen(30, 400)


@pytest.mark.parametrize("variant", formulas.VARIANTS)
@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 7), (6, 20)])
def test_closed_form_matches_dp(variant, m, n):
    opts = formulas.ClosedFormOptions(variant=variant, precision=128)
    value = formulas.closed_form(m, n, opts)
    exact = _as_mpf(chain.expected_inversions_dp(m, n))
    assert abs(value - exact) <= 1e-30 * max(1, abs(exact))


def test_exact_zeros_are_exact():
    # n = 0 is the identity and S_2 alternates, so I(m, n) = n mod 2 there;
    # the sums would leave a residue of about 2^-work m(m+1)/4 instead.
    for m in range(1, 30):
        for n, exact in enumerate(chain.iterate_totals(m, 7)):
            for precision in (53, 128, 256):
                with workprec(precision):
                    expected = mpmath.mpf(exact.numerator) / exact.denominator
                for variant in formulas.VARIANTS:
                    info = formulas.closed_form_info(m, n, formulas.ClosedFormOptions(
                        variant=variant, precision=precision))
                    assert info.value == expected, (m, n, precision, variant)
    info = formulas.closed_form_info(1, 4)
    assert (info.value, info.saturated, info.terms, info.powers, info.skipped) == \
        (0, False, 0, 0, 4)


def test_variants_agree():
    for m, n in [(2, 5), (4, 12), (9, 40)]:
        values = [formulas.closed_form(
            m, n, formulas.ClosedFormOptions(variant=v, precision=128))
            for v in formulas.VARIANTS]
        for v in values[1:]:
            assert abs(v - values[0]) < 1e-30 * max(1, abs(values[0]))


def _work(m, precision):
    """``closed_form``'s working precision, ``precision`` plus its guard bits."""
    return precision + 32 + (2 * (m + 1) ** 2).bit_length()


def _full_loop(m, n, precision, reuse=True, powered=None, raw=False):
    """Both variants by the plain double loop over all (m+1)^2 pairs.

    The guard bits, operations and addition order of ``closed_form``,
    with no summand skipped.  Each summand is
    evaluated at its orbit's representative, as there, because the
    weight's product order depends on it; x^n is the same at every member
    of an orbit.  With ``reuse`` every x^n and summand for j <= k is
    computed up front, each x^n at its own pair, and read again for (k, j)
    only; without it each of the (m+1)^2 pairs is computed afresh.
    ``powered[j][k]``, if given, says whether ser3's term at j <= k takes
    its 1 - x^n or is its weight.  With ``raw`` the totals are returned as
    the loop leaves them, mpf tuples at working precision.
    """
    work = _work(m, precision)
    table = spectral.build_table(m, work)
    c = table.c
    with workprec(work):
        inv_s2 = [1 / sk**2 for sk in table.s]
        inv_omc = [1 / (1 - cj) for cj in c]
        four_over_m = mpmath.mpf(4) / m

        def summands(a, b):
            xn = (1 - four_over_m * (1 - c[a] * c[b])) ** n
            t, u = min((a, b), (m - b, m - a))
            return {"theorem1": (c[t] + c[u]) ** 2 * inv_s2[t] * inv_s2[u] * xn,
                    "ser3": (c[a] + c[b]) * inv_omc[a] * inv_omc[b]
                    * (1 - xn if powered is None or powered[a][b] else 1)}

        if reuse:
            upper = {(a, b): summands(a, b) for a in range(m + 1) for b in range(a, m + 1)}
            pair_terms = lambda a, b: upper[a, b]
        else:
            pair_terms = summands
        totals = dict.fromkeys(formulas.VARIANTS, mpmath.mpf(0))
        for j in range(m + 1):
            for k in range(m + 1):
                for variant, term in pair_terms(min(j, k), max(j, k)).items():
                    totals[variant] += term
        if raw:
            return {v: total._mpf_ for v, total in totals.items()}
        limit = mpmath.mpf(m) * (m + 1) / 4
        scale = 1 / (8 * mpmath.mpf(m + 1) ** 2)
        values = {"theorem1": limit - scale * totals["theorem1"],
                  "ser3": scale * totals["ser3"]}
    with workprec(precision):
        return {v: +x for v, x in values.items()}


def test_closed_form_equals_full_loop():
    # m = 7 and 8 lie on either side of the m >= 8 edge above which
    # theorem 1 skips summands and the exact pass adds each distinct term
    # once; ser3 always reads every pair.  (30, 400) at 128 bits is the
    # exact-routes workload's largest closed-form check.  Theorem 1 at the
    # odd m = 9 and 41 of ser3's mirror pairs joins them.
    points = {(m, n, precision) for m in (7, 8, 40, 100)
              for n in (1, m, m**2, m**3, asymptotics.critical_step_count(m, 0))
              for precision in (53, 256)}
    points |= {(m, n, precision) for m in (9, 41)
               for n in (m, asymptotics.critical_step_count(m, 1)) for precision in (53, 256)}
    points |= {(40, 1600, 128), (30, 400, 128)}
    for m, n, precision in sorted(points):
        expected = _full_loop(m, n, precision)
        for variant in formulas.VARIANTS:
            info = formulas.closed_form_info(m, n, formulas.ClosedFormOptions(
                variant=variant, precision=precision))
            assert not info.saturated
            assert info.value == expected[variant], (m, n, precision, variant)


def test_small_m_adds_sequentially():
    # Below m = 8 theorem 1's terms lie about n bits apart (48 * 2^-n next
    # to terms near 3 at m = 2), so the loop adds them with mpf_add at once:
    # the operators' bits, and no n-bit integer is built.
    for m in range(2, 8):
        for n in (1, 2, m, m**2, 1000):
            for precision in (53, 256):
                expected = _full_loop(m, n, precision)
                for variant in formulas.VARIANTS:
                    info = formulas.closed_form_info(m, n, formulas.ClosedFormOptions(
                        variant=variant, precision=precision))
                    if info.saturated:
                        continue
                    assert info.rounding == "sequential", (m, n, precision, variant)
                    assert info.value == expected[variant], (m, n, precision, variant)
    formulas.closed_form_info(2, 10**7)  # caches outside the call
    tracemalloc.start()
    try:
        formulas.closed_form_info(2, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak
    start = time.perf_counter()
    for n, bits in [(10**12, (0, 6004799503160661, -52, 53)),
                    (10**12 + 1, (0, 7505999378950827, -52, 53))]:
        assert formulas.closed_form_info(2, n).value._mpf_ == bits, n
    assert time.perf_counter() - start < 1


def test_ser3_power_skip_is_bit_identical():
    # Far past n = m, ser3 takes x^n as 0 wherever 1 - x^n rounds to 1;
    # the sum must equal the full loop's, which raises every x^n.  The
    # guard bits would hide a cut tens of bits too loose in the sum, so
    # each x^n left unraised is raised here to check that 1 - x^n is 1.
    points = [(8, 8**3), (40, asymptotics.critical_step_count(40, 1)),
              (140, 140**2), (140, 140**3)]
    for m, n in points:
        for precision in (53, 256):
            expected = _full_loop(m, n, precision)["ser3"]
            info = formulas.closed_form_info(m, n, formulas.ClosedFormOptions(
                variant="ser3", precision=precision))
            assert info.value == expected, (m, n, precision)
            assert info.powers < info.terms == (m + 1) * (m + 2) // 2, (m, n, precision)
            work = _work(m, precision)
            c = spectral.build_table(m, work).c
            with workprec(work):
                four_over_m = mpmath.mpf(4) / m
                for j, powered in enumerate(formulas._rows(m, n, work, theorem1=False)):
                    for k in range(j, m + 1):
                        if not powered[k]:
                            xn = (1 - four_over_m * (1 - c[j] * c[k])) ** n
                            assert 1 - xn == 1, (m, n, precision, j, k)
    for m in (8, 40, 140):
        info = formulas.closed_form_info(m, m, formulas.ClosedFormOptions(variant="ser3"))
        assert info.powers == info.terms, m


def test_ser3_peak_memory():
    # ser3's exact pass holds no term past its addition, only the power
    # flags.  The bound is the peak traced when ser3 kept its terms in an
    # orbit dict until their second read (1751708 bytes, Python 3.11).
    opts = formulas.ClosedFormOptions(variant="ser3")
    formulas.closed_form_info(120, 120, opts)  # caches outside the call
    tracemalloc.start()
    try:
        formulas.closed_form_info(120, 120, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_752_000, peak


def _count_raised_powers(monkeypatch, n):
    """A list that collects each x^n the closed form raises from now on:
    by the operators (``mpf_pow_int`` at exponent n) or by theorem 1's
    integer kernel (one per ``_fixed_kernel`` term)."""
    raised = []
    pow_int, fixed_kernel = formulas.mpf_pow_int, formulas._fixed_kernel

    def counting_pow(x, e, *args):
        if e == n:
            raised.append(x)
        return pow_int(x, e, *args)

    def counting_kernel(*args):
        term, bound = fixed_kernel(*args)

        def counting_term(j, k):
            raised.append((j, k))
            return term(j, k)
        return counting_term, bound

    monkeypatch.setattr(formulas, "mpf_pow_int", counting_pow)
    monkeypatch.setattr(formulas, "_fixed_kernel", counting_kernel)
    return raised


@pytest.mark.parametrize("m", [8, 9, 40, 41])
def test_ser3_raises_each_power_once_per_mirror_pair(monkeypatch, m):
    # (j, k) and its mirror (m-k, m-j) share x^n bit for bit, so at n = m,
    # where every power is raised, only the (m+2)^2/4 pairs j <= k with
    # j + k <= m raise one; powers still counts all (m+1)(m+2)/2 terms.
    raised = _count_raised_powers(monkeypatch, m)
    info = formulas.closed_form_info(m, m, formulas.ClosedFormOptions(variant="ser3"))
    assert len(raised) == (m + 2) ** 2 // 4
    assert info.powers == info.terms == (m + 1) * (m + 2) // 2


@pytest.mark.parametrize("m", [8, 9, 40, 41])
def test_ser3_mirror_reuse_is_bit_identical(m):
    # A term's x^n, raised once per mirror pair, gives the full loop's
    # sum, which raises it at every pair j <= k.
    for n in (m, asymptotics.critical_step_count(m, 1)):
        for precision in (53, 256):
            expected = _full_loop(m, n, precision)["ser3"]
            value = formulas.closed_form(m, n, formulas.ClosedFormOptions(
                variant="ser3", precision=precision))
            assert value == expected, (m, n, precision)


def test_ser3_mirror_follows_each_term_own_flag(monkeypatch):
    # Flags that differ between mirror pairs: a term whose flag is unset is
    # its weight even if its mirror raised x^n, and one whose flag is set
    # raises x^n itself if its mirror did not.
    m, n = 9, 9
    flags = [[(j * j + 2 * k) % 3 != 0 for k in range(m + 1)] for j in range(m + 1)]
    upper = [(j, k) for j in range(m + 1) for k in range(j, m + 1)]
    mismatched = {(flags[j][k], flags[m - k][m - j]) for j, k in upper if j + k < m}
    assert {(True, False), (False, True)} <= mismatched
    raised = _count_raised_powers(monkeypatch, n)
    monkeypatch.setattr(formulas, "_rows", lambda m, n, work, theorem1: iter(flags))
    info = formulas.closed_form_info(m, n, formulas.ClosedFormOptions(variant="ser3"))
    assert info.value == _full_loop(m, n, 53, powered=flags)["ser3"]
    assert info.powers == sum(flags[j][k] for j, k in upper)
    assert len(raised) == sum(flags[j][k] and (j + k <= m or not flags[m - k][m - j])
                              for j, k in upper)


def test_theorem1_peak_memory():
    # The float bound frees its index arrays before it yields a block.
    # The bound is the peak traced while they were still held at the
    # yield (1067585 bytes, Python 3.11).
    formulas.closed_form_info(120, 120)  # caches outside the call
    tracemalloc.start()
    try:
        formulas.closed_form_info(120, 120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_067_585, peak


def test_theorem1_skip_is_certified():
    # Every summand theorem 1 leaves out must vanish next to T00, its first
    # summand and a lower bound on the running total.  As for ser3, the
    # guard bits would hide a cut tens of bits too loose in the sum.
    for m, n in [(8, 8**3), (40, 1600), (140, 140**3)]:
        work = _work(m, 53)
        table = spectral.build_table(m, work)
        c, s = table.c, table.s
        with workprec(work):
            def summand(j, k):
                x = 1 - mpmath.mpf(4) / m * (1 - c[j] * c[k])
                return (c[j] + c[k]) ** 2 / (s[j] ** 2 * s[k] ** 2) * x**n

            t00 = summand(0, 0)
            for j, live in enumerate(formulas._rows(m, n, work, theorem1=True)):
                for k in set(range(j, m + 1)) - set(live):
                    assert t00 + summand(j, k) == t00, (m, n, j, k)


# --- the full-grid oracle of the pair selection ---------------------------
# The closed form evaluates its float bound only on the band of
# anti-diagonals that can hold a kept pair; these functions write the bound
# down on every pair of the grid, so the band is checked rather than assumed.


def full_grid_bound(m, n, weighted):
    """The float bound of log(x_jk^n) or, if ``weighted``, of log(w_jk x_jk^n)
    less log 4, at every pair (j, k), as one (m+1) x (m+1) array, by the
    expression ``formulas._kept_blocks`` evaluates in its band."""
    theta = np.arange(2 * m + 2) * (math.pi / (2 * m + 2))
    sin2, cos2 = np.sin(theta) ** 2, np.cos(theta) ** 2
    cos2[m + 1] = 0.0
    with np.errstate(divide="ignore"):
        log_cos2 = np.log(cos2)
    log_s2 = np.log(sin2[1::2])
    k = np.arange(m + 1)
    j = k[:, None]
    d, s = np.abs(j - k), j + k + 1
    bound = float(n) * np.log1p(-(4 / m) * (sin2[d] + sin2[s]))
    if weighted:
        bound = log_cos2[s] + log_cos2[d] - log_s2[j] - log_s2[k] + bound
    return bound


def full_grid_kept(bound, work, theorem1):
    """The pairs kept at ``work`` bits: a bound within the margin of T00's
    (theorem 1) or of 0 (ser3)."""
    margin = (work + 1 + formulas.SKIP_MARGIN_BITS) * math.log(2)
    return bound >= (bound[0, 0] if theorem1 else 0.0) - margin


def _kept_by_rows(m, n, work, theorem1):
    """``formulas._rows``' verdicts as one (m+1) x (m+1) array."""
    kept = np.zeros((m + 1, m + 1), dtype=bool)
    for j, row in enumerate(formulas._rows(m, n, work, theorem1)):
        if theorem1:
            kept[j, row] = True
        else:
            kept[j] = row
    return kept


def _saturation_steps(m, precision):
    """About the n from which the value at ``precision`` bits saturates."""
    x00 = -math.log1p(-4 / m * math.sin(math.pi / (2 * m + 2)) ** 2)
    return math.ceil((precision + 64) * math.log(2) / x00)


@pytest.mark.parametrize("m", [8, 9, 10, 12, 15, 16, 20, 31, 40, 41, 64, 90, 101, 140, 200,
                               257, 300, 1000, 2000])
def test_band_keeps_the_full_grid_verdicts(m):
    # Theorem 1's live columns and ser3's power flags, row by row, are the
    # full grid's, from n = 1 to saturation at 53, 128 and 256 bits, and
    # theorem 1's orbit reads are those of its live pairs.
    steps = {1, 2, m, m * m // 4, m * m, asymptotics.critical_step_count(m, 0), m**3,
             4 * m**3, _saturation_steps(m, 53), _saturation_steps(m, 256)}
    if m >= 1000:  # the full grid's ser3 flags at n = m fill 4 (m+1)^2 bytes of lists
        steps -= {1, 2, m, m * m // 4}
    for n in sorted(steps):
        bounds = {theorem1: full_grid_bound(m, n, theorem1) for theorem1 in (True, False)}
        for precision in (53, 128, 256):
            if n > _saturation_steps(m, precision):
                continue
            work = formulas.work_bits(m, precision)
            for theorem1, bound in bounds.items():
                kept = full_grid_kept(bound, work, theorem1)
                case = (m, n, precision, theorem1)
                assert np.array_equal(_kept_by_rows(m, n, work, theorem1), kept), case
                if not theorem1 or kept.sum() > 10**5:
                    continue
                reads = {}
                for j, k in zip(*np.nonzero(kept)):
                    a, b = min(j, k), max(j, k)
                    orbit = (a, b) if a + b <= m else (m - b, m - a)
                    reads[orbit] = reads.get(orbit, 0) + 1
                a, b, counts = formulas._orbit_reads(m, n, work)
                assert dict(zip(zip(a.tolist(), b.tolist()), counts.tolist())) == reads, case


def test_corner_call_computes_only_its_band_angles(monkeypatch):
    # Far past the critical window two orbits are live at m = 2000: the call
    # computes at most S of the table's 1000 angles, S = max min(s, 2m+2-s)
    # over the full grid's live pairs, s = j + k + 1, and holds far less
    # than one (m+1)^2 float array.
    m, n = 2000, 2000**3
    j, k = np.nonzero(full_grid_kept(full_grid_bound(m, n, True), formulas.work_bits(m, 53),
                                     True))
    reach = int(np.minimum(j + k + 1, 2 * m + 1 - j - k).max())
    calls = []
    cos_sin = mpmath.cos_sin

    def counting(*args, **kwargs):
        calls.append(args)
        return cos_sin(*args, **kwargs)

    monkeypatch.setattr(mpmath, "cos_sin", counting)
    formulas.closed_form_info(m, n)  # caches outside the call
    calls.clear()
    tracemalloc.start()
    try:
        info = formulas.closed_form_info(m, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.terms, info.powers, info.skipped, info.rounding) == (2, 2, 4003995, "exact")
    assert 0 < len(calls) <= reach < 10, (len(calls), reach)
    assert peak < (m + 1) ** 2 * 8 // 32, peak


def test_symmetry_halving_is_bit_identical():
    # Each distinct term is computed once and counted for every pair that
    # reads it: the same sum as computing every one of the (m+1)^2
    # summands afresh.
    for m, n in [(4, 9), (5, 3), (8, 17), (40, 1600)]:
        expected = _full_loop(m, n, 53, reuse=False)
        for variant in formulas.VARIANTS:
            value = formulas.closed_form(m, n, formulas.ClosedFormOptions(variant=variant))
            assert value == expected[variant], (m, n, variant)


def test_materialization_is_bit_identical():
    # x^n is raised as each term is formed, once per term that is summed:
    # the same sum as raising it for all (m+1)(m+2)/2 pairs j <= k up front.
    for m, n in [(3, 8), (7, 100), (60, 3600)]:
        expected = _full_loop(m, n, 53)
        for variant in formulas.VARIANTS:
            value = formulas.closed_form(m, n, formulas.ClosedFormOptions(variant=variant))
            assert value == expected[variant], (m, n, variant)


def test_closed_form_is_correctly_rounded():
    m = 120
    for n in (1, 7, 120, 1000, 14400, 10**5, 2 * 10**6):
        reference = formulas.closed_form(m, n, formulas.ClosedFormOptions(precision=400))
        for precision in (53, 128):
            value = formulas.closed_form(m, n, formulas.ClosedFormOptions(precision=precision))
            with workprec(precision):
                assert value == +reference, (n, precision)


def test_closed_form_equals_correctly_rounded_eriksen():
    # Eriksen's sum is exact and shares no code with the spectral sums, so
    # this checks round_p(I) itself.  from_rational rounds the fraction once;
    # mpf(numerator) / den would round the numerator first.
    mismatches, cases = [], 0
    for m in [*range(2, 13), 20, 33, 40, 63, 64]:
        for n in sorted({1, 2, 3, m, 5 * m, m * m}):
            exact = formulas.eriksen(m, n)
            for precision in (53, 128):
                want = mpmath.libmp.from_rational(exact.numerator, exact.denominator,
                                                  precision, mpmath.libmp.round_nearest)
                for variant in formulas.VARIANTS:
                    opts = formulas.ClosedFormOptions(variant, precision)
                    cases += 1
                    if formulas.closed_form(m, n, opts)._mpf_ != want:
                        mismatches.append((m, n, precision, variant))
    assert cases == 372 and not mismatches, mismatches


def _fraction(raw):
    """The exact rational of a raw mpf tuple."""
    return Fraction(*mpmath.libmp.to_rational(raw))


def test_failed_certificate_falls_back_to_sequential_sum(monkeypatch):
    # An interval whose ends finish to different values makes the sequential
    # pass add the reads with mpf_add: the operators' bits, reported so.
    wide = (mpmath.libmp.from_int(-10**9), mpmath.libmp.from_int(10**9))
    monkeypatch.setattr(formulas._ExactSum, "interval", lambda self, work: wide)
    points = {(m, n, precision) for m in (2, 7, 8, 9, 40)
              for n in (1, m, m**2, asymptotics.critical_step_count(m, 0))
              for precision in (53, 256)}
    points |= {(2, 5, 53), (7, 100, 256), (40, 1600, 128), (100, 100, 53)}
    for m, n, precision in sorted(points):
        expected = _full_loop(m, n, precision)
        for variant in formulas.VARIANTS:
            info = formulas.closed_form_info(m, n, formulas.ClosedFormOptions(
                variant=variant, precision=precision))
            assert info.rounding == "sequential", (m, n, precision, variant)
            assert info.value == expected[variant], (m, n, precision, variant)


def _orbit_reads(m, n, work):
    """Theorem 1's live orbits and the number of pairs that read each."""
    reads = {}
    for j, columns in enumerate(formulas._rows(m, n, work, theorem1=True)):
        for k in columns:
            a, b = min(j, k), max(j, k)
            orbit = (a, b) if a + b <= m else (m - b, m - a)
            reads[orbit] = reads.get(orbit, 0) + 1
    return reads


def test_sequential_total_lies_in_the_certified_interval():
    # The sequential pass's total of the reads lies within
    # h = E + 2 r u (A + E) of the exact pass's sum S of the same reads,
    # u = 2^-work: E = 0 for ser3's operator terms, E = rho u A for
    # theorem 1's integer terms, which must lie within E of the exact sum
    # of the operators' terms.  Also where the result cancels heavily
    # (n = 1, 2) and where ser3's signed terms cancel; both passes count
    # the same terms and reads.  Up to m = 40 that total is the full
    # loop's, bit for bit at working precision, where the final rounding
    # would hide a change of order.  Theorem 1's exact pass needs x_jk > 0,
    # which holds from m = 8.
    for m in list(range(2, 13)) + [40, 140]:
        for n in (1, 2, m):
            for precision in (53, 256):
                work = formulas.work_bits(m, precision)
                table = spectral.build_table(m, work)
                full = _full_loop(m, n, precision, raw=True) if m <= 40 else None
                for theorem1 in (True, False) if m >= 8 else (False,):
                    exact, counts = formulas._exact_pass(m, n, work, table, theorem1)
                    total, sequential_counts = formulas._sequential_pass(
                        m, n, work, table, theorem1)
                    low, high = exact.interval(work)
                    case = (m, n, precision, theorem1)
                    assert counts == sequential_counts, case
                    assert _fraction(low) <= _fraction(total) <= _fraction(high), case
                    if full:
                        assert total == full["theorem1" if theorem1 else "ser3"], case
                    unit = Fraction(2) ** exact.exp
                    size, error = exact.size * unit, exact.rho * Fraction(2) ** -work
                    half = error * size + 2 * exact.reads * Fraction(2) ** -work * (
                        size + error * size)
                    assert _fraction(high) - _fraction(low) == 2 * half, case
                    if not theorem1:
                        assert exact.rho == 0, case
                        continue
                    reads = _orbit_reads(m, n, work)
                    power, term = formulas._term_kernel(m, n, work, table, True)
                    operators = sum(count * _fraction(term(j, k, power(j, k)))
                                    for (j, k), count in reads.items())
                    term, bound = formulas._fixed_kernel(m, n, work, table)
                    assert exact.rho == bound(min(term(j, k)[2] for j, k in reads)) > 0, case
                    assert abs(operators - exact.total * unit) <= error * size, case


def test_integer_terms_lie_within_their_bound():
    # Every live orbit's term from the integer kernel lies within its
    # stated bound, rho 2^-work times itself, of the operators' term, from
    # n = 1 to saturation, at the edge m = 8, at odd m and at 1024 bits.
    for m in (8, 9, 40, 41, 140):
        points = {1, 2, m, m**2, m**3, asymptotics.critical_step_count(m, 0)}
        for n in sorted(points):
            for precision in (53, 256, 1024):
                work = formulas.work_bits(m, precision)
                table = spectral.build_table(m, work)
                power, operator_term = formulas._term_kernel(m, n, work, table, True)
                term, bound = formulas._fixed_kernel(m, n, work, table)
                for j, k in _orbit_reads(m, n, work):
                    man, exp, x = term(j, k)
                    rho = bound(x)
                    fixed = man * Fraction(2) ** exp
                    gap = abs(_fraction(operator_term(j, k, power(j, k))) - fixed)
                    case = (m, n, precision, j, k)
                    assert rho is not None and fixed > 0, case
                    assert gap <= rho * Fraction(2) ** -work * fixed, case


def _finished(m, precision, total, theorem1):
    """F(T): the closed form's finish of a raw working-precision total."""
    with workprec(_work(m, precision)):
        total = mpmath.mp.make_mpf(total)
        limit = mpmath.mpf(m) * (m + 1) / 4
        scale = 1 / (8 * mpmath.mpf(m + 1) ** 2)
        value = limit - scale * total if theorem1 else scale * total
    with workprec(precision):
        return +value


@settings(derandomize=True, max_examples=80, deadline=None)
@given(m=st.one_of(st.just(8), st.integers(4, 29).map(lambda h: 2 * h + 1),
                   st.integers(8, 60)),
       reach=st.integers(0, 1000), precision=st.integers(53, 300))
def test_closed_form_is_its_sequential_total_finished(m, reach, precision):
    # Theorem 1's value, from the integer kernel under the widened
    # certificate, is F of the operators' sequential total: m from the
    # m = 8 edge (and odd m, where no c_k is 0) to 60, n from 1 to 0.98 of
    # the saturation point n_sat, log-uniformly, 53 to 300 bits.
    x00 = -math.log1p(-4 / m * math.sin(math.pi / (2 * m + 2)) ** 2)
    n = max(1, round((0.98 * (precision + 64) * math.log(2) / x00) ** (reach / 1000)))
    info = formulas.closed_form_info(m, n, formulas.ClosedFormOptions(precision=precision))
    assert not info.saturated
    work = formulas.work_bits(m, precision)
    total, counts = formulas._sequential_pass(
        m, n, work, spectral.build_table(m, work), theorem1=True)
    assert info.value._mpf_ == _finished(m, precision, total, True)._mpf_
    assert (info.terms, info.powers, (m + 1) ** 2 - info.skipped) == counts
    assert info.rounding == "exact"  # a kernel far off would fall back


def test_exact_pass_adds_each_distinct_term_once(monkeypatch):
    # From m = 8 each distinct term enters the accumulator once, with the
    # number of pairs that read it: theorem 1's orbit terms and ser3's
    # (m+1)(m+2)/2 terms j <= k, read (m+1)^2 - skipped times in all.
    calls = []
    add_int = formulas._ExactSum.add_int

    def counting_add(self, man, exp, reads):
        calls.append(reads)
        add_int(self, man, exp, reads)

    monkeypatch.setattr(formulas._ExactSum, "add_int", counting_add)
    for m in (8, 9, 40, 41):
        for n in (1, m, m**2, asymptotics.critical_step_count(m, 0)):
            for variant in formulas.VARIANTS:
                calls.clear()
                info = formulas.closed_form_info(m, n, formulas.ClosedFormOptions(
                    variant=variant))
                case = (m, n, variant)
                assert info.rounding == "exact", case
                terms = info.terms if variant == "theorem1" else (m + 1) * (m + 2) // 2
                assert len(calls) == terms == info.terms, case
                assert sum(calls) == (m + 1) ** 2 - info.skipped, case


def test_exact_sum_is_exact():
    # Signed terms, zeros and exponents more than 500 bits apart, met in
    # falling and rising order, each read 1 to 4 times, against the Fraction
    # sums.
    rng = random.Random(22)
    from_man_exp = mpmath.libmp.from_man_exp
    terms = [mpmath.libmp.fzero]
    for exp in (0, -40, 600, -700, 7, -1300, 300, 0, -5):
        for _ in range(3):
            man = rng.getrandbits(rng.randint(1, 200)) * rng.choice((1, -1))
            terms += [from_man_exp(man, exp + rng.randint(-3, 3)), mpmath.libmp.fzero]
    reads = [rng.randint(1, 4) for _ in terms]
    exact = formulas._ExactSum()
    for term, count in zip(terms, reads):
        exact.add(term, count)
    unit = Fraction(2) ** exact.exp
    total = sum(count * _fraction(t) for t, count in zip(terms, reads))
    size = sum(count * abs(_fraction(t)) for t, count in zip(terms, reads))
    assert (exact.total * unit, exact.size * unit, exact.reads) == (total, size, sum(reads))
    work = 100
    delta = exact.reads * size * Fraction(2) ** (1 - work)
    low, high = exact.interval(work)
    assert (_fraction(low), _fraction(high)) == (total - delta, total + delta)
    only_zeros = formulas._ExactSum()
    only_zeros.add(mpmath.libmp.fzero, 3)
    assert only_zeros.interval(work) == (mpmath.libmp.fzero,) * 2
    assert only_zeros.reads == 3


def test_closed_form_counts_terms():
    # Far past n = m only the corner orbits are summed.
    info = formulas.closed_form_info(120, 120**3)
    assert 0 < info.terms < 10
    assert info.skipped > 120**2
    full = formulas.closed_form_info(120, 120**3, formulas.ClosedFormOptions(variant="ser3"))
    assert full.skipped == 0
    assert full.terms == 121 * 122 // 2
    # The selection's exact counts at workload sizes, 53 bits: n = m^2 and
    # m^3 at m = 140, and the console check's (40, 1600).
    for m, n, variant, counts in [
        (40, 1600, "theorem1", (63, 63, 1447)),
        (40, 1600, "ser3", (861, 150, 0)),
        (140, 19600, "theorem1", (193, 193, 19139)),
        (140, 19600, "ser3", (10011, 462, 0)),
        (140, 2744000, "theorem1", (2, 2, 19875)),
        (140, 2744000, "ser3", (10011, 4, 0)),
    ]:
        info = formulas.closed_form_info(m, n, formulas.ClosedFormOptions(variant=variant))
        assert (info.terms, info.powers, info.skipped) == counts, (m, n, variant)
        assert info.rounding == "exact", (m, n, variant)


def test_closed_form_refuses_before_work(monkeypatch):
    monkeypatch.delenv("INVWALK_BUDGET", raising=False)

    def no_work(*args):
        raise AssertionError("the closed form did work before the budget refused")

    for name in ("build_table", "_mirrored_cos_sin", "_kept_blocks", "_orbit_reads",
                 "_exact_pass", "_sequential_pass"):
        monkeypatch.setattr(formulas, name, no_work)
    for variant in formulas.VARIANTS:
        with pytest.raises(WorkBudgetError, match=f"closed_form {variant} m=31600, n=1"):
            formulas.closed_form_info(31600, 1, formulas.ClosedFormOptions(variant=variant))
    monkeypatch.undo()
    monkeypatch.setenv("INVWALK_BUDGET", str(formulas.closed_form_work(40, 1600)))
    formulas.closed_form_info(40, 1600)
    monkeypatch.setenv("INVWALK_BUDGET", str(formulas.closed_form_work(40, 1600) - 1))
    with pytest.raises(WorkBudgetError, match="closed_form theorem1 m=40, n=1600"):
        formulas.closed_form_info(40, 1600)


def test_closed_form_work_counts_bound_the_sum(monkeypatch):
    # ser3 computes every orbit term and adds every pair; the analytic
    # bounds cover theorem 1's live orbits and pairs and the powers x^n
    # each variant raises, from n = 1 to saturation.
    for m in (8, 9, 20, 40, 90):
        for precision in (53, 256):
            work = formulas.work_bits(m, precision)
            for n in (1, m, m**2, asymptotics.critical_step_count(m, 0), m**3,
                      asymptotics.critical_step_count(m, 3), 5 * m**3):
                for variant in formulas.VARIANTS:
                    with monkeypatch.context() as patch:
                        raised = _count_raised_powers(patch, n)
                        info = formulas.closed_form_info(m, n, formulas.ClosedFormOptions(
                            variant=variant, precision=precision))
                    if info.saturated:
                        continue
                    terms, powers, additions = formulas._orbit_counts(m, n, work, variant)
                    added = (m + 1) ** 2 - info.skipped
                    if variant == "ser3":
                        assert (info.terms, added) == (terms, additions)
                    assert info.terms <= terms and added <= additions, (m, n, precision)
                    # A failed rounding certificate runs the loop twice.
                    passes = 1 if info.rounding == "exact" else 2
                    assert len(raised) <= passes * powers, (m, n, precision, variant)
                    if variant == "theorem1" and info.rounding == "exact":
                        # the integer kernel raises one x^n per orbit term
                        assert len(raised) == info.powers, (m, n, precision)


def test_closed_form_large_m():
    start = time.perf_counter()
    info = formulas.closed_form_info(1000, 10**6)
    assert time.perf_counter() - start < 5
    pair = formulas.bounds(1000, 10**6)
    value = formulas.exact_fraction(info.value)
    assert formulas.exact_fraction(pair.lower) <= value <= formulas.exact_fraction(pair.upper)


def test_saturation_returns_limit():
    info = formulas.closed_form_info(3, 10**6)
    assert info.saturated
    assert info.value == 3
    assert (info.terms, info.skipped) == (0, 16)
    # Saturation is decided before the work budget is consulted.
    assert formulas.closed_form_info(10**5, 10**20).saturated
    # m <= 2 never saturates: the -1 eigenvalue keeps oscillating.
    info = formulas.closed_form_info(2, 10**6)
    assert not info.saturated


def test_closed_form_huge_n():
    value = formulas.closed_form(10, 10**9)
    assert value == mpmath.mpf(10 * 11) / 4


def test_options_validation():
    with pytest.raises(ValueError):
        formulas.ClosedFormOptions(variant="nope")
    with pytest.raises(ValueError):
        formulas.ClosedFormOptions(precision=10)
    with pytest.raises(ValueError):
        formulas.closed_form(0, 1)


def test_bounds_examples():
    pair = formulas.bounds(3, 0)
    assert pair.lower == 0
    assert float(pair.upper) == pytest.approx(1.7562815664617709, rel=1e-12)
    with pytest.raises(ValueError):
        formulas.bounds(2, 5)
    with pytest.raises(ValueError, match="precision must be >= 53"):
        formulas.bounds(3, 1, precision=52)


@pytest.mark.parametrize("m", [3, 5, 8])
def test_sandwich_on_exact_values(m):
    for n, value in enumerate(chain.iterate_totals(m, 120)):
        pair = formulas.bounds(m, n)
        assert formulas.exact_fraction(pair.lower) <= value
        assert value <= formulas.exact_fraction(pair.upper)


def test_bounds_scale_to_huge_m():
    # Only the corner of the spectral table is needed; must not build it all.
    pair = formulas.bounds(10**6, 10**12)
    assert 0 < float(pair.lower) < float(pair.upper) <= 10**6 * (10**6 + 1) / 4


def test_exact_fraction_roundtrip():
    assert formulas.exact_fraction(0.5) == Fraction(1, 2)
    assert formulas.exact_fraction(Fraction(3, 7)) == Fraction(3, 7)
    with workprec(128):
        x = mpmath.mpf(1) / 3
    assert abs(formulas.exact_fraction(x) - Fraction(1, 3)) < Fraction(1, 2**126)


def test_aperiodic_expected():
    assert formulas.aperiodic_expected(1, 2, Fraction(1, 2)) == Fraction(1, 2)
    # p = 1 reduces to the plain chain.
    for n in range(8):
        assert formulas.aperiodic_expected(3, n, Fraction(1)) == \
            chain.expected_inversions_dp(3, n)
    # Default p = m/(m+1); first step is reached with probability p.
    assert formulas.aperiodic_expected(2, 1) == Fraction(2, 3)
    with pytest.raises(ValueError):
        formulas.aperiodic_expected(2, 3, Fraction(0))


def test_lazy_mean_is_binomial_mix():
    # The lazy chain takes k plain steps out of n with probability
    # C(n, k) p^k q^(n-k).  The grid holds the cases where the lazy weight
    # bm - 4a vanishes: m = 4 at p = 1 and m = 2 at p = 1/2.
    for m in range(1, 11):
        dp = list(chain.iterate_totals(m, 40))
        for p in (Fraction(1), Fraction(1, 2), Fraction(m, m + 1), Fraction(1, 1000),
                  Fraction(999, 1000)):
            for n in range(41):
                mixed = sum(math.comb(n, k) * p**k * (1 - p) ** (n - k) * dp[k]
                            for k in range(n + 1))
                assert formulas.aperiodic_expected(m, n, p) == mixed, (m, p, n)
