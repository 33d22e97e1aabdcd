"""Exact rational generating functions I_m(t) = sum_n I_{m,n} t^n.

The DP splits each step as ``m A = (m - 4) I + N`` (``chain``), so

    I_m(t) = V(t / (m - (m - 4) t)) / (1 - t),
    V(u) = sum_{s>=1} v_s u^s = u size^T (I - u N_q)^-1 e_q,

with N_q the jump kernel on the h = ``chain.orbit_count(m)`` reversal
orbits and v_s = 1^T N^(s-1) e Eriksen's weights.  V has order at most
h + 1, so Berlekamp-Massey (Massey 1969) on 2(h + 1) terms of
``formulas._eriksen_weights`` gives it in lowest terms, and one
substitution helper (``homogenized``) gives I_m(t) and the lazy GF, with
no gcd.  The DP's ``iterate_totals`` checks the GF, and the lazy GF the
DP's lazy mean.  The spectral form enters only ``pole_check``, which
certifies theorem 1's link between the GF and the spectrum: every pole
of I_m(t) is simple and lies within 2^-(precision/2) of 1 or of a
reciprocal eigenvalue 1/x_{jk}, in the variable lambda = m/t - m + 4
(the x_{jk} are irrational; all GF arithmetic stays over the rationals,
and the certificate runs on integers).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from mpmath.libmp import fone, mpf_div, round_nearest, to_float

from . import chain, formulas
from .budget import check_budget
from .spectral import TABLE_ERROR_BOUND, SpectralTable, eigenvalue, orbit_pairs


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def content(self) -> Fraction:
        """Positive rational c such that self / c has coprime integer coefficients."""
        if self.is_zero():
            return Fraction(1)
        num_gcd = 0
        den_lcm = 1
        for c in self.coeffs:
            num_gcd = math.gcd(num_gcd, c.numerator)
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        return Fraction(num_gcd, den_lcm)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def format_polynomial(poly: Polynomial) -> str:
    """Canonical ascending-degree text form, e.g. ``1 - t^2`` or ``2*t + t^2``."""
    if poly.is_zero():
        return "0"
    parts = []
    for power, coef in enumerate(poly.coeffs):
        if coef == 0:
            continue
        mag = abs(coef)
        if power == 0:
            body = str(mag)
        else:
            t = "t" if power == 1 else f"t^{power}"
            body = t if mag == 1 else f"{mag}*{t}"
        if not parts:
            parts.append(body if coef > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(parts)


ONE = Polynomial([1])


class RationalFunction:
    """Ratio of polynomials in lowest terms, expandable at t = 0.

    The caller passes a coprime pair (``build_gf`` and ``aperiodic_gf``
    both build one; no gcd is taken here).  Normal form: the denominator
    has coprime integer coefficients and positive constant term.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if den.coeffs[0] == 0:
            raise ValueError("denominator vanishes at t=0; not series-expandable")
        # Normalize: denominator primitive integer with positive constant
        # term (the constant term is nonzero by the check above).
        scale = den.content()
        if den.coeffs[0] < 0:
            scale = -scale
        self.num = Polynomial([c / scale for c in num.coeffs])
        self.den = Polynomial([c / scale for c in den.coeffs])

    def __eq__(self, other):
        # Both sides are coprime and in normal form, so equal functions
        # have equal coefficients.
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self):
        num = format_polynomial(self.num)
        den = format_polynomial(self.den)
        if self.den == ONE:
            return num
        if sum(1 for c in self.num.coeffs if c != 0) > 1:
            num = f"({num})"
        return f"{num} / ({den})"

    @property
    def order(self) -> int:
        """Order of the shortest recurrence of the Taylor coefficients (BM's L)."""
        return max(self.den.degree, self.num.degree + 1)


def series(rf: RationalFunction, N: int) -> list:
    """First N+1 Taylor coefficients of rf at t = 0 (exact rationals).

    ``b_0 c_n = a_n - sum_j b_j c_(n-j)`` over integers (fraction-free
    division, von zur Gathen & Gerhard, Modern Computer Algebra, 4.7): the
    last deg b coefficients are kept as integer numerators ``w`` over one
    running denominator L, the lcm of a's denominators and of the c's so
    far, so coefficient n takes one reduction and one gcd (the factor f by
    which c_n's denominator raises L; w is then multiplied by f).  The
    integers grow like m^n, so the expansion costs about N^2 order.
    Measured on a 2-core x86_64 VM it took 1.4-3.2 ns per unit of
    (N+1)^2 order for m = 3..20 and N = 800..4000 (m = 3, 4 at the slow
    end, where the gcd weighs most against the order).
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    check_budget((N + 1) ** 2 * rf.order, f"series: {N + 1} coefficients of order {rf.order}")
    L = math.lcm(*(c.denominator for c in rf.num.coeffs))
    b0, *tail = (int(c) for c in rf.den.coeffs)
    w = []  # w[j-1] = L c_(n-j), the newest first
    out = []
    for n in range(N + 1):
        acc = -sum(map(operator.mul, tail, w))
        if n <= rf.num.degree:
            a = rf.num.coeffs[n]
            acc += a.numerator * (L // a.denominator)
        c = Fraction(acc, L * b0)  # acc = L b_0 c_n
        f = c.denominator // math.gcd(L, c.denominator)
        if f > 1:
            L *= f
            w = [x * f for x in w]
        w.insert(0, acc * f // b0)
        del w[len(tail):]
        out.append(c)
    return out


def gf_terms(m: int) -> int:
    """2(h+1), twice the largest possible order of V (module docstring),
    h = ``chain.orbit_count(m)``: the terms ``build_gf`` uses."""
    return 2 * (chain.orbit_count(m) + 1)


def homogenized(coeffs, k: int, a: int, B: int, A: int) -> Polynomial:
    """``sum_i c_i a^i t^i (B - A t)^(k-i)``, that is ``(B - A t)^k P(s)``
    at ``s = a t / (B - A t)`` for P with rational coefficients ``coeffs``,
    k >= deg P, by the Horner step ``out <- out (B - A t) + c_i (a t)^i``.

    Images of a coprime pair stay coprime if one of them has k = deg: a
    common root with B - A t != 0 would make s a common root, and at
    B - A t = 0 only the top term c_k (a t)^k survives.
    """
    out = []
    power = 1  # a^i
    for i in range(k + 1):
        out = [B * x - A * y for x, y in zip(out + [0], [0] + out)]
        if i < len(coeffs):
            out[i] += coeffs[i] * power
        power *= a
    return Polynomial(out)


def berlekamp_massey(terms: list):
    """Shortest linear recurrence of an integer sequence (Massey 1969).

    Returns ``(C, L)``, C(0) != 0 and deg C <= L, with ``sum_i C_i s_{n-i}
    = 0`` for L <= n < len(terms); if 2L fits in the terms, C is (up to a
    constant) the denominator of the sequence's generating function.  Each
    fraction-free update ``C <- b C - d t^shift B`` is a multiple of the one
    over Q; dividing out the content keeps the entries from blowing up.
    """
    conn, prev = [1], [1]
    length, shift, prev_disc = 0, 1, 1
    for n in range(len(terms)):
        disc = sum(conn[i] * terms[n - i] for i in range(min(length, len(conn) - 1) + 1))
        if disc == 0:
            shift += 1
            continue
        g = math.gcd(prev_disc, disc)
        updated = [prev_disc // g * c for c in conn]
        updated += [0] * (len(prev) + shift - len(updated))
        for i, b in enumerate(prev):
            updated[i + shift] -= disc // g * b
        content = math.gcd(*updated)
        if content > 1:
            updated = [c // content for c in updated]
        if 2 * length <= n:
            prev, prev_disc = conn, disc
            length, shift = n + 1 - length, 1
        else:
            shift += 1
        conn = updated
    return Polynomial(conn), length


def build_gf(m: int) -> RationalFunction:
    """Exact I_m(t), reduced and normalized.

    Berlekamp-Massey on ``[0, v_1, ..., v_{2h+1}]`` (``gf_terms(m)``
    terms) gives V = P/Q in lowest terms, P = (Q V) mod u^L for BM's
    order L.  ``homogenized`` at e = max(deg P, deg Q) substitutes
    u = t / (m - (m - 4) t), and the denominator's factor 1 - t cancels
    nothing: t = 1 is u = 1/4, where V(1/4) = m(m+1)/4 != 0 and V has no
    pole (N's eigenvalues 4 c_j c_k have modulus below 4).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    terms = gf_terms(m)
    # BM makes about N L big-integer operations, L <= N/2, on entries that
    # grow to O(N L) bits, so about N^5.5 with Karatsuba products.  Measured
    # on a 2-core x86_64 VM, build_gf takes 3-13 ns per unit of
    # N^5.5 / 60000 for m = 12..26 (odd m at the slow end), with no drift
    # in m; the default budget admits m <= 24 (about 4-5 s).
    check_budget(math.isqrt(terms**11) // 60000,
                 f"build_gf m={m}: Berlekamp-Massey on {terms} terms")
    v = [0] + formulas._eriksen_weights(m, terms - 1)
    den, order = berlekamp_massey(v)
    den = [int(c) for c in den.coeffs]
    num = [sum(den[i] * v[k - i] for i in range(min(k, len(den) - 1) + 1))
           for k in range(order)]
    e = max(Polynomial(num).degree, len(den) - 1)
    num = homogenized(num, e, 1, m, m - 4)
    den = homogenized(den, e, 1, m, m - 4).coeffs
    return RationalFunction(num, Polynomial([x - y for x, y in zip(den + (0,), (0,) + den)]))


def aperiodic_gf(rf: RationalFunction, m: int, p: Fraction | None = None) -> RationalFunction:
    """GF of the lazy chain, 1/(1 - q t) * I_m(t p / (1 - q t)) with q = 1 - p,
    built in lowest terms.  p is the move probability (default m/(m+1)).

    With rf = N/D and e = max(deg N, deg D - 1) the result is
    ``(1-qt)^e N(s) / ((1-qt)^(e+1) D(s))``, s = tp/(1-qt): ``homogenized``
    images at e and e + 1, coprime since e = deg N or e + 1 = deg D.  With
    p = a/b the image at k carries a factor b^k, so N enters as b N (over Q)
    to match D's b^(e+1).
    """
    p = formulas.move_probability(m, p)
    if p == 1:
        return rf
    e = max(rf.num.degree, rf.den.degree - 1)
    # With p = a/b, b^k (1-qt)^k s^i = (a t)^i (b - (b-a) t)^(k-i).
    a, b = p.numerator, p.denominator
    num = homogenized([c * b for c in rf.num.coeffs], e, a, b, b - a)
    den = homogenized([int(c) for c in rf.den.coeffs], e + 1, a, b, b - a)
    return RationalFunction(num, den)


@dataclass(frozen=True)
class PoleCheckReport:
    m: int
    matched: tuple            # (root approximation, candidate label, multiplicity)
    unmatched_degree: int     # denominator degree not accounted for
    passed: bool


def pole_check(rf: RationalFunction, table: SpectralTable) -> PoleCheckReport:
    """Certify that every root of rf's denominator is simple and is 1 or
    a reciprocal certified x_{jk}, on Python integers, with no deflation.

    **The map to lambda.**  With D(t) = sum d_i t^i the integer denominator
    of degree e (d_0 > 0),

        P(lambda) = sum d_i m^i (lambda + m - 4)^(e-i)
                  = (lambda + m - 4)^e D(m / (lambda + m - 4))

    has degree e (its top coefficient is d_0) and P(4 - m) = d_e m^e != 0,
    so lambda = m/t - m + 4 takes D's roots to P's with their
    multiplicities.  t = 1 goes to lambda = 4 and t = 1/x_jk to
    lambda_jk = 4 c_j c_k: the roots spread over (-4, 4] instead of
    crowding near t = 1.

    **The candidates.**  4, then 4 c_j c_k over ``orbit_pairs``, each a
    dyadic z = L 2^-W with W = precision + 2e + bit_length(m + 1): the
    table's c_k are integers at 2^-W, and the 2e bits beyond precision
    hold the Horner pass's error, which grows by up to 4 a step.  z lies
    within delta of the candidate's exact value: delta = 0 for 4, else
    9 TABLE_ERROR_BOUND 2^-precision (each c_k within TABLE_ERROR_BOUND
    units of 2^-precision, which ``spectral.verify_identities`` checks)
    plus 2^-W (the product's floor).  z = 4 - m (x = 0: t infinite, where
    P does not vanish) is skipped, and each distinct z is tested once, for
    its first pair in ``orbit_pairs`` order (at even m every (j, m/2)
    gives z = 0 exactly).  Exact values that the table rounds apart would
    give overlapping discs and fail; over m = 1..24 the distinct z number
    exactly the distinct values.

    **The test.**  One Horner pass on integers at 2^-W gives P(z) and
    P'(z), each product floored.  With a = max(1, ceil|z|) and S = sum_{k<e}
    a^k, the floors put P(z) within S units of 2^-W and P'(z) within e S.
    Since P'/P(z) = sum_i 1/(z - zeta_i) over P's roots zeta_i, some
    |z - zeta_i| <= e |P(z)/P'(z)|, so the disc about z of radius

        r = e (|P(z)| + S 2^-W) / (|P'(z)| - e S 2^-W) + delta

    holds a root of P and the candidate's exact value.  The discs with
    r < 2^-(precision // 2) are sorted by centre, and one that meets a
    neighbour is dropped with it; the rest, the matches, are pairwise
    disjoint.  Disjoint discs hold distinct roots, so e matches account
    for all e roots, counted with multiplicity, one each: every root is
    simple and lies within r of its candidate.  ``passed`` iff the matches
    number e, each of multiplicity 1; a double root, or a root farther
    than the threshold from every candidate, leaves the count short.  The
    root reported is the candidate's t, 1 or 1/x (x from
    ``spectral.eigenvalue``) rounded at the table's precision, as a float.
    """
    m, precision = table.m, table.precision
    den = [int(c) for c in rf.den.coeffs]
    e = len(den) - 1
    width = precision + 2 * e + (m + 1).bit_length()
    # P's coefficients, ascending, by the Horner step
    # ``p <- p (lambda + m - 4) + d_i m^i``, each kept at 2^-W.
    p, power = [], 1
    for d in den:
        p = [(m - 4) * x + y for x, y in zip(p + [0], [0] + p)]
        p[0] += d * power
        power *= m
    top, *rest = (c << width for c in reversed(p))

    c = [(-man if sign else man) << (exp + width) for sign, man, exp, _ in
         (ck._mpf_ for ck in table.c)]
    delta = (9 * TABLE_ERROR_BOUND << (width - precision)) + 1
    zero_x = (4 - m) << width
    first = {4 << width: None}  # each distinct z and its first pair
    for j, k in orbit_pairs(m):
        z = c[j] * c[k] >> (width - 2)
        if z != zero_x:
            first.setdefault(z, (j, k))
    candidates = list(first.items())

    limit = 1 << (width - precision // 2)
    discs = []  # (z, r, candidate index), z and r in units of 2^-W
    for i, (z, pair) in enumerate(candidates):
        dz = 0 if pair is None else delta
        value, slope = top, 0
        for coeff in rest:
            slope = (slope * z >> width) + value
            value = (value * z >> width) + coeff
        a = max(1, -(-abs(z) >> width))
        s = e if a == 1 else (a**e - 1) // (a - 1)
        margin = abs(slope) - e * s
        if margin <= 0:
            continue
        r = -(-(e * (abs(value) + s) << width) // margin) + dz
        if r < limit:
            discs.append((z, r, i))
    discs.sort()
    clear = [True, *(b[0] - a[0] > a[1] + b[1] for a, b in zip(discs, discs[1:])), True]
    hits = sorted(i for n, (_, _, i) in enumerate(discs) if clear[n] and clear[n + 1])

    matched = []
    for i in hits:
        pair = candidates[i][1]
        if pair is None:
            matched.append((1.0, "1", 1))
            continue
        j, k = pair
        x = eigenvalue(table, j, k)._mpf_
        root = to_float(mpf_div(fone, x, precision, round_nearest), rnd=round_nearest)
        matched.append((root, f"1/x[{j},{k}]", 1))
    unmatched = e - len(matched)
    return PoleCheckReport(m=m, matched=tuple(matched),
                           unmatched_degree=unmatched, passed=unmatched == 0)
