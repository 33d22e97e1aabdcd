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
DP's lazy mean.  The spectral form is used only as a numeric pole check
(the x_{jk} are irrational; all GF arithmetic stays over the rationals).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mpf, workprec

from . import chain, formulas
from .budget import check_budget
from .spectral import SpectralTable, eigenvalue, orbit_pairs


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


POLE_TOL = 1e-8


@dataclass(frozen=True)
class PoleCheckReport:
    m: int
    matched: tuple            # (root approximation, candidate label, multiplicity)
    unmatched_degree: int     # denominator degree not accounted for
    passed: bool


def pole_check(rf: RationalFunction, table: SpectralTable) -> PoleCheckReport:
    """Verify every denominator root is 1 or a reciprocal certified x_{jk}.

    The candidates are 1 and 1/x at each nonzero representative of
    ``orbit_pairs``, which reads every certified value.  Each is evaluated
    against the denominator at the table's precision and matched roots
    deflated (synthetic division) until the remaining degree is zero or no
    candidate matches; ``POLE_TOL`` is the relative residual that counts as
    a root.  A value that another orbit repeats (at even m, x = 1 - 4/m
    at every (j, m/2)) finds its roots deflated by its first candidate, so
    it matches nothing more.
    """
    m, tol = table.m, POLE_TOL
    with workprec(table.precision):
        candidates = [(mpf(1), "1")]
        for j, k in orbit_pairs(m):
            x = eigenvalue(table, j, k)
            if x != 0:
                candidates.append((1 / x, f"1/x[{j},{k}]"))

        coeffs = [mpf(c.numerator) / c.denominator for c in rf.den.coeffs]
        scale = max(abs(c) for c in coeffs)
        matched = []
        for root, label in candidates:
            multiplicity = 0
            while len(coeffs) > 1:
                # Horner evaluation and synthetic division in one pass.
                value = coeffs[-1]
                deflated = [value]
                for c in reversed(coeffs[:-1]):
                    value = value * root + c
                    deflated.append(value)
                remainder = deflated.pop()
                if abs(remainder) >= tol * scale * max(1, abs(root)) ** (len(coeffs) - 1):
                    break
                deflated.reverse()
                coeffs = deflated
                multiplicity += 1
            if multiplicity:
                matched.append((float(root), label, multiplicity))
        unmatched = len(coeffs) - 1
    return PoleCheckReport(m=m, matched=tuple(matched),
                           unmatched_degree=unmatched, passed=unmatched == 0)
