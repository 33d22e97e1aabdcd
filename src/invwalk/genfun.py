"""Exact rational generating functions I_m(t) = sum_n I_{m,n} t^n.

The walk's d = m(m+1)/2 pair probabilities evolve by an affine map, so
I_{m,n} satisfies a linear recurrence of order at most d+1.  Berlekamp-
Massey on 2(d+1) terms of Eriksen's formula (the DP stays an independent
check) gives the minimal one, hence I_m(t) as a reduced ratio of integer
polynomials.  The spectral form is used only as a numeric pole check
(the x_{jk} are irrational; all GF arithmetic stays over the rationals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mpf, workprec

from . import formulas
from .budget import check_budget
from .spectral import SpectralTable, eigenvalue, is_certified_eigenvalue


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

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __mul__(self, scalar: int | Fraction) -> "Polynomial":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return Polynomial([c * scalar for c in self.coeffs])

    __rmul__ = __mul__

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

    def __str__(self):
        return format_polynomial(self)


def format_polynomial(poly: Polynomial, var: str = "t") -> str:
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
            t = var if power == 1 else f"{var}^{power}"
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

    Coefficient n takes about ``rf.order`` products whose denominators grow
    like m^n, so the expansion costs about N^2 order.  Measured on a 2-core
    x86_64 VM it took 3-20 ns per unit of (N+1)^2 order for m = 2..20 and
    N = 250..4000 (larger m at the slow end).
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    check_budget((N + 1) ** 2 * rf.order, f"series: {N + 1} coefficients of order {rf.order}")
    a = rf.num.coeffs
    b = rf.den.coeffs
    b0 = b[0]
    out = []
    for n in range(N + 1):
        acc = a[n] if n < len(a) else Fraction(0)
        for j in range(1, min(n, len(b) - 1) + 1):
            acc -= b[j] * out[n - j]
        out.append(acc / b0)
    return out


def gf_terms(m: int) -> int:
    """2(d+1), twice the largest possible order: the terms ``build_gf`` uses."""
    return m * (m + 1) + 2


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

    Berlekamp-Massey on the integers ``m^n I_{m,n}``, n < ``gf_terms(m)``,
    gives the minimal denominator C(m t) and order L; the numerator is
    ``(C S) mod t^L`` for the truncated series S.  BM's pair is already
    coprime, so no gcd is taken.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    terms = gf_terms(m)
    # BM makes about N L big-integer operations, L <= N/2, on entries that
    # grow to O(N L) bits before the recurrence is found.  Measured on a
    # 2-core x86_64 VM, build_gf takes 6-14 ns per unit of N^5 / 10^5 for
    # m = 16..25 (odd m at the slow end), while N^4 drifts by 4x over them.
    check_budget(terms**5 // 10**5, f"build_gf m={m}: Berlekamp-Massey on {terms} terms")
    values = formulas.eriksen_series(m, terms - 1)
    scaled, order = berlekamp_massey([v.numerator * (m**n // v.denominator)
                                      for n, v in enumerate(values)])
    den = Polynomial([c / Fraction(m) ** i for i, c in enumerate(scaled.coeffs)])
    num = [sum(den.coeffs[i] * values[k - i] for i in range(min(k, den.degree) + 1))
           for k in range(order)]
    return RationalFunction(Polynomial(num), den)


def aperiodic_gf(rf: RationalFunction, m: int, p: Fraction | None = None) -> RationalFunction:
    """GF of the lazy chain, 1/(1 - q t) * I_m(t p / (1 - q t)) with q = 1 - p,
    built in lowest terms.  p is the move probability (default m/(m+1)).

    With rf = N/D and e = max(deg N, deg D - 1) the result is
    ``(1-qt)^e N(s) / ((1-qt)^(e+1) D(s))``, s = tp/(1-qt), and the pair is
    coprime.  A common root with 1 - qt != 0 would make s a common root of
    N and D.  At t = 1/q only the top terms survive: the numerator is
    nonzero iff e = deg N, the denominator iff e + 1 = deg D, and the
    choice of e makes one of them hold.
    """
    p = formulas.move_probability(m, p)
    if p == 1:
        return rf
    e = max(rf.num.degree, rf.den.degree - 1)
    # With p = a/b, b^k (1-qt)^k s^i = (a t)^i (b + (a-b) t)^(k-i); the
    # sums run over integers (the denominator is integral in normal form).
    a, b = p.numerator, p.denominator
    binomial_rows = [[math.comb(k, j) * b ** (k - j) * (a - b) ** j for j in range(k + 1)]
                     for k in range(e + 2)]

    def homogenized(coeffs, k: int) -> Polynomial:
        """b^k (1-qt)^k P(s) for P with integer coefficients ``coeffs``, k >= deg P."""
        out = [0] * (k + 1)
        for i, c in enumerate(coeffs):
            if c:
                c *= a**i
                for j, w in enumerate(binomial_rows[k - i]):
                    out[i + j] += c * w
        return Polynomial(out)

    scale = math.lcm(*(c.denominator for c in rf.num.coeffs))
    num = homogenized([int(c * scale) for c in rf.num.coeffs], e) * Fraction(b, scale)
    return RationalFunction(num, homogenized([int(c) for c in rf.den.coeffs], e + 1))


POLE_TOL = 1e-8


@dataclass(frozen=True)
class PoleCheckReport:
    m: int
    matched: tuple            # (root approximation, candidate label, multiplicity)
    unmatched_degree: int     # denominator degree not accounted for
    passed: bool


def pole_check(rf: RationalFunction, table: SpectralTable) -> PoleCheckReport:
    """Verify every denominator root is 1 or a reciprocal certified x_{jk}.

    Candidates are evaluated against the denominator at the table's
    precision and matched roots deflated (synthetic division) until the
    remaining degree is zero or no candidate matches; ``POLE_TOL`` is the
    relative residual that counts as a root.
    """
    m, tol = table.m, POLE_TOL
    with workprec(table.precision):
        candidates = [(mpf(1), "1")]
        seen = []
        for j in range(m + 1):
            for k in range(j, m + 1):
                if not is_certified_eigenvalue(table, j, k):
                    continue
                x = eigenvalue(table, j, k)
                if x == 0:
                    continue
                r = 1 / x
                if any(abs(r - s) < tol for s in seen):
                    continue
                seen.append(r)
                candidates.append((r, f"1/x[{j},{k}]"))

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
