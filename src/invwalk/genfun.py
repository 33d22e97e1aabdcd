"""Exact rational generating functions I_m(t) = sum_n I_{m,n} t^n.

The DP recursion is a linear system p' = A p + e/m; solving
(Id - tA) G(t) = t/(m(1-t)) e over Q(t) by fraction-free elimination gives
I_m(t) as a reduced ratio of integer-coefficient polynomials.  The
spectral form is used only as a numeric pole check (the x_{jk} are
irrational; all GF arithmetic stays over the rationals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mpf, workprec

from .chain import stencil
from .spectral import SpectralTable, build_table, eigenvalue, is_certified_eigenvalue

DEFAULT_DIMENSION_LIMIT = 120


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, value) -> "Polynomial":
        return cls([value])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return Polynomial(out)

    __rmul__ = __mul__

    def divmod(self, other: "Polynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.coeffs[-1]
        quo = [Fraction(0)] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            factor = rem[i] / lead
            if factor == 0:
                continue
            quo[i - d] = factor
            for j, bj in enumerate(other.coeffs):
                rem[i - d + j] -= factor * bj
        return Polynomial(quo), Polynomial(rem)

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        quo, rem = self.divmod(other)
        if not rem.is_zero():
            raise ValueError("inexact polynomial division")
        return quo

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

    def primitive(self) -> "Polynomial":
        c = self.content()
        return self if c == 1 else Polynomial([v / c for v in self.coeffs])

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        return Polynomial([c / lead for c in self.coeffs])

    def gcd(self, other: "Polynomial") -> "Polynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def evaluate(self, x):
        """Horner evaluation; works for Fractions and mpmath numbers alike."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + (Fraction(c) if isinstance(x, Fraction) else mpf(c.numerator) / c.denominator)
        return acc

    def __call__(self, x):
        return self.evaluate(x)

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


T = Polynomial([0, 1])
ONE = Polynomial([1])


class RationalFunction:
    """Reduced ratio of polynomials, expandable at t = 0.

    Normal form: gcd(num, den) = 1, denominator has coprime integer
    coefficients and positive constant term.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial, reduce: bool = True):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if den.coeffs[0] == 0:
            raise ValueError("denominator vanishes at t=0; not series-expandable")
        if reduce and not num.is_zero():
            g = num.gcd(den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
        # Normalize: denominator primitive integer with positive constant
        # term (the constant term is nonzero by the check above).
        scale = den.content()
        if den.coeffs[0] < 0:
            scale = -scale
        den = Polynomial([c / scale for c in den.coeffs])
        num = Polynomial([c / scale for c in num.coeffs])
        self.num = num
        self.den = den

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "RationalFunction":
        return cls(poly, ONE)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den - other.num * self.den,
                                self.den * other.den)

    def __mul__(self, other) -> "RationalFunction":
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.num * other, self.den)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

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

    def evaluate(self, x):
        return self.num.evaluate(x) / self.den.evaluate(x)


def series(rf: RationalFunction, N: int) -> list:
    """First N+1 Taylor coefficients of rf at t = 0 (exact rationals)."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
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


def _step_matrix(m: int):
    """``[m*A | -e]`` as an int64 (d, d+1) array, for p' = A p + e/m.

    Read off the chain's stencil: row r of m*A has ``self_coeff[r]`` on the
    diagonal and 1 at each neighbour; e is the diagonal-cell indicator.
    """
    self_coeff, nbrs, diag = stencil(m)
    d = len(self_coeff)
    cells = np.arange(d)
    rows = np.zeros((d, d + 1), dtype=np.int64)
    rows[cells[:, None], nbrs] = 1   # padding lands in column d, reset below
    rows[cells, cells] = self_coeff
    rows[:, d] = 0
    rows[diag, d] = -1
    return rows


def _solve_at_point(step_matrix, m: int, d: int, t: int):
    """det(M(t)) and det * sum(M(t)^-1 rhs(t)) at an integer point t.

    M(t) = m*Id - t*(m*A), rhs(t) = t*e_diag, all integer.  One-step
    Bareiss elimination keeps every intermediate entry an exact minor of
    the input, so the divisions below are exact integer divisions.
    Returns None if M(t) is singular (t is a reciprocal eigenvalue).
    """
    aug = (-t * step_matrix).tolist()
    for r in range(d):
        aug[r][r] += m

    sign = 1
    prev = 1
    for col in range(d):
        pivot_row = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if pivot_row is None:
            return None
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            sign = -sign
        pivot = aug[col][col]
        prow = aug[col]
        for r in range(col + 1, d):
            head = aug[r][col]
            row = aug[r]
            if head == 0:
                aug[r] = [pivot * v // prev for v in row]
            else:
                aug[r] = [(pivot * row[cc] - head * prow[cc]) // prev
                          for cc in range(d + 1)]
            aug[r][col] = 0
        prev = pivot

    det = sign * aug[d - 1][d - 1]
    total = Fraction(0)
    solution = [Fraction(0)] * d
    for r in range(d - 1, -1, -1):
        acc = Fraction(aug[r][d])
        row = aug[r]
        for cc in range(r + 1, d):
            if row[cc]:
                acc -= row[cc] * solution[cc]
        solution[r] = acc / row[r]
        total += solution[r]
    return det, det * total


def _lagrange(points, values):
    """Exact interpolating polynomial through (points[i], values[i])."""
    result = Polynomial()
    for i, (xi, yi) in enumerate(zip(points, values)):
        if yi == 0:
            continue
        basis = ONE
        denom = Fraction(1)
        for j, xj in enumerate(points):
            if j == i:
                continue
            basis = basis * Polynomial([-xj, 1])
            denom *= xi - xj
        result = result + basis * (Fraction(yi) / denom)
    return result


def build_gf(m: int) -> RationalFunction:
    """Exact I_m(t), reduced and normalized.

    Cramer's rule by evaluation-interpolation: the determinant D(t) and
    the numerator P(t) = D(t) * sum(M(t)^-1 rhs(t)) both have degree at
    most d, so d+1 nonsingular integer sample points pin them down; then
    I_m(t) = P(t) / (D(t) (1 - t)).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    d = m * (m + 1) // 2
    if d > DEFAULT_DIMENSION_LIMIT:
        from .budget import WorkBudgetError
        raise WorkBudgetError(d, DEFAULT_DIMENSION_LIMIT, f"build_gf m={m}: state dimension")

    step_matrix = _step_matrix(m)
    points = []
    dets = []
    numerators = []
    t = 1
    while len(points) < d + 1:
        solved = _solve_at_point(step_matrix, m, d, t)
        if solved is not None:
            points.append(t)
            dets.append(solved[0])
            numerators.append(solved[1])
        t += 1

    det_poly = _lagrange(points, dets)
    num_poly = _lagrange(points, numerators)
    return RationalFunction(num_poly, det_poly * Polynomial([1, -1]))


def aperiodic_gf(rf: RationalFunction, m: int, p: Fraction | None = None) -> RationalFunction:
    """GF of the lazy chain: 1/(1 - t(1-p)) * I_m(t p / (1 - t(1-p))).

    Default p = m/(m+1) (the standard aperiodic variant).
    """
    if p is None:
        p = Fraction(m, m + 1)
    p = Fraction(p)
    if not (0 < p <= 1):
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if p == 1:
        return rf
    q = 1 - p
    tp = Polynomial([0, p])          # t*p
    omqt = Polynomial([1, -q])       # 1 - t(1-p)
    deg = max(rf.num.degree, rf.den.degree, 0)

    def substituted(poly: Polynomial) -> Polynomial:
        acc = Polynomial()
        tp_pow = ONE
        omqt_pows = [ONE]
        for _ in range(deg):
            omqt_pows.append(omqt_pows[-1] * omqt)
        for i in range(deg + 1):
            c = poly.coeffs[i] if i <= poly.degree else Fraction(0)
            if c != 0:
                acc = acc + c * (tp_pow * omqt_pows[deg - i])
            tp_pow = tp_pow * tp
        return acc

    num = substituted(rf.num)
    den = substituted(rf.den) * omqt  # extra factor for the 1/(1 - t(1-p)) prefactor
    return RationalFunction(num, den)


@dataclass(frozen=True)
class PoleCheckReport:
    m: int
    matched: tuple            # (root approximation, candidate label, multiplicity)
    unmatched_degree: int     # denominator degree not accounted for
    passed: bool


def pole_check(rf: RationalFunction, table: SpectralTable, tol: float = 1e-8,
               precision: int = 128) -> PoleCheckReport:
    """Verify every denominator root is 1 or a reciprocal certified x_{jk}.

    Candidates are evaluated against the denominator at high precision and
    matched roots deflated (synthetic division) until the remaining degree
    is zero or no candidate matches.
    """
    m = table.m
    with workprec(precision):
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
