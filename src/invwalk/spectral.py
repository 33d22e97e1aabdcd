"""Spectral constants of the adjacent-transposition chain on S_{m+1}.

The chain's closed forms are built from the angles a_k = (2k+1)*pi/(2m+2)
and the derived quantities c_k = cos(a_k), s_k = sin(a_k) and
x_{jk} = 1 - (4/m)(1 - c_j c_k).  Pairs with j + k != m are certified
eigenvalues of the transition matrix; the x_{jk} formula is defined for
all pairs regardless.

A ``SpectralTable`` is immutable and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

import mpmath
from mpmath import mpf, workprec
from mpmath.libmp import fone, from_int, mpf_div, mpf_mul, mpf_sub, round_nearest

from .budget import check_budget

MIN_PRECISION = 53

# Largest c_k or s_k error, in units of 2^-precision, a table may carry;
# correct tables stay below 2.8 for m <= 300 at 53, 128 and 256 bits.
TABLE_ERROR_BOUND = 4

# certify_spectrum's bound on the smallest pivot over the largest in the
# elimination of P - x Id, and its working precision.
CERTIFY_PIVOT_RATIO = 2.0**-128
CERTIFY_PRECISION = 256

# Names and exact integer values of the trigonometric identities checked by
# verify_identities, as functions of m.  The first three are single sums,
# the rest are (m+1)^2 double sums.
IDENTITY_NAMES = (
    "sum 1/(1-c_j) = (m+1)^2",
    "sum c_j/(1-c_j) = m(m+1)",
    "half-range sum c_k^2/s_k^2 = m(m+1)/2",
    "sum (c_j+c_k)^2/(s_j^2 s_k^2) = 2m(m+1)^3",
    "sum (c_j+c_k)(1-c_j c_k)/((1-c_j)(1-c_k)) = 2m(m+1)^2",
    "sum (1-c_j c_k)^2/((1-c_j)(1-c_k)) = (2m+1)(m+1)^2",
    "sum (c_j+c_k)/((1-c_j)(1-c_k)) = 2m(m+1)^3",
)


@dataclass(frozen=True)
class SpectralTable:
    """Precomputed c_k, s_k arrays for a given m at a given binary precision:
    k = 0..m, or only the first entries in the table that theorem 1's
    exact pass builds for the orbits it reads (``formulas._exact_pass``)."""

    m: int
    precision: int
    c: tuple = field(repr=False)
    s: tuple = field(repr=False)


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    computed: float
    exact: Fraction
    residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class IdentityReport:
    m: int
    precision: int
    checks: tuple
    table_error: float  # worst |table entry - guarded value|, in units of 2^-precision

    @property
    def all_passed(self) -> bool:
        return (self.table_error <= TABLE_ERROR_BOUND
                and all(check.passed for check in self.checks))

    @property
    def max_residual(self) -> float:
        return max(check.residual for check in self.checks)


def check_precision(precision: int) -> None:
    """The one floor on a binary precision: the closed form, the bounds
    and the spectral table all refuse fewer than ``MIN_PRECISION`` bits."""
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be >= {MIN_PRECISION} bits, got {precision}")


def _angle_work(work: int) -> int:
    """Work units of one angle's cosine and sine at ``work`` bits: work^2/64,
    plus 6000 for the call itself (one angle took 17-27 us at 53 bits).
    Best of 3 on a 2-core x86_64 VM over 53 to 10^5 bits, in two passes,
    a unit took 2.8-5.9 ns in ``build_table`` (m = 10..10^5, runs longer
    than 0.1 s) and 3.9-7.2 ns in the closed form's saturation test."""
    return work**2 // 64 + 6000


def build_table(m: int, precision: int = MIN_PRECISION) -> SpectralTable:
    """Populate the c_k / s_k table for the chain on S_{m+1}.  Its
    (m + 1) // 2 angles are charged (``_angle_work`` each) before any is
    computed or stored."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    check_precision(precision)
    check_budget((m + 1) // 2 * _angle_work(precision), f"build_table m={m}")
    with workprec(precision):
        c, s = _mirrored_cos_sin(m)
    return SpectralTable(m=m, precision=precision, c=c, s=s)


def _mirrored_cos_sin(m: int, reach: int | None = None):
    """c_k and s_k, k = 0..reach-1 (default: 0..m), at the ambient precision.

    Only k < m/2 is computed, by one ``cos_sin`` call per index (no
    recurrence, so errors stay O(ulp)); the upper half is mirrored so that
    c[m-k] == -c[k] and s[m-k] == s[k] hold exactly at working precision
    (not merely up to rounding); downstream symmetry-halving relies on
    this.  At k = m/2 the angle is pi/2, and c = 0, s = 1 exactly.  So
    min(reach, ceil(m/2)) angles are computed, and the first ``reach``
    entries are the full table's, bit for bit: theorem 1's exact pass
    asks only for the entries its live orbits read.
    """
    reach = m + 1 if reach is None else reach
    c, s = [mpf(0)] * reach, [mpf(1)] * reach
    pi = mpmath.pi()
    half = (m + 1) // 2
    for k in range(min(reach, half)):
        c[k], s[k] = mpmath.cos_sin((2 * k + 1) * pi / (2 * m + 2))
    for k in range(m + 1 - half, reach):
        c[k], s[k] = -c[m - k], s[m - k]
    return tuple(c), tuple(s)


def eigenvalue(table: SpectralTable, j: int, k: int):
    """x_{jk} = 1 - (4/m)(1 - c_j c_k), each operation rounded to nearest
    at the table's precision.

    Defined for every index pair; only pairs with j + k != m are certified
    eigenvalues of the transition matrix (see ``orbit_pairs``).  The raw
    libmp calls keep it cheap enough for ``genfun.pole_check``'s loop.
    """
    m = table.m
    if not (0 <= j <= m and 0 <= k <= m):
        raise ValueError(f"indices must lie in [0, {m}], got ({j}, {k})")
    prec, rnd = table.precision, round_nearest
    product = mpf_mul(table.c[j]._mpf_, table.c[k]._mpf_, prec, rnd)
    gap = mpf_mul(mpf_div(from_int(4), from_int(m), prec, rnd), mpf_sub(fone, product, prec, rnd),
                  prec, rnd)
    return mpmath.mp.make_mpf(mpf_sub(fone, gap, prec, rnd))


def orbit_pairs(m: int):
    """The pairs j <= k, j + k < m, row by row: one per mirror orbit of
    certified eigenvalues, ceil(m/2) (floor(m/2) + 1) of them.

    x is bit-equal on the orbit (j, k), (k, j), (m-k, m-j), (m-j, m-k):
    it is computed from c_j c_k alone, and the table mirrors c exactly
    (c_{m-k} = -c_k), so c_{m-k} c_{m-j} is the same product.  The mirror
    takes j + k < m to j + k > m.  The pairs j + k = m, their own mirrors,
    are left out: there c_j + c_k = 0 and x is not a certified eigenvalue.
    """
    for j in range((m + 1) // 2):
        for k in range(j, m - j):
            yield j, k


def _identity_values(m: int) -> tuple:
    return (
        Fraction((m + 1) ** 2),
        Fraction(m * (m + 1)),
        Fraction(m * (m + 1), 2),
        Fraction(2 * m * (m + 1) ** 3),
        Fraction(2 * m * (m + 1) ** 2),
        Fraction((2 * m + 1) * (m + 1) ** 2),
        Fraction(2 * m * (m + 1) ** 3),
    )


def _identity_sums(m: int, c, s):
    """The seven sums, in linear work: each double sum over (j, k) is
    expanded into products of single sums (exact algebra on the summands)."""
    one = mpf(1)
    inv_s2 = [one / sk**2 for sk in s]
    c2_s2 = [ck**2 * i for ck, i in zip(c, inv_s2)]
    c_s2 = [ck * i for ck, i in zip(c, inv_s2)]
    inv_omc = [one / (1 - ck) for ck in c]
    c_omc = [ck * i for ck, i in zip(c, inv_omc)]
    c2_omc = [ck**2 * i for ck, i in zip(c, inv_omc)]

    Sb = mpmath.fsum(inv_s2)
    Sa = mpmath.fsum(c2_s2)
    Sc = mpmath.fsum(c_s2)
    Se = mpmath.fsum(inv_omc)
    Sg = mpmath.fsum(c_omc)
    Sh = mpmath.fsum(c2_omc)

    s1 = Se
    s2 = Sg
    s3 = mpmath.fsum((c[k] / s[k]) ** 2 for k in range((m - 1) // 2 + 1))
    # (c_j+c_k)^2 = c_j^2 + 2 c_j c_k + c_k^2
    s4 = 2 * Sa * Sb + 2 * Sc**2
    # (c_j+c_k)(1 - c_j c_k) = c_j + c_k - c_j^2 c_k - c_j c_k^2
    s5 = 2 * Sg * Se - 2 * Sg * Sh
    # (1 - c_j c_k)^2 = 1 - 2 c_j c_k + c_j^2 c_k^2
    s6 = Se**2 - 2 * Sg**2 + Sh**2
    s7 = 2 * Sg * Se
    return s1, s2, s3, s4, s5, s6, s7


def verify_identities(table: SpectralTable) -> IdentityReport:
    """Check the seven trigonometric identities behind the closed forms, and the table.

    Sums are evaluated on c and s recomputed with guard bits beyond the
    table precision (the identities' exact values are integers or
    half-integers, so with a correctly rounded evaluation the residual at
    table precision is at ulp scale), and every table entry must lie within
    ``TABLE_ERROR_BOUND`` * 2**-precision of its guarded value.  (Summed on
    the table's own entries, correct tables miss the tolerance by up to 7e4
    times.)  The double sums are evaluated as products of single sums.

    Each residual must stay below (m+1)^3 * 2**(-precision+7).

    The (m + 1) // 2 guarded angles (``_angle_work`` each) and, per
    index, 8000 + 50 * (guarded precision) units for the table's error
    and the sums, about 20 mpf operations, are charged before any is
    computed.  A unit took 1.4-3.4 ns on a 2-core x86_64 VM, best of 3,
    in every call longer than 0.1 s (m = 3..5 * 10^4, 53 to 6 * 10^4
    bits; the low end at 256 bits, the high end where 6 * 10^4-bit
    divisions outgrow the linear term).  So the default budget refuses
    m above about 5.7 * 10^4 at 53 bits: the table of m = 10^5 is built
    in 0.6 s, and its check (4.1 s, 1.8e9 units) is refused.
    """
    m, precision = table.m, table.precision
    tol = (m + 1) ** 3 * 2.0 ** (-precision + 7)

    work = precision + 40 + (2 * (m + 1) ** 2).bit_length()
    check_budget((m + 1) // 2 * _angle_work(work) + (m + 1) * (8000 + 50 * work),
                 f"verify_identities m={m}, precision={precision}")
    with workprec(work):
        # Not via ``build_table``, so that a substituted table builder
        # cannot also supply the reference its table is checked against.
        c, s = _mirrored_cos_sin(m)
        table_error = float(max(abs(t - g) for t, g in zip(table.c + table.s, c + s))
                            * mpf(2) ** precision)
        checks = []
        for name, computed, exact in zip(IDENTITY_NAMES, _identity_sums(m, c, s),
                                         _identity_values(m)):
            with workprec(precision):
                rounded = +computed
                residual = abs(rounded - mpf(exact.numerator) / exact.denominator)
            checks.append(
                IdentityCheck(
                    name=name,
                    computed=float(rounded),
                    exact=exact,
                    residual=float(residual),
                    tolerance=float(tol),
                    passed=residual < tol,
                )
            )
    return IdentityReport(m=m, precision=precision, checks=tuple(checks),
                          table_error=table_error)


def _state_count(m: int) -> int:
    """(m+1)!, capped at 21! (over 10^19 states, far past any budget) so that
    refusing a huge m does not first compute a huge factorial."""
    return math.factorial(min(m, 20) + 1)


def transition_matrix(m: int):
    """Full (m+1)! x (m+1)! transition matrix of the chain, as exact Fractions.

    Desk-scale only; used for spectral certification.  One work unit is
    one matrix entry: measured 25-36 ns and 8 bytes each at m = 5 and 6 on a
    2-core x86_64 VM, so the default budget admits m <= 6 (0.6 s, 215 MiB)
    and refuses m = 7 (1.6e9 entries).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    size = _state_count(m)
    check_budget(size * size, f"transition_matrix m={m}: {size}x{size} entries")
    states = list(permutations(range(m + 1)))
    index = {p: i for i, p in enumerate(states)}
    step = Fraction(1, m)
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for i, p in enumerate(states):
        for g in range(m):
            q = list(p)
            q[g], q[g + 1] = q[g + 1], q[g]
            matrix[i][index[tuple(q)]] += step
    return matrix


def _pivot_ratio(matrix, shift):
    """The smallest pivot over the largest, in absolute value, of the
    Gaussian elimination with partial pivoting of matrix - shift*Id at the
    ambient mpmath precision; 0 if a column has no pivot left."""
    size = len(matrix)
    a = [[mpf(e.numerator) / e.denominator - (shift if i == j else 0)
          for j, e in enumerate(row)] for i, row in enumerate(matrix)]
    pivots = []
    for col in range(size):
        pivot_row = max(range(col, size), key=lambda r: abs(a[r][col]))
        if a[pivot_row][col] == 0:
            return mpf(0)
        a[col], a[pivot_row] = a[pivot_row], a[col]
        pivot = a[col][col]
        pivots.append(abs(pivot))
        for r in range(col + 1, size):
            factor = a[r][col] / pivot
            if factor == 0:
                continue
            for cc in range(col, size):
                a[r][cc] -= factor * a[col][cc]
    return min(pivots) / max(pivots)


def certify_spectrum(m: int) -> dict:
    """Desk-scale check that every x_{jk} with j+k != m is an eigenvalue.

    Builds the full (m+1)! transition matrix and eliminates P - x Id at
    ``CERTIFY_PRECISION`` bits at one candidate x per mirror orbit
    (``orbit_pairs``).  x is a root of det(P - x Id) when the elimination
    meets a pivot that vanishes next to the others: the report holds each
    pair's smallest pivot over its largest, the bound
    ``CERTIFY_PIVOT_RATIO`` that each must stay below, and an overall
    pass flag.  The ratio does not shrink with the size of the matrix, as
    the determinant does: at m = 3, with every candidate 1e-3 off, the
    determinants were as small as 3.9e-16 while the ratios stayed above
    9e-3, against at most 1.5e-76 at the true eigenvalues, m = 2 and 3.

    Each candidate costs one (m+1)!-sized elimination: measured 230-250 ns
    per candidate * size^3 at m = 4 and 256 bits (2.3-2.6 s) on a 2-core
    x86_64 VM.  The estimate charges 16 units for each, about 15 ns a unit,
    so the default budget admits m <= 4 and refuses m = 5 (about 13 min).
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    size = _state_count(m)
    candidates = (m + 1) // 2 * (m // 2 + 1)  # orbit_pairs(m), not enumerated
    check_budget(16 * candidates * size**3,
                 f"certify_spectrum m={m}: {candidates} determinants of size {size}")
    table = build_table(m, CERTIFY_PRECISION)
    matrix = transition_matrix(m)
    with workprec(CERTIFY_PRECISION):
        ratios = {(j, k): float(_pivot_ratio(matrix, eigenvalue(table, j, k)))
                  for j, k in orbit_pairs(m)}
    return {
        "m": m,
        "pivot_ratios": ratios,
        "bound": CERTIFY_PIVOT_RATIO,
        "passed": all(r < CERTIFY_PIVOT_RATIO for r in ratios.values()),
    }
