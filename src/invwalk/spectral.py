"""Spectral constants of the adjacent-transposition chain on S_{m+1}.

The chain's closed forms are built from the angles a_k = (2k+1)*pi/(2m+2)
and the derived quantities c_k = cos(a_k), s_k = sin(a_k) and
x_{jk} = 1 - (4/m)(1 - c_j c_k).  Pairs with j + k != m are certified
eigenvalues of the transition matrix; the x_{jk} formula is defined for
all pairs regardless.

``build_table`` takes each angle from its own ``mpmath.cos_sin`` call.
``verify_identities`` checks a table against a reference with guard bits
that shares only ``cos_sin`` with it: two calls give e^{i theta} and
e^{2i theta}, theta = pi/(2m+2), and the other angles follow by rotation on
Python integers, whose error grows linearly in k and stays below 2^-W
after rounding to the reference's width W (``_reference``).  The seven
identity sums are then integers at 2^-W, floored quotients and products
whose error is far below one ulp, each rounded once (``_fixed_sums``).  A
fault in the table's angles thus cannot reach the values it is checked
against.

A ``SpectralTable`` is immutable and safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from operator import sub

import mpmath
from mpmath import mpf, workprec
from mpmath.libmp import fone, from_int, mpf_div, mpf_mul, mpf_sub, round_nearest, to_fixed

from .budget import check_budget

MIN_PRECISION = 53

# Largest c_k or s_k error, in units of 2^-precision, a table may carry;
# correct tables stay below 2.8 for m <= 300 at 53, 128 and 256 bits.
TABLE_ERROR_BOUND = 4

# certify_spectrum's bound on the smallest pivot over the largest in the
# elimination of P - x Id, and its working precision.
CERTIFY_PIVOT_RATIO = 2.0**-128
CERTIFY_PRECISION = 256

# Guard bits of verify_identities' rotated reference beyond its width plus
# bit_length(m); they keep its error below 2^-width (see ``_reference``).
ROTATION_GUARD = 2

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
    work_charged: int  # the units passed to check_budget

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


def _nearest(x, width: int) -> int:
    """x 2^width rounded to the nearest integer (halves up)."""
    return (to_fixed(x._mpf_, width + 1) + 1) >> 1


def _reference(m: int, width: int):
    """c_k and s_k, k = 0..m, as integers C_k, S_k at 2^-width, each within
    2^-width of cos and sin of (2k+1) theta, theta = pi/(2m+2).

    Two ``cos_sin`` calls give e^{i theta} and e^{2i theta}, rounded to
    2^-G, G = width + bit_length(m) + ``ROTATION_GUARD``; then
    z_{k+1} = z_k e^{2i theta} on integers, four products and two floors
    a step, for k < ceil(m/2).  Each z_k is rounded to 2^-width and
    mirrored as ``_mirrored_cos_sin`` mirrors the table: C_{m-k} = -C_k,
    S_{m-k} = S_k, and C = 0, S = 2^width at k = m/2.

    Bound.  At G + 4 bits the angle (pi rounded, then divided) is within
    1.6 2^-(G+4) of theta, and 2 theta, the same angle doubled, within
    3.2 2^-(G+4); ``cos_sin`` is within an ulp, 2^-(G+3).  Rounded to
    2^-G, each start component is off by at most (0.2 + 0.125 + 0.5)
    2^-G, so |z_0 - e^{i theta}| and |r - e^{2i theta}| are at most
    sqrt2 2^-G, r being the rounded step, and |r| <= 1 + sqrt2 2^-G.  A
    step's two floors add at most sqrt2 2^-G, so e_k = z_k - e^{i(2k+1)
    theta} obeys |e_{k+1}| <= |e_k| |r| + |r - e^{2i theta}| + sqrt2
    2^-G, whence |e_k| <= |r|^k sqrt2 (2k+1) 2^-G < 1.5 (2k+1) 2^-G:
    k 2^-G < 2^-(width+3) makes |r|^k < 1 + 2^-90.  The error grows
    linearly in k, and 2k + 1 <= m < 2^bit_length(m), so |e_k| < 1.5
    2^-(width+ROTATION_GUARD) = 0.375 2^-width; with the final rounding,
    each C_k and S_k is within 0.875 2^-width of the exact value, for
    every m (the mirror is exact: cos((2(m-k)+1) theta) = -cos((2k+1)
    theta)).
    """
    rotation = width + m.bit_length() + ROTATION_GUARD
    with workprec(rotation + 4):
        theta = mpmath.pi / (2 * m + 2)
        x, y = (_nearest(v, rotation) for v in mpmath.cos_sin(theta))
        a, b = (_nearest(v, rotation) for v in mpmath.cos_sin(2 * theta))
    shift = rotation - width
    half_unit = 1 << (shift - 1)
    c, s = [0] * (m + 1), [1 << width] * (m + 1)
    for k in range((m + 1) // 2):
        c[k] = (x + half_unit) >> shift
        s[k] = s[m - k] = (y + half_unit) >> shift
        c[m - k] = -c[k]
        x, y = (x * a - y * b) >> rotation, (x * b + y * a) >> rotation
    return c, s


def _fixed_sums(m: int, c, s, width: int):
    """The seven sums on the integers c, s at 2^-width, each as (man, exp),
    the value man 2^exp: the single sums at exp = -width, the double sums,
    expanded into products of single sums (exact algebra on the summands),
    at exp = -2 width.

    Per index, with U = 2^width: 1/s^2 = floor(U^3/S^2), 1/(1-c) =
    floor(U^2/(U - C)), and c/s^2, c^2/s^2, c/(1-c), c^2/(1-c) their
    products with C, each floored at 2^-width.  Against the same quotients
    taken exactly on the reference's dyadics, a floor loses less than one
    unit of 2^-width and a product by |c| <= 1 enlarges no error, so each
    per-index value is off by less than 3 units and each single sum by
    less than 3(m+1).  Of the single sums, se and sb are about (m+1)^2,
    sg, sh and sa about m(m+1), and sc about 0 (c is mirrored): each is
    below 2(m+1)^2, so a product of two is off by less than 12(m+1)^3
    2^-width, and a double sum by less than 50(m+1)^3 2^-width.  Every
    double sum's value is at least (m+1)^3, every single sum's at least
    (m+1)/2, and an ulp at ``precision`` of a value v is at least
    v 2^-precision; as width >= precision + 43, the floors move each sum
    by less than 2^-37 ulp before its one rounding.
    """
    one = 1 << width
    inv_s2 = [(one << 2 * width) // (sk * sk) for sk in s]
    c_s2 = [ck * i >> width for ck, i in zip(c, inv_s2)]
    c2_s2 = [ck * i >> width for ck, i in zip(c, c_s2)]
    inv_omc = [(one << width) // (one - ck) for ck in c]
    c_omc = [ck * i >> width for ck, i in zip(c, inv_omc)]
    c2_omc = [ck * i >> width for ck, i in zip(c, c_omc)]

    sb, sa, sc = sum(inv_s2), sum(c2_s2), sum(c_s2)
    se, sg, sh = sum(inv_omc), sum(c_omc), sum(c2_omc)
    single, double = -width, -2 * width
    return (
        (se, single),
        (sg, single),
        (sum(c2_s2[:(m - 1) // 2 + 1]), single),
        # (c_j+c_k)^2 = c_j^2 + 2 c_j c_k + c_k^2
        (2 * sa * sb + 2 * sc**2, double),
        # (c_j+c_k)(1 - c_j c_k) = c_j + c_k - c_j^2 c_k - c_j c_k^2
        (2 * sg * se - 2 * sg * sh, double),
        # (1 - c_j c_k)^2 = 1 - 2 c_j c_k + c_j^2 c_k^2
        (se**2 - 2 * sg**2 + sh**2, double),
        (2 * sg * se, double),
    )


def _identities_work(m: int, width: int) -> int:
    """Work units of ``verify_identities`` at guarded width ``width``: the
    reference's two angles (``_angle_work``) and its ceil(m/2) rotation
    steps, four products each (Karatsuba, words^1.585), then per index the
    sums' four products and two divisions (schoolbook, words^2)."""
    rotation = width + m.bit_length() + ROTATION_GUARD
    words, rotation_words = width // 64 + 1, rotation // 64 + 1
    steps = (m + 1) // 2 * (300 + 70 * rotation_words**1.585)
    sums = (m + 1) * (1500 + 70 * words**1.585 + 24 * words**2)
    return int(2 * _angle_work(rotation + 4) + steps + sums)


def verify_identities(table: SpectralTable) -> IdentityReport:
    """Check the seven trigonometric identities behind the closed forms, and the table.

    The reference is c_k and s_k at 2^-W, W = precision + 40 +
    bit_length(2(m+1)^2), rotated from one angle on Python integers
    (``_reference``), each entry within 2^-W of its exact value.  It
    shares only ``mpmath.cos_sin`` with ``build_table`` and is not built
    through it, so a substituted or faulty table builder cannot also
    supply the values its table is checked against.

    The sums are evaluated on the reference, not on the table (summed on
    the table's own entries, correct tables miss the tolerance by up to
    7e4 times), as integers at 2^-W, the double sums as products of single
    sums (``_fixed_sums``); their floors move each sum by less than
    2^-37 ulp before its one rounding to ``precision``.  The identities'
    exact values are integers, so a correct evaluation leaves a residual
    at ulp scale, and each residual must stay below
    (m+1)^3 * 2**(-precision+7).

    Every table entry must lie within ``TABLE_ERROR_BOUND`` * 2**-precision
    of its reference value.  ``table_error`` is max |T - R| over the
    table's entries T and the reference's R, in units of 2^-precision:
    W >= precision + bit_length(m+1), and every nonzero entry exceeds
    1/(m+1) in absolute value, so each entry of a ``precision``-bit table
    is an integer at 2^-W, and ``table_error`` is within 2^-40 of the
    entries' true worst error.

    The reference's two angles (``_angle_work`` each, at G + 4 bits), its
    rotation steps and, per index, the sums' products and divisions are
    charged before any is computed (``_identities_work``); the total is
    ``work_charged``.  Best of 3 on a 2-core x86_64 VM, in two passes, a
    unit took 1.0-3.5 ns in every call longer than 0.1 s (m = 3..5 *
    10^4, 53 to 6 * 10^4 bits): 1.0-1.7 ns but at m = 3 and 10 with 3 *
    10^4 bits and more, where the two angles dominate.  So the default
    budget refuses m above 405673 at 53 bits, past ``build_table``'s own
    limit (330960); the check of m = 10^5 takes 0.35 s (2.5e8 units).  At
    256 bits it refuses m above 231957, where ``build_table`` admits up
    to 284738.
    """
    m, precision = table.m, table.precision
    tol = (m + 1) ** 3 * 2.0 ** (-precision + 7)

    width = precision + 40 + (2 * (m + 1) ** 2).bit_length()
    work = _identities_work(m, width)
    check_budget(work, f"verify_identities m={m}, precision={precision}")
    c, s = _reference(m, width)
    entries = [to_fixed(t._mpf_, width) for t in table.c + table.s]
    table_error = math.ldexp(max(map(abs, map(sub, entries, c + s))), precision - width)
    checks = []
    for name, (man, exp), exact in zip(IDENTITY_NAMES, _fixed_sums(m, c, s, width),
                                       _identity_values(m)):
        with workprec(precision):
            rounded = +mpmath.ldexp(man, exp)
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
                          table_error=table_error, work_charged=work)


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
