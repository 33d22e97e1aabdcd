"""Closed-form evaluators for the expected inversion number I_{m,n}.

Two algebraically equal spectral sums (theorem 1's double sum and the
signed series ``ser3``), an exact binomial formula, the two-sided
sandwich bounds, and the lazified (aperiodic) expectation, which is the
exact DP with the lazy chain's outer weights.  The spectral sums run at
a configurable binary precision with internal guard bits: the summands
span a ~m^4 dynamic range and the result suffers heavy cancellation for
small n.  One kernel (``_term_kernel``) computes their terms on raw mpf
tuples, bit for bit as the mpf operators would; it serves ser3 and the
sequential pass.  From m = 8 the exact pass adds each distinct term
once, times its read count, in a fixed-point accumulator, and rounds
once: when both ends of an interval sure to hold the operators'
sequentially rounded total finish to one value, that value is theirs bit
for bit; otherwise, rarely, and always below m = 8, the sequential pass
adds the reads with ``mpf_add`` (see ``closed_form_info``).  Theorem 1's
exact pass takes its terms from a second kernel on Python integers
(``_fixed_kernel``), so from m = 8 theorem 1 no longer shares its term
kernel with ser3; the interval is widened by a proven bound E on that
kernel's distance from the operators' terms.
Eriksen's binomial formula takes about n + max(0, n - m) m/4 big-integer
operations (inner sums by a two-term recurrence and a negacyclic Pascal
recurrence on half a row, outer sum by one synthetic division); it shares
no code with the DP that checks it.  Its n-independent weights v_s (``_eriksen_weights``)
are also the terms from which ``genfun.build_gf`` gets I_m(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import mpmath
import numpy as np
from mpmath import mpf, workprec
from mpmath.libmp import (fone, from_int, from_man_exp, fzero, mpf_add, mpf_div, mpf_mul,
                          mpf_pow_int, mpf_rdiv_int, mpf_sub, round_nearest)

from .budget import check_budget, check_probability, check_walk_args
from .chain import expected_inversions_dp
from .spectral import (MIN_PRECISION, SpectralTable, _angle_work, _mirrored_cos_sin, build_table,
                       check_precision)

VARIANTS = ("theorem1", "ser3")

# Slack, in bits, between a pair's float bound and the cut below which its
# summand (theorem 1) or its power x^n (ser3) is skipped; it absorbs the
# float error of the bounds.
SKIP_MARGIN_BITS = 8
# Slack, in nats, between the bound over an anti-diagonal and the cut that
# decides whether the band holds it; it absorbs the float error of both
# bounds (see ``closed_form_info``).
BAND_SLACK = 1.0
# Entries of the pair-selection bound evaluated per numpy block.
_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class ClosedFormOptions:
    variant: str = "theorem1"
    precision: int = MIN_PRECISION

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        check_precision(self.precision)


@dataclass(frozen=True)
class ClosedFormResult:
    value: object  # mpf at the requested precision
    m: int
    n: int
    variant: str
    precision: int
    saturated: bool
    terms: int    # orbit summands computed
    powers: int   # terms whose 1 - x^n entered, raised at the pair or at its mirror
    skipped: int  # of the (m+1)^2 pairs, those left out of the sum
    rounding: str | None  # "exact" or "sequential" (see closed_form_info); None: no sum
    certificate_ulps: float | None  # the certificate's finished width; None: none ran
    work_charged: int  # the units passed to check_budget, summed


@dataclass(frozen=True)
class BoundsPair:
    lower: object
    upper: object


def _limit_value(m: int):
    return mpf(m) * (m + 1) / 4


def exact_fraction(value) -> Fraction:
    """The exact rational represented by a binary float or mpf.

    Comparisons against exact DP values must not round the float side
    again (a 53-bit detour can flip a 1e-16 margin), so bounds and
    closed-form outputs are compared through this.
    """
    if isinstance(value, (int, float, Fraction)):
        return Fraction(value)
    p, q = mpmath.libmp.to_rational(value._mpf_)
    return Fraction(p, q)


def _corner(m: int):
    """c_0, s_0 and x_00 at the ambient precision.  c_0 and s_0 are computed
    as ``build_table`` computes them, bit for bit, so no table is needed."""
    c0, s0 = mpmath.cos_sin(mpmath.pi() / (2 * m + 2))
    return c0, s0, 1 - mpf(4) / m * (1 - c0**2)


def _saturated(m: int, n: int, precision: int, work: int) -> tuple[bool, int]:
    """Whether the value is saturated, and the units the test was charged."""
    # x_00^n below relative 2^-(precision+64): the whole sum is invisible
    # next to m(m+1)/4 at working precision.  Only valid for m >= 3, where
    # every certified |x_jk| < 1 and x_00 >= 1 - (4/3) sin^2(pi/8) > 0.8; for
    # m <= 2 an eigenvalue -1 persists.
    if m < 3:
        return False, 0
    # -log x_00 <= 2 (4/m) sin^2(pi/(2m+2)) < 20/(m (m+1)^2) and ln 2 > 0.69,
    # so below this n the sum is visible, and no angle is computed.
    if 2000 * n < 69 * (precision + 64) * m * (m + 1) ** 2:
        return False, 0
    # The corner's angle and a logarithm, which costs about two angles.
    charged = 3 * _angle_work(work)
    check_budget(charged, f"closed_form saturation test m={m}, n={n}")
    with workprec(work):
        return n * mpmath.log(_corner(m)[2]) < -(precision + 64) * mpmath.log(2), charged


def _kept_blocks(m: int, n: int, work: int, theorem1: bool):
    """Blocks ``(j0, k0, kept)`` of the float bound's verdicts: ``kept[r, i]``
    says whether the pair (j0 + r, k0 + i) is kept (see ``_rows``).

    The bound is that of log(x_jk^n) or, for theorem 1, of log(w_jk x_jk^n)
    up to the constant log 4.  It uses theta_i = i pi/(2m+2) and the
    cancellation-free forms 1 - c_j c_k = sin^2 theta_d + sin^2 theta_s,
    (c_j + c_k)^2 = 4 cos^2 theta_s cos^2 theta_d and
    s_j^2 = sin^2 theta_{2j+1}, with d = |j - k| and s = j + k + 1.
    cos^2 theta_{m+1} is set to 0: the pairs j + k = m have weight exactly
    0 in the mirrored spectral table.  A pair is kept if its bound is at
    least the cut: T00's bound (theorem 1) or 0 (ser3), less
    ``work + 1 + SKIP_MARGIN_BITS`` bits.

    Every kept pair lies on the band s <= S or s >= 2m+2-S of
    ``closed_form_info``, so in the square [0, S)^2 or (m-S, m]^2; U(s) is
    evaluated from the same float terms as the bound.  The bound is
    evaluated on those squares, or on the whole grid when they meet
    (2S >= m + 1), each entry by the whole grid's float expression, so
    the verdicts are the whole grid's.  A block holds about
    ``_BLOCK_ENTRIES`` entries of a square and at least one row of it, so
    memory stays O(m); on the whole grid the blocks are its rows
    ``_BLOCK_ENTRIES // (m+1)`` at a time.
    """
    theta = np.arange(2 * m + 2) * (math.pi / (2 * m + 2))
    sin2, cos2 = np.sin(theta) ** 2, np.cos(theta) ** 2
    cos2[m + 1] = 0.0
    with np.errstate(divide="ignore"):
        log_cos2 = np.log(cos2)
    log_s2 = np.log(sin2[1::2])

    def bound(j, k):
        d, s = np.abs(j - k), j + k + 1
        value = float(n) * np.log1p(-(4 / m) * (sin2[d] + sin2[s]))
        if theorem1:
            value = log_cos2[s] + log_cos2[d] - log_s2[j] - log_s2[k] + value
        return value

    margin = (work + 1 + SKIP_MARGIN_BITS) * math.log(2)
    if theorem1:
        corner = np.zeros(1, dtype=np.intp)
        cut = bound(corner, corner)[0] - margin  # T00's bound
    else:
        cut = -margin
    s = np.arange(1, 2 * m + 2)
    upper = float(n) * np.log1p(-(4 / m) * sin2[s])  # U(s)
    if theorem1:
        upper = log_cos2[1] + log_cos2[0] - log_s2[0] - log_s2[0] + upper
    band = int(np.max(np.minimum(s, 2 * m + 2 - s), where=upper + BAND_SLACK >= cut,
                      initial=1))  # S
    squares = [(0, m + 1)] if 2 * band >= m + 1 else [(0, band), (m + 1 - band, m + 1)]
    for low, high in squares:
        k = np.arange(low, high)
        step = max(1, _BLOCK_ENTRIES // (high - low))
        for j0 in range(low, high, step):
            yield j0, low, bound(k[j0 - low:j0 - low + step, None], k) >= cut


def _rows(m: int, n: int, work: int, theorem1: bool):
    """For each row j in turn, theorem 1's live columns k, whose summand
    can change the sum at ``work`` bits, or ser3's flags, whether x_jk^n
    can reach 2^-(work+1), where 1 - x_jk^n can differ from 1 (see
    ``closed_form_info``); every column below m = 8.  An entry is kept
    if its bound lies within a factor 2^-(work+1), and the float bounds'
    slack, of T00's bound (theorem 1) or of 1 (ser3); the entries outside
    the band of ``_kept_blocks`` are left out unevaluated."""
    if m < 8:
        yield from [range(m + 1) if theorem1 else [True] * (m + 1)] * (m + 1)
        return

    def unkept(rows):
        return ([] if theorem1 else [False] * (m + 1) for _ in range(rows))

    done = 0
    for j0, k0, kept in _kept_blocks(m, n, work, theorem1):
        yield from unkept(j0 - done)
        for flags in kept:
            if theorem1:
                yield (np.flatnonzero(flags) + k0).tolist()
            else:
                yield [False] * k0 + flags.tolist() + [False] * (m + 1 - k0 - len(flags))
        done = j0 + len(kept)
    yield from unkept(m + 1 - done)


def _orbit_reads(m: int, n: int, work: int):
    """``(a, b, reads)``: theorem 1's live orbits as arrays of their
    representatives a <= b, a + b <= m, and the number of kept pairs that
    read each, from ``_kept_blocks``.  The orbit of (j, k) is fixed by
    d = |j - k| and t = min(s, 2m+2-s), s = j + k + 1: its representative
    has b - a = d and a + b + 1 = t."""
    keys = []
    for j0, k0, kept in _kept_blocks(m, n, work, theorem1=True):
        j, k = np.nonzero(kept)
        j += j0
        k += k0
        t = j + k + 1
        np.minimum(t, 2 * m + 2 - t, out=t)
        np.subtract(j, k, out=j)
        np.abs(j, out=j)
        t *= m + 1
        t += j
        keys.append(t)
    reads = np.bincount(np.concatenate(keys))
    t, d = np.divmod(np.flatnonzero(reads), m + 1)
    return (t - 1 - d) // 2, (t - 1 + d) // 2, reads[reads > 0]


class _ExactSum:
    """An exact sum of dyadic terms in fixed point (Kulisch's long
    accumulator): ``total`` is the sum S of the terms read and ``size`` the
    sum A of their absolute values, in units of 2^``exp``, the smallest
    exponent of a nonzero term seen so far; ``reads`` counts the reads, r,
    zeros included.  ``add(term, reads)`` takes an mpf tuple and
    ``add_int(man, exp, reads)`` the term man 2^exp; neither rounds, so S
    and A are exact.  ``rho`` bounds how far the terms added may lie from
    the operators' terms: by at most rho 2^-work A in all, r reads counted
    (0: they are the operators' terms; None: no bound holds)."""

    __slots__ = ("total", "size", "exp", "reads", "rho")

    def __init__(self):
        self.total = self.size = self.reads = self.rho = 0
        self.exp = None

    def add(self, term, reads: int) -> None:
        sign, man, exp, _ = term
        self.add_int(-man if sign else man, exp, reads)

    def add_int(self, man: int, exp: int, reads: int) -> None:
        self.reads += reads
        if not man:
            return
        if self.exp is None:
            self.exp = exp
        shift = exp - self.exp
        man *= reads
        if shift < 0:
            self.total <<= -shift
            self.size <<= -shift
            self.exp = exp
        else:
            man <<= shift
        self.size += abs(man)
        self.total += man

    def interval(self, work: int):
        """S - h and S + h as exact mpf tuples, h = delta + E with
        E = rho u A and delta = 2 r u (A + E), u = 2^-work: the interval
        that holds the operators' sequential total of the same reads at
        ``work`` bits, in any order (see ``closed_form_info``); None if
        ``rho`` is None."""
        if self.rho is None:
            return None
        if self.exp is None:
            return fzero, fzero
        r, rho, size = self.reads, self.rho, self.size
        total, half = self.total << 2 * work, ((2 * r + rho) * size << work) + 2 * r * rho * size
        exp = self.exp - 2 * work
        return from_man_exp(total - half, exp), from_man_exp(total + half, exp)


def _inverse_squares(table, work: int) -> list:
    """Theorem 1's factors 1/s_k^2 as the operators round them at ``work``
    bits: ``mpf_rdiv_int(1, mpf_pow_int(s_k, 2, …), …)``."""
    rnd = round_nearest
    return [mpf_rdiv_int(1, mpf_pow_int(sk._mpf_, 2, work, rnd), work, rnd) for sk in table.s]


def _term_kernel(m: int, n: int, work: int, table, theorem1: bool):
    """``power(j, k)``, x_jk^n, and ``term(j, k, xn)``, the term at (j, k)
    given x^n (ser3: None if unraised), on raw mpf tuples: every mpf
    operator is replaced by the libmp call it makes (``…`` = work, nearest):

    - ``c_k`` -> ``table.c[k]._mpf_``;
    - ``1 / s_k**2`` -> ``mpf_rdiv_int(1, mpf_pow_int(s_k, 2, …), …)`` (theorem 1);
    - ``1 / (1 - c_k)`` -> ``mpf_rdiv_int(1, mpf_sub(fone, c_k, …), …)`` (ser3);
    - ``mpf(4) / m`` -> ``mpf_div(from_int(4), from_int(m), …)``;
    - ``1 - c_j * c_k`` -> ``mpf_sub(fone, mpf_mul(c_j, c_k, …), …)``;
    - ``x = 1 - four_over_m * y`` -> ``mpf_sub(fone, mpf_mul(four_over_m, y, …), …)``;
    - ``x ** n`` -> ``mpf_pow_int(x, n, …)``;
    - ``(c_j + c_k) ** 2`` -> ``mpf_pow_int(mpf_add(c_j, c_k, …), 2, …)`` (theorem 1);
    - ``(c_j + c_k)`` -> ``mpf_add(c_j, c_k, …)`` (ser3);
    - ``v * f_j * f_k`` -> ``mpf_mul(mpf_mul(v, f_j, …), f_k, …)``;
    - ``w * xn`` -> ``mpf_mul(w, xn, …)`` (theorem 1);
    - ``w * (1 - xn)`` -> ``mpf_mul(w, mpf_sub(fone, xn, …), …)`` (ser3);
    - ``w * (1 - 0)``, x^n unraised -> ``w`` (ser3): ``mpf_mul_int(w, 1, …)``
      returns a ``work``-bit w unchanged;
    - ``total += term`` -> ``mpf_add(total, term, …)`` from ``fzero``
      (``_sequential_pass``; ``_exact_pass`` adds exactly).
    """
    rnd = round_nearest
    c = [ck._mpf_ for ck in table.c]
    if theorem1:
        factor = _inverse_squares(table, work)
    else:
        factor = [mpf_rdiv_int(1, mpf_sub(fone, ck, work, rnd), work, rnd) for ck in c]
    four_over_m = mpf_div(from_int(4), from_int(m), work, rnd)

    def power(j, k):
        x = mpf_sub(fone, mpf_mul(c[j], c[k], work, rnd), work, rnd)
        x = mpf_sub(fone, mpf_mul(four_over_m, x, work, rnd), work, rnd)
        return mpf_pow_int(x, n, work, rnd)

    def term(j, k, xn):
        w = mpf_add(c[j], c[k], work, rnd)
        if theorem1:
            w = mpf_pow_int(w, 2, work, rnd)
        w = mpf_mul(mpf_mul(w, factor[j], work, rnd), factor[k], work, rnd)
        if xn is None:  # ser3, x^n unraised
            return w
        return mpf_mul(w, xn if theorem1 else mpf_sub(fone, xn, work, rnd), work, rnd)

    return power, term


def _fixed_kernel(m: int, n: int, work: int, table):
    """``term(j, k)``, theorem 1's term at (j, k) as ``(man, exp, x)``:
    man 2^exp, and x_jk as x 2^-W; and ``bound(x)``, a rho with
    |t_op - man 2^exp| <= rho 2^-work man 2^exp for every term whose x is
    at least ``x``, t_op being ``_term_kernel``'s term, or None if the
    bound's premise rho 2^-work < 2^-20 fails (see ``closed_form_info``).

    Python integers at W = work + 2 bit_length(m) + 24 bits replace the
    operators, from the same dyadics: c_k, f_k, the operator-rounded
    1/s_k^2, and 4/m.  W >= work + bit_length(m + 1), so c_k (|c_k| >
    1/(m+1) unless 0) and 4/m are integers C_k, F at 2^-W.  A cut keeps
    the top W bits of a product (a floor) and counts the rest in its
    binary exponent:

    - x = 2^W - floor(F (2^W - floor(C_j C_k 2^-W)) 2^-W), two products;
    - x^n by left-to-right square-and-multiply, a cut after each product;
    - the weight (C_j + C_k)^2 f_j f_k, three products, each cut; a live
      orbit has j + k != m, so C_j + C_k != 0;
    - the term, the weight times x^n's mantissa, exactly.
    """
    rnd, width = round_nearest, work + 2 * m.bit_length() + 24
    one = 1 << width
    c = [(-man if sign else man) << (exp + width) for sign, man, exp, _ in
         (ck._mpf_ for ck in table.c)]
    f = _inverse_squares(table, work)
    f_man, f_exp = [fk[1] for fk in f], [fk[2] - width for fk in f]
    _, man, exp, _ = mpf_div(from_int(4), from_int(m), work, rnd)
    four_over_m = man << (exp + width)
    bits = [digit == "1" for digit in bin(n)[3:]]

    def term(j, k):
        x = one - (four_over_m * (one - (c[j] * c[k] >> width)) >> width)
        man, exp = x, -width
        for bit in bits:  # x > 2^-7 from m = 8, so each cut drops >= W - 14 bits
            man *= man
            cut = man.bit_length() - width
            man >>= cut
            exp += exp + cut
            if bit:
                man *= x
                cut = man.bit_length() - width
                man >>= cut
                exp += cut - width
        weight = c[j] + c[k]
        weight *= weight
        cut = weight.bit_length() - width
        weight = (weight >> cut) * f_man[j]
        exp += cut
        cut = weight.bit_length() - width
        weight = (weight >> cut) * f_man[k]
        exp += cut
        cut = weight.bit_length() - width
        return (weight >> cut) * man, f_exp[j] + f_exp[k] + exp + cut, x

    def bound(x):
        low = x - (4 << (width - work))  # x_lo 2^W, x_lo <= x_jk - 3 2^-work
        if low <= 0:
            return None
        rho = 4 * -(-(n << width) // low) + 8  # 4 ceil(n / x_lo) + 8
        return rho if rho << 20 < 1 << work else None

    return term, bound


def _exact_pass(m: int, n: int, work: int, table, theorem1: bool) -> tuple:
    """``(exact, (terms, powers, summed))``: each distinct term added to the
    ``_ExactSum`` once with its read count, theorem 1's from
    ``_fixed_kernel`` after counting the live reads of each orbit
    (``_orbit_reads``), with the bound ``rho`` of their smallest x, ser3's
    from ``_term_kernel`` by mirror pairs (see ``closed_form_info``).
    ``table`` is the spectral table at ``work`` bits, or None for theorem
    1: then only the entries k <= max b its live orbits (a, b) read are
    computed (``_mirrored_cos_sin``), the full table's bit for bit."""
    exact = _ExactSum()
    if theorem1:
        a, b, reads = _orbit_reads(m, n, work)
        if table is None:
            with workprec(work):
                table = SpectralTable(m, work, *_mirrored_cos_sin(m, int(b.max()) + 1))
        term, bound = _fixed_kernel(m, n, work, table)
        smallest = math.inf
        for j, k, count in zip(a.tolist(), b.tolist(), reads.tolist()):
            man, exp, x = term(j, k)
            exact.add_int(man, exp, count)
            if x < smallest:
                smallest = x
        exact.rho = bound(smallest)
        return exact, (len(reads), len(reads), exact.reads)
    power, term = _term_kernel(m, n, work, table, theorem1)
    flags = list(_rows(m, n, work, theorem1))
    for j in range(m // 2 + 1):
        for k in range(j, m - j + 1):
            count = 2 if j < k else 1
            flag, mirror_flag = flags[j][k], flags[m - k][m - j]
            xn = power(j, k) if flag or mirror_flag else None
            exact.add(term(j, k, xn if flag else None), count)
            if j + k < m:
                exact.add(term(m - k, m - j, xn if mirror_flag else None), count)
    powers = sum(row[j:].count(True) for j, row in enumerate(flags))
    return exact, ((m + 1) * (m + 2) // 2, powers, exact.reads)


def _sequential_pass(m: int, n: int, work: int, table, theorem1: bool) -> tuple:
    """``(total, (terms, powers, summed))``: the operators' ``mpf_add`` total
    of the reads in row-major order.  Each term is kept from its first read
    on, so it raises at most one x^n."""
    power, term = _term_kernel(m, n, work, table, theorem1)
    memo, total, powers, summed = {}, fzero, 0, 0
    for j, row in enumerate(_rows(m, n, work, theorem1)):
        for k in row if theorem1 else range(m + 1):
            key = a, b = (j, k) if j <= k else (k, j)
            if theorem1 and a + b > m:
                key = m - b, m - a
            if key not in memo:  # ser3's first read of (a, b) is in row a
                raised = theorem1 or row[k]
                memo[key] = term(*key, power(*key) if raised else None)
                powers += raised
            total = mpf_add(total, memo[key], work, round_nearest)
            summed += 1
    return total, (len(memo), powers, summed)


def work_bits(m: int, precision: int) -> int:
    """The closed form's working precision: ``precision`` plus guard bits
    for the ~m^4 dynamic range of its summands."""
    return precision + 32 + (2 * (m + 1) ** 2).bit_length()


def _orbit_counts(m: int, n: int, work: int, variant: str) -> tuple:
    """``(terms, powers, additions)``: the orbit terms the exact pass
    computes, the powers x^n it raises among them and the terms it reads;
    exact for ser3's terms and additions, upper bounds otherwise.  ser3
    raises x^n once per mirror pair, (m+2)^2/4 (see ``closed_form_info``).

    A theorem-1 pair is live only if x_jk^n > 2^-(work+9) x_00^n, since
    w_jk <= w_00, and ser3 raises x_jk^n only if x_jk^n > 2^-(work+9).
    Near the corners (0, 0) and (m, m),
    -log x_jk ~ (4/m) theta^2 ((j-k)^2 + (j+k+1)^2), theta = pi/(2m+2), so
    either set fills two quarter discs j^2 + k^2 <= (work+9) ln 2 m^3
    / (2 pi^2 n): ln 2 / (16 pi) work m^3/n = 0.014 work m^3/n theorem-1
    orbits and as many ser3 powers raised, the disc at (m, m) taking its
    powers from the one at (0, 0).  The weights thin the discs, and the
    sines widen them where they reach the middle.  From n = 1 to
    saturation, over m = 8..2000 and precisions 53..1024, the live orbits
    never exceeded 2 + 0.025 work m^3/n, and over m = 8..1000 the powers
    ser3 raised never exceeded 2 + 0.0271 work m^3/n or (m+2)^2/4.  An
    orbit has at most 4 pairs.
    """
    corner = 2 + math.ceil((0.025 if variant == "theorem1" else 0.03) * work * m**3 / n)
    if variant == "ser3":
        return (m + 1) * (m + 2) // 2, min((m + 2) ** 2 // 4, corner), (m + 1) ** 2
    terms = min((m + 2) ** 2 // 4, corner)
    return terms, terms, min(4 * terms, (m + 1) ** 2)


def closed_form_work(m: int, n: int, precision: int = MIN_PRECISION,
                     variant: str = "theorem1") -> int:
    """Work units ``closed_form_info`` is charged unless its value is
    saturated: 0 at n = 0 or m = 1, where it is exact; else the counts of
    ``_orbit_counts``, a power x^n costing bit_length(n) squarings of
    ``work`` bits, an addition costing one step of the exact accumulator
    on integers of about ``work`` bits, plus the (m+1)^2 entries of the
    float bound and the floor(m/2) + 1 angles of the table
    (``_angle_work`` each): upper bounds, since the bound is evaluated
    only on its band and theorem 1 computes only the angles its live
    orbits read (see ``closed_form_info``).  The sequential pass, run
    only when the rounding certificate fails, is not charged: it may
    compute the float bound, the whole table and every term once more,
    one x^n per term that takes one (for ser3 up to twice the powers
    charged) and one ``mpf_add`` per read.

    A unit took, on a 2-core x86_64 VM, best of 3, in every run longer
    than 0.03 s (m = 20..4000, precisions 53..256, n from 1 to 4 m^3):
    0.48-0.91 ns for theorem 1 where its integer kernel's terms set the
    cost (n up to about m^2), and 1.7-3.1 ns for ser3 (m = 90..1000);
    at 10^4 and 2 10^4 bits theorem 1 took 2.8-3.4 ns (m = 20..100, n = m
    to m^2), as the operators' kernel did.  So the default budget of 10^9
    refuses theorem-1 runs above about 0.5-1.6 s and ser3 runs above
    about 2-3 s: theorem 1 at m = n = 1000 (1.8 s, 1.6e9 units) is
    refused.  Where a few corner orbits are live (n from the critical
    window on) the charge, set there by the float bound's entries and the
    angles, overestimates the band's work: 0.004-0.07 ns a unit over
    m = 1000..4000, n up to 4 m^3 and 53..256 bits (calls of 0.5-1.3 ms,
    best of 3), against 1.9-4.1 ns for the whole grid and table measured
    alongside; so such calls are refused above about m = 9850, at 10^9
    units, though they would take milliseconds.
    """
    if n == 0 or m == 1:
        return 0
    work = work_bits(m, precision)
    terms, powers, additions = _orbit_counts(m, n, work, variant)
    return (500 * terms + powers * (2000 + 2 * work * n.bit_length())
            + additions * (300 + work) + 10 * (m + 1) ** 2
            + (m // 2 + 1) * _angle_work(work))


def closed_form_info(m: int, n: int, opts: ClosedFormOptions | None = None) -> ClosedFormResult:
    """I_{m,n} by the spectral double sum, with saturation metadata.

    ``theorem1`` is the limit m(m+1)/4 minus sum w_jk x_jk^n / (8(m+1)^2),
    w_jk = (c_j + c_k)^2/(s_j^2 s_k^2); ``ser3`` is the signed series
    sum v_jk (1 - x_jk^n) / (8(m+1)^2), v_jk = (c_j + c_k)/((1 - c_j)(1 - c_k)).
    Each builds one per-index factor list, 1/s_k^2 or 1/(1 - c_k).  At
    n = 0 the walk is at the identity and for m = 1 (S_2) every step
    swaps, so there I_{m,n} = n mod 2 is returned exactly: the sums would
    leave a cancellation residue of about 2^-work m(m+1)/4 instead.

    The operators' loop reads the pairs (j, k) in row-major order, adds
    each summand rounded to nearest at ``work`` bits, and finishes its
    total T as F(T) = round_p(round_w(L - round_w(scale T))) for theorem 1
    and F(T) = round_p(round_w(scale T)) for ser3, with L = m(m+1)/4,
    scale = 1/(8(m+1)^2) at ``work`` bits and round_p, round_w rounding
    to nearest at ``precision`` and ``work`` bits.  The j <-> k and, for
    theorem 1, (j, k) -> (m-j, m-k) symmetries make the summands of one
    orbit bit-equal (the table mirrors c exactly), so each orbit's term,
    and its power x^n, is computed once.  ``_term_kernel`` computes it with
    the libmp functions the operators call, so with their bits, for ser3
    and the sequential pass; theorem 1's exact pass computes it with
    ``_fixed_kernel``'s integers.  The proofs below about skipped terms
    speak of the sequential total T; the last two show how the exact pass
    gets F(T) without its additions or the operators' terms.

    Theorem 1 at m >= 8 adds only the pairs whose summand can change the
    sum, and the result stays bit-identical to adding all of them:

    - every x_jk > 0, since x_jk >= 1 - (4/m)(1 + c_0^2) and c_0^2 < 1
      (at m = 7 the pair (0, m) already has x < 0), so every summand
      w_jk x_jk^n is >= 0;
    - the operators add the (0, 0) summand T00 first, and adding summands
      >= 0 with rounding to nearest never lowers the running total, so it
      stays >= T00;
    - mpmath rounds each addition correctly to nearest at ``work`` bits,
      so a summand t < T00 2^-(work+1) is below half an ulp of the total
      and adding it leaves the total unchanged bit for bit.

    A float bound of log(w_jk x_jk^n) selects the pairs within
    ``work + 1 + SKIP_MARGIN_BITS`` bits of T00 (``_rows``); the
    margin covers the float error of the bound.  ``ser3``, whose weights
    change sign, and m < 8 add every pair.

    The bound is evaluated only on a band of anti-diagonals that holds
    every pair it keeps (``_kept_blocks``).  With s = j + k + 1 and
    theta_i = i pi/(2m+2), w_jk <= w_00, since |c_j + c_k| <= 2 c_0 and
    s_j >= s_0, and 1 - c_j c_k = sin^2 theta_{|j-k|} + sin^2 theta_s
    >= sin^2 theta_s, so a pair's bound is at most
    U(s) = log(w_00/4) + n log1p(-(4/m) sin^2 theta_s), which does not
    increase up to s = m + 1 and is symmetric about it.  One O(m) float
    pass marks the s with U(s) + ``BAND_SLACK`` at or above the cut, the
    slack of 1 nat absorbing the float rounding of both bounds (each
    within about 1e-15 of its size, far below a nat where a bound nears
    the cut), and S is the largest min(s, 2m+2-s) marked.  So every kept
    pair has s <= S or s >= 2m+2-S, and its orbit's representative
    (a, b) has b < S.  The verdicts on the band are the whole grid's,
    entry for entry, and so is every field of the result.  Theorem 1's
    exact pass then computes c_k and 1/s_k^2 only for k <= max b over
    its live orbits: min(max b + 1, ceil(m/2)) angles, at most S, by the
    per-index ``cos_sin`` calls of the full table
    (``spectral._mirrored_cos_sin``).  ser3's band drops the weights,
    U(s) = n log1p(-(4/m) sin^2 theta_s) against ser3's cut (below);
    ser3 keeps the full table, as does the rare sequential pass.

    ``ser3`` at m >= 8 raises x_jk^n only where it can change the summand
    v_jk (1 - x_jk^n), again bit-identically:

    - x_jk^n > 0, as above, and the floats just below 1 at ``work`` bits
      are spaced 2^-work, so if x_jk^n < 2^-(work+1), then 1 - x_jk^n
      lies within half an ulp of 1 and rounds to exactly 1;
    - then v_jk (1 - x_jk^n) rounds to v_jk * 1 = v_jk, bit for bit.

    The float bound of log(x_jk^n) from the same rows (``_rows``)
    certifies x_jk^n < 2^-(work+1) with the same margin, and such a term
    is its weight: x^n is taken as 0, which gives the same bits (see
    ``_term_kernel``).

    ``ser3``'s exact pass raises each x^n once per mirror pair, again
    bit-identically: c_{m-k} = -c_k exactly, so c_{m-k} c_{m-j} is
    bit-equal to c_j c_k, and so are x and x^n at (m-k, m-j).  It walks
    the pairs j <= k, j + k <= m and raises x^n if the pair's or its
    mirror's flag is set; each term follows its own flag.  At n = m, where
    every flag is set, (m+2)^2/4 powers are raised for (m+1)(m+2)/2 terms.

    At m >= 8 the exact pass (``_exact_pass``) adds each distinct term
    once, times the number of pairs that read it, to a fixed-point
    accumulator after Kulisch's exact dot product (``_ExactSum``), and
    rounds once under a two-point certificate after Ziv's rounding test:

    - the accumulator holds the exact sum S of the r terms read, counted
      with multiplicity, and the sum A of their absolute values; ser3's
      terms are the operators' terms t_op and E = 0, theorem 1's are
      ``_fixed_kernel``'s t_fx, whose sum lies within E = rho u A of the
      sum S_op of the t_op (next proof), u = 2^-work;
    - the k-th rounded addition errs by at most u times a partial sum of
      absolute value at most A_op (1 + u)^(k-1), A_op = sum |t_op|, so a
      sequential total T of the reads, in any order, has
      |T - S_op| <= A_op ((1 + u)^r - 1) <= 2 r u A_op, since
      r u <= (m+1)^2 2^-work < 2^-85, and A_op <= A + E, so
      |T - S| <= h = E + 2 r u (A + E);
    - scale > 0 and rounding to nearest is monotone, so F is monotone
      (non-increasing for theorem 1, non-decreasing for ser3), and mpmath
      rounds each step of F correctly from exact operands, so F of the
      exact mpf tuples S - h and S + h (``_ExactSum.interval``) is F at
      those two reals;
    - so if F(S - h) and F(S + h) are one mpf, F(T) is that mpf, bit for
      bit, and ``rounding`` is ``"exact"``.

    Theorem 1's bound E, as ``_fixed_kernel``'s ``bound`` states it (the
    error analysis of Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 2-3).  Let t_ex be a term computed exactly from the
    dyadics both kernels read (c_j, c_k, f_j, f_k and 4/m), x_ex its x,
    x_fx the integer kernel's x, and lambda = n / x_lo with
    x_lo = x_fx - 4u > 0:

    - the operators: the product c_j c_k, 1 minus it, the product with
      4/m <= 1/2 (m >= 8) and 1 minus that each round with relative error
      at most u, so |x_op - x_ex| <= 2.5u + O(u^2) <= 3u, and
      x_lo <= x_ex - 3u gives |log(x_op^n / x_ex^n)| <= 3 lambda u;
      mpmath 1.3's ``mpf_pow_int`` squares and multiplies at
      work + 4 bit_length(n) + 4 bits, cutting to that width, and rounds
      once, with relative error at most 1.1u; the weight's addition (which enters
      squared), its square, its two products and the product with x^n
      round correctly.  So |log(t_op / t_ex)| <= (3 lambda + 7.2) u;
    - the integers: two floors put x_fx within 2^-W of x_ex, an error
      raised n-fold to at most lambda 2^-W; a cut errs by less than
      2^(1-W) relative, and at the power x^e it is raised n/e-fold, the
      e at least doubling between squarings, so the cuts of x^n add at
      most 4n 2^-W and the weight's three 6 2^-W.  As 1 <= n <= lambda
      and W >= work + 24, |log(t_fx / t_ex)| <= 11 lambda 2^-W
      <= 2^-20 lambda u;
    - with rho = 4 lambda + 8 and rho u < 2^-20, both logarithms lie
      below 2^-20, so |t_op - t_fx| <= (3 lambda + 7.2)(1 + 2^-16) u t_fx
      <= rho u t_fx; lambda is taken at the smallest x_fx of the live
      orbits, so rho bounds every term, and E = rho u A bounds
      |S_op - S|.  When rho u >= 2^-20 no bound is claimed and the
      sequential pass runs.

    The certificate thus needs only the multiset of reads, whose row-major
    total is, by the proofs above, the total over every pair with every
    power raised.  Otherwise the sequential pass (``_sequential_pass``)
    adds the reads in row-major order with ``mpf_add``, and F of that
    total is returned with ``rounding`` ``"sequential"``.  The fallback
    is rare.  Theorem 1's terms are >= 0, so A = S and
    h <= (2r + rho + 1) u S.  Over m = 8..64, 90, 101, 140 and 300, n from
    1 to m^3 and 53, 128 and 256 bits (2913 unsaturated calls of both
    variants), F mapped the interval to a width (``certificate_ulps``) of
    at most 3.7e-6 ulps of ``precision`` for theorem 1 at n <= 3, where
    L - scale S cancels most, and 2.9e-8 beyond; ser3's signed terms make
    A exceed S, yet its widths stayed below 4.6e-10, and no call fell
    back.  Below m = 8 the sequential pass runs at once: it reads
    every pair, at most 64, and theorem 1's terms there can lie about n
    bits apart (at m = 2, 48 * 2^-n next to terms near 3), so the exact
    sum would hold n-bit integers, and x_jk > 0, which the bound needs,
    fails (at m = 7, x_{0,7} < 0).

    ``terms`` counts the orbit summands computed, ``powers`` the terms
    whose 1 - x^n (theorem 1: x^n) entered, raised at the pair or at its
    mirror, ``skipped`` the pairs left out (all when the value is exact or
    saturated), ``rounding`` says how the total was rounded (None when
    the value is exact or saturated, which runs no sum), and
    ``certificate_ulps`` is the width |F_w(S + h) - F_w(S - h)| of the
    certificate's interval, F_w being F before round_p, in ulps of the
    value at ``precision`` (None when no certificate ran: no sum, m < 8,
    or no bound).

    The exact answers take O(1) work.  The saturation test is charged its
    angle and logarithm before it computes them, unless n is too small
    for the value to saturate, and any other call is charged
    ``closed_form_work`` before a table, a bound or a term is computed;
    ``work_charged`` is the total of those charges.
    """
    if opts is None:
        opts = ClosedFormOptions()
    check_walk_args(m, n)
    precision = opts.precision
    work = work_bits(m, precision)
    pairs = (m + 1) ** 2
    exact = n == 0 or m == 1
    saturated, charged = (False, 0) if exact else _saturated(m, n, precision, work)
    if exact or saturated:
        with workprec(work):
            value = mpf(n % 2) if exact else _limit_value(m)
        with workprec(precision):
            return ClosedFormResult(+value, m, n, opts.variant, precision, saturated,
                                    terms=0, powers=0, skipped=pairs, rounding=None,
                                    certificate_ulps=None, work_charged=charged)
    estimated = closed_form_work(m, n, precision, opts.variant)
    check_budget(estimated, f"closed_form {opts.variant} m={m}, n={n}")
    theorem1 = opts.variant == "theorem1"
    table = None if theorem1 and m >= 8 else build_table(m, work)  # None: see _exact_pass
    with workprec(work):
        limit, scale = _limit_value(m), 1 / (8 * mpf(m + 1) ** 2)

    def finish(total):  # F without its last rounding, round_p
        with workprec(work):
            total = mpmath.mp.make_mpf(total)
            return limit - scale * total if theorem1 else scale * total

    def rounded(value):
        with workprec(precision):
            return +value

    rounding = ulps = None
    if m >= 8:
        exact_sum, counts = _exact_pass(m, n, work, table, theorem1)
        ends = exact_sum.interval(work)
        if ends is not None:
            low, high = (finish(total) for total in ends)
            value = rounded(low)
            with workprec(work):
                width = abs(high - low)
            _, _, exp, bc = value._mpf_  # an ulp of value at precision is 2^(exp+bc-precision)
            ulps = float(mpmath.ldexp(width, precision - exp - bc))
            if value._mpf_ == rounded(high)._mpf_:
                rounding = "exact"
    if rounding is None:
        if table is None:
            table = build_table(m, work)
        total, counts = _sequential_pass(m, n, work, table, theorem1)
        value, rounding = rounded(finish(total)), "sequential"
    terms, powers, summed = counts
    return ClosedFormResult(value, m, n, opts.variant, precision, False, terms=terms,
                            powers=powers, skipped=pairs - summed, rounding=rounding,
                            certificate_ulps=ulps, work_charged=charged + estimated)


def closed_form(m: int, n: int, opts: ClosedFormOptions | None = None):
    """I_{m,n} by the spectral double sum (value only)."""
    return closed_form_info(m, n, opts).value


def _g_h_coefficients(m: int, K: int):
    """``([g_1, g_3, ..., g_{2K+1}], [h_0, h_2, ..., h_{2K}])``, the two
    inner sums of Eriksen's formula: one two-term recurrence for g, and h
    by closed forms while 2k <= m, then by a negacyclic Pascal recurrence on
    half a row, floor(m/2) + 1 entries a step.

    Eriksen's inner sums are periodic-signed sums over one Pascal row:
    with a = ceil(s/2), b = floor(s/2),

        g_s = sum_{t >= 0} w(t) C(2a - 1, a + t),
        w(t) = (-1)^floor(t/(m+1)) (m - 2 (t mod (m+1))),
        h_s = sum_j (-1)^j C(2b, b + j(m+1)),

    binomials outside the row being 0.  Since w(-1-t) = w(t) and
    C(2a-1, a+t) = C(2a-1, a-1-t), the sum over t < 0 equals the one over
    t >= 0, so g_s is half the sum over the whole row.  Because
    w(t + m + 1) = -w(t), both sums read coefficients c_l, l = 0..m, modulo
    x^(m+1) + 1 (where x^(m+1) = -1) of ``H_k = x^-k (1 + x)^2k``, with
    k = b for h_s and k = a - 1 for g_s:

        h_{2k} = c_0,
        g_{2k+1} = 1/2 sum_l (m - 2l) [x^l] (1 + x^-1) H_k = W_k - c_0,
        W_k = sum_l (m + 1 - 2l) c_l,

    the second line by shifting the index of the x^-1 part (its l = m + 1
    term wraps to -c_0).  ``H_{k+1} = (x^-1 + 2 + x) H_k`` is a 3-tap step
    c_l <- c_{l-1} + 2 c_l + c_{l+1} with the wraps c_{-1} = -c_m and
    c_{m+1} = -c_0.

    g needs no pass over the row.  The weight w_l = m + 1 - 2l is linear
    in l, so w_{l-1} + 2 w_l + w_{l+1} = 4 w_l, and W_{k+1} = 4 W_k but for
    the two wrapped taps.  The tap c_{-1} = -c_m gives c_m the weight
    -w_0 = -(m + 1) = w_{m+1}, what the linear weight would give it.  The
    tap c_{m+1} = -c_0 gives c_0 the weight -w_m = m - 1 in place of
    w_{-1} = m + 3, that is 4 less.  So W_{k+1} = 4 W_k - 4 c_0 = 4 g_{2k+1},
    and

        g_{2k+3} = 4 g_{2k+1} - h_{2k+2},  g_1 = m,

    whether or not the row has wrapped.

    h needs half the row.  H_k is palindromic, [x^j] H_k = [x^-j] H_k, and
    x^-j = -x^(m+1-j), so c_{m+1-l} = -c_l for l = 1..m: the coefficients
    at j and at -j, both reduced, land at l and m + 1 - l with opposite
    signs.  The step then needs only l = 0..floor(m/2), with c_{-1} = c_1
    and c_{floor(m/2)+1} = 0 when m is odd (the middle entry is its own
    mirror) or -c_{m/2} when m is even.

    While 2k <= m the exponents -k..k of H_k are distinct modulo m + 1,
    so nothing wraps: H_k is the Pascal row C(2k, k + j) and h_{2k} =
    C(2k, k), carried multiplicatively.  (Then x^j with j < 0 sits at
    l = m + 1 + j with sign -1, so its weight is m + 1 - 2|j|; the row sums
    to 4^k and sum_j |j| C(2k, k + j) = k C(2k, k), so g_{2k+1} =
    (m + 1) 4^k - (2k + 1) C(2k, k), which satisfies the recurrence.)  At
    the first k with 2k > m the row C(2k, .) is built multiplicatively and
    folded into the half row, and the 3-tap step runs on.
    """
    h = []
    central, k = 1, 0  # C(2k, k)
    while k <= K and 2 * k <= m:
        h.append(central)
        central = central * (4 * k + 2) // (k + 1)
        k += 1
    if k <= K:
        coeffs = [0] * (m // 2 + 1)  # c_0..c_{floor(m/2)} of H_k
        c = 1  # C(2k, i)
        for i in range(2 * k + 1):
            wraps, l = divmod(i - k, m + 1)
            if l <= m // 2:
                coeffs[l] += -c if wraps & 1 else c
            c = c * (2 * k - i) // (i + 1)
        for k in range(k, K + 1):
            h.append(coeffs[0])
            if k < K:
                coeffs = _half_row_step(coeffs, m)
    return list(accumulate(h[1:], lambda g, c: 4 * g - c, initial=m)), h


def _half_row_step(coeffs: list, m: int) -> list:
    """c_0..c_{floor(m/2)} of ``(x^-1 + 2 + x) H`` modulo x^(m+1) + 1 from
    those of a palindromic H (see ``_g_h_coefficients``)."""
    row = coeffs + [0 if m & 1 else -coeffs[-1]]  # c_0..c_{floor(m/2)+1}
    return [left + 2 * mid + right for left, mid, right in zip([row[1]] + row, row, row[1:])]


def _eriksen_weights(m: int, N: int) -> list:
    """``[v_1, ..., v_N]``, v_s = g_s h_s: g_s depends only on ceil(s/2) and
    h_s only on floor(s/2) (see ``_g_h_coefficients``)."""
    g, h = _g_h_coefficients(m, N // 2)
    return [g[(s - 1) // 2] * h[s // 2] for s in range(1, N + 1)]


def eriksen_work(m: int, n: int) -> int:
    """Work units ``eriksen(m, n)`` is charged: about max(0, n - m)/2
    wrapped steps of one pass over floor(m/2) + 1 entries of up to n bits,
    linear passes over the B_s, and n products g_s h_s (Karatsuba,
    words^1.585) and v_s B_s, the latter by the average words of each
    factor (Karatsuba on the fewer, times the more).  A unit took 5.3-10.4
    ns on a 2-core x86_64 VM in every run over 0.1 s (m = 2..10^9,
    n = 1500..12000, m >= n included)."""
    v, b = n // 64 + 1, n * (m.bit_length() + 1) // 128 + 1  # words of v_s, B_s
    wrapped = max(0, n - m) // 2 * (m // 2 + 1) * (n // 64 + 8)
    products = n * (2 * max(v, b) * min(v, b)**0.585 + v**1.585)
    return int(wrapped + 3 * n * (2 * b + 8) + products)


def eriksen(m: int, n: int) -> Fraction:
    """Exact binomial expression for I_{m,n}.

    Eriksen's formula is ``m^n I_{m,n} = sum_r C(n, r) m^(n-r) A_r`` with
    ``A_r = sum_s C(r-1, s-1) (-4)^(r-s) v_s`` (``_eriksen_weights``).
    Exchanging the sums gives ``m^n I_{m,n} = sum_s v_s B_s``, where

        sum_s B_s z^s = sum_r C(n, r) m^(n-r) z (z - 4)^(r-1)
                      = z ((z + m - 4)^n - m^n) / (z - 4).

    The numerator vanishes at z = 4, so the division by z - 4 is exact:
    one binomial row and one synthetic division from the top give the B_s
    in O(n) big-integer operations.  The row's terms t_j = C(n, j) (m - 4)^(n-j)
    are carried from j = n down as t_{j-1} = t_j j (m - 4) / (n - j + 1),
    exact since C(n, j) j = C(n, j - 1) (n - j + 1), so each s costs one
    product v_s B_s of two big integers.
    """
    check_walk_args(m, n)
    check_budget(eriksen_work(m, n), f"eriksen m={m}, n={n}")
    v = _eriksen_weights(m, n)
    total = quotient = 0
    term = 1  # C(n, j) (m - 4)^(n-j), j from n down
    for j in range(n, 0, -1):
        quotient = term + 4 * quotient  # B_j, [z^(j-1)] of the quotient
        total += v[j - 1] * quotient
        term = term * (j * (m - 4)) // (n - j + 1)
    return Fraction(total, m**n)


def bounds(m: int, n: int, precision: int = 128) -> BoundsPair:
    """Two-sided sandwich for I_{m,n}; requires m >= 3.  Charged its one
    angle (``_angle_work``) and the power x_00^n before computing either."""
    if m < 3:
        raise ValueError(f"bounds require m >= 3, got {m}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    check_precision(precision)
    work = precision + 32
    check_budget(_angle_work(work) + 2 * work * n.bit_length(), f"bounds m={m}, n={n}")
    with workprec(work):
        c0, s0, x00 = _corner(m)
        xn = x00**n
        limit = _limit_value(m)
        lower = limit * (1 - xn)
        upper = limit - c0**2 / (2 * mpf(m + 1) ** 2 * s0**4) * xn
        with workprec(precision):
            return BoundsPair(lower=+lower, upper=+upper)


def move_probability(m: int, p: Fraction | None = None) -> Fraction:
    """The lazy chain's move probability p as a Fraction in (0, 1]; default
    m/(m+1), the standard aperiodic variant."""
    return check_probability(Fraction(m, m + 1) if p is None else p)


def aperiodic_expected(m: int, n: int, p: Fraction | None = None) -> Fraction:
    """Expected inversions for the lazy chain, exactly: the jump-chain DP
    with the lazy outer weights (``chain.expected_inversions_dp``).

    p is the move probability (see ``move_probability``).
    """
    check_walk_args(m, n)  # before the default p = m/(m+1) is formed
    return expected_inversions_dp(m, n, move_probability(m, p))
