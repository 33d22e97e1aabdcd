"""Exact DP for the inversion probabilities of the chain, on the reversal quotient.

State: the probabilities p_{i,j} (0 <= i <= j < m) that positions i and
j+1 are inverted after n uniform adjacent transpositions.  One step mixes
each cell with its grid neighbours inside the triangle and injects mass on
the diagonal, ``m p' = m A p + e`` with e the diagonal's indicator.

**The quotient.**  Reversing the positions maps cell (i, j) to
(m-1-j, m-1-i).  The step commutes with it and e is invariant, so p is
invariant at every step and one value per orbit of the reversal carries
it: about d/2 of the d = m(m+1)/2 cells (the cells with i + j = m - 1 are
fixed, the others pair up).  ``quotient`` writes the step down on the
orbits once per call, from one representative cell each, and
``_orbit_step`` is the one stepping kernel.

**The jump chain.**  Uniformization (Jensen 1953; Grassmann 1977) splits
``m A = (m - 4) I + N``.  N's self weight is [i = 0] + [j = m-1], its
off-diagonal weights are the grid neighbours, so N is nonnegative and
symmetric with row sums 4 - 2 [i = j], and it injects nothing.  Hence the
entries of N^r e stay below 4^r: stepping N grows the numerators by 2 bits
a step, where stepping m A grows them by log2 m.  The chain that moves
with probability p = a/b (p = 1: the plain chain) steps
``q I + p A = (1 - 4p/m) I + (p/m) N`` and injects (p/m) e, so with
a_r = 1^T N^r e,

    (bm)^n I_{m,n} = 1^T sum_{k<n} (bm q I + bm p A)^(n-1-k) (bm)^k a e
                   = sum_r a_r [z^r] ((a z + bm - 4a)^n - (bm)^n) / (z - 4),

and the row sums give a_{r+1} = 4 a_r - 2 (sum of N^r e over the
diagonal), so ``expected_inversions_dp`` steps N alone and folds in the
binomial weights by its own ascending division by z - 4
(``_jump_weights``).  The callers that need every I_{m,k}, the cells, or
floats step ``B = m A = (m - 4) I + N`` with the injection, through the
same kernel.

**Independence from Eriksen's sum.**  ``formulas.eriksen`` has the same
outer sum (its v_s is a_{s-1}), but gets v_s as a product of two 1-D
periodic binomial sums, where this module counts walks on the triangle;
nothing here calls into ``formulas``, so DP = Eriksen still compares two
separate computations of the a_r, and two separate codes for the outer
division.  The lazy mean is checked against the lazy GF (``genfun``) and
Monte Carlo.  All denominators divide (bm)^n, so the state is stored as
big-integer numerators over the implied denominator, with no gcd work.

**The moment memo.**  The a_r depend on m alone; only the weights depend
on n and p.  So ``expected_inversions_dp`` keeps, per m, the moments
a_0 .. a_{k-1} it has stepped and the orbit vector N^(k-1) e they end at,
and steps N only past the longest n seen at that m: a process that asks
for many n at one m steps each m's walk once.  Only the DP reads the
memo: ``iterate_totals``, ``formulas.eriksen``, ``_eriksen_weights`` and
``genfun.build_gf`` compute the same numbers their own way, so DP =
Eriksen stays a check between two separate computations.  The memo holds
at most ``MEMO_BITS`` integer bits over all m, least recently used m
evicted first, so it cannot grow with the number of calls a process
makes; a call that needs more streams the rest as a call with no memo
does, and so peaks at most the cap above it.  A lock guards the memo and
an entry is only ever replaced whole.  The work budget charges a call's
cold cost before the memo is read, so which calls are refused does not
depend on earlier calls.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

import numpy as np

from .budget import check_budget, check_probability, check_walk_args


def cell_index(m: int, i: int, j: int) -> int:
    """Position of cell (i, j) in the row-major triangular layout."""
    return j * (j + 1) // 2 + i


def _cell_coords(m: int):
    """Arrays ``(i, j)`` of every cell, in the cell_index layout."""
    j = np.repeat(np.arange(m), np.arange(1, m + 1))
    return np.arange(len(j)) - cell_index(m, 0, j), j


class Quotient(NamedTuple):
    """The jump kernel N = m A - (m - 4) I on the orbits of the reversal.

    Orbit o's value stands for each of its cells, so row o is the row of
    its representative, the cell with i + j <= m - 1, each neighbour
    replaced by its orbit.  ``(N u)[o]`` is the sum of ``u`` over the
    sources of orbit o, a self loop listed once per unit of weight.
    ``columns[c]`` holds the c-th source of orbits
    ``0 .. len(columns[c]) - 1``: the orbits off the diagonal (four
    sources) are numbered before those on it (two), so every column is a
    prefix.  ``size`` is each orbit's cell count (1 or 2), ``diag`` the
    orbits of diagonal cells and ``orbit`` each cell's orbit in the
    cell_index layout.
    """

    m: int
    columns: tuple
    size: np.ndarray
    diag: np.ndarray
    orbit: np.ndarray


def orbit_count(m: int) -> int:
    """Orbits of the reversal on the triangle: d/2 pairs plus ceil(m/2) fixed cells."""
    return (m * (m + 1) // 2 + (m + 1) // 2) // 2


def quotient(m: int) -> Quotient:
    """``Quotient`` built from the representative cells alone, off-diagonal
    ones first, each group in cell_index order.

    A row lists its representative's neighbours inside the triangle in the
    direction order (-1, 0), (1, 0), (0, -1), (0, 1), then a self loop per
    neighbour outside it, [i = 0] + [j = m-1] of them (the diagonal's
    (1, 0) and (0, -1) are its outflow, not loops).  Only (-1, 0), at
    i = 0, and (0, 1), at j = m-1, can be missing, so each direction's
    column takes the orbit itself there, and rows with i = 0 rotate it last.
    """
    width = np.minimum(np.arange(m), np.arange(m, 0, -1))  # off-diagonal reps per column j
    j = np.repeat(np.arange(m), width)
    i = np.arange(len(j)) - np.repeat(np.cumsum(width) - width, width)
    off = len(j)
    half = np.arange((m + 1) // 2)
    i, j = np.concatenate([i, half]), np.concatenate([j, half])
    own = np.arange(len(i))
    orbit = np.empty(m * (m + 1) // 2, dtype=np.intp)
    orbit[cell_index(m, m - 1 - j, m - 1 - i)] = own
    orbit[cell_index(m, i, j)] = own

    def sources(rows, directions):
        """One column per direction, a self loop for a missing neighbour, rotated at i = 0."""
        columns = []
        for di, dj in directions:
            k, l, column = i[rows] + di, j[rows] + dj, own[rows].copy()
            inside = (0 <= k) & (k <= l) & (l < m)
            column[inside] = orbit[cell_index(m, k[inside], l[inside])]
            columns.append(column)
        edge = i[rows] == 0
        return [np.where(edge, after, column)
                for column, after in zip(columns, columns[1:] + columns[:1])]

    beside = sources(slice(off), ((-1, 0), (1, 0), (0, -1), (0, 1)))
    on = sources(slice(off, None), ((-1, 0), (0, 1)))
    columns = (*(np.concatenate(pair) for pair in zip(beside, on)), *beside[2:])
    return Quotient(m, tuple(c for c in columns if len(c)),  # m = 1 has no off-diagonal rows
                    np.where(i + j == m - 1, 1, 2), own[off:], orbit)


def _orbit_step(u, q: Quotient, lazy, inject):
    """``lazy u + N u + inject e`` on the orbits, N the jump kernel of ``q``.

    ``lazy = m - 4`` with the injection is one step of m A; ``lazy = 0``
    without it steps the jump chain.  Works on float64 arrays and on
    ``object`` arrays of exact integers alike.
    """
    first, *rest = q.columns
    out = u[first]
    for column in rest:
        out[:len(column)] += u[column]
    if lazy:
        out += lazy * u
    out[q.diag] += inject
    return out


def _cell_sum(u, q: Quotient, orbits=slice(None)):
    """Sum of the cells of ``orbits`` (default all) under orbit values u."""
    return (q.size[orbits] * u[orbits]).sum()


def _numerators(q: Quotient, n: int):
    """Yield the orbit numerators of p^{(k)} over m^k, k = 0..n, as object arrays."""
    m = q.m
    u = np.zeros(len(q.size), dtype=object)
    yield u
    den = 1
    for _ in range(n):
        u = _orbit_step(u, q, m - 4, den)
        den *= m
        yield u


def _jump_weights(a: int, B: int, A: int, n: int):
    """Yield ``[z^r] ((a z + A)^n - B^n) / (z - 4)`` for r = 0..n-1, B = A + 4a.

    Ascending division: with p_r the coefficients of the numerator,
    Q_0 = -p_0 / 4 and Q_r = (Q_{r-1} - p_r) / 4, all exact because the
    numerator vanishes at z = 4.  Starting from Q_{-1} = B^n takes the
    -B^n into p_0.
    """
    term = A**n  # C(n, r) a^r A^(n - r)
    quotient_r = B**n
    for r in range(n):
        quotient_r = (quotient_r - term) // 4
        yield quotient_r
        term = term * (n - r) * a // ((r + 1) * A) if A else 0


# The work units below are calibrated on the kernels above: a unit took
# 2-5 ns on a 2-core x86_64 VM in every run longer than 0.1 s (m = 1..1000,
# n up to 10^4, m >> n included), so the default budget of 10^9 refuses
# runs above about 2-5 s.  Each is charged before any allocation.
def dp_work(m: int, n: int, p: int | Fraction = 1) -> int:
    """Work units ``expected_inversions_dp(m, n, p)`` is charged: the quotient,
    n - 1 jump steps on ``orbit_count(m)`` orbits whose entries grow by
    2 bits a step, and the outer sum's n products of a 2r-bit a_r with an
    n log2(bm)-bit weight, p = a/b."""
    bits = n * max(Fraction(p).denominator * m, 4).bit_length()
    return (orbit_count(m) * (n * (n // 16 + 24) + 256)
            + n * (n // 128 + 1) * (bits // 64 + 1))


def _totals_work(m: int, n: int) -> int:
    """Work units ``iterate_totals(m, n)`` is charged: n steps of m A on
    the orbits, entries growing by log2(m) bits a step, and one reduced
    fraction (a gcd, quadratic in its n log2(m) bits) per step."""
    bits = n * max(m, 2).bit_length()
    return (orbit_count(m) * (n * (bits // 8 + 32) + 256)
            + n * (bits // 64 + 1) ** 2 // 2)


def iterate_totals(m: int, n: int):
    """Yield I_{m,k} as exact Fractions for k = 0..n (single DP sweep)."""
    check_walk_args(m, n)
    check_budget(_totals_work(m, n), f"exact DP m={m}, n={n}")
    q = quotient(m)
    for k, u in enumerate(_numerators(q, n)):
        yield Fraction(_cell_sum(u, q), m**k)


# At most this many integer bits stay in the moment memo, over all m
# (8 MiB); see the module docstring.
MEMO_BITS = 1 << 26


class _Moments(NamedTuple):
    """One m's memo entry: a_0 .. a_{k-1}, the orbit vector N^(k-1) e they
    end at, and the bits charged for them.  Each entry of N^(k-1) e is at
    most a_{k-1}, so the vector is charged a_{k-1}'s bits per orbit."""

    moments: tuple
    orbit: np.ndarray
    bits: int


class _MomentMemo:
    """Least-recently-used map m -> ``_Moments`` within ``MEMO_BITS`` bits."""

    def __init__(self):
        self._entries: OrderedDict[int, _Moments] = OrderedDict()
        self._lock = threading.Lock()
        self.bits = 0

    def get(self, m: int) -> _Moments | None:
        with self._lock:
            entry = self._entries.get(m)
            if entry is not None:
                self._entries.move_to_end(m)
            return entry

    def put(self, m: int, entry: _Moments) -> None:
        """Store ``entry`` unless the memo holds as many moments of m already."""
        with self._lock:
            old = self._entries.get(m)
            if old is not None and len(old.moments) >= len(entry.moments):
                return
            self._entries[m] = entry
            self._entries.move_to_end(m)
            self.bits += entry.bits - (old.bits if old is not None else 0)
            while self.bits > MEMO_BITS:
                self.bits -= self._entries.popitem(last=False)[1].bits

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.bits = 0


_memo = _MomentMemo()


def _jump_moments(m: int, n: int):
    """Yield a_r = 1^T N^r e for r = 0..n-1: the memo's prefix for m, then
    one jump step per moment past it.  After the last, the longest prefix
    that fits in ``MEMO_BITS`` replaces the memo's entry for m.  a_0 = m
    needs no step, so n = 1 builds no quotient."""
    if n == 0:
        return
    entry = _memo.get(m)
    stored = entry.moments if entry is not None else (m,)  # a_0 = 1^T e: the m diagonal cells
    yield from islice(stored, n)
    if n <= len(stored):
        return
    q = quotient(m)
    h = len(q.size)
    if entry is None:
        u = np.zeros(h, dtype=object)
        u[q.diag] = 1
        moments, moment_bits = [m], m.bit_length()
    else:
        moments, u = list(stored), entry.orbit
        moment_bits = entry.bits - h * stored[-1].bit_length()
    moment, tail, keeping = moments[-1], u, True
    for _ in range(len(moments), n):
        moment = 4 * moment - 2 * _cell_sum(u, q, q.diag)
        u = _orbit_step(u, q, 0, 0)
        yield moment
        keeping = keeping and moment_bits + (h + 1) * moment.bit_length() <= MEMO_BITS
        if keeping:
            moments.append(moment)
            moment_bits += moment.bit_length()
            tail = u
    bits = moment_bits + h * moments[-1].bit_length()
    if len(moments) > len(stored) and bits <= MEMO_BITS:
        _memo.put(m, _Moments(tuple(moments), tail, bits))


def expected_inversions_dp(m: int, n: int, p: int | Fraction = 1) -> Fraction:
    """I_{m,n} as an exact rational for the chain that moves with
    probability p (default 1): the jump chain N on the quotient gives
    a_r = 1^T N^r e, and ``_jump_weights`` the outer sum (module docstring).

    The a_r come from the moment memo, which steps N only past the longest
    n already asked at this m and keeps at most ``MEMO_BITS`` bits, so the
    value is the same Fraction as a first call's.  The budget charges
    ``dp_work``, a first call's cost, before the memo is read.
    """
    check_walk_args(m, n)
    p = check_probability(p)
    check_budget(dp_work(m, n, p), f"exact DP m={m}, n={n}")
    a, B = p.numerator, p.denominator * m
    total = 0
    for moment, weight in zip(_jump_moments(m, n), _jump_weights(a, B, B - 4 * a, n),
                              strict=True):
        total += moment * weight
    return Fraction(total, B**n)


def expected_inversions_float(m: int, n: int) -> float:
    """Float64 version of the same recursion (approximate); only the benchmark's
    n = m check and ``test_float_dp_tracks_exact`` call it."""
    check_walk_args(m, n)
    check_budget(orbit_count(m) * (4 * n + 256) + 2048 * n, f"float DP m={m}, n={n}")
    q = quotient(m)
    p = np.zeros(len(q.size))
    for _ in range(n):
        p = _orbit_step(p, q, m - 4, 1.0) / m
    return float(_cell_sum(p, q))


# --- functional-equation verification on truncated series -----------------


def _equation_work(m: int, N: int) -> int:
    """Work units ``functional_equation_residual(m, N)`` is charged: N + 1
    rounds of about fifteen numpy operations on (m+2)^2-entry planes of
    integers of about N log2(m) bits, a sixth of a unit per bit.

    On a 2-core x86_64 VM a unit took 1.5-3.5 ns (best of 3 below 1.5 s;
    m = 1..1000, N = 1..20000, m >> N included), so the default budget of
    10^9 refuses runs above about 1.5-3.5 s.
    """
    return (N + 1) * (16000 + (m + 2) ** 2 * (120 + N * (m - 1).bit_length() // 6))


def functional_equation_residual(m: int, N: int) -> Fraction:
    """Largest |coefficient| of LHS - RHS of the P(u, v) functional equation,
    after clearing the 1/u, 1/v poles by multiplying through by u*v and
    truncating at t^N.  Exact arithmetic; the contract is residual == 0.

    The coefficient of t^r is an integer plane of shape (m+2, m+2) whose
    entry [i, j] is m^N times the coefficient of t^r u^i v^j; the equation
    is multiplied through by m as well, so no division remains.  Its t^(r+1)
    coefficient involves P_r and P_(r+1) alone, so it is checked one power
    of t at a time, P_r's share carried to the next as one plane.  The
    equation is written on the full triangle, so the DP's orbit values are
    expanded to every cell here.
    """
    if m < 1 or N < 1:
        raise ValueError(f"need m >= 1 and N >= 1, got m={m}, N={N}")
    check_budget(_equation_work(m, N), f"functional equation m={m}, N={N}")

    i, j = _cell_coords(m)
    diag = np.arange(m)
    q = quotient(m)
    P, carry = (np.zeros((m + 2, m + 2), dtype=object) for _ in range(2))
    worst = 0
    for r, u in enumerate(_numerators(q, N)):
        P[i, j] = u[q.orbit] * m ** (N - r)
        # The t^r coefficient of m uv (LHS - RHS); carry is P_(r-1)'s share of it.
        carry[1:, 1:] += m * P[:-1, :-1]
        worst = max(worst, carry.max(), -carry.min())
        # P_r's share of the t^(r+1) coefficient, each term u^a v^b P added as
        # P moved down a rows and right b columns.
        carry.fill(0)
        # m uv LHS = m uv (1-t) P + t (4uv - u^2 v - u - u v^2 - v) P
        carry[1:, 1:] += (4 - m) * P[:-1, :-1]
        carry[2:, 1:] -= P[:-2, :-1]
        carry[1:, :] -= P[:-1, :]
        carry[1:, 2:] -= P[:-1, :-2]
        carry[:, 1:] -= P[:, :-1]
        # m uv RHS = t (geom - (v - uv) P_l - (v-1) v^{m-1} uv P_t - (u^2 v + u) P_d),
        # geom = m^N uv (1 + ... + (uv)^{m-1}), P_l(v) the left border i = 0,
        # P_t(u) the top border j = m-1, P_d(uv) the diagonal as u^i v^i.
        carry[diag + 1, diag + 1] -= m**N
        carry[0, 1:] += P[0, :-1]
        carry[1, 1:] -= P[0, :-1]
        carry[1:, m + 1] += P[:-1, m - 1]
        carry[1:, m] -= P[:-1, m - 1]
        carry[diag + 2, diag + 1] += P[diag, diag]
        carry[diag + 1, diag] += P[diag, diag]
    return Fraction(worst, m ** (N + 1))
