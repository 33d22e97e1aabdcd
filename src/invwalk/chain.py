"""Exact triangular DP for the inversion probabilities of the chain.

State: the probabilities p_{i,j} (0 <= i <= j < m) that positions i and
j+1 are inverted after n uniform adjacent transpositions.  One step mixes
each cell with its grid neighbours inside the triangle and injects mass on
the diagonal; ``stencil`` writes that rule down once, and the exact DP and
the float64 fast path both step with it.
All denominators divide m^n, so the state is stored as a single big-integer
numerator array over the implied denominator m^n; this keeps the arithmetic
exact with no gcd work.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

from .budget import check_budget, check_walk_args


def _triangle_cells(m: int):
    return [(i, j) for j in range(m) for i in range(j + 1)]


def cell_index(m: int, i: int, j: int) -> int:
    """Position of cell (i, j) in the row-major triangular layout."""
    return j * (j + 1) // 2 + i


def stencil(m: int):
    """The walk's step rule on the triangle 0 <= i <= j < m, cell_index layout.

    Returns ``(self_coeff, nbrs, diag)``: ``nbrs`` is a (d, 4) array holding
    each cell's grid neighbour inside the triangle, one column per direction,
    padded with ``d`` (an extra cell held at 0); ``self_coeff`` is m minus the
    neighbour count, minus 2 on the diagonal; ``diag`` lists the diagonal
    cells.  One step is then ``m p' = self_coeff p + sum_c p[nbrs[:, c]] + e``
    with e injected on the diagonal, so each row of ``m A`` sums to
    ``m - 2 [i == j]``.  The exact and the float64 DP both step with it.
    """
    d = m * (m + 1) // 2
    j = np.repeat(np.arange(m), np.arange(1, m + 1))
    i = np.arange(d) - cell_index(m, 0, j)
    nbrs = np.full((d, 4), d, dtype=np.intp)
    for c, (di, dj) in enumerate(((-1, 0), (1, 0), (0, -1), (0, 1))):
        k, l = i + di, j + dj
        inside = (0 <= k) & (k <= l) & (l < m)
        nbrs[inside, c] = cell_index(m, k[inside], l[inside])
    on_diag = i == j
    self_coeff = m - (nbrs < d).sum(axis=1) - 2 * on_diag
    return self_coeff, nbrs, np.flatnonzero(on_diag)


def _step(p, rule, inject):
    """m times one chain step of p: self_coeff p + neighbours + inject on the diagonal.

    Works on float64 arrays and on ``object`` arrays of exact integers alike.
    """
    self_coeff, nbrs, diag = rule
    padded = np.append(p, 0)
    out = self_coeff * p
    for column in nbrs.T:
        out += padded[column]
    out[diag] += inject
    return out


def _exact_numerators(m: int, n: int):
    """Yield the numerators of p^{(k)} over m^k, k = 0..n, as object arrays."""
    rule = stencil(m)
    p = np.zeros(m * (m + 1) // 2, dtype=object)
    yield p
    den = 1
    for _ in range(n):
        p = _step(p, rule, den)
        den *= m
        yield p


def _check_dp_args(m: int, n: int, what: str) -> None:
    check_walk_args(m, n)
    check_budget(n * m * (m + 1) // 2, f"{what} m={m}, n={n}")


def iterate_totals(m: int, n: int):
    """Yield I_{m,k} as exact Fractions for k = 0..n (single DP sweep)."""
    _check_dp_args(m, n, "exact DP")
    for k, p in enumerate(_exact_numerators(m, n)):
        yield Fraction(p.sum(), m**k)


def expected_inversions_dp(m: int, n: int) -> Fraction:
    """I_{m,n} as an exact rational via the triangular DP."""
    _check_dp_args(m, n, "exact DP")
    for p in _exact_numerators(m, n):
        pass
    return Fraction(p.sum(), m**n)


def expected_inversions_float(m: int, n: int) -> float:
    """Float64 fast path of the same recursion (approximate, for sweeps)."""
    _check_dp_args(m, n, "float DP")
    rule = stencil(m)
    p = np.zeros(m * (m + 1) // 2)
    for _ in range(n):
        p = _step(p, rule, 1.0) / m
    return float(p.sum())


def brute_force_expected(m: int, n: int) -> Fraction:
    """Average inversion count over all m^n generator sequences (oracle)."""
    check_walk_args(m, n)
    check_budget(m**n * max(n, 1), f"brute force m={m}, n={n}")
    total = 0
    count = 0
    for seq in product(range(m), repeat=n):
        perm = list(range(m + 1))
        inv = 0
        for g in seq:
            if perm[g] < perm[g + 1]:
                inv += 1
            else:
                inv -= 1
            perm[g], perm[g + 1] = perm[g + 1], perm[g]
        total += inv
        count += 1
    return Fraction(total, count)


# --- functional-equation verification on truncated series -----------------


def _shift(series, r: int, a: int, b: int):
    """Multiply an (N+1, U, V) coefficient array by t^r u^a v^b, truncating at t^N."""
    out = np.zeros_like(series)
    T, U, V = series.shape
    out[r:, a:, b:] = series[:T - r, :U - a, :V - b]
    return out


def functional_equation_residual(m: int, N: int) -> Fraction:
    """Largest |coefficient| of LHS - RHS of the P(u, v) functional equation,
    after clearing the 1/u, 1/v poles by multiplying through by u*v and
    truncating at t^N.  Exact arithmetic; the contract is residual == 0.

    Each series is an integer object array of shape (N+1, m+2, m+2) whose
    entry [r, i, j] is m^N times the coefficient of t^r u^i v^j; the equation
    is multiplied through by m as well, so no division remains.
    """
    if m < 1 or N < 1:
        raise ValueError(f"need m >= 1 and N >= 1, got m={m}, N={N}")
    check_budget((N + 1) * m * m * (m * m + 1), f"functional equation m={m}, N={N}")

    i, j = np.array(_triangle_cells(m)).T
    diag = range(m)
    P = np.zeros((N + 1, m + 2, m + 2), dtype=object)
    for r, p in enumerate(_exact_numerators(m, N)):
        P[r, i, j] = p * m ** (N - r)
    Pl, Pt, Pd, geom = (np.zeros_like(P) for _ in range(4))
    Pl[:, 0, :] = P[:, 0, :]               # P_l(v): the left border i = 0
    Pt[:, :, 0] = P[:, :, m - 1]           # P_t(u): the top border j = m-1
    Pd[:, diag, diag] = P[:, diag, diag]   # P_d(uv): the diagonal, as u^i v^i
    geom[:, range(1, m + 1), range(1, m + 1)] = m**N  # uv (1 + ... + (uv)^{m-1}) / (1-t)

    # m uv LHS = m uv (1-t) P + t (4uv - u^2 v - u - u v^2 - v) P
    uvP = _shift(P, 0, 1, 1)
    kernel = (4 * uvP - _shift(P, 0, 2, 1) - _shift(P, 0, 1, 0)
              - _shift(P, 0, 1, 2) - _shift(P, 0, 0, 1))
    # m uv RHS = t (geom - (v - uv) P_l - (v-1) v^{m-1} uv P_t - (u^2 v + u) P_d)
    rhs = (geom + _shift(Pl, 0, 1, 1) - _shift(Pl, 0, 0, 1)
           + _shift(Pt, 0, 1, m) - _shift(Pt, 0, 1, m + 1)
           - _shift(Pd, 0, 2, 1) - _shift(Pd, 0, 1, 0))
    residual = m * uvP + _shift(kernel - m * uvP - rhs, 1, 0, 0)
    return Fraction(abs(residual).max(), m ** (N + 1))
