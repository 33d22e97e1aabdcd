"""Test-side oracle: I(m, n) by enumerating every generator sequence.

``tests/test_chain.py`` and acceptance criterion 13 compare the exact DP
against it.  It is charged m^n max(n, 1) work units, so a large request
is refused with ``WorkBudgetError`` as the library's routes are.
"""

from fractions import Fraction
from itertools import product

from invwalk.budget import check_budget, check_walk_args


def brute_force_expected(m: int, n: int) -> Fraction:
    """Average inversion count over all m^n generator sequences."""
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
