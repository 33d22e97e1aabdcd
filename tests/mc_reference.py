"""Test-side oracle: one Monte Carlo trial at a time, in pure Python.

It reads the counter-based stream of ``invwalk.simulate`` one draw at a
time, where ``simulate._run_block`` draws whole tiles with numpy, so
``tests/test_simulator.py`` can compare the two trial by trial.  The
rejection limit is read through the module, so a test that patches
``simulate._rejection_limit`` reaches both.
"""

from fractions import Fraction

from invwalk import simulate
from invwalk.budget import check_walk_args


def trial_key(seed: int, trial: int) -> int:
    return simulate._mix64(simulate._mix64(seed & simulate._MASK)
                           ^ ((simulate._GAMMA * (trial + 1)) & simulate._MASK))


def draw(key: int, counter: int) -> int:
    return simulate._mix64((key + simulate._GAMMA * counter) & simulate._MASK)


def uniform_index(key: int, step: int, m: int) -> int:
    """Uniform i in [0, m) by rejection (no modulo bias)."""
    limit = simulate._rejection_limit(m)
    for attempt in range(simulate._ATTEMPTS):
        v = draw(key, simulate._counter(step, 1, attempt))
        if v < limit:
            return v % m
    # Probability ~ (m / 2^64)^_ATTEMPTS; residual bias is negligible.
    return v % m


def simulate_once(m: int, n: int, seed: int = 0, trial: int = 0,
                  lazy_p: Fraction | None = None) -> int:
    """Inversion count after n steps for one trial of the (seed, trial) stream."""
    check_walk_args(m, n)
    key = trial_key(seed, trial)
    lazy_p, hold_threshold = simulate._lazy_move(lazy_p)
    perm = list(range(m + 1))
    count = 0
    for step in range(n):
        if hold_threshold is not None:
            if draw(key, simulate._counter(step, 0, 0)) >= hold_threshold:
                continue
        i = uniform_index(key, step, m)
        a, b = perm[i], perm[i + 1]
        count += 1 if a < b else -1
        perm[i], perm[i + 1] = b, a
    return count
