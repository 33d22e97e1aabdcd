"""Monte Carlo simulation of the adjacent-transposition chain.

An adjacent swap flips exactly one pair's order, so the inversion count is
maintained incrementally at O(1) per step.  Randomness is a counter-based
splittable stream (SplitMix64 finalizer over a (seed, trial, step, slot)
counter), so trial k is a fixed function of (seed, k) and the summary is
bit-identical for any worker count.  Sums and sums of squares accumulate
in exact integers; floats appear only in the final summary.  ``_run_block``
is the one kernel; the tests' oracle (``tests/mc_reference.py``) reads the
same stream one draw at a time in pure Python.

Layout: ``_schedule`` picks the threads and cuts the trials once into equal
contiguous blocks, as few as fit ``_block_size(m, threads)``, their count
rounded up to a multiple of the threads; ``monte_carlo`` runs them on a
pool of that many threads, or inline when that is one.  These rules read
only the request's m, trials and workers, and none changes a summary.
Measured on a 2-core x86_64 VM with 2 MiB of L2 a core, best of 5-9:

A thread pays for itself.  There are at most ``workers`` threads, each
with at least ``_THREAD_TRIALS = 2^12`` trials: with fewer, threads pass
the interpreter lock back and forth over per-step arrays of about 10^3
entries.  At (20, 400, t trials) two threads took 13.3, 23.7 and
29.2 ms at t = 2000, 4096 and 6000, against 9.0, 18.4 and 23.0 ms on one,
and 32.8 against 34.2 ms at t = 8192.

Blocks fit the cache on one thread.  Each step sweeps every permutation of
its block, so inline a block holds at most 2^16 trials and ``_CACHE_CELLS
= 2^19`` permutation entries; of budgets 2^17 to 2^22, 2^19 was the
fastest ((60, 60, 49180 trials) 36 ms, against 58 ms at 2^22).  Each step
of a block also costs about 2 us of numpy calls whatever its size, against
a saving of about 4 ns a trial-step in cache, so the budget never cuts a
block below ``_MIN_BLOCK_TRIALS = 2^10`` trials ((30000, 1000, 100) took
13.1 ms in blocks of 17 trials, 4.7 ms in one).  On more threads each step
of a block also pays for a pass of the interpreter lock, so blocks stay as
large as memory allows ((20, 300, 100000) on two threads: 354 ms in six
cache-sized blocks, 208 ms in two).  Either way a block stops at 2^16
trials and ``_BLOCK_CELLS = 2^22`` entries, so memory is bounded whatever
the trial count (hence m < 2^22); a block is one trial only when
m + 1 > 2^21.

A block keeps all its permutations in one flat array of the narrowest dtype
holding 0..m (int8 up to m = 127, then int16, then int32); a step gathers
the entry at ``p = t (m+1) + i`` and its right neighbour, read at p in the
view ``perm[1:]``, with ``take`` and scatters them back swapped.

Since the stream is counter-based, a block draws a tile of T steps at a
time, ``T = max(1, _TILE_CELLS // trials)``, in one (T, trials) pass: the
index draws, the rejection redraws of the moving trials' draws, the lazy
hold decisions and the flat positions ``t (m+1) + i``.  Each index is
``v - (v // m) m``, exactly ``v % m``: numpy's ``floor_divide`` by the
fixed scalar m multiplies by a precomputed reciprocal (Granlund and
Montgomery, PLDI 1994), about twice as fast as ``remainder``'s divides.
``_TILE_CELLS = 2^15`` keeps the tile's arrays in cache and no larger
than one step of a block of more trials.
A held trial's position is a dummy pair of equal entries after the last
permutation, so its swap changes nothing and the step loop only gathers,
compares and scatters.  It counts each trial's ascents ``ups`` (a swap
of ``left < right``), and the count is ``2 ups - moves``, where ``moves``
is n, or the trial's moving steps in the lazy chain.  Neither blocks nor
tiles change the stream or the exact sums.

Budget: ``monte_carlo`` refuses, before allocating anything, a request
whose ``estimated_work`` exceeds the work budget.  One unit is one
trial-step (a lazy one, with its hold draw, 3/2 units); each step of a
block adds 170 units (about 1.9 us) of fixed numpy overhead, and filling
the permutations one unit per 6 entries, as fitted by least squares.
Measured on a 2-core x86_64 VM, best of 3 over 24 runs of 0.007-1.15 s
with m <= 5000 (few trials and many steps, the reverse, lazy, and 1-4
workers), a unit takes 8.1-16.7 ns, so the default budget of 10^9 admits
roughly 8-17 s of work; a refused request may take as little as about
8 s.  Lazy requests took 15.0-17.1 ns a unit when charged as plain ones,
and 10.2-11.4 ns at 3/2 units, as plain one-block requests do.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .budget import check_budget, check_probability, check_walk_args

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MIX1_U, _MIX2_U = np.uint64(_MIX1), np.uint64(_MIX2)
# Counter layout: per step, slot 0 = lazy hold decision, slot 1 = generator
# index; each slot reserves _ATTEMPTS counters for rejection redraws.
_SLOTS = 2
_ATTEMPTS = 8
# Block limits, the thread rule, the worker cap and the budget calibration,
# each with its measurement in the module docstring.
_BLOCK_TRIALS = 1 << 16
_BLOCK_CELLS = 1 << 22
_CACHE_CELLS = 1 << 19
_MIN_BLOCK_TRIALS = 1 << 10
_THREAD_TRIALS = 1 << 12
_TILE_CELLS = 1 << 15
MAX_WORKERS = 32
_STEP_OVERHEAD = 170
_CELLS_PER_UNIT = 6
METHOD = "numpy-flat"


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix64_np(z, tmp=None):
    """The SplitMix64 finalizer of the uint64 array z, in place; tmp is scratch
    of z's shape."""
    if tmp is None:
        tmp = np.empty_like(z)
    for shift, mix in ((30, _MIX1_U), (27, _MIX2_U)):
        z ^= np.right_shift(z, shift, out=tmp)
        z *= mix
    z ^= np.right_shift(z, 31, out=tmp)
    return z


def _counter(step: int, slot: int, attempt: int) -> int:
    return (step * _SLOTS + slot) * _ATTEMPTS + attempt


def _rejection_limit(m: int) -> int:
    """Draws at or above this are redrawn, so ``v % m`` has no modulo bias."""
    return (1 << 64) - ((1 << 64) % m)


@dataclass(frozen=True)
class SimulationSummary:
    m: int
    n: int
    trials: int
    seed: int
    lazy_p: Fraction | None
    mean: float
    variance: float
    stderr: float
    sum_counts: int
    sum_squares: int
    elapsed: float
    blocks: int
    threads: int
    rejection_redraws: int

    def key_fields(self) -> tuple:
        """Everything except wall-clock time; used by determinism checks."""
        return (self.m, self.n, self.trials, self.seed, self.lazy_p,
                self.sum_counts, self.sum_squares)


def _lazy_move(lazy_p: Fraction | None):
    """``(lazy_p, threshold)``: a step moves when its slot-0 draw is below
    ``threshold`` = floor(lazy_p 2^64); both are None for the plain chain."""
    if lazy_p is None:
        return None, None
    lazy_p = check_probability(lazy_p, "lazy_p")
    return lazy_p, (lazy_p.numerator << 64) // lazy_p.denominator


def estimated_work(m: int, n: int, trials: int, workers: int = 1, lazy: bool = False) -> int:
    """Budget units for monte_carlo: trial-steps (3/2 units each in the lazy
    chain) plus per-block-step and fill costs."""
    blocks = _schedule(m, trials, workers)[1]
    steps = n * trials * 3 // 2 if lazy else n * trials
    return steps + n * _STEP_OVERHEAD * blocks + trials * (m + 1) // _CELLS_PER_UNIT


def perm_dtype(m: int) -> np.dtype:
    """Narrowest integer dtype that holds the permutation entries 0..m."""
    return np.dtype(np.int8 if m <= 127 else np.int16 if m <= 32767 else np.int32)


def _block_size(m: int, threads: int) -> int:
    """Trials per block: _BLOCK_TRIALS, or fewer when their permutations would
    pass _BLOCK_CELLS entries; on one thread also fewer when they would pass
    _CACHE_CELLS, but not below _MIN_BLOCK_TRIALS for that."""
    cells = _CACHE_CELLS if threads == 1 else _BLOCK_CELLS
    return min(_BLOCK_TRIALS, _BLOCK_CELLS // (m + 1),
               max(_MIN_BLOCK_TRIALS, cells // (m + 1)))


def _schedule(m: int, trials: int, workers: int) -> tuple[int, int]:
    """``(threads, blocks)`` of monte_carlo: at most workers threads, one per
    _THREAD_TRIALS trials; the fewest blocks that each fit _block_size,
    rounded up to a multiple of the threads, at most trials."""
    threads = min(workers, max(1, trials // _THREAD_TRIALS))
    return threads, min(trials, -(-trials // (_block_size(m, threads) * threads)) * threads)


def _step_offsets(steps: range, slot: int, attempt: int):
    """``GAMMA * counter`` mod 2^64 for each step of a tile, as a uint64 column."""
    return np.array([(_GAMMA * _counter(step, slot, attempt)) & _MASK for step in steps],
                    dtype=np.uint64)[:, None]


def _redraw(v, keys, steps: range, limit, move=None) -> int:
    """Redraw the entries of the (steps, trials) tile v at or above limit, up to
    _ATTEMPTS - 1 times each, only where ``move`` is set if it is given;
    returns the number of redraws."""
    redraws = 0
    bad = v >= limit
    if move is not None:
        bad &= move
    rows, cols = np.nonzero(bad)
    for attempt in range(1, _ATTEMPTS):
        if not rows.size:
            break
        redraws += rows.size
        fresh = _mix64_np(keys[cols] + _step_offsets(steps, 1, attempt)[rows, 0])
        v[rows, cols] = fresh
        again = fresh >= limit
        rows, cols = rows[again], cols[again]
    return redraws


def _index(v, m_u, tmp):
    """``v % m`` of the uint64 array v, in place, as ``v - (v // m) m``; tmp is
    scratch of v's shape.  ``floor_divide`` by a scalar multiplies by a
    precomputed reciprocal, where ``remainder`` divides each entry."""
    np.floor_divide(v, m_u, out=tmp)
    tmp *= m_u
    return np.subtract(v, tmp, out=v)


def _run_block(m, n, seed, lo, hi, hold_threshold):
    """Vectorized simulation of trials [lo, hi); returns exact (sum, sumsq, redraws).

    All permutations live in one flat array of perm_dtype(m), trial t's at
    offsets t (m+1) .. t (m+1) + m, followed by a dummy pair of equal entries.
    Each tile of steps draws its flat positions in one (steps, trials) pass;
    a held trial points at the dummy pair, whose swap changes nothing.  The
    step loop then only gathers, compares and scatters, reading each right
    neighbour through the view ``perm[1:]`` at the same positions, and each
    count is ``2 ups - moves``.
    """
    size = hi - lo
    trials = np.arange(lo, hi, dtype=np.uint64)
    seed_mixed = np.uint64(_mix64(seed))
    keys = _mix64_np(seed_mixed ^ (np.uint64(_GAMMA) * (trials + np.uint64(1))))
    dummy = size * (m + 1)
    perm = np.zeros(dummy + 2, dtype=perm_dtype(m))
    perm[:dummy] = np.tile(np.arange(m + 1, dtype=perm.dtype), size)
    nxt = perm[1:]  # nxt[p] is perm[p + 1]
    base = np.arange(size, dtype=np.int64) * (m + 1)
    m_u = np.uint64(m)
    limit_int = _rejection_limit(m)
    limit = np.uint64(limit_int) if limit_int < (1 << 64) else None
    lazy = hold_threshold is not None and hold_threshold <= _MASK
    ups = np.zeros(size, dtype=np.int64)
    moves = np.zeros(size, dtype=np.int64) if lazy else n
    redraws = 0
    tile = max(1, _TILE_CELLS // size)
    shape = (min(tile, n), size)
    v_tile, scratch = np.empty(shape, np.uint64), np.empty(shape, np.uint64)
    up_tile = np.empty(shape, bool)
    for first in range(0, n, tile):
        steps = range(first, min(n, first + tile))
        v, tmp, up = v_tile[:len(steps)], scratch[:len(steps)], up_tile[:len(steps)]
        if lazy:
            np.add(keys, _step_offsets(steps, 0, 0), out=v)
            move = _mix64_np(v, tmp) < np.uint64(hold_threshold)
            # a tile has at most _TILE_CELLS steps, so int32 sums are exact
            moves += move.view(np.uint8).sum(axis=0, dtype=np.int32)
        _mix64_np(np.add(keys, _step_offsets(steps, 1, 0), out=v), tmp)
        if limit is not None and v.max() >= limit:
            # a held trial's index is never read: it points at the dummy pair
            redraws += _redraw(v, keys, steps, limit, move if lazy else None)
        pos = _index(v, m_u, tmp).view(np.int64)  # entries < m: the view is exact
        pos += base
        if lazy:  # held trials point at the dummy pair
            pos -= dummy
            pos *= move
            pos += dummy
        for row in range(len(steps)):
            p = pos[row]
            left = perm.take(p)
            right = nxt.take(p)
            np.less(left, right, out=up[row])
            perm[p] = right
            nxt[p] = left
        ups += up.view(np.uint8).sum(axis=0, dtype=np.int32)
    counts = 2 * ups - moves
    total = int(counts.sum())
    max_count = m * (m + 1) // 2
    if size * max_count * max_count < (1 << 62):
        total_sq = int((counts * counts).sum())
    else:
        total_sq = int((counts.astype(object) ** 2).sum())
    return total, total_sq, redraws


def monte_carlo(m: int, n: int, trials: int, seed: int = 0,
                lazy_p: Fraction | None = None, workers: int = 1) -> SimulationSummary:
    """Run independent trials; bit-identical summary for any worker count."""
    check_walk_args(m, n)
    if m >= _BLOCK_CELLS:
        raise ValueError(f"monte_carlo needs m < {_BLOCK_CELLS}, got m={m}")
    if trials < 2:
        raise ValueError(f"trials must be >= 2 (variance undefined), got {trials}")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must lie in [1, {MAX_WORKERS}], got {workers}")

    lazy_p, hold_threshold = _lazy_move(lazy_p)
    check_budget(estimated_work(m, n, trials, workers, lazy_p is not None),
                 f"monte_carlo m={m}, n={n}, trials={trials}")

    start = time.monotonic()
    threads, count = _schedule(m, trials, workers)
    cuts = [trials * k // count for k in range(count + 1)]
    run = partial(_run_block, m, n, seed, hold_threshold=hold_threshold)
    if threads == 1:
        results = list(map(run, cuts[:-1], cuts[1:]))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, cuts[:-1], cuts[1:]))
    total, total_sq, redraws = (sum(column) for column in zip(*results))
    elapsed = time.monotonic() - start

    mean = Fraction(total, trials)
    # Unbiased sample variance from the exact moments.
    var = Fraction(trials * total_sq - total * total, trials * (trials - 1))
    variance = float(var)
    return SimulationSummary(
        m=m, n=n, trials=trials, seed=seed, lazy_p=lazy_p,
        mean=float(mean), variance=variance,
        stderr=float(variance / trials) ** 0.5,
        sum_counts=total, sum_squares=total_sq, elapsed=elapsed,
        blocks=count, threads=threads, rejection_redraws=redraws,
    )
