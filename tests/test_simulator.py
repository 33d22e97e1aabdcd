import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invwalk import chain, formulas, simulate
from invwalk.budget import WorkBudgetError

from mc_reference import draw, simulate_once, trial_key


def test_simulate_once_trivial_cases():
    assert simulate_once(1, 7) == 1
    assert simulate_once(1, 6) == 0
    assert simulate_once(5, 0) == 0
    for trial in range(20):
        assert simulate_once(2, 1, seed=9, trial=trial) == 1


@settings(max_examples=40, deadline=None)
@given(m=st.integers(min_value=1, max_value=8),
       n=st.integers(min_value=0, max_value=60),
       seed=st.integers(min_value=0, max_value=2**64 - 1),
       trial=st.integers(min_value=0, max_value=1000))
def test_parity_and_range(m, n, seed, trial):
    count = simulate_once(m, n, seed=seed, trial=trial)
    assert count % 2 == n % 2  # each swap flips the sign of the permutation
    assert 0 <= count <= m * (m + 1) // 2


def _assert_scalar_and_vectorized_agree(m):
    values = [simulate_once(m, 50, seed=42, trial=t) for t in range(300)]
    total, total_sq, _ = simulate._run_block(m, 50, 42, 0, 300, None)
    assert total == sum(values)
    assert total_sq == sum(v * v for v in values)


def test_scalar_and_vectorized_paths_agree():
    _assert_scalar_and_vectorized_agree(5)


def test_scalar_and_vectorized_paths_agree_int16():
    _assert_scalar_and_vectorized_agree(130)  # m = 130 takes the int16 layout


def test_scalar_and_vectorized_lazy_paths_agree():
    p = Fraction(2, 3)
    threshold = (p.numerator << 64) // p.denominator
    values = [simulate_once(4, 30, seed=7, trial=t, lazy_p=p)
              for t in range(200)]
    total, total_sq, _ = simulate._run_block(4, 30, 7, 0, 200, threshold)
    assert total == sum(values)
    assert total_sq == sum(v * v for v in values)


def _per_step_block(m, n, seed, lo, hi, hold_threshold):
    """Trials [lo, hi) one step at a time: exact (sum, sumsq, redraws).

    The block kernel that preceded the step tile, kept as an oracle for it.
    Each step draws its hold decisions and indices, redraws the rejected
    ones, compacts to the trials that move and swaps them.  It reads the
    limit through ``_rejection_limit`` so that tests can force redraws.
    """
    mix, gamma = simulate._mix64_np, simulate._GAMMA
    size = hi - lo
    trials = np.arange(lo, hi, dtype=np.uint64)
    keys = mix(np.uint64(simulate._mix64(seed)) ^ (np.uint64(gamma) * (trials + np.uint64(1))))
    perm = np.tile(np.arange(m + 1, dtype=simulate.perm_dtype(m)), size)
    base = np.arange(size, dtype=np.int64) * (m + 1)
    counts = np.zeros(size, dtype=np.int64)
    redraws = 0
    limit_int = simulate._rejection_limit(m)
    needs_rejection = limit_int < (1 << 64)
    limit = np.uint64(limit_int) if needs_rejection else None
    always_move = hold_threshold is None or hold_threshold > simulate._MASK

    def offset(step, slot, attempt):
        return np.uint64((gamma * simulate._counter(step, slot, attempt)) & simulate._MASK)

    for step in range(n):
        move = None if always_move else mix(keys + offset(step, 0, 0)) < np.uint64(hold_threshold)
        v = mix(keys + offset(step, 1, 0))
        if needs_rejection:
            for attempt in range(1, simulate._ATTEMPTS):
                bad = v >= limit
                if move is not None:
                    bad &= move
                if not bad.any():
                    break
                redraws += int(np.count_nonzero(bad))
                v[bad] = mix(keys[bad] + offset(step, 1, attempt))
        pos = base + (v % np.uint64(m)).astype(np.int64)
        if move is not None:
            pos = pos[move]
        right_pos = pos + 1
        left = perm.take(pos)
        right = perm.take(right_pos)
        delta = np.where(left < right, 1, -1)
        if move is None:
            counts += delta
        else:
            counts[move] += delta
        perm[pos] = right
        perm[right_pos] = left
    return int(counts.sum()), int((counts * counts).sum()), redraws


def _any_step_moves(seed, lo, hi, n, hold_threshold):
    """Whether any of trials [lo, hi) moves in its first n steps: only a
    moving step draws an index, so only then can a forced limit redraw."""
    if hold_threshold is None:
        return n > 0
    return any(draw(trial_key(seed, t), simulate._counter(step, 0, 0))
               < hold_threshold for t in range(lo, hi) for step in range(n))


def _force_rejection(monkeypatch):
    """Make about half of all index draws redraw, in both kernels and the oracle."""
    monkeypatch.setattr(simulate, "_rejection_limit", lambda m: 1 << 63)


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("lazy_p", [None, Fraction(1, 1000), Fraction(1, 2), "m/(m+1)",
                                    Fraction(1)])
@pytest.mark.parametrize("m", [1, 2, 3, 127, 128, 40001])
def test_tiled_block_equals_per_step_oracle(monkeypatch, m, lazy_p, forced):
    # m = 1, 2 and 128 draw no redraws unless forced (a power of two
    # divides 2^64); 127 and 128 straddle the int8/int16 switch, and
    # m = 40001 takes the int32 layout with an odd divisor.
    if forced:
        _force_rejection(monkeypatch)
    monkeypatch.setattr(simulate, "_TILE_CELLS", 64)
    p = Fraction(m, m + 1) if lazy_p == "m/(m+1)" else lazy_p
    threshold = simulate._lazy_move(p)[1]
    # 16 trials give tiles of T = 4 steps; 80 trials, wider than
    # _TILE_CELLS, give one step per tile.
    for lo, hi, tile in ((5, 21, 4), (3, 83, 1)):
        for n in sorted({0, 1, tile - 1, tile, tile + 1, 2 * tile + 1}):
            expected = _per_step_block(m, n, 2024 + n, lo, hi, threshold)
            got = simulate._run_block(m, n, 2024 + n, lo, hi, threshold)
            assert got == expected, (lo, hi, n)
            moved = _any_step_moves(2024 + n, lo, hi, n, threshold)
            assert (got[2] > 0) == (forced and moved), (lo, hi, n)


@pytest.mark.parametrize("m", [2, 3, 5, 127, 128, 129, 2**22 - 1])
def test_index_is_exact_at_the_ends_of_uint64(m):
    limit = simulate._rejection_limit(m)
    draws = [0, m - 1, m, limit - 1, 2**64 - 1] + ([limit] if limit < 2**64 else [])
    v = np.array(draws, dtype=np.uint64)
    got = simulate._index(v, np.uint64(m), np.empty_like(v))
    assert got.tolist() == [d % m for d in draws]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("lazy_p", [None, Fraction(2, 3)])
def test_rejection_redraws_match_simulate_once(monkeypatch, lazy_p, workers):
    _force_rejection(monkeypatch)
    # 60 trials cut into blocks of 20 (one a thread) or 60 give tiles of 3
    # or 1 steps, so tiles end inside the 10-step run.
    monkeypatch.setattr(simulate, "_TILE_CELLS", 64)
    monkeypatch.setattr(simulate, "_THREAD_TRIALS", 20)
    m, n, trials = 5, 10, 60
    values = [simulate_once(m, n, seed=31, trial=t, lazy_p=lazy_p)
              for t in range(trials)]
    s = simulate.monte_carlo(m, n, trials, seed=31, lazy_p=lazy_p, workers=workers)
    assert s.sum_counts == sum(values)
    assert s.sum_squares == sum(v * v for v in values)
    assert s.rejection_redraws > 0


@pytest.mark.parametrize("lazy_p", [Fraction(1, 2), Fraction(1, 10)])
def test_lazy_redraws_count_only_moving_steps(monkeypatch, lazy_p):
    # A held step never reads its index, so its draw is not redrawn.  The
    # count below redraws, trial by trial, only the steps that move.
    _force_rejection(monkeypatch)
    m, n, trials, seed = 5, 40, 50, 77
    threshold = simulate._lazy_move(lazy_p)[1]
    limit = simulate._rejection_limit(m)
    expected = 0
    for t in range(trials):
        key = trial_key(seed, t)
        for step in range(n):
            if draw(key, simulate._counter(step, 0, 0)) >= threshold:
                continue
            for attempt in range(simulate._ATTEMPTS - 1):
                if draw(key, simulate._counter(step, 1, attempt)) < limit:
                    break
                expected += 1
    s = simulate.monte_carlo(m, n, trials, seed=seed, lazy_p=lazy_p)
    assert s.rejection_redraws == expected > 0


def test_deterministic_chain_m1():
    summary = simulate.monte_carlo(1, 6, 1000, seed=5)
    assert summary.mean == 0
    assert summary.variance == 0


def test_repeat_run_is_identical():
    a = simulate.monte_carlo(6, 40, 2000, seed=42)
    b = simulate.monte_carlo(6, 40, 2000, seed=42)
    assert a.key_fields() == b.key_fields()


@pytest.fixture
def small_schedule(monkeypatch):
    """Start a thread per 100 trials, so small requests run on several."""
    monkeypatch.setattr(simulate, "_THREAD_TRIALS", 100)


@pytest.mark.parametrize("workers", [2, 3, 4, 7])
def test_worker_count_invariance(small_schedule, workers):
    base = simulate.monte_carlo(5, 100, 4999, seed=3, workers=1)
    split = simulate.monte_carlo(5, 100, 4999, seed=3, workers=workers)
    assert split.threads == workers
    assert base.key_fields() == split.key_fields()


def test_lazy_worker_invariance(small_schedule):
    p = Fraction(5, 6)
    base = simulate.monte_carlo(5, 60, 3000, seed=11, lazy_p=p, workers=1)
    split = simulate.monte_carlo(5, 60, 3000, seed=11, lazy_p=p, workers=4)
    assert split.threads == 4
    assert base.key_fields() == split.key_fields()


def test_summary_relations():
    s = simulate.monte_carlo(4, 25, 5000, seed=1)
    assert s.mean == s.sum_counts / s.trials
    assert s.stderr == pytest.approx((s.variance / s.trials) ** 0.5)
    assert 0 <= s.mean <= 4 * 5 / 2
    assert s.variance >= 0


def test_statistical_agreement_with_dp():
    s = simulate.monte_carlo(10, 50, 20000, seed=2024)
    exact = float(chain.expected_inversions_dp(10, 50))
    assert abs(s.mean - exact) <= 4 * s.stderr


def test_lazy_statistical_agreement():
    m, n = 6, 40
    p = Fraction(m, m + 1)
    s = simulate.monte_carlo(m, n, 20000, seed=77, lazy_p=p)
    exact = float(formulas.aperiodic_expected(m, n, p))
    assert abs(s.mean - exact) <= 4 * s.stderr


def test_p_one_matches_plain_chain():
    lazy = simulate.monte_carlo(3, 10, 500, seed=1, lazy_p=Fraction(1))
    plain = simulate.monte_carlo(3, 10, 500, seed=1)
    assert lazy.sum_counts == plain.sum_counts


def test_argument_validation():
    with pytest.raises(ValueError):
        simulate.monte_carlo(3, 5, 1, seed=0)
    with pytest.raises(ValueError):
        simulate.monte_carlo(0, 5, 10, seed=0)
    with pytest.raises(ValueError):
        simulate.monte_carlo(3, 5, 10, seed=0, workers=0)
    with pytest.raises(ValueError):
        simulate.monte_carlo(simulate._BLOCK_CELLS, 1, 2, seed=0)
    with pytest.raises(ValueError, match=r"lazy_p must lie in \(0, 1\]"):
        simulate.monte_carlo(2, 3, 10, lazy_p=Fraction(3, 2))
    with pytest.raises(ValueError, match=r"lazy_p must lie in \(0, 1\]"):
        simulate.monte_carlo(3, 5, 10, seed=0, lazy_p=0)


# (sum_counts, sum_squares) of monte_carlo(m, 2m + 9, 301, seed=1000 + m),
# plain and lazy with p = m/(m+1), as computed by the earlier kernel on an
# int64 (trials, m + 1) array; m crosses the int8/int16 boundary.
PINNED = {
    (1, False): (301, 301),
    (1, True): (139, 139),
    (2, False): (519, 1173),
    (2, True): (427, 885),
    (5, False): (1669, 10837),
    (5, True): (1522, 9046),
    (20, False): (6029, 126645),
    (20, True): (5840, 118902),
    (126, False): (34605, 4012189),
    (126, True): (34410, 3967052),
    (127, False): (35063, 4113413),
    (127, True): (34872, 4068164),
    (128, False): (35471, 4211389),
    (128, True): (35320, 4176826),
    (300, False): (81883, 22356645),
    (300, True): (81682, 22247938),
}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("m, lazy", sorted(PINNED))
def test_summaries_pinned(m, lazy, workers):
    p = Fraction(m, m + 1) if lazy else None
    s = simulate.monte_carlo(m, 2 * m + 9, 301, seed=1000 + m, lazy_p=p, workers=workers)
    assert (s.sum_counts, s.sum_squares) == PINNED[m, lazy]


@pytest.mark.parametrize("lazy_p", [None, Fraction(5, 6)])
def test_blocks_do_not_change_summary(monkeypatch, lazy_p):
    monkeypatch.setattr(simulate, "_THREAD_TRIALS", 50)
    whole = simulate.monte_carlo(5, 40, 100, seed=8, lazy_p=lazy_p, workers=2)
    assert (whole.blocks, whole.threads) == (2, 2)
    monkeypatch.setattr(simulate, "_BLOCK_TRIALS", 7)
    blocked = simulate.monte_carlo(5, 40, 100, seed=8, lazy_p=lazy_p, workers=2)
    assert blocked.blocks == 16  # ceil(100 / 7) = 15, rounded up to a multiple of 2
    assert blocked.key_fields() == whole.key_fields()
    # inline, blocks of at most 30 cells: 5 trials of m = 5 each
    monkeypatch.setattr(simulate, "_CACHE_CELLS", 30)
    monkeypatch.setattr(simulate, "_MIN_BLOCK_TRIALS", 1)
    inline = simulate.monte_carlo(5, 40, 100, seed=8, lazy_p=lazy_p, workers=1)
    assert (inline.blocks, inline.threads) == (20, 1)
    assert inline.key_fields() == whole.key_fields()


def test_block_size_bounds_cells():
    cache, cells, floor = simulate._CACHE_CELLS, simulate._BLOCK_CELLS, simulate._MIN_BLOCK_TRIALS
    # inline, the cache budget bounds a block, down to the floor
    assert simulate._block_size(3, 1) == simulate._BLOCK_TRIALS
    assert simulate._block_size(20, 1) == cache // 21 < simulate._BLOCK_TRIALS
    assert simulate._block_size(300, 1) * 301 <= cache
    assert simulate._block_size(3000, 1) == floor and floor * 3001 <= cells
    # on more threads only memory does
    assert simulate._block_size(20, 2) == simulate._BLOCK_TRIALS
    assert simulate._block_size(300, 2) == cells // 301
    for threads in (1, 2):
        assert simulate._block_size(10**5, threads) == cells // (10**5 + 1) < floor
        assert simulate._block_size(cells // 2 - 1, threads) == 2
        assert simulate._block_size(cells - 1, threads) == 1


def test_perm_dtype_is_narrowest():
    assert [simulate.perm_dtype(m).name for m in (1, 127, 128, 32767, 32768)] == [
        "int8", "int8", "int16", "int16", "int32"]


def test_budget_refuses_before_work(monkeypatch):
    def fail(*args):
        raise AssertionError("simulated before the budget check")

    monkeypatch.setattr(simulate, "_run_block", fail)
    monkeypatch.delenv("INVWALK_BUDGET", raising=False)
    with pytest.raises(WorkBudgetError, match="monte_carlo"):
        simulate.monte_carlo(20, 10**6, 10**5)
    with pytest.raises(WorkBudgetError):  # filling the permutations counts too
        simulate.monte_carlo(10**6, 1, 10**5)


def test_budget_charges_lazy_steps_three_halves(monkeypatch):
    plain = simulate.estimated_work(5, 30, 1000)
    assert simulate.estimated_work(5, 30, 1000, lazy=True) == plain + 30 * 1000 // 2
    monkeypatch.setenv("INVWALK_BUDGET", str(plain))
    simulate.monte_carlo(5, 30, 1000)
    with pytest.raises(WorkBudgetError, match="monte_carlo"):
        simulate.monte_carlo(5, 30, 1000, lazy_p=Fraction(5, 6))


def test_budget_admits_criterion_12():
    # criterion 12's largest request and the benchmark's widest ones
    assert simulate.estimated_work(20, 1000, 10**5) < 2 * 10**8
    assert simulate.estimated_work(40, 60, 3_000_000 // 41) < 10**7


def _record_pools(mp, sizes):
    """Replace ThreadPoolExecutor, through the monkeypatch mp, by a pool that
    maps serially and appends each pool size asked for to sizes."""
    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    mp.setattr(simulate, "ThreadPoolExecutor", RecordingPool)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The list of thread pool sizes asked for; the pools map serially."""
    sizes = []
    _record_pools(monkeypatch, sizes)
    return sizes


def test_pool_sized_by_nonempty_chunks(monkeypatch, pool_sizes):
    monkeypatch.setattr(simulate, "_THREAD_TRIALS", 1)
    split = simulate.monte_carlo(4, 10, 3, seed=2, workers=simulate.MAX_WORKERS)
    assert pool_sizes == [3]
    assert split.key_fields() == simulate.monte_carlo(4, 10, 3, seed=2).key_fields()


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
@pytest.mark.parametrize("trials", [2, 3, 7, 8, 29])
def test_trials_cut_once_into_equal_blocks(monkeypatch, pool_sizes, trials, workers):
    # Blocks of at most 4 trials and a thread per 2 trials; trials lie
    # below, at and above workers.
    monkeypatch.setattr(simulate, "_BLOCK_TRIALS", 4)
    monkeypatch.setattr(simulate, "_THREAD_TRIALS", 2)
    m, n, seed = 5, 12, 4
    serial = simulate.monte_carlo(m, n, trials, seed=seed)
    spans = []
    run_block = simulate._run_block

    def recording(m, n, seed, lo, hi, **kwargs):
        spans.append((lo, hi))
        return run_block(m, n, seed, lo, hi, **kwargs)

    monkeypatch.setattr(simulate, "_run_block", recording)
    s = simulate.monte_carlo(m, n, trials, seed=seed, workers=workers)
    threads = min(workers, trials // 2)
    count = min(trials, math.ceil(math.ceil(trials / 4) / threads) * threads)
    assert s.blocks == len(spans) == count and s.threads == threads
    edges = [0] + [hi for _, hi in spans]
    assert edges[-1] == trials and spans == list(zip(edges, edges[1:]))
    sizes = [hi - lo for lo, hi in spans]
    assert max(sizes) - min(sizes) <= 1 and max(sizes) <= simulate._block_size(m, threads) == 4
    assert pool_sizes == ([] if threads == 1 else [threads])
    assert s.key_fields() == serial.key_fields()


def test_short_request_starts_no_pool(monkeypatch):
    # 2250 trials are too few to pay for a second thread
    def no_pool(*args, **kwargs):
        raise AssertionError("started a thread pool")

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", no_pool)
    two = simulate.monte_carlo(20, 800, 2250, seed=6, workers=2)
    one = simulate.monte_carlo(20, 800, 2250, seed=6, workers=1)
    assert (two.threads, two.blocks) == (1, 1)
    assert two.key_fields() == one.key_fields()


@settings(max_examples=100, deadline=None)
@given(m=st.integers(min_value=1, max_value=2**22 - 1),
       trials=st.integers(min_value=2, max_value=2 * 10**5),
       workers=st.integers(min_value=1, max_value=simulate.MAX_WORKERS))
def test_schedule_property(m, trials, workers):
    # monte_carlo's own schedule, with _run_block and the pool replaced by
    # recorders; the budget is lifted, since nothing is simulated.
    spans, pools = [], []

    def record(m, n, seed, lo, hi, hold_threshold):
        spans.append((lo, hi))
        return 0, 0, 0

    with pytest.MonkeyPatch.context() as mp:
        _record_pools(mp, pools)
        mp.setattr(simulate, "_run_block", record)
        mp.setenv("INVWALK_BUDGET", str(10**18))
        s = simulate.monte_carlo(m, 1, trials, workers=workers)
    threads = s.threads
    assert threads == min(workers, max(1, trials // simulate._THREAD_TRIALS))
    assert 1 <= threads <= workers
    assert threads == 1 or trials // threads >= simulate._THREAD_TRIALS
    assert pools == ([] if threads == 1 else [threads])
    edges = [0] + [hi for _, hi in spans]
    assert edges[-1] == trials and spans == list(zip(edges, edges[1:]))
    assert s.blocks == len(spans)
    assert s.blocks % threads == 0 or s.blocks == trials  # one trial a block
    sizes = [hi - lo for lo, hi in spans]
    assert max(sizes) - min(sizes) <= 1
    # a block fits the budget of its thread count, or holds one trial, or,
    # on one thread, as many as the floor and memory allow
    budget = simulate._CACHE_CELLS if threads == 1 else simulate._BLOCK_CELLS
    floor = min(simulate._MIN_BLOCK_TRIALS, simulate._BLOCK_CELLS // (m + 1))
    assert max(sizes) <= simulate._BLOCK_TRIALS
    assert max(sizes) * (m + 1) <= budget or max(sizes) <= max(1, floor)
    assert max(sizes) * (m + 1) <= simulate._BLOCK_CELLS


def test_workers_above_cap_refused(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("started a thread pool")

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", no_pool)
    with pytest.raises(ValueError, match="workers"):
        simulate.monte_carlo(5, 10, 100000, workers=simulate.MAX_WORKERS + 1)
    with pytest.raises(ValueError, match="workers"):
        simulate.monte_carlo(5, 10, 100000, workers=100000)
