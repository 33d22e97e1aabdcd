"""Seeded request generators, one per workload.

A workload is an endless sequence of blocks.  Each block holds the same
mix of request kinds and discrete settings (route, regime, precision,
workers) in shuffled order.  Sizes are stratified: the k requests of a
kind in a block take one size from each of k equal slices of its range,
so every block spreads its sizes alike.  Two seeds then differ in the
draws within each slice and in order, but not in their mix of cheap and
costly requests, which keeps the latency percentiles of different seeds
comparable.  With independent draws, request_s.p50 of exact-routes spread
by 0.38 over five seeds (interquartile range over median).  In a cost
model of the exact-routes and spectral-sweep requests over 20 seeds,
strata spread p50 by 0.04-0.06, against 0.05-0.15 for a randomly shifted
Halton sequence per kind and setting.
"""

from __future__ import annotations

import itertools
import random

from invwalk import asymptotics

from routes import Request

# n of the closed-form requests as a function of m, one entry per regime.
# The critical window is taken at alpha = 0 or 1; the last entry is far
# past the cubic regime, where the result is saturated.
REGIMES = (
    lambda m, alpha: m,
    lambda m, alpha: m * m,
    lambda m, alpha: m**3,
    lambda m, alpha: asymptotics.critical_step_count(m, alpha),
    lambda m, alpha: 50 * m**3,
)
PRECISIONS = (53, 128, 256)
# build_gf costs about 3x more per step of m, so each m is a point mass in
# the latency distribution.  m = 7 twice puts p90 inside the gf tail rather
# than on the edge between two sizes; m = 5 is left out because its cost
# lies at the median of the exact requests, where it would make p50 jump.
GF_MS = (3, 4, 6, 7, 7, 8)
# Cells of the trials x (m+1) permutation buffer of one wide MC request.
WIDE_CELLS = 3_000_000


def strata(rng: random.Random, k: int, lo: int, hi: int, turn: int = 0) -> list:
    """One integer from each of k equal slices of [lo, hi], at random within it.

    The i-th value comes from slice (i + turn) mod k, so turning by the
    block number pairs each slice with each setting in turn.
    """
    width = (hi - lo + 1) / k
    return [lo + int(((i + turn) % k + rng.random()) * width) for i in range(k)]


def exact_routes(rng: random.Random, nproc: int):
    """Exact rational routes at small m.

    gf requests (build_gf, series, pole_check) set the tail.  exact
    requests time the DP and Eriksen's sum in equal numbers, so both show
    in the median; the other route checks each.
    """
    for block_no in itertools.count():
        block = [Request("gf", m) for m in GF_MS]
        for route in ("dp", "eriksen"):
            ms, ns = strata(rng, 6, 10, 30), strata(rng, 6, 50, 400, block_no)
            block += [Request("exact", m, n, route=route) for m, n in zip(ms, ns)]
        rng.shuffle(block)
        yield block


def spectral_sweep(rng: random.Random, nproc: int):
    """Closed form across the regimes, and the trigonometric identity suite.

    Each block holds one closed-form request per regime and precision, and
    three identity requests on each side of the m = 63 switch, where the
    identities go from literal double sums to cheap factored ones; only m
    varies within a kind, so every block has the same mix of cheap and
    costly requests.  Closed-form m stops at 140 because each request's
    check evaluates a second series of the same cost: with m up to 200 a
    block took 11 s, and 100 requests about 55 s, on a 2-core x86_64 VM.
    """
    settings = [(n_of, p) for n_of in REGIMES for p in PRECISIONS]
    for block_no in itertools.count():
        alpha = block_no % 2  # critical window at alpha = 0 and 1 in turn
        block = []
        # 4 is prime to the 15 settings, so each meets every slice of m.
        ms = strata(rng, len(settings), 40, 140, 4 * block_no)
        for (n_of, p), m in zip(settings, ms):
            block.append(Request("closed", m, n_of(m, alpha), precision=p))
        for lo, hi in ((1, 63), (64, 200)):
            for p, m in zip(PRECISIONS, strata(rng, len(PRECISIONS), lo, hi, block_no)):
                block.append(Request("identities", m, precision=p))
        rng.shuffle(block)
        yield block


def monte_carlo(rng: random.Random, nproc: int):
    """Monte Carlo: long (many steps), wide (many trials) and lazy requests.

    Each kind runs twice on one worker and twice on two per block.
    """
    workers = [min(w, nproc) for w in (1, 1, 2, 2)]
    for b in itertools.count():
        block = []
        # Slices turn at different rates, so they meet each other and each
        # worker count in many combinations.
        long_ = zip(strata(rng, 4, 15, 25, b), strata(rng, 4, 600, 1000, b // 4),
                    strata(rng, 4, 1500, 3000, b // 2))
        wide = zip(strata(rng, 4, 40, 60, b), strata(rng, 4, 30, 60, b // 4))
        lazy = zip(strata(rng, 4, 5, 20, b), strata(rng, 4, 50, 300, b // 4),
                   strata(rng, 4, 5000, 20000, b // 2))
        for w, (m, n, trials) in zip(workers, long_):
            block.append(Request("mc", m, n, trials=trials, workers=w,
                                 mc_seed=rng.randrange(2**32)))
        for w, (m, n) in zip(workers, wide):
            block.append(Request("mc", m, n, trials=WIDE_CELLS // (m + 1), workers=w,
                                 mc_seed=rng.randrange(2**32)))
        for w, (m, n, trials) in zip(workers, lazy):
            block.append(Request("mc", m, n, trials=trials, workers=w, lazy=True,
                                 mc_seed=rng.randrange(2**32)))
        rng.shuffle(block)
        yield block


WORKLOADS = {
    "exact-routes": exact_routes,
    "spectral-sweep": spectral_sweep,
    "monte-carlo": monte_carlo,
}


def blocks(workload: str, seed: int, nproc: int):
    """The workload's blocks of requests, generated from ``seed`` alone."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), nproc)
