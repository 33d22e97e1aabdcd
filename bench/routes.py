"""The requests the benchmark sends, and the independent route that checks each.

Each request kind makes the library calls of one ``invwalk`` subcommand
(its ``run`` function) and is then verified by another route (its
``check`` function), which raises ``CheckFailed`` on disagreement.  Every
library call goes through the recorder, so the traced run can time it.
Work counts are computed from request inputs and public results only, so
they repeat exactly from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from invwalk import asymptotics, chain, formulas, genfun, simulate, spectral

# |z| gate for a Monte Carlo mean.  Some 10^3 MC requests run per workload
# across a benchmark campaign; a 6-sigma normal tail (2e-9 per request)
# keeps a false failure improbable, while a mean off by 10 sigma fails.
MC_Z_BOUND = 6.0
CLOSED_RTOL = Fraction(1, 10**9)
POLE_PRECISION = 128  # as ``invwalk gf --check-poles``
EXACT_CHECK_PRECISION = 128


class CheckFailed(Exception):
    """A request's result disagrees with its independent route."""


@dataclass(frozen=True)
class Request:
    kind: str
    m: int
    n: int = 0
    precision: int = 0
    route: str = ""       # exact: "dp" or "eriksen"
    trials: int = 0
    workers: int = 1
    lazy: bool = False
    mc_seed: int = 0


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _dim(m: int) -> int:
    return m * (m + 1) // 2


def _closed(m: int, n: int, precision: int, rec, variant: str = "theorem1"):
    info = rec.call(formulas.closed_form_info, m, n,
                    formulas.ClosedFormOptions(variant=variant, precision=precision))
    rec.count("formulas.closed_form.evaluations")
    if info.saturated:
        rec.count("formulas.closed_form.saturated")
    else:
        rec.count("formulas.closed_form.terms", (m + 1) ** 2)
    return info


def _close(value, reference, rtol) -> bool:
    return abs(Fraction(value) - Fraction(reference)) <= rtol * abs(Fraction(reference))


# --- gf: ``invwalk gf --m M --series 2d+2 --check-poles`` ------------------

def run_gf(req: Request, rec):
    d = _dim(req.m)
    rf = rec.call(genfun.build_gf, req.m)
    rec.count("genfun.build_gf.dim_sum", d)
    coeffs = rec.call(genfun.series, rf, 2 * d + 2)
    table = rec.call(spectral.build_table, req.m, POLE_PRECISION)
    return coeffs, rec.call(genfun.pole_check, rf, table)


def check_gf(req: Request, result, rec) -> None:
    coeffs, report = result
    _require(report.passed, f"gf m={req.m}: pole check left degree {report.unmatched_degree}")
    steps = len(coeffs) - 1
    totals = rec.call(chain.iterate_totals, req.m, steps)
    rec.count("chain.exact_cell_updates", steps * _dim(req.m))
    _require(coeffs == totals, f"gf m={req.m}: series differs from the exact DP")


# --- exact: ``invwalk exact`` or ``invwalk eriksen`` -------------------------

def run_exact(req: Request, rec):
    if req.route == "dp":
        rec.count("chain.exact_cell_updates", req.n * _dim(req.m))
        return rec.call(chain.expected_inversions_dp, req.m, req.n)
    return rec.call(formulas.eriksen, req.m, req.n)


def check_exact(req: Request, value, rec) -> None:
    if req.route == "dp":
        reference = rec.call(formulas.eriksen, req.m, req.n)
    else:
        rec.count("chain.exact_cell_updates", req.n * _dim(req.m))
        reference = rec.call(chain.expected_inversions_dp, req.m, req.n)
    _require(value == reference, f"exact m={req.m} n={req.n}: dp and eriksen differ")
    info = _closed(req.m, req.n, EXACT_CHECK_PRECISION, rec)
    _require(_close(formulas.exact_fraction(info.value), value, CLOSED_RTOL),
             f"exact m={req.m} n={req.n}: closed form off by more than 1e-9")


# --- closed: ``invwalk closed``, checked by ``bounds`` and ``asym`` ----------

def run_closed(req: Request, rec):
    return _closed(req.m, req.n, req.precision, rec)


def check_closed(req: Request, info, rec) -> None:
    m, n = req.m, req.n
    pair = rec.call(formulas.bounds, m, n)
    value = formulas.exact_fraction(info.value)
    lower = formulas.exact_fraction(pair.lower)
    upper = formulas.exact_fraction(pair.upper)
    # One ulp of the result's precision plus the rounding of the 128-bit bounds.
    slack = abs(value) / 2 ** (info.precision - 1) + abs(upper) / 2**126
    _require(lower - slack <= value <= upper + slack,
             f"closed m={m} n={n} p={info.precision}: value outside the sandwich")
    # The sandwich is loose in the intermediate regime, so the value is also
    # compared with the ser3 series, whose terms weight 1 - x^n instead of
    # x^n: a summand dropped or mis-weighted in one series shows.
    other = _closed(m, n, spectral.MIN_PRECISION, rec, variant="ser3")
    _require(_close(formulas.exact_fraction(other.value), value, CLOSED_RTOL),
             f"closed m={m} n={n} p={info.precision}: theorem 1 and ser3 differ by more than 1e-9")
    # ``invwalk asym`` is timed with the request's check; its estimate is
    # clamped into the sandwich, so there is nothing further to compare.
    rec.call(asymptotics.predict, m, n)
    if n == m:
        rec.count("chain.float_cell_updates", n * _dim(m))
        approx = rec.call(chain.expected_inversions_float, m, n)
        _require(_close(approx, value, CLOSED_RTOL),
                 f"closed m={m} n={n}: float DP off by more than 1e-9")


# --- identities: ``verify_identities`` on a fresh table ----------------------

def run_identities(req: Request, rec):
    table = rec.call(spectral.build_table, req.m, req.precision)
    return rec.call(spectral.verify_identities, table)


def check_identities(req: Request, report, rec) -> None:
    _require(report.all_passed, f"identities m={req.m} p={req.precision}: "
                                f"max residual {report.max_residual:g}")


# --- mc: ``invwalk simulate``, checked against an exact expectation ----------

def run_mc(req: Request, rec):
    lazy_p = Fraction(req.m, req.m + 1) if req.lazy else None
    summary = rec.call(simulate.monte_carlo, req.m, req.n, req.trials,
                       seed=req.mc_seed, lazy_p=lazy_p, workers=req.workers)
    rec.count("simulate.trial_steps", summary.trials * summary.n)
    return summary


def check_mc(req: Request, summary, rec) -> None:
    if req.lazy:
        # The lazy expectation mixes one exact DP sweep of n steps.
        rec.count("chain.exact_cell_updates", req.n * _dim(req.m))
        reference = float(rec.call(formulas.aperiodic_expected, req.m, req.n))
    else:
        reference = float(_closed(req.m, req.n, spectral.MIN_PRECISION, rec).value)
    _require(summary.stderr > 0, f"mc m={req.m} n={req.n}: zero standard error")
    z = (summary.mean - reference) / summary.stderr
    rec.maximum("simulate.max_abs_z", abs(z))
    _require(abs(z) <= MC_Z_BOUND, f"mc m={req.m} n={req.n}: |z| = {abs(z):.2f}")


KINDS = {
    "gf": (run_gf, check_gf),
    "exact": (run_exact, check_exact),
    "closed": (run_closed, check_closed),
    "identities": (run_identities, check_identities),
    "mc": (run_mc, check_mc),
}


def warm_up() -> None:
    """One tiny call per route, so lazily built caches are not timed.

    mpmath fills its cache of pi (and the constants cos/sin reduce with) on
    first use at a given precision; 512 bits covers every precision the
    workloads reach (at most 256 plus guard bits).
    """
    with mpmath.workprec(512):
        mpmath.cos(mpmath.pi() / 7)
        mpmath.log(3)
        mpmath.exp(1)
    chain.expected_inversions_dp(3, 4)
    chain.expected_inversions_float(3, 4)
    formulas.eriksen(3, 4)
    formulas.closed_form_info(3, 4, formulas.ClosedFormOptions(precision=256))
    formulas.aperiodic_expected(3, 4)
    rf = genfun.build_gf(2)
    genfun.series(rf, 4)
    genfun.pole_check(rf, spectral.build_table(2, POLE_PRECISION))
    spectral.verify_identities(spectral.build_table(3))
    asymptotics.predict(40, 40)
    asymptotics.predict(40, 64000)
    simulate.monte_carlo(3, 4, 2, workers=1)
    simulate.monte_carlo(3, 4, 2, workers=2)
