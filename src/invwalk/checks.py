"""The cross-method checks, written once for ``invwalk verify`` and the acceptance gate.

Each check takes a level, "quick" (``verify``'s default, seconds) or
"full" (the acceptance grids), and returns one ``CheckRecord``.  ``CHECKS``
maps each check's name to it, in the order ``verify`` runs them; README
lists what each one runs at either level.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import mpmath

from . import chain, formulas, genfun, simulate, spectral

LEVELS = ("quick", "full")
MC_SEED = 20260823


@dataclass(frozen=True)
class CheckRecord:
    """What one check ran, what it measured, against which bound, and the verdict."""

    name: str
    parameters: dict   # the grid the check ran over
    measured: dict     # worst value of each checked quantity
    tolerance: dict    # the bound on each measured quantity, same keys
    passed: bool
    elapsed_s: float
    detail: str        # the cases that failed, or a summary when none did


CHECKS = {}


def _check(name: str):
    """Register under ``name`` a body that maps ``full`` to the record's
    parameters, measured and tolerance plus its failed cases and a summary."""

    def register(body):
        def run(level: str) -> CheckRecord:
            if level not in LEVELS:
                raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
            start = time.perf_counter()
            found = body(level == "full")
            failures = found.pop("failures")
            summary = found.pop("summary")
            if len(failures) > 3:
                failures = failures[:3] + [f"and {len(failures) - 3} more"]
            return CheckRecord(name=name, passed=not failures,
                               elapsed_s=time.perf_counter() - start,
                               detail="; ".join(failures) or summary, **found)

        CHECKS[name] = run
        return run

    return register


def format_parameters(parameters: dict) -> str:
    return ", ".join(f"{key}={value}" for key, value in parameters.items())


@_check("trig identities")
def identities(full: bool) -> dict:
    top = 200 if full else 20
    bits = (53, 128)
    worst, worst_at, table_error = 0.0, "", 0.0
    failures = []
    for m in range(1, top + 1):
        for precision in bits:
            report = spectral.verify_identities(spectral.build_table(m, precision))
            table_error = max(table_error, report.table_error)
            for check in report.checks:
                if check.residual / check.tolerance > worst:
                    worst = check.residual / check.tolerance
                    worst_at = f"m={m} bits={precision} {check.name}"
            if report.all_passed:
                continue
            if report.table_error > spectral.TABLE_ERROR_BOUND:
                failures.append(f"m={m} bits={precision}: table entry off by "
                                f"{report.table_error:.3g}*2^-p")
            failures += [f"m={m} bits={precision} {check.name}: residual {check.residual:.3g}"
                         for check in report.checks if not check.passed]
    residuals = ("all residuals 0" if worst == 0
                 else f"worst residual/tol = {worst:.3g} at {worst_at}")
    return dict(
        parameters={"m": f"1..{top}", "bits": "/".join(map(str, bits))},
        measured={"residual/tol": worst, "table error/2^-p": table_error},
        tolerance={"residual/tol": 1, "table error/2^-p": spectral.TABLE_ERROR_BOUND},
        failures=failures,
        summary=f"{residuals}; table entries within {table_error:.2f}*2^-p",
    )


@_check("cross-method grid")
def cross_method(full: bool) -> dict:
    max_m, max_n = (8, 25) if full else (4, 10)
    rel_tol = 1e-9
    worst = 0.0
    exact_failures, closed_failures = [], []
    for m in range(1, max_m + 1):
        dp_values = list(chain.iterate_totals(m, max_n))
        if genfun.series(genfun.build_gf(m), max_n) != dp_values:
            exact_failures.append(f"series(gf) != dp at m={m}")
        for n, exact in enumerate(dp_values):
            if formulas.eriksen(m, n) != exact:
                exact_failures.append(f"eriksen != dp at m={m}, n={n}")
            approx = formulas.closed_form(m, n, formulas.ClosedFormOptions(precision=128))
            with mpmath.workprec(200):
                reference = mpmath.mpf(exact.numerator) / exact.denominator
                rel = float(abs(approx - reference) / max(1, abs(reference)))
            if rel > rel_tol:
                closed_failures.append(f"closed form off at m={m}, n={n}: rel {rel:.3g}")
            worst = max(worst, rel)
    return dict(
        parameters={"m": f"1..{max_m}", "n": f"0..{max_n}", "closed bits": 128},
        measured={"exact mismatches": len(exact_failures), "closed rel error": worst},
        tolerance={"exact mismatches": 0, "closed rel error": rel_tol},
        failures=exact_failures + closed_failures,
        summary=f"dp = eriksen = series(gf) exactly; closed form worst rel error {worst:.2e}",
    )


@_check("functional equation")
def functional_equation(full: bool) -> dict:
    cases = ([(1, 6), (2, 6), (3, 5), (4, 8), (5, 10), (6, 12)] if full
             else [(1, 4), (2, 4)])
    residuals = {case: chain.functional_equation_residual(*case) for case in cases}
    return dict(
        parameters={"(m, N)": cases},
        measured={"residual": max(residuals.values())},
        tolerance={"residual": 0},
        failures=[f"m={m}, N={N}: residual {r}" for (m, N), r in residuals.items() if r != 0],
        summary="all residuals exactly 0",
    )


@_check("sandwich bounds")
def sandwich(full: bool) -> dict:
    m_top, n_top = (12, 300) if full else (6, 50)
    failures = []
    for m in range(3, m_top + 1):
        for n, value in enumerate(chain.iterate_totals(m, n_top)):
            pair = formulas.bounds(m, n)
            if not (formulas.exact_fraction(pair.lower) <= value
                    <= formulas.exact_fraction(pair.upper)):
                failures.append(f"sandwich broken at m={m}, n={n}")
    return dict(
        parameters={"m": f"3..{m_top}", "n": f"0..{n_top}"},
        measured={"violations": len(failures)},
        tolerance={"violations": 0},
        failures=failures,
        summary="lower <= dp <= upper everywhere",
    )


@_check("spectral certification")
def spectrum(full: bool) -> dict:
    ms = [2, 3] if full else [2]
    worst = 0.0
    failures = []
    for m in ms:
        report = spectral.certify_spectrum(m)
        ratios = report["pivot_ratios"]
        worst = max(worst, *ratios.values())
        failures += [f"uncertified at m={m}: x[{j},{k}] pivot ratio {r:.3g}"
                     for (j, k), r in ratios.items() if not r < report["bound"]]
    return dict(
        parameters={"m": ms},
        measured={"pivot ratio": worst},
        tolerance={"pivot ratio": report["bound"]},
        failures=failures,
        summary=f"every certified x_jk is a root, worst pivot ratio {worst:.2e}",
    )


@_check("monte carlo")
def monte_carlo(full: bool) -> dict:
    grid = ([(m, n) for m in (5, 10, 20) for n in (10, 100, 1000)] if full
            else [(5, 10), (10, 100)])
    trials = 100000 if full else 20000
    allowed_misses = 1
    misses, mismatches = [], []
    for m, n in grid:
        one = simulate.monte_carlo(m, n, trials, seed=MC_SEED, workers=1)
        four = simulate.monte_carlo(m, n, trials, seed=MC_SEED, workers=4)
        if one.key_fields() != four.key_fields():
            mismatches.append(f"m={m}, n={n}: workers 1 and 4 differ")
        exact = float(chain.expected_inversions_dp(m, n))
        if abs(one.mean - exact) > 4 * one.stderr:
            misses.append(f"4-sigma miss at m={m}, n={n}: "
                          f"{abs(one.mean - exact) / one.stderr:.2f} sigma")
    return dict(
        parameters={"(m, n)": grid, "trials": trials, "seed": MC_SEED},
        measured={"4-sigma misses": len(misses), "worker mismatches": len(mismatches)},
        tolerance={"4-sigma misses": allowed_misses, "worker mismatches": 0},
        failures=(misses if len(misses) > allowed_misses else []) + mismatches,
        summary=f"{'; '.join(misses) or 'no 4-sigma misses'}; workers 1 and 4 bit-identical",
    )
