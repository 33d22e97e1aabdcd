"""Acceptance gate: thirteen cross-method criteria with hard tolerances.

Each test prints one PASS/FAIL line (bypassing capture) and then asserts,
so a plain ``pytest -v`` run leaves a complete scoreboard.  Criteria 2-6
and 12 assert on the records of ``invwalk.checks`` at level "full", the
same checks ``invwalk verify`` runs.
"""

import math
import time

from invwalk import asymptotics as asy
from invwalk import chain, checks, formulas, genfun

from brute_force import brute_force_expected
from gf_reference import printed_gfs


def report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():  # the scoreboard must survive passing tests
        print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}",
              flush=True)


def params(rec) -> str:
    return checks.format_parameters(rec.parameters)


def failures(rec) -> str:
    return f"failures: {'none' if rec.passed else rec.detail}"


def test_criterion_01_printed_generating_functions(capsys):
    start = time.monotonic()
    printed = printed_gfs()
    mismatches = [m for m, ref in printed.items()
                  if (lambda g: g.num != ref.num or g.den != ref.den)
                  (genfun.build_gf(m))]
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 1.0
    report(capsys, 1, ok, f"generating functions m=1..4 expanded equality, "
                  f"mismatches={mismatches}, {elapsed:.2f}s (< 1 s)")
    assert ok


def test_criterion_02_four_way_agreement_grid(capsys):
    rec = checks.cross_method("full")
    ok = rec.passed and rec.elapsed_s < 120
    report(capsys, 2, ok, f"dp = eriksen = series(gf) exactly and closed form within "
                  f"{rec.tolerance['closed rel error']:g} rel (worst "
                  f"{rec.measured['closed rel error']:.2e}) for {params(rec)}, "
                  f"{rec.elapsed_s:.1f}s (< 2 min)")
    assert ok, rec.detail


def test_criterion_03_trig_identity_suite(capsys):
    rec = checks.identities("full")
    ok = rec.passed and rec.elapsed_s < 30
    report(capsys, 3, ok, f"seven identities, {params(rec)}, worst residual/tol "
                  f"{rec.measured['residual/tol']:.2e}, table entries within "
                  f"{rec.measured['table error/2^-p']:.2f}*2^-p (<= "
                  f"{rec.tolerance['table error/2^-p']}), {failures(rec)}, "
                  f"{rec.elapsed_s:.1f}s (< 30 s)")
    assert ok, rec.detail


def test_criterion_04_spectral_certification(capsys):
    rec = checks.spectrum("full")
    ok = rec.passed and rec.elapsed_s < 10
    report(capsys, 4, ok, f"all certified x_jk are characteristic roots for {params(rec)}; "
                  f"worst pivot ratio {rec.measured['pivot ratio']:.2e} "
                  f"(< {rec.tolerance['pivot ratio']:g}), "
                  f"{rec.elapsed_s:.1f}s (< 10 s)")
    assert ok, rec.detail


def test_criterion_05_functional_equation_residual(capsys):
    rec = checks.functional_equation("full")
    ok = rec.passed and rec.elapsed_s < 30
    report(capsys, 5, ok, f"truncated functional equation max residual "
                  f"{rec.measured['residual']} (exactly 0) for {params(rec)}, "
                  f"{rec.elapsed_s:.1f}s (< 30 s)")
    assert ok, rec.detail


def test_criterion_06_sandwich_bounds(capsys):
    rec = checks.sandwich("full")
    ok = rec.passed and rec.elapsed_s < 60
    report(capsys, 6, ok, f"lower <= dp <= upper for {params(rec)}, "
                  f"{failures(rec)}, {rec.elapsed_s:.1f}s (< 1 min)")
    assert ok, rec.detail


def test_criterion_07_linear_regime(capsys):
    start = time.monotonic()
    f1 = asy.f_kappa(1.0)
    devs = [abs(float(formulas.eriksen(m, m)) / m - f1) for m in (100, 150, 200)]
    decreasing = devs[0] > devs[1] > devs[2]
    capped = devs[2] <= 0.06
    f001 = asy.f_kappa(0.01)
    series_ok = abs(f001 - 0.99005) <= 1e-4
    elapsed = time.monotonic() - start
    ok = decreasing and capped and series_ok and elapsed < 60
    report(capsys, 7, ok, f"|eriksen(m,m)/m - f(1)| = {[f'{d:.2e}' for d in devs]} "
                  f"decreasing={decreasing}, cap {devs[2]:.4f} <= 0.06; "
                  f"f(0.01) = {f001:.7f} within 1e-4 of 0.99005: {series_ok}; "
                  f"{elapsed:.1f}s (< 1 min)")
    assert ok


def test_criterion_08_cubic_regime(capsys):
    start = time.monotonic()
    g1 = asy.g_kappa(1.0)
    devs = [abs(float(formulas.closed_form(m, m**3)) / m**2 - g1)
            for m in (20, 30, 40)]
    decreasing = devs[0] > devs[1] > devs[2]
    elapsed = time.monotonic() - start
    ok = decreasing and elapsed < 30
    report(capsys, 8, ok, f"|closed(m,m^3)/m^2 - g(1)| = {[f'{d:.2e}' for d in devs]} "
                  f"decreasing={decreasing}, {elapsed:.1f}s (< 30 s)")
    assert ok


def test_criterion_09_intermediate_regime(capsys):
    """I/sqrt(mn) -> sqrt(2/pi), checked through its first-order remainder.

    The linear side n f(n/m), with f(k) = sqrt(2/(pi k)) - 1/(4k) + ..., and
    the cubic side m^2 g(n/m^3), with g(k) = sqrt(2k/pi) - (2/pi) k + ...,
    give r = I/sqrt(mn) = sqrt(2/pi) - (1/4) sqrt(m/n) - (2/pi) sqrt(n/m^3)
    + ...  At n = m^2 both terms are of order 1/sqrt(m), so the normalized
    remainder D(m) = sqrt(m) (sqrt(2/pi) - r) tends to C1 = 1/4 + 2/pi.
    At m = 100, r = 0.717 is 0.081 below sqrt(2/pi), and the first-order
    term alone, C1/sqrt(100) = 0.089, accounts for that gap.  So the check
    is on D rather than on a band for r: D must move toward C1 from
    m = 100 to m = 200 while r moves toward sqrt(2/pi).
    """
    start = time.monotonic()
    target = math.sqrt(2 / math.pi)
    limit = 1 / 4 + 2 / math.pi
    r100 = float(formulas.closed_form(100, 100**2)) / math.sqrt(100 * 100**2)
    r200 = float(formulas.closed_form(200, 200**2)) / math.sqrt(200 * 200**2)
    d100 = math.sqrt(100) * (target - r100)
    d200 = math.sqrt(200) * (target - r200)
    approaches = abs(limit - d200) < abs(limit - d100)
    improves = abs(r200 - target) < abs(r100 - target)
    elapsed = time.monotonic() - start
    ok = approaches and improves and elapsed < 10
    report(capsys, 9, ok, f"sqrt(m)(sqrt(2/pi) - closed/sqrt(mn)) at n=m^2: "
                  f"m=100 {d100:.4f}, m=200 {d200:.4f}, limit 1/4 + 2/pi = "
                  f"{limit:.4f}, approaches: {approaches}; deviation shrinks at "
                  f"m=200 ({abs(r200 - target):.4f} < {abs(r100 - target):.4f}): "
                  f"{improves}; {elapsed:.1f}s (< 10 s)")
    assert ok


def test_criterion_10_consistency_limits(capsys):
    """sqrt(k) f(k) -> sqrt(2/pi) as k -> inf and g(k)/sqrt(k) -> sqrt(2/pi) as k -> 0+.

    f side: splitting 1/(t^2(1+t^2)) = 1/t^2 - 1/(1+t^2) in the quadrature
    form of f gives f(k) = sqrt(2/(pi k)) - 1/(4k) + O(k^-3/2); the second
    piece tends to pi/2 and contributes the -1/(4k).  So at k = 100 a
    correct f is 3.1% below the limit, and the normalized remainder
    sqrt(k) (sqrt(2/pi) - sqrt(k) f(k)) must lie within 2% of its limit 1/4.
    g side: g(k) = sqrt(2k/pi) - (2/pi) k up to terms exponentially small in
    1/k, so at k = 1e-4 g(k)/sqrt(k) is within 2% of sqrt(2/pi).
    """
    start = time.monotonic()
    target = math.sqrt(2 / math.pi)
    f_side = math.sqrt(100) * asy.f_kappa(100.0, method="quadrature")
    f_remainder = math.sqrt(100) * (target - f_side)
    g_side = asy.g_kappa(1e-4) / math.sqrt(1e-4)
    f_ok = abs(f_remainder - 1 / 4) <= 0.02 * (1 / 4)
    g_ok = abs(g_side - target) / target <= 0.02
    elapsed = time.monotonic() - start
    ok = f_ok and g_ok and elapsed < 10
    report(capsys, 10, ok, f"sqrt(k)(sqrt(2/pi) - sqrt(k)f(k))|k=100 = "
                   f"{f_remainder:.5f}, limit 1/4 ({abs(f_remainder - 0.25) / 0.25:.2%} "
                   f"off, <= 2%: {f_ok}); "
                   f"g(k)/sqrt(k)|k=1e-4 = {g_side:.5f} "
                   f"({abs(g_side - target) / target:.2%} off, <= 2%: {g_ok}); "
                   f"{elapsed:.1f}s (< 10 s)")
    assert ok


def test_criterion_11_critical_window(capsys):
    """I = m(m+1)/4 - (16/pi^4) e^{-alpha pi^2} m + o(m) at n = m^3 (log m/pi^2 + alpha).

    The closed form's deficit from m(m+1)/4 is led by the corner term
    16 (m+1)^2 x00^n / pi^4, with x00 = 1 - (4/m) sin^2(pi/(2m+2)).  With
    L = log m + alpha pi^2, n log x00 = -L (1 - 2/m + O(m^-2)), so the ratio
    |closed - estimate| / correction = ((m+1)/m)^2 x00^n e^L - 1 is about
    2L/m: 0.63 at (m=60, alpha=1), which the law's o(m) allows but no fixed
    band of 0.25 does.  The normalized remainder q = m * ratio / L tends
    to 2, and the check is that it moves toward 2 from m = 60 to m = 100.
    """
    start = time.monotonic()
    results = {}
    remainders = {}
    for m in (60, 100):
        for alpha in (0, 1):
            n = asy.critical_step_count(m, alpha)
            error = abs(float(formulas.closed_form(m, n))
                        - asy.critical_estimate(m, alpha))
            correction = 16 * m / math.pi**4 * math.exp(-alpha * math.pi**2)
            results[(m, alpha)] = error / correction
            log_term = math.log(m) + alpha * math.pi**2
            remainders[(m, alpha)] = m * results[(m, alpha)] / log_term
    approaches = all(abs(remainders[(100, a)] - 2) < abs(remainders[(60, a)] - 2)
                     for a in (0, 1))
    improves = all(results[(100, a)] < results[(60, a)] for a in (0, 1))
    elapsed = time.monotonic() - start
    ok = approaches and improves and elapsed < 10
    ratios = {k: f"{v:.3f}" for k, v in results.items()}
    qs = {k: f"{v:.3f}" for k, v in remainders.items()}
    report(capsys, 11, ok, f"|closed - estimate| / correction {ratios}; "
                   f"m * ratio / (log m + alpha pi^2) {qs}, limit 2, approaches "
                   f"from m=60 to m=100: {approaches}; improvement at m=100: "
                   f"{improves}; {elapsed:.1f}s (< 10 s)")
    assert ok


def test_criterion_12_monte_carlo(capsys):
    rec = checks.monte_carlo("full")
    ok = rec.passed and rec.elapsed_s < 120
    report(capsys, 12, ok, f"4-sigma agreement on {params(rec)}, {rec.detail} "
                   f"(<= {rec.tolerance['4-sigma misses']} miss allowed; worker "
                   f"bit-identity required); {rec.elapsed_s:.1f}s (< 2 min)")
    assert ok, rec.detail


def test_criterion_13_brute_force_ground_truth(capsys):
    start = time.monotonic()
    mismatches = [(m, n) for m in (1, 2, 3) for n in range(9)
                  if chain.expected_inversions_dp(m, n)
                  != brute_force_expected(m, n)]
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 60
    report(capsys, 13, ok, f"dp equals exhaustive enumeration for m <= 3, n <= 8, "
                   f"mismatches={mismatches}, {elapsed:.1f}s (< 1 min)")
    assert ok
