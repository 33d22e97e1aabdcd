"""Command-line front end.

Subcommands route to the library modules; ``sweep`` emits CSV/JSON tables
over an (m, n) grid for plotting the regime curves.  Exit codes: 0 success,
1 verification failure, 2 argument error, 3 work-budget refusal.

``verify`` prints one ``ok``/``FAIL`` line per check of ``invwalk.checks``
(a check that raises fails), each with the grid it ran; README lists the
grids at ``--level quick`` and ``full``.
"""

from __future__ import annotations

import argparse
import ast
import csv
import json
import math
import sys
import time
from fractions import Fraction

import mpmath

from . import asymptotics, chain, checks, formulas, genfun, simulate, spectral
from .budget import WorkBudgetError

CSV_HEADER = ("m", "n", "method", "value", "precision_bits", "flags")


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _mpf_str(value, precision: int) -> str:
    digits = int(precision * 0.30103) + 2
    return mpmath.nstr(value, digits, strip_zeros=True)


def _emit_json(payload: dict, out) -> None:
    json.dump(payload, out, ensure_ascii=False)
    out.write("\n")


def _emit_csv(rows, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)


def _value_row(m, n, method, value, precision_bits="", flags=""):
    return (m, n, method, value, precision_bits, flags)


def _output(args, payload: dict, rows, text: str) -> None:
    if args.format == "json":
        _emit_json(payload, sys.stdout)
    elif args.format == "csv":
        _emit_csv(rows, sys.stdout)
    else:
        print(text)


# --- value subcommands -------------------------------------------------

def _dp_meta(args, p, elapsed) -> dict:
    return {"method": "jump-chain-quotient", "orbits": chain.orbit_count(args.m),
            "steps": max(args.n - 1, 0), "work_estimated": chain.dp_work(args.m, args.n, p),
            "elapsed_s": elapsed}


def _cmd_exact(args) -> int:
    start = time.perf_counter()
    value = chain.expected_inversions_dp(args.m, args.n)
    elapsed = time.perf_counter() - start
    payload = {"method": "dp", "m": args.m, "n": args.n, "value": str(value)}
    if not args.no_meta:
        payload["meta"] = _dp_meta(args, 1, elapsed)
    rows = [_value_row(args.m, args.n, "dp", float(value))]
    _output(args, payload, rows, f"I({args.m},{args.n}) = {value}")
    return 0


def _cmd_closed(args) -> int:
    opts = formulas.ClosedFormOptions(variant=args.variant, precision=args.precision)
    start = time.perf_counter()
    info = formulas.closed_form_info(args.m, args.n, opts)
    elapsed = time.perf_counter() - start
    text_value = _mpf_str(info.value, info.precision)
    flags = "saturated" if info.saturated else ""
    payload = {
        "method": f"closed:{info.variant}", "m": args.m, "n": args.n,
        "value": text_value, "precision_bits": info.precision,
        "saturated": info.saturated,
    }
    if not args.no_meta:
        # A saturated result is the limit, answered before the budget.
        estimated = 0 if info.saturated else formulas.closed_form_work(
            args.m, args.n, info.precision, info.variant)
        payload["meta"] = {"saturated": info.saturated, "terms": info.terms,
                           "powers": info.powers, "skipped": info.skipped,
                           "work_bits": formulas.work_bits(args.m, info.precision),
                           "work_estimated": estimated, "elapsed_s": elapsed}
    rows = [_value_row(args.m, args.n, f"closed:{info.variant}", text_value,
                       info.precision, flags)]
    _output(args, payload, rows, f"I({args.m},{args.n}) = {text_value}")
    return 0


def _cmd_eriksen(args) -> int:
    start = time.perf_counter()
    value = formulas.eriksen(args.m, args.n)
    elapsed = time.perf_counter() - start
    payload = {"method": "eriksen", "m": args.m, "n": args.n, "value": str(value)}
    if not args.no_meta:
        payload["meta"] = {"method": "negacyclic-pascal",
                           "work_estimated": formulas.eriksen_work(args.m, args.n),
                           "elapsed_s": elapsed}
    rows = [_value_row(args.m, args.n, "eriksen", float(value))]
    _output(args, payload, rows, f"I({args.m},{args.n}) = {value}")
    return 0


def _cmd_bounds(args) -> int:
    pair = formulas.bounds(args.m, args.n, precision=args.precision)
    lo = _mpf_str(pair.lower, args.precision)
    hi = _mpf_str(pair.upper, args.precision)
    payload = {"method": "bounds", "m": args.m, "n": args.n,
               "lower": lo, "upper": hi, "precision_bits": args.precision}
    rows = [_value_row(args.m, args.n, "bounds:lower", lo, args.precision),
            _value_row(args.m, args.n, "bounds:upper", hi, args.precision)]
    _output(args, payload, rows, f"{lo} <= I({args.m},{args.n}) <= {hi}")
    return 0


def _cmd_lazy(args) -> int:
    start = time.perf_counter()
    value = formulas.aperiodic_expected(args.m, args.n, args.p)
    elapsed = time.perf_counter() - start
    p = formulas.move_probability(args.m, args.p)
    payload = {"method": "lazy", "m": args.m, "n": args.n,
               "p": str(p), "value": str(value)}
    if not args.no_meta:
        payload["meta"] = {"p": str(p), **_dp_meta(args, p, elapsed)}
    rows = [_value_row(args.m, args.n, "lazy", float(value), "", f"p={p}")]
    _output(args, payload, rows, f"lazy I({args.m},{args.n}; p={p}) = {value}")
    return 0


def _cmd_gf(args) -> int:
    start = time.perf_counter()
    base = genfun.build_gf(args.m)
    elapsed = time.perf_counter() - start
    rf = base if args.p is None else genfun.aperiodic_gf(base, args.m, args.p)
    lines = [str(rf)]
    payload = {
        "method": "gf", "m": args.m,
        "p": str(args.p) if args.p is not None else None,
        "gf": str(rf),
        "num_coeffs": [str(c) for c in rf.num.coeffs],
        "den_coeffs": [str(c) for c in rf.den.coeffs],
    }
    if not args.no_meta:
        payload["meta"] = {"method": "berlekamp-massey", "terms": genfun.gf_terms(args.m),
                           "order": base.order, "elapsed_s": elapsed}
    rows = [_value_row(args.m, "", "gf", str(rf))]
    if args.series is not None:
        coeffs = genfun.series(rf, args.series)
        payload["series"] = [str(c) for c in coeffs]
        lines.append("series: " + ", ".join(str(c) for c in coeffs))
        rows.extend(_value_row(args.m, k, "gf:series", float(c))
                    for k, c in enumerate(coeffs))
    exit_code = 0
    if args.check_poles:
        table = spectral.build_table(args.m, 128)
        report = genfun.pole_check(base, table)
        payload["pole_check"] = {
            "passed": report.passed,
            "unmatched_degree": report.unmatched_degree,
            "matched": [{"root": r, "candidate": lab, "multiplicity": mult}
                        for r, lab, mult in report.matched],
        }
        lines.append(f"pole check: {'ok' if report.passed else 'FAIL'} "
                     f"(unmatched degree {report.unmatched_degree})")
        if not report.passed:
            exit_code = 1
    _output(args, payload, rows, "\n".join(lines))
    return exit_code


def _cmd_simulate(args) -> int:
    summary = simulate.monte_carlo(args.m, args.n, args.trials, seed=args.seed,
                                   lazy_p=args.lazy_p, workers=args.workers)
    payload = {
        "method": "simulate", "m": summary.m, "n": summary.n,
        "trials": summary.trials, "seed": summary.seed,
        "lazy_p": str(summary.lazy_p) if summary.lazy_p is not None else None,
        "mean": summary.mean, "variance": summary.variance,
        "stderr": summary.stderr,
        "sum_counts": summary.sum_counts, "sum_squares": summary.sum_squares,
    }
    if not args.no_meta:
        trial_steps = summary.trials * summary.n
        payload["meta"] = {
            "method": simulate.METHOD, "dtype": simulate.perm_dtype(summary.m).name,
            "blocks": summary.blocks, "trial_steps": trial_steps,
            "rejection_redraws": summary.rejection_redraws,
            "elapsed_s": summary.elapsed,
            "trial_steps_per_s": trial_steps / summary.elapsed if summary.elapsed > 0 else None,
        }
    flags = f"trials={summary.trials};seed={summary.seed};stderr={summary.stderr:.6g}"
    rows = [_value_row(args.m, args.n, "simulate", summary.mean, "", flags)]
    _output(args, payload, rows,
            f"mean = {summary.mean:.6f} +- {summary.stderr:.6f} "
            f"({summary.trials} trials)")
    return 0


def _cmd_asym(args) -> int:
    chosen = sum(x is not None for x in (args.m, args.f, args.g)) + args.consistency
    if chosen != 1:
        raise ValueError("asym needs exactly one of --m/--n, --f, --g, --consistency")
    if args.f is not None:
        value = asymptotics.f_kappa(args.f, method=args.method)
        payload = {"method": f"f:{args.method}", "kappa": args.f, "value": value}
        rows = [_value_row("", "", f"f:{args.method}", value, "", f"kappa={args.f}")]
        _output(args, payload, rows, f"f({args.f}) = {value!r}")
        return 0
    if args.g is not None:
        value = asymptotics.g_kappa(args.g)
        payload = {"method": "g", "kappa": args.g, "value": value}
        rows = [_value_row("", "", "g", value, "", f"kappa={args.g}")]
        _output(args, payload, rows, f"g({args.g}) = {value!r}")
        return 0
    if args.consistency:
        report = asymptotics.consistency_limits()
        rows = [_value_row("", "", "consistency:f", v, "", f"kappa={k}")
                for k, v in zip(report["f_kappas"], report["f_values"])]
        rows += [_value_row("", "", "consistency:g", v, "", f"kappa={k}")
                 for k, v in zip(report["g_kappas"], report["g_values"])]
        text = (f"target sqrt(2/pi) = {report['target']!r}\n"
                f"sqrt(k)f(k) at {report['f_kappas']}: {report['f_values']}\n"
                f"g(k)/sqrt(k) at {report['g_kappas']}: {report['g_values']}\n"
                f"monotone approach: f={report['f_monotone']} g={report['g_monotone']}")
        _output(args, report, rows, text)
        return 0
    if args.n is None:
        raise ValueError("asym --m requires --n")
    estimate = asymptotics.predict(args.m, args.n)
    payload = {
        "method": "predict", "m": args.m, "n": args.n,
        "regime": estimate.regime, "predicted": estimate.predicted,
        "normalizer": estimate.normalizer, "kappa": estimate.kappa,
        "clamped": estimate.clamped,
        "lower": estimate.lower, "upper": estimate.upper,
    }
    lines = [f"regime {estimate.regime}: predicted I({args.m},{args.n}) "
             f"= {estimate.predicted:.6g} (normalizer {estimate.normalizer},"
             f" clamped={estimate.clamped})"]
    try:  # compare against the closed form unless its work budget refuses it
        reference = float(formulas.closed_form(args.m, args.n))
        payload.update(closed_form=reference, abs_error=abs(reference - estimate.predicted))
        lines.append(f"closed form = {reference:.6g} "
                     f"(abs error {payload['abs_error']:.3g})")
    except WorkBudgetError:
        pass
    flags = f"regime={estimate.regime};clamped={estimate.clamped}"
    rows = [_value_row(args.m, args.n, "predict", estimate.predicted, "", flags)]
    _output(args, payload, rows, "\n".join(lines))
    return 0


# --- sweep -------------------------------------------------------------

_ALLOWED_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant,
                  ast.Name, ast.Call, ast.Add, ast.Mult, ast.Pow, ast.Div,
                  ast.Sub, ast.USub, ast.Load)


def parse_n_expression(text: str):
    """Compile an n(m) expression: constants, m, log, ^, *, /, +, -."""
    source = text.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"bad n expression {text!r}: {exc}") from exc
    call_names = set()
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(f"bad n expression {text!r}: "
                             f"{type(node).__name__} not allowed")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ValueError(f"bad n expression {text!r}: non-numeric constant")
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id == "log"
                    and len(node.args) == 1 and not node.keywords):
                raise ValueError(f"bad n expression {text!r}: only log(...) calls")
            call_names.add(id(node.func))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id != "m" and id(node) not in call_names:
            raise ValueError(f"bad n expression {text!r}: unknown name {node.id!r}")
    code = compile(tree, "<n-expr>", "eval")

    def evaluate(m: int) -> int:
        value = eval(code, {"__builtins__": {}}, {"m": m, "log": math.log})
        n = round(value)
        if n < 0:
            raise ValueError(f"n expression {text!r} gives n={n} < 0 at m={m}")
        return n

    return evaluate


def _int_list(text: str):
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


SWEEP_METHODS = ("dp", "eriksen", "closed", "predict", "simulate")


def _sweep_methods(text: str):
    methods = text.split(",")
    unknown = [name for name in methods if name not in SWEEP_METHODS]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown sweep method(s) {unknown}; "
                                         f"choose from {','.join(SWEEP_METHODS)}")
    return methods


def _sweep_cell(method: str, m: int, n: int, args):
    """One (value, precision_bits, flags) measurement for the sweep table."""
    if method == "dp":
        return float(chain.expected_inversions_dp(m, n)), "", ""
    if method == "eriksen":
        return float(formulas.eriksen(m, n)), "", ""
    if method == "closed":
        info = formulas.closed_form_info(
            m, n, formulas.ClosedFormOptions(precision=args.precision))
        return (_mpf_str(info.value, info.precision), info.precision,
                "saturated" if info.saturated else "")
    if method == "predict":
        est = asymptotics.predict(m, n)
        return est.predicted, "", f"regime={est.regime};clamped={est.clamped}"
    # "simulate", the last of SWEEP_METHODS (the parser admits no other name)
    summary = simulate.monte_carlo(m, n, args.trials, seed=args.seed,
                                   workers=args.workers)
    return summary.mean, "", f"trials={args.trials};stderr={summary.stderr:.6g}"


def _cmd_sweep(args) -> int:
    n_of_m = parse_n_expression(args.n_expr)
    rows = []
    records = []
    for m in args.m_values:
        n = n_of_m(m)
        for method in args.methods:
            value, bits, flags = _sweep_cell(method, m, n, args)
            rows.append(_value_row(m, n, method, value, bits, flags))
            records.append({"m": m, "n": n, "method": method, "value": value,
                            "precision_bits": bits or None, "flags": flags or None})
    if args.format == "json":
        _emit_json({"method": "sweep", "n_expr": args.n_expr, "rows": records},
                   sys.stdout)
    else:
        _emit_csv(rows, sys.stdout)
    return 0


# --- verify ------------------------------------------------------------

def _cmd_verify(args) -> int:
    failures = 0
    for name, check in checks.CHECKS.items():
        try:
            record = check(args.level)
        except WorkBudgetError:
            raise
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"exception: {exc!r}"
        else:
            ok = record.passed
            detail = (f"{record.detail} [{checks.format_parameters(record.parameters)}; "
                      f"{record.elapsed_s:.2f} s]")
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures += 1
    print(f"verify ({args.level}): {'all passed' if not failures else f'{failures} failed'}")
    return 0 if failures == 0 else 1


# --- parser ------------------------------------------------------------

def _add_common(sub, n_required=True):
    sub.add_argument("--m", type=int, required=True, help="number of generators")
    if n_required:
        sub.add_argument("--n", type=int, required=True, help="number of steps")
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sub.add_argument("--no-meta", action="store_true",
                     help="suppress the meta block in JSON output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invwalk",
        description="Expected inversions of products of random adjacent "
                    "transpositions: exact, closed-form, and asymptotic tools.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("exact", help="exact rational value by dynamic programming")
    _add_common(sub)
    sub.set_defaults(run=_cmd_exact)

    sub = subs.add_parser("closed", help="spectral closed form at binary precision")
    _add_common(sub)
    sub.add_argument("--variant", choices=formulas.VARIANTS, default="theorem1")
    sub.add_argument("--precision", type=int, default=53)
    sub.set_defaults(run=_cmd_closed)

    sub = subs.add_parser("eriksen", help="exact rational value by the binomial formula")
    _add_common(sub)
    sub.set_defaults(run=_cmd_eriksen)

    sub = subs.add_parser("gf", help="exact generating function in t")
    _add_common(sub, n_required=False)
    sub.add_argument("--p", type=_fraction_arg, default=None,
                     help="lazy-chain move probability (rational; default: the plain chain)")
    sub.add_argument("--series", type=int, default=None, metavar="N",
                     help="also print the first N+1 series coefficients")
    sub.add_argument("--check-poles", action="store_true",
                     help="verify denominator roots against the eigenvalues")
    sub.set_defaults(run=_cmd_gf)

    sub = subs.add_parser("bounds", help="two-sided sandwich bounds (m >= 3)")
    _add_common(sub)
    sub.add_argument("--precision", type=int, default=128)
    sub.set_defaults(run=_cmd_bounds)

    sub = subs.add_parser("lazy", help="exact expectation for the lazy chain")
    _add_common(sub)
    sub.add_argument("--p", type=_fraction_arg, default=None,
                     help="lazy-chain move probability (rational; default m/(m+1))")
    sub.set_defaults(run=_cmd_lazy)

    sub = subs.add_parser("simulate", help="Monte Carlo estimate")
    _add_common(sub)
    sub.add_argument("--trials", type=int, required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--lazy-p", type=_fraction_arg, default=None)
    sub.add_argument("--workers", type=int, default=1)
    sub.set_defaults(run=_cmd_simulate)

    sub = subs.add_parser("asym", help="regime classification and limit laws")
    sub.add_argument("--m", type=int, default=None)
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--f", type=float, default=None, metavar="KAPPA")
    sub.add_argument("--g", type=float, default=None, metavar="KAPPA")
    sub.add_argument("--consistency", action="store_true")
    sub.add_argument("--method", choices=("series", "quadrature"), default="series")
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sub.add_argument("--no-meta", action="store_true")
    sub.set_defaults(run=_cmd_asym)

    sub = subs.add_parser("verify", help="run the cross-method checks")
    sub.add_argument("--level", choices=checks.LEVELS, default="quick")
    sub.set_defaults(run=_cmd_verify)

    sub = subs.add_parser("sweep", help="tabulate values over an (m, n(m)) grid")
    sub.add_argument("--m-values", type=_int_list, required=True,
                     help="comma-separated m values")
    sub.add_argument("--n-expr", required=True,
                     help="n as an expression of m, e.g. 'm^2' or 'm^3*log(m)'")
    sub.add_argument("--methods", type=_sweep_methods, default=["closed"],
                     help=f"comma-separated subset of {','.join(SWEEP_METHODS)}")
    sub.add_argument("--precision", type=int, default=53)
    sub.add_argument("--trials", type=int, default=10000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--workers", type=int, default=1)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.set_defaults(run=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except WorkBudgetError as exc:
        print(f"error: budget: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        print(f"error: argument: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
