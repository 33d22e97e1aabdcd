"""Command-line front end.

Each value method has one route function in ``ROUTES``, ``(m, n, args) ->
Result``: ``dp``, ``eriksen``, ``closed``, ``lazy``, ``simulate`` and
``predict``.  The ``exact``, ``eriksen``, ``closed``, ``lazy`` and
``simulate`` subcommands print one route's result; ``sweep`` tabulates the
CSV cells of the same routes over an (m, n) grid for plotting the regime
curves; ``asym --m/--n`` adds a closed-form comparison to ``predict``.
``_timed`` times each computation, and ``_emit`` prints every result but
the sweep's, with a JSON ``meta`` block (method, work, elapsed time)
unless ``--no-meta``.  Exit codes: 0 success, 1 verification failure, 2
argument error, 3 work-budget refusal.

``verify`` prints one ``ok``/``FAIL`` line per check of ``invwalk.checks``
(a check that raises fails), each with the grid it ran; README lists the
grids at ``--level quick`` and ``full``.
"""

from __future__ import annotations

import argparse
import ast
import csv
import decimal
import json
import math
import operator
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from typing import NamedTuple

import mpmath

from . import asymptotics, chain, checks, formulas, genfun, simulate, spectral
from .budget import WorkBudgetError

CSV_HEADER = ("m", "n", "method", "value", "precision_bits", "flags")


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _exact_str(value: Fraction) -> str:
    """``str(value)`` with no cap on its digits: ``str`` of an int past 4300
    digits raises, but ``decimal`` converts exactly at any size, and the
    work budget has already bounded the value's."""
    num, den = (str(decimal.Decimal(part)) for part in (value.numerator, value.denominator))
    return num if den == "1" else f"{num}/{den}"


def _mpf_str(value, precision: int) -> str:
    digits = int(precision * 0.30103) + 2
    return mpmath.nstr(value, digits, strip_zeros=True)


def _timed(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the seconds it took."""
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def _emit(args, payload: dict, meta: dict, rows, text: str, tail: dict | None = None) -> None:
    """Print one result in ``args.format``.  JSON is ``payload``, then
    ``meta`` unless ``--no-meta``, then ``tail``."""
    if args.format == "json":
        if not args.no_meta:
            payload = {**payload, "meta": meta}
        print(json.dumps({**payload, **(tail or {})}, ensure_ascii=False))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    else:
        print(text)


# --- value routes ------------------------------------------------------

class Result(NamedTuple):
    """One route's answer at (m, n)."""

    method: str   # the JSON and CSV method label
    fields: dict  # JSON fields after method, m and n
    cell: tuple   # CSV (value, precision_bits, flags)
    text: str
    meta: dict


def _dp_meta(m, n, p, elapsed) -> dict:
    return {"method": "jump-chain-quotient", "orbits": chain.orbit_count(m),
            "steps": max(n - 1, 0), "work_estimated": chain.dp_work(m, n, p),
            "elapsed_s": elapsed}


def _route_dp(m, n, args) -> Result:
    value, elapsed = _timed(chain.expected_inversions_dp, m, n)
    text = _exact_str(value)
    return Result("dp", {"value": text}, (float(value), "", ""),
                  f"I({m},{n}) = {text}", _dp_meta(m, n, 1, elapsed))


def _route_eriksen(m, n, args) -> Result:
    value, elapsed = _timed(formulas.eriksen, m, n)
    text = _exact_str(value)
    return Result("eriksen", {"value": text}, (float(value), "", ""),
                  f"I({m},{n}) = {text}",
                  {"method": "negacyclic-pascal",
                   "work_estimated": formulas.eriksen_work(m, n), "elapsed_s": elapsed})


def _route_closed(m, n, args) -> Result:
    opts = formulas.ClosedFormOptions(variant=args.variant, precision=args.precision)
    info, elapsed = _timed(formulas.closed_form_info, m, n, opts)
    value = _mpf_str(info.value, info.precision)
    return Result(f"closed:{info.variant}",
                  {"value": value, "precision_bits": info.precision,
                   "saturated": info.saturated},
                  (value, info.precision, "saturated" if info.saturated else ""),
                  f"I({m},{n}) = {value}",
                  {"saturated": info.saturated, "terms": info.terms,
                   "powers": info.powers, "skipped": info.skipped,
                   # An exact or saturated answer runs no sum to round.
                   **({"rounding": info.rounding} if info.rounding else {}),
                   "work_bits": formulas.work_bits(m, info.precision),
                   # No certificate runs below m = 8 or without a sum.
                   **({"certificate_ulps": info.certificate_ulps}
                      if info.certificate_ulps is not None else {}),
                   "work_estimated": info.work_charged, "elapsed_s": elapsed})


def _route_lazy(m, n, args) -> Result:
    value, elapsed = _timed(formulas.aperiodic_expected, m, n, args.p)
    p = formulas.move_probability(m, args.p)
    text = _exact_str(value)
    return Result("lazy", {"p": str(p), "value": text}, (float(value), "", f"p={p}"),
                  f"lazy I({m},{n}; p={p}) = {text}",
                  {"p": str(p), **_dp_meta(m, n, p, elapsed)})


def _route_simulate(m, n, args) -> Result:
    summary = simulate.monte_carlo(m, n, args.trials, seed=args.seed,
                                   lazy_p=args.lazy_p, workers=args.workers)
    trial_steps = summary.trials * summary.n
    fields = {
        "trials": summary.trials, "seed": summary.seed,
        "lazy_p": str(summary.lazy_p) if summary.lazy_p is not None else None,
        "mean": summary.mean, "variance": summary.variance,
        "stderr": summary.stderr,
        "sum_counts": summary.sum_counts, "sum_squares": summary.sum_squares,
    }
    flags = f"trials={summary.trials};seed={summary.seed};stderr={summary.stderr:.6g}"
    return Result("simulate", fields, (summary.mean, "", flags),
                  f"mean = {summary.mean:.6f} +- {summary.stderr:.6f} "
                  f"({summary.trials} trials)",
                  {"method": simulate.METHOD, "dtype": simulate.perm_dtype(m).name,
                   "blocks": summary.blocks, "trial_steps": trial_steps,
                   "rejection_redraws": summary.rejection_redraws,
                   "work_estimated": simulate.estimated_work(m, n, summary.trials, args.workers,
                                                            summary.lazy_p is not None),
                   "workers": args.workers, "threads": summary.threads,
                   "elapsed_s": summary.elapsed,
                   "trial_steps_per_s": (trial_steps / summary.elapsed
                                         if summary.elapsed > 0 else None)})


def _route_predict(m, n, args) -> Result:
    estimate, elapsed = _timed(asymptotics.predict, m, n)
    return Result("predict", asdict(estimate),
                  (estimate.predicted, "",
                   f"regime={estimate.regime};clamped={estimate.clamped}"),
                  f"regime {estimate.regime}: predicted I({m},{n}) "
                  f"= {estimate.predicted:.6g} (normalizer {estimate.normalizer},"
                  f" clamped={estimate.clamped})",
                  {"method": "predict", "elapsed_s": elapsed})


ROUTES = {"dp": _route_dp, "eriksen": _route_eriksen, "closed": _route_closed,
          "lazy": _route_lazy, "simulate": _route_simulate, "predict": _route_predict}


def _emit_result(args, result: Result) -> int:
    m, n = args.m, args.n
    _emit(args, {"method": result.method, "m": m, "n": n, **result.fields}, result.meta,
          [(m, n, result.method, *result.cell)], result.text)
    return 0


def _cmd_value(args) -> int:
    return _emit_result(args, args.route(args.m, args.n, args))


# --- other subcommands -------------------------------------------------

def _cmd_bounds(args) -> int:
    pair, elapsed = _timed(formulas.bounds, args.m, args.n, precision=args.precision)
    lo = _mpf_str(pair.lower, args.precision)
    hi = _mpf_str(pair.upper, args.precision)
    payload = {"method": "bounds", "m": args.m, "n": args.n,
               "lower": lo, "upper": hi, "precision_bits": args.precision}
    rows = [(args.m, args.n, "bounds:lower", lo, args.precision, ""),
            (args.m, args.n, "bounds:upper", hi, args.precision, "")]
    _emit(args, payload, {"method": "sandwich", "elapsed_s": elapsed}, rows,
          f"{lo} <= I({args.m},{args.n}) <= {hi}")
    return 0


def _cmd_gf(args) -> int:
    base, elapsed = _timed(genfun.build_gf, args.m)
    rf = base if args.p is None else genfun.aperiodic_gf(base, args.m, args.p)
    lines = [str(rf)]
    payload = {
        "method": "gf", "m": args.m,
        "p": str(args.p) if args.p is not None else None,
        "gf": str(rf),
        "num_coeffs": [str(c) for c in rf.num.coeffs],
        "den_coeffs": [str(c) for c in rf.den.coeffs],
    }
    meta = {"method": "berlekamp-massey", "terms": genfun.gf_terms(args.m),
            "order": base.order, "elapsed_s": elapsed}
    rows = [(args.m, "", "gf", str(rf), "", "")]
    tail = {}
    if args.series is not None:
        coeffs = genfun.series(rf, args.series)
        texts = [_exact_str(c) for c in coeffs]
        tail["series"] = texts
        lines.append("series: " + ", ".join(texts))
        rows.extend((args.m, k, "gf:series", float(c), "", "")
                    for k, c in enumerate(coeffs))
    exit_code = 0
    if args.check_poles:
        meta["pole_precision"] = 128 + base.den.degree
        report = genfun.pole_check(base, spectral.build_table(args.m, meta["pole_precision"]))
        tail["pole_check"] = {
            "passed": report.passed,
            "unmatched_degree": report.unmatched_degree,
            "matched": [{"root": r, "candidate": lab, "multiplicity": mult}
                        for r, lab, mult in report.matched],
        }
        lines.append(f"pole check: {'ok' if report.passed else 'FAIL'} "
                     f"(unmatched degree {report.unmatched_degree})")
        if not report.passed:
            exit_code = 1
    _emit(args, payload, meta, rows, "\n".join(lines), tail)
    return exit_code


def _cmd_asym(args) -> int:
    if (args.m is None) != (args.n is None):
        raise ValueError("asym --m and --n go together")
    chosen = sum(x is not None for x in (args.m, args.f, args.g)) + args.consistency
    if chosen != 1:
        raise ValueError("asym needs exactly one of --m/--n, --f, --g, --consistency")
    if args.m is not None:
        return _asym_predict(args)
    if args.consistency:
        report, elapsed = _timed(asymptotics.consistency_limits)
        rows = [("", "", "consistency:f", v, "", f"kappa={k}")
                for k, v in zip(report["f_kappas"], report["f_values"])]
        rows += [("", "", "consistency:g", v, "", f"kappa={k}")
                 for k, v in zip(report["g_kappas"], report["g_values"])]
        text = (f"target sqrt(2/pi) = {report['target']!r}\n"
                f"sqrt(k)f(k) at {report['f_kappas']}: {report['f_values']}\n"
                f"g(k)/sqrt(k) at {report['g_kappas']}: {report['g_values']}\n"
                f"monotone approach: f={report['f_monotone']} g={report['g_monotone']}")
        _emit(args, report, {"method": "consistency", "elapsed_s": elapsed}, rows, text)
        return 0
    if args.f is not None:
        name, method, kappa = "f", f"f:{args.method}", args.f
        value, elapsed = _timed(asymptotics.f_kappa, kappa, method=args.method)
    else:
        name, method, kappa = "g", "g", args.g
        value, elapsed = _timed(asymptotics.g_kappa, kappa)
    _emit(args, {"method": method, "kappa": kappa, "value": value},
          {"method": method, "elapsed_s": elapsed},
          [("", "", method, value, "", f"kappa={kappa}")],
          f"{name}({kappa}) = {value!r}")
    return 0


def _asym_predict(args) -> int:
    result = ROUTES["predict"](args.m, args.n, args)
    fields, text = dict(result.fields), result.text
    try:  # compare against the closed form unless its work budget refuses it
        reference = float(formulas.closed_form(args.m, args.n))
    except WorkBudgetError:
        compared = False
    else:
        compared = True
        fields.update(closed_form=reference, abs_error=abs(reference - fields["predicted"]))
        text += f"\nclosed form = {reference:.6g} (abs error {fields['abs_error']:.3g})"
    return _emit_result(args, result._replace(
        fields=fields, text=text, meta={**result.meta, "closed_form_compared": compared}))


# --- sweep -------------------------------------------------------------

def _power(base, exponent):
    """``base ** exponent``, refused with ValueError before it is computed
    when an integer result would exceed 2^4096 (an admitted one has at most
    8192 bits, so n can still be printed in decimal), and after it when the
    result is not real, as a negative base to a fractional power is."""
    if (isinstance(base, int) and isinstance(exponent, int) and abs(base) > 1
            and exponent * (abs(base).bit_length() - 1) > 1 << 12):
        raise ValueError(f"n expression power of a {abs(base).bit_length()}-bit integer "
                         f"to a {exponent.bit_length()}-bit exponent exceeds 2^4096")
    value = base ** exponent
    if isinstance(value, complex):
        raise ValueError(f"n expression power ({base!r})^({exponent!r}) is not real")
    return value


def _compile(node):
    """n(m) for one node of the n expression grammar, as a function of m:
    a numeric constant, m, -x, log(x), or x + - * / ^ y.  Any other node
    is refused with ValueError."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        value = node.value
        return lambda m: value
    if isinstance(node, ast.Name) and node.id == "m":
        return lambda m: m
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        operand = _compile(node.operand)
        return lambda m: -operand(m)
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "log" and len(node.args) == 1 and not node.keywords):
        argument = _compile(node.args[0])
        return lambda m: math.log(argument(m))
    operators = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
                 ast.Div: operator.truediv, ast.Pow: _power}
    if isinstance(node, ast.BinOp) and type(node.op) in operators:
        op, left, right = operators[type(node.op)], _compile(node.left), _compile(node.right)
        return lambda m: op(left(m), right(m))
    raise ValueError(f"{getattr(node, 'id', type(node).__name__)} is not a number, "
                     "m, -x, log(x) or x + - * / ^ y")


# The compiled n(m) nests one call per level: on Python 3.11 a 1999-character
# sum 'm+m+...' and 1200 unary minuses before m ran past the recursion limit,
# where 1799 and 801 characters did not.
MAX_N_EXPR_CHARS = 500


def parse_n_expression(text: str):
    """Compile an n(m) expression: constants, m, log, ^, *, /, +, -."""
    if len(text) > MAX_N_EXPR_CHARS:
        raise ValueError(f"bad n expression: {len(text)} characters, more than {MAX_N_EXPR_CHARS}")
    try:
        n_of_m = _compile(ast.parse(text.replace("^", "**"), mode="eval").body)
    except (SyntaxError, ValueError) as exc:
        raise ValueError(f"bad n expression {text!r}: {exc}") from exc

    def evaluate(m: int) -> int:
        n = round(n_of_m(m))
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


def _cmd_sweep(args) -> int:
    n_of_m = parse_n_expression(args.n_expr)
    rows = []
    for m in args.m_values:
        n = n_of_m(m)
        rows.extend((m, n, method, *ROUTES[method](m, n, args).cell)
                    for method in args.methods)
    records = [{"m": m, "n": n, "method": method, "value": value,
                "precision_bits": bits or None, "flags": flags or None}
               for m, n, method, value, bits, flags in rows]
    _emit(args, {"method": "sweep", "n_expr": args.n_expr, "rows": records}, {}, rows, "")
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
    sub.set_defaults(run=_cmd_value, route=_route_dp)

    sub = subs.add_parser("closed", help="spectral closed form at binary precision")
    _add_common(sub)
    sub.add_argument("--variant", choices=formulas.VARIANTS, default="theorem1")
    sub.add_argument("--precision", type=int, default=53)
    sub.set_defaults(run=_cmd_value, route=_route_closed)

    sub = subs.add_parser("eriksen", help="exact rational value by the binomial formula")
    _add_common(sub)
    sub.set_defaults(run=_cmd_value, route=_route_eriksen)

    sub = subs.add_parser("gf", help="exact generating function in t")
    _add_common(sub, n_required=False)
    sub.add_argument("--p", type=_fraction_arg, default=None,
                     help="lazy-chain move probability (rational; default: the plain chain)")
    sub.add_argument("--series", type=int, default=None, metavar="N",
                     help="also print the first N+1 series coefficients")
    sub.add_argument("--check-poles", action="store_true",
                     help="certify denominator roots against the eigenvalues")
    sub.set_defaults(run=_cmd_gf)

    sub = subs.add_parser("bounds", help="two-sided sandwich bounds (m >= 3)")
    _add_common(sub)
    sub.add_argument("--precision", type=int, default=128)
    sub.set_defaults(run=_cmd_bounds)

    sub = subs.add_parser("lazy", help="exact expectation for the lazy chain")
    _add_common(sub)
    sub.add_argument("--p", type=_fraction_arg, default=None,
                     help="lazy-chain move probability (rational; default m/(m+1))")
    sub.set_defaults(run=_cmd_value, route=_route_lazy)

    sub = subs.add_parser("simulate", help="Monte Carlo estimate")
    _add_common(sub)
    sub.add_argument("--trials", type=int, required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--lazy-p", type=_fraction_arg, default=None)
    sub.add_argument("--workers", type=int, default=1)
    sub.set_defaults(run=_cmd_value, route=_route_simulate)

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
    # The closed and simulate routes read variant and lazy_p; the sweep runs
    # their defaults.  Its rows carry no meta yet.
    sub.set_defaults(run=_cmd_sweep, variant="theorem1", lazy_p=None, no_meta=True)

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
