import csv
import decimal
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import pytest

from invwalk import chain, checks, cli, formulas, genfun, simulate


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exact_json(capsys):
    code, out, _ = run(capsys, "exact", "--m", "2", "--n", "3", "--format", "json",
                       "--no-meta")
    assert code == 0
    assert out.strip() == '{"method": "dp", "m": 2, "n": 3, "value": "3/2"}'


def test_exact_json_meta(capsys):
    code, out, _ = run(capsys, "exact", "--m", "10", "--n", "50", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == str(chain.expected_inversions_dp(10, 50))
    meta = payload["meta"]
    assert meta["method"] == "jump-chain-quotient"
    assert meta["orbits"] == 30 and meta["steps"] == 49
    assert meta["work_estimated"] == chain.dp_work(10, 50)
    assert 0 <= meta["elapsed_s"] < 10


def test_exact_budget_refuses_before_work(capsys, monkeypatch):
    # Charged per orbit-step and bit, (10, 10^6) would run for hours.
    monkeypatch.delenv("INVWALK_BUDGET", raising=False)

    def no_work(*args):
        raise AssertionError("the DP started before the budget check")

    monkeypatch.setattr(chain, "quotient", no_work)
    monkeypatch.setattr(chain, "_orbit_step", no_work)
    start = time.perf_counter()
    code, _, err = run(capsys, "exact", "--m", "10", "--n", "1000000")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert err.startswith("error: budget:")


def test_exact_json_past_the_int_str_digit_limit(capsys):
    # At m = 9, n = 4506 is the smallest n whose numerator has more than
    # 4300 digits, where str() of an int raises.
    code, out, _ = run(capsys, "exact", "--m", "9", "--n", "4506", "--format", "json",
                       "--no-meta")
    assert code == 0
    num, den = json.loads(out)["value"].split("/")
    assert len(num) > 4300
    value = chain.expected_inversions_dp(9, 4506)
    assert Fraction(int(decimal.Decimal(num)), int(decimal.Decimal(den))) == value


def test_exact_text(capsys):
    code, out, _ = run(capsys, "exact", "--m", "2", "--n", "3")
    assert code == 0
    assert "3/2" in out


def test_gf_canonical_string(capsys):
    code, out, _ = run(capsys, "gf", "--m", "1")
    assert code == 0
    assert out.strip() == "t / (1 - t^2)"


def test_gf_series_and_poles(capsys):
    code, out, _ = run(capsys, "gf", "--m", "2", "--series", "4",
                       "--check-poles", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["series"] == ["0", "1", "1", "3/2", "5/4"]
    assert payload["pole_check"]["passed"]
    assert payload["meta"]["pole_precision"] == 128 + 3  # 128 + deg D


def test_gf_lazy_pole_check_builds_gf_once(capsys, monkeypatch):
    calls = []
    build_gf = genfun.build_gf

    def counting_build_gf(m):
        calls.append(m)
        return build_gf(m)

    monkeypatch.setattr(genfun, "build_gf", counting_build_gf)
    code, out, _ = run(capsys, "gf", "--m", "2", "--p", "1/2",
                       "--check-poles", "--format", "json")
    assert code == 0
    assert json.loads(out)["pole_check"]["passed"]
    assert calls == [2]


@pytest.fixture
def int_str_limit_640():
    """Python's int-to-str digit limit at its minimum, 640 digits, so that a
    short series already crosses it (``gf --m 4 --series 7200`` crosses 4300)."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


def _decimal_fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(decimal.Decimal(num)), int(decimal.Decimal(den or "1")))


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_gf_series_past_the_int_str_digit_limit(capsys, int_str_limit_640, fmt):
    # From coefficient 1064 on, I_4(t)'s terms have more than 640 digits.
    code, out, _ = run(capsys, "gf", "--m", "4", "--series", "1100", "--format", fmt,
                       "--no-meta")
    assert code == 0
    if fmt == "json":
        texts = json.loads(out)["series"]
    else:
        texts = out.splitlines()[1].removeprefix("series: ").split(", ")
    assert max(map(len, texts)) > 2 * 640
    assert [_decimal_fraction(t) for t in texts] == genfun.series(genfun.build_gf(4), 1100)


def test_gf_lazy_variant(capsys):
    code, out, _ = run(capsys, "gf", "--m", "1", "--p", "1/2",
                       "--series", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["series"] == ["0", "1/2", "1/2", "1/2"]


def test_gf_lazy_rejects_p_zero(capsys):
    code, _, err = run(capsys, "gf", "--m", "2", "--p", "0")
    assert code == 2
    assert "p must lie in (0, 1]" in err


def test_csv_schema(capsys):
    code, out, _ = run(capsys, "eriksen", "--m", "2", "--n", "3",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["m", "n", "method", "value", "precision_bits", "flags"]
    assert rows[1][:4] == ["2", "3", "eriksen", "1.5"]


def test_closed_json_fields(capsys):
    code, out, _ = run(capsys, "closed", "--m", "3", "--n", "1000000",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "closed:theorem1"
    assert payload["saturated"] is True
    assert payload["precision_bits"] == 53
    assert float(payload["value"]) == 3.0
    meta = payload["meta"]
    assert meta.pop("elapsed_s") >= 0
    # The saturation test's corner angle and logarithm were charged.
    assert meta == {"saturated": True, "terms": 0, "powers": 0, "skipped": 16,
                    "work_bits": 53 + 32 + 6,
                    "work_estimated": 3 * formulas._angle_work(53 + 32 + 6)}


def test_closed_meta(capsys):
    args = ("closed", "--m", "40", "--n", "64000", "--format", "json")
    code, out, _ = run(capsys, *args)
    assert code == 0
    meta = json.loads(out)["meta"]
    assert meta["saturated"] is False
    assert 0 < meta["terms"] < 41 * 42 // 2
    assert meta["powers"] == meta["terms"]  # theorem 1 raises x^n per term
    assert 0 < meta["skipped"] < 41**2
    assert meta["work_bits"] == formulas.work_bits(40, 53) == 53 + 32 + 12
    assert meta["work_estimated"] == formulas.closed_form_work(40, 64000) > 0
    assert 0 <= meta["elapsed_s"] < 10
    code, out, _ = run(capsys, *args, "--variant", "ser3", "--precision", "128")
    assert code == 0
    meta = json.loads(out)["meta"]
    assert meta["terms"] == 41 * 42 // 2
    assert 0 < meta["powers"] < meta["terms"]
    assert meta["skipped"] == 0
    assert meta["work_bits"] == 128 + 32 + 12
    assert meta["work_estimated"] == formulas.closed_form_work(40, 64000, 128, "ser3")
    code, out, _ = run(capsys, *args, "--no-meta")
    assert code == 0
    assert "meta" not in json.loads(out)
    # A saturated value reports what its saturation test was charged.
    code, out, _ = run(capsys, "closed", "--m", "40", "--n", "1000000000", "--format", "json")
    assert code == 0
    meta = json.loads(out)["meta"]
    assert meta["saturated"] is True
    assert meta["work_estimated"] == 3 * formulas._angle_work(97) == 18441


def test_closed_meta_reports_rounding(capsys, monkeypatch):
    # "exact" when the two-point certificate held, "sequential" when the
    # loop ran again with mpf_add; the saturated answer has no sum to round.
    args = ("closed", "--m", "40", "--n", "64000", "--format", "json")
    for variant in formulas.VARIANTS:
        code, out, _ = run(capsys, *args, "--variant", variant)
        assert code == 0
        assert json.loads(out)["meta"]["rounding"] == "exact", variant
    wide = (mpmath.libmp.from_int(-10**9), mpmath.libmp.from_int(10**9))
    monkeypatch.setattr(formulas._ExactSum, "interval", lambda self, work: wide)
    code, out, _ = run(capsys, *args)
    assert code == 0
    meta = json.loads(out)["meta"]
    assert meta["rounding"] == "sequential"
    assert list(meta)[:6] == ["saturated", "terms", "powers", "skipped", "rounding", "work_bits"]
    code, out, _ = run(capsys, "closed", "--m", "3", "--n", "1000000", "--format", "json")
    assert "rounding" not in json.loads(out)["meta"]


def test_closed_meta_reports_certificate_width(capsys):
    # The certificate's finished interval, in ulps of the precision: below
    # one ulp when it held, absent when no certificate ran (m < 8, or a
    # saturated answer).
    for m, n, variant in [(40, 1600, "theorem1"), (40, 1600, "ser3"), (130, 130, "theorem1")]:
        code, out, _ = run(capsys, "closed", "--m", str(m), "--n", str(n), "--variant", variant,
                           "--precision", "256", "--format", "json")
        meta = json.loads(out)["meta"]
        assert code == 0 and meta["rounding"] == "exact", (m, n, variant)
        assert 0 < meta["certificate_ulps"] < 1, (m, n, variant)
    for m, n in [(7, 100), (3, 1000000)]:
        code, out, _ = run(capsys, "closed", "--m", str(m), "--n", str(n), "--format", "json")
        assert code == 0 and "certificate_ulps" not in json.loads(out)["meta"], (m, n)


def test_high_precision_refused_before_trig(capsys, monkeypatch):
    # Each angle is charged about work^2/64 units: the closed form's table,
    # its saturation test (when n could saturate) and the bounds' corner.
    monkeypatch.delenv("INVWALK_BUDGET", raising=False)

    def no_trig(*args):
        raise AssertionError("trigonometry ran before the budget refused")

    for name in ("build_table", "_mirrored_cos_sin", "_kept_blocks"):
        monkeypatch.setattr(formulas, name, no_trig)
    for name in ("cos", "sin", "cos_sin", "log"):
        monkeypatch.setattr(mpmath, name, no_trig)
    for argv, what in [
        (("closed", "--m", "40", "--n", "40", "--precision", "100000"),
         "closed_form theorem1 m=40, n=40"),
        (("closed", "--m", "3", "--n", "1000000000", "--precision", "1000000"),
         "closed_form saturation test m=3, n=1000000000"),
        (("bounds", "--m", "3", "--n", "5", "--precision", "1000000"), "bounds m=3, n=5"),
    ]:
        code, _, err = run(capsys, *argv)
        assert code == 3, argv
        assert what in err, argv


def test_gf_meta(capsys):
    args = ("gf", "--m", "3", "--format", "json")
    code, out, _ = run(capsys, *args)
    assert code == 0
    meta = json.loads(out)["meta"]
    assert meta["method"] == "berlekamp-massey"
    assert meta["terms"] == 2 * chain.orbit_count(3) + 2 == 10
    assert meta["order"] == 5  # 3 (27t + 9t^2 - 7t^3 - t^4) over a quintic
    assert meta["elapsed_s"] >= 0
    code, out, _ = run(capsys, *args, "--no-meta")
    assert code == 0
    assert "meta" not in json.loads(out)


def test_eriksen_meta(capsys):
    args = ("eriksen", "--m", "2", "--n", "3", "--format", "json")
    code, out, _ = run(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "3/2"
    meta = payload["meta"]
    assert meta["method"] == "negacyclic-pascal"
    assert meta["work_estimated"] == formulas.eriksen_work(2, 3) > 0
    assert meta["elapsed_s"] >= 0
    code, out, _ = run(capsys, *args, "--no-meta")
    assert code == 0
    assert out.strip() == '{"method": "eriksen", "m": 2, "n": 3, "value": "3/2"}'


def test_simulate_meta(capsys):
    args = ("simulate", "--m", "130", "--n", "20", "--trials", "500",
            "--format", "json")
    code, out, _ = run(capsys, *args)
    assert code == 0
    meta = json.loads(out)["meta"]
    assert meta["method"] == "numpy-flat"
    assert meta["dtype"] == "int16"
    assert meta["blocks"] == 1
    assert meta["trial_steps"] == 500 * 20
    assert meta["rejection_redraws"] == 0
    assert meta["work_estimated"] == simulate.estimated_work(130, 20, 500) > 500 * 20
    assert meta["workers"] == meta["threads"] == 1
    assert meta["elapsed_s"] > 0
    assert meta["trial_steps_per_s"] == pytest.approx(500 * 20 / meta["elapsed_s"])
    code, out, _ = run(capsys, *args, "--no-meta")
    assert code == 0
    assert "meta" not in json.loads(out)
    code, out, _ = run(capsys, *args, "--lazy-p", "1/2")
    assert code == 0
    assert json.loads(out)["meta"]["work_estimated"] == simulate.estimated_work(130, 20, 500,
                                                                                lazy=True)


def test_simulate_meta_reports_workers(capsys):
    # 3 * 4096 trials pay for three threads; 1000 trials run inline
    for trials, threads in ((12288, 3), (1000, 1)):
        code, out, _ = run(capsys, "simulate", "--m", "5", "--n", "30", "--trials",
                           str(trials), "--workers", "3", "--format", "json")
        assert code == 0
        meta = json.loads(out)["meta"]
        assert meta["workers"] == 3
        assert meta["threads"] == meta["blocks"] == threads
        assert meta["work_estimated"] == simulate.estimated_work(5, 30, trials, 3)
    assert simulate.estimated_work(5, 30, 12288, 3) > simulate.estimated_work(5, 30, 12288)


def test_simulate_budget_env_refuses(capsys, monkeypatch):
    args = ("simulate", "--m", "5", "--n", "100", "--trials", "1000")
    code, _, _ = run(capsys, *args)
    assert code == 0
    monkeypatch.setenv("INVWALK_BUDGET", str(10**4))
    code, _, err = run(capsys, *args)
    assert code == 3
    assert "monte_carlo" in err


def test_simulate_workers_cap_is_argument_error(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("started a thread pool")

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", no_pool)
    code, _, err = run(capsys, "simulate", "--m", "5", "--n", "10",
                       "--trials", "100000", "--workers", "100000")
    assert code == 2
    assert err.startswith("error: argument:") and "workers" in err


def test_gf_budget_env_refuses(capsys, monkeypatch):
    code, _, _ = run(capsys, "gf", "--m", "8")
    assert code == 0
    monkeypatch.setenv("INVWALK_BUDGET", str(10**4))
    code, _, err = run(capsys, "gf", "--m", "8")
    assert code == 3
    assert "build_gf" in err


def test_gf_series_budget_refuses_before_work(capsys, monkeypatch):
    monkeypatch.delenv("INVWALK_BUDGET", raising=False)
    start = time.perf_counter()
    code, _, err = run(capsys, "gf", "--m", "6", "--series", "100000")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert err.startswith("error: budget:") and "series" in err


def test_bounds_text(capsys):
    code, out, _ = run(capsys, "bounds", "--m", "3", "--n", "0")
    assert code == 0
    assert out.startswith("0.0 <= I(3,0) <= 1.75628")


def test_bounds_refuses_low_precision(capsys):
    code, out, err = run(capsys, "bounds", "--m", "3", "--n", "1", "--precision", "-100")
    assert (code, out) == (2, "")
    assert "precision must be >= 53" in err


def test_closed_ser2_exits_2():
    with pytest.raises(SystemExit) as info:
        cli.main(["closed", "--m", "3", "--n", "2", "--variant", "ser2"])
    assert info.value.code == 2


def test_lazy_json(capsys):
    code, out, _ = run(capsys, "lazy", "--m", "1", "--n", "2",
                       "--p", "1/2", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == "1/2"


def test_lazy_json_meta(capsys):
    args = ("lazy", "--m", "10", "--n", "50", "--p", "2/3", "--format", "json")
    code, out, _ = run(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == str(formulas.aperiodic_expected(10, 50, Fraction(2, 3)))
    meta = payload["meta"]
    assert meta["method"] == "jump-chain-quotient"
    assert meta["p"] == "2/3"
    assert meta["orbits"] == chain.orbit_count(10)
    assert meta["steps"] == 49
    assert meta["work_estimated"] == chain.dp_work(10, 50, Fraction(2, 3)) > 0
    assert meta["elapsed_s"] >= 0
    code, out, _ = run(capsys, *args, "--no-meta")
    assert code == 0
    assert "meta" not in json.loads(out)


def test_lazy_budget_refuses_before_work(capsys, monkeypatch):
    monkeypatch.delenv("INVWALK_BUDGET", raising=False)

    def no_work(*args):
        raise AssertionError("the DP ran before the budget refused")

    monkeypatch.setattr(chain, "quotient", no_work)
    start = time.perf_counter()
    code, _, err = run(capsys, "lazy", "--m", "10", "--n", "1000000")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert err.startswith("error: budget:") and "exact DP" in err


def test_simulate_idempotent(capsys):
    args = ("simulate", "--m", "4", "--n", "20", "--trials", "500",
            "--seed", "9", "--format", "json", "--no-meta")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert payload["trials"] == 500
    assert "meta" not in payload


def test_simulate_workers_same_output(capsys):
    base = ("simulate", "--m", "5", "--n", "30", "--trials", "1000",
            "--seed", "4", "--format", "json", "--no-meta")
    _, one, _ = run(capsys, *base, "--workers", "1")
    _, four, _ = run(capsys, *base, "--workers", "4")
    assert one == four


def test_asym_predict(capsys):
    code, out, _ = run(capsys, "asym", "--m", "100", "--n", "10000",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "intermediate"
    assert payload["predicted"] == pytest.approx(797.8845608, rel=1e-6)
    assert "closed_form" in payload


def test_asym_compares_only_what_the_budget_admits(capsys, monkeypatch):
    # Theorem 1 at m = 1500, n = 1 would sum about 5.6e5 orbits (over the
    # default budget), so the prediction is reported without the closed form.
    monkeypatch.delenv("INVWALK_BUDGET", raising=False)
    start = time.perf_counter()
    code, out, _ = run(capsys, "asym", "--m", "1500", "--n", "1", "--format", "json")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert "closed_form" not in json.loads(out)


def test_asym_compares_a_saturated_closed_form(capsys, monkeypatch):
    # closed_form_work(20000, 10**15) is about 4e9, over the default budget,
    # but the closed form is saturated there and returns the limit at once.
    monkeypatch.delenv("INVWALK_BUDGET", raising=False)
    start = time.perf_counter()
    code, out, _ = run(capsys, "asym", "--m", "20000", "--n", str(10**15), "--format", "json")
    assert time.perf_counter() - start < 5
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form"] == 20000 * 20001 / 4
    assert payload["abs_error"] == abs(payload["closed_form"] - payload["predicted"])


def test_asym_f_and_g(capsys):
    code, out, _ = run(capsys, "asym", "--f", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 1.0
    code, out, _ = run(capsys, "asym", "--g", "10", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 0.25


def test_asym_bad_kappa_exits_2(capsys):
    code, _, err = run(capsys, "asym", "--f", "nan")
    assert code == 2
    assert err.startswith("error: argument:") and "kappa" in err
    code, _, err = run(capsys, "asym", "--f", "1e32", "--method", "quadrature")
    assert code == 2
    assert err.startswith("error: argument:") and "kappa" in err


def test_asym_g_budget_refuses_before_work(capsys, monkeypatch):
    monkeypatch.delenv("INVWALK_BUDGET", raising=False)
    start = time.perf_counter()
    code, _, err = run(capsys, "asym", "--g", "1e-13")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert err.startswith("error: budget:")


def test_asym_requires_one_mode(capsys):
    code, _, err = run(capsys, "asym", "--f", "1", "--g", "1")
    assert code == 2
    assert "argument" in err


def test_asym_n_without_m_is_argument_error(capsys):
    code, out, err = run(capsys, "asym", "--f", "1", "--n", "5")
    assert (code, out) == (2, "")
    assert err.startswith("error: argument:")


@pytest.mark.parametrize("argv,method", [
    (("bounds", "--m", "5", "--n", "5"), "sandwich"),
    (("asym", "--f", "1"), "f:series"),
    (("asym", "--f", "1", "--method", "quadrature"), "f:quadrature"),
    (("asym", "--g", "0.5"), "g"),
    (("asym", "--consistency"), "consistency"),
    (("asym", "--m", "100", "--n", "10000"), "predict"),
])
def test_bounds_and_asym_meta(capsys, argv, method):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    meta = payload.pop("meta")
    assert meta["method"] == method
    assert 0 <= meta["elapsed_s"] < 10
    code, out, _ = run(capsys, *argv, "--format", "json", "--no-meta")
    assert code == 0
    assert json.loads(out) == payload


def test_asym_meta_says_whether_closed_form_compared(capsys, monkeypatch):
    monkeypatch.delenv("INVWALK_BUDGET", raising=False)
    for m, n, compared in ((100, 10000, True), (1500, 1, False)):
        code, out, _ = run(capsys, "asym", "--m", str(m), "--n", str(n), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["closed_form_compared"] is compared
        assert ("closed_form" in payload) is compared


def test_verify_quick(capsys):
    code, out, _ = run(capsys, "verify", "--level", "quick")
    assert code == 0
    assert "all passed" in out
    assert "FAIL" not in out
    # Every identity residual is 0 at this level; no empty worst location.
    assert "ok   trig identities: all residuals 0" in out


def _stub_check(name, passed):
    def check(level):
        return checks.CheckRecord(name=name, parameters={"m": "1..2"}, measured={"x": 0},
                                  tolerance={"x": 0}, passed=passed, elapsed_s=0.0,
                                  detail="stub detail")
    return check


def test_verify_failed_check_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(checks, "CHECKS", {"good": _stub_check("good", True),
                                           "bad": _stub_check("bad", False)})
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "ok   good: stub detail" in out
    assert "FAIL bad: stub detail" in out
    assert "verify (quick): 1 failed" in out


def test_verify_crashed_check_fails_and_others_run(capsys, monkeypatch):
    def crash(level):
        raise RuntimeError("boom")
    monkeypatch.setattr(checks, "CHECKS", {"crash": crash, "good": _stub_check("good", True)})
    code, out, _ = run(capsys, "verify", "--level", "full")
    assert code == 1
    assert "FAIL crash: exception: RuntimeError('boom')" in out
    assert "ok   good: stub detail" in out


def test_verify_budget_refusal_exits_3(capsys, monkeypatch):
    # The exact DP of the cross-method grid refuses under this budget.
    monkeypatch.setattr(checks, "CHECKS", {"cross-method grid": checks.cross_method})
    monkeypatch.setenv("INVWALK_BUDGET", "10")
    code, out, err = run(capsys, "verify")
    assert code == 3
    assert "FAIL" not in out
    assert "error: budget" in err


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--m-values", "3,5",
                       "--n-expr", "m^2", "--methods", "dp,eriksen")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["m", "n", "method", "value", "precision_bits", "flags"]
    assert [r[:3] for r in rows[1:]] == [
        ["3", "9", "dp"], ["3", "9", "eriksen"],
        ["5", "25", "dp"], ["5", "25", "eriksen"],
    ]
    # dp and eriksen agree cell by cell
    assert rows[1][3] == rows[2][3]
    assert rows[3][3] == rows[4][3]


def test_sweep_log_expression(capsys):
    code, out, _ = run(capsys, "sweep", "--m-values", "10",
                       "--n-expr", "m^3*log(m)", "--methods", "predict")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1][1] == "2303"  # round(1000 * log(10))


def test_sweep_rejects_unknown_method_before_computing(monkeypatch):
    def no_dp(*args):
        raise AssertionError("the DP ran before --methods was checked")

    monkeypatch.setattr(chain, "expected_inversions_dp", no_dp)
    with pytest.raises(SystemExit) as info:
        cli.main(["sweep", "--m-values", "3", "--n-expr", "m", "--methods", "dp,bogus"])
    assert info.value.code == 2


def test_n_expression_grammar():
    assert cli.parse_n_expression("m^2")(7) == 49
    assert cli.parse_n_expression("3*m + 1")(5) == 16
    assert cli.parse_n_expression("m^3*log(m)/9.8696")(10) is not None
    for bad in ("__import__('os')", "m.bit_length()", "k*2", "exp(m)",
                "m^2; m", "lambda: 1"):
        with pytest.raises(ValueError):
            cli.parse_n_expression(bad)


def test_sweep_refuses_huge_power_before_computing():
    # A power that would run past 2^4096 is refused before it is raised
    # (the three below ran past 20 s unbounded); n(m) is otherwise unchanged.
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    for expr in ("m^m^m", "10^10^10", "2^2^40"):
        done = subprocess.run([sys.executable, "-m", "invwalk.cli", "sweep", "--m-values", "9",
                               "--n-expr", expr], capture_output=True, text=True, timeout=20,
                              env=env)
        assert done.returncode == 2 and "exceeds 2^4096" in done.stderr, (expr, done.stderr)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds 2\\^4096"):
            cli.parse_n_expression(expr)(9)
        assert time.perf_counter() - start < 1, expr
    assert cli.parse_n_expression("m^2")(9) == 81
    assert cli.parse_n_expression("m^3*log(m)")(9) == round(9**3 * math.log(9)) == 1602
    assert cli.parse_n_expression("2^4096")(9) == 2**4096
    assert cli.parse_n_expression("-2^-2^40 + m")(9) == 9


def test_sweep_refuses_long_expression_before_parsing():
    # Unbounded, the evaluator raised RecursionError on both and main
    # printed a traceback with exit 1; the length bound refuses them first.
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    for expr in ("m" + "+m" * 999, "-" * 1200 + "m"):
        done = subprocess.run([sys.executable, "-m", "invwalk.cli", "sweep", "--m-values", "9",
                               f"--n-expr={expr}"], capture_output=True, text=True, timeout=20,
                              env=env)
        assert done.returncode == 2 and "Traceback" not in done.stderr, done.stderr[-300:]
        assert f"more than {cli.MAX_N_EXPR_CHARS}" in done.stderr
        start = time.perf_counter()
        with pytest.raises(ValueError, match="characters"):
            cli.parse_n_expression(expr)
        assert time.perf_counter() - start < 1
    longest = "m" + "+m" * ((cli.MAX_N_EXPR_CHARS - 1) // 2)
    assert len(longest) == cli.MAX_N_EXPR_CHARS - 1
    assert cli.parse_n_expression(longest)(9) == 9 * (cli.MAX_N_EXPR_CHARS // 2)
    assert cli.parse_n_expression("-" * (cli.MAX_N_EXPR_CHARS - 2) + "m")(9) == 9


def test_sweep_refuses_non_real_n():
    # A negative base to a fractional power is complex: round() of it raised
    # TypeError, which main printed as a traceback with exit 1.
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    for expr in ("(-m)^0.5", "(0-2)^0.5"):
        done = subprocess.run([sys.executable, "-m", "invwalk.cli", "sweep", "--m-values", "3",
                               f"--n-expr={expr}", "--methods", "dp"],
                              capture_output=True, text=True, timeout=20, env=env)
        assert done.returncode == 2 and "Traceback" not in done.stderr, done.stderr[-300:]
        assert "not real" in done.stderr


@pytest.mark.parametrize("argv", [
    "exact --m 0 --n 3", "exact --m 3 --n=-1",
    "eriksen --m 0 --n 3", "eriksen --m 3 --n=-1",
    "closed --m 0 --n 3", "closed --m 3 --n=-1", "closed --m 3 --n 3 --precision 52",
    "lazy --m 0 --n 3", "lazy --m 3 --n=-1", "lazy --m 3 --n 3 --p 0",
    "lazy --m 3 --n 3 --p 3/2", "lazy --m 3 --n 3 --p=-1/2",
    "simulate --m 0 --n 3 --trials 10", "simulate --m 3 --n=-1 --trials 10",
    "simulate --m 3 --n 3 --trials 1", "simulate --m 3 --n 3 --trials 10 --workers 0",
    "simulate --m 3 --n 3 --trials 10 --lazy-p 0", "simulate --m 3 --n 3 --trials 10 --lazy-p 2",
    "bounds --m 0 --n 3", "bounds --m 3 --n=-1", "bounds --m 3 --n 3 --precision 52",
    "gf --m 0", "gf --m 3 --p 0", "gf --m 3 --p 2", "gf --m 3 --series=-1",
    "asym --m 0 --n 3", "asym --m 3 --n=-1", "asym --f nan", "asym --f=-1",
    "asym --f nan --method quadrature", "asym --g 1e-14", "asym --g nan",
    "sweep --m-values 0 --n-expr m --methods dp",
    "sweep --m-values 3 --n-expr m --methods closed --precision 52",
    "sweep --m-values 3 --n-expr m --methods simulate --trials 1",
    "sweep --m-values 3 --n-expr m --methods simulate --workers 0",
    "sweep --m-values 3 --n-expr log(0) --methods dp",
    "sweep --m-values 3 --n-expr log(-m) --methods dp",
    "sweep --m-values 3 --n-expr m/0 --methods dp",
    "sweep --m-values 3 --n-expr 0^-1 --methods dp",
    "sweep --m-values 3 --n-expr 1e400 --methods dp",
    "sweep --m-values 3 --n-expr 1e400-1e400 --methods dp",
    "sweep --m-values 3 --n-expr=-m --methods dp",
    "sweep --m-values 3 --n-expr (-m)^0.5 --methods dp",
    "sweep --m-values 3 --n-expr (0-2)^0.5 --methods dp",
    "sweep --m-values 3 --n-expr (-8)^(1/3) --methods dp",
])
def test_bad_arguments_are_refused_without_traceback(capsys, argv):
    # An exception that escapes main is a traceback with exit 1 at the console.
    code, _, err = run(capsys, *argv.split())
    assert code in (2, 3) and err.startswith("error:"), (code, err)


def test_exit_code_argument_error(capsys):
    code, _, err = run(capsys, "exact", "--m", "0", "--n", "1")
    assert code == 2
    assert err.startswith("error: argument:")


def test_exit_code_budget(capsys):
    code, _, err = run(capsys, "eriksen", "--m", "2", "--n", "100000")
    assert code == 3
    assert err.startswith("error: budget:")


def test_closed_budget_refuses_before_work(capsys, monkeypatch):
    monkeypatch.delenv("INVWALK_BUDGET", raising=False)
    start = time.perf_counter()
    code, _, err = run(capsys, "closed", "--m", "100000", "--n", "1")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert err.startswith("error: budget:")


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        cli.main(["bogus"])
    assert info.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as info:
        cli.main(["exact", "--m", "2"])
    assert info.value.code == 2


# Exact stdout and exit code of small invocations of every subcommand but
# verify, in each format (JSON without meta, whose times vary).  Recorded
# from the CLI before its value methods shared one route function each;
# since then the sweep's simulate flags carry the seed, as `simulate` does.
GOLDEN = json.loads((pathlib.Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["argv"] for case in GOLDEN])
def test_golden_output(capsys, case):
    code, out, _ = run(capsys, *case["argv"].split())
    assert (code, out) == (case["exit"], case["stdout"])
