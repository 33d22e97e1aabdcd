"""Self-test of the benchmark's request checker and tracer.

Sends a few small requests through the client with five faults injected:
an exact value off by 1/m^n, a closed-form value just outside the sandwich
bounds, a closed-form value off by 1e-6 but inside the sandwich, a Monte
Carlo mean shifted by 10 standard errors, and an exact request so large
that the library refuses it with ``WorkBudgetError``.
Each must count as one failed request without stopping the run, every
other request must pass, and every call span must hang off its request's
span.  Run from the root of a checkout:

    python3 bench/selftest.py

It prints one line per problem found and exits 1 if there is any.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
# A user's override of the work budget must not admit the REFUSED request.
os.environ.pop("INVWALK_BUDGET", None)

from mpmath import mpf  # noqa: E402

from invwalk import formulas  # noqa: E402

import client  # noqa: E402
import routes  # noqa: E402
import spans  # noqa: E402
from routes import Request  # noqa: E402


def exact_off_by_one_over_m_to_n(req, rec):
    return routes.run_exact(req, rec) + Fraction(1, req.m**req.n)


def closed_outside_sandwich(req, rec):
    info = routes.run_closed(req, rec)
    upper = formulas.bounds(req.m, req.n).upper
    return replace(info, value=upper * (1 + mpf(2) ** -40))


def closed_off_inside_sandwich(req, rec):
    info = routes.run_closed(req, rec)
    return replace(info, value=info.value * (1 + mpf(10) ** -6))


def mc_mean_shifted_10_sigma(req, rec):
    summary = routes.run_mc(req, rec)
    return replace(summary, mean=summary.mean + 10 * summary.stderr)


CLEAN = [
    Request("gf", 3),
    Request("exact", 10, 60, route="dp"),
    Request("exact", 12, 80, route="eriksen"),
    Request("closed", 40, 40, precision=53),
    Request("closed", 40, 50 * 40**3, precision=256),
    Request("identities", 10, precision=128),
    Request("mc", 10, 100, trials=2000, mc_seed=3),
    Request("mc", 5, 60, trials=2000, workers=2, lazy=True, mc_seed=4),
]
FAULTS = {
    Request("exact", 11, 70, route="dp"): exact_off_by_one_over_m_to_n,
    Request("closed", 41, 41**2, precision=128): closed_outside_sandwich,
    Request("closed", 42, 42**2, precision=53): closed_off_inside_sandwich,
    Request("mc", 12, 120, trials=4000, mc_seed=5): mc_mean_shifted_10_sigma,
}
# Not injected: the library's own budget check refuses this one.
REFUSED = Request("exact", 30, 10**7, route="dp")


def kinds_with_faults() -> dict:
    def with_faults(run):
        return lambda req, rec: FAULTS.get(req, run)(req, rec)

    return {kind: (with_faults(run), check) for kind, (run, check) in routes.KINDS.items()}


def problems() -> list:
    faulty = list(FAULTS)
    requests = [CLEAN[0], faulty[0], *CLEAN[1:4], faulty[1], REFUSED,
                *CLEAN[4:6], faulty[2], CLEAN[6], faulty[3], CLEAN[7]]
    rec = spans.Recorder(traced=True)
    kinds = kinds_with_faults()
    outcomes = [client.execute(i, req, rec, kinds) for i, req in enumerate(requests)]
    found = []
    for req, outcome in zip(requests, outcomes):
        should_fail = req in FAULTS or req == REFUSED
        if outcome.failed != should_fail:
            found.append(f"{req}: failed={outcome.failed}, expected {should_fail}")
        if outcome.refused != (req == REFUSED):
            found.append(f"{req}: refused={outcome.refused}")
    if len(outcomes) != len(requests):
        found.append(f"{len(outcomes)} outcomes for {len(requests)} requests")

    request_spans = {span[0]: span for span in rec.spans if span[1] is None}
    if len(request_spans) != len(requests):
        found.append(f"{len(request_spans)} request spans for {len(requests)} requests")
    for span_id, parent, request_id, name, start, end in rec.spans:
        if parent is None:
            continue
        owner = request_spans.get(parent)
        if owner is None or owner[2] != request_id:
            found.append(f"span {name} has parent {parent}, not its request's span")
        elif not owner[4] <= start <= end <= owner[5]:
            found.append(f"span {name} lies outside its request's span")
    calls, _ = rec.self_times()
    if calls["genfun.build_gf"] != 1 or calls["simulate.monte_carlo"] != 3:
        found.append(f"unexpected call counts {dict(calls)}")
    return found


def main() -> int:
    found = problems()
    for line in found:
        print(line)
    print("selftest:", "FAIL" if found else "ok")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
