"""invwalk benchmark: one closed-loop client sending checked requests.

Usage, from the root of a checkout (the library is imported from ``src/``):

    python3 bench/run.py --workload exact-routes --seed 1 --seconds 35 --trace 0

Workloads (see ``workloads.py``): ``exact-routes``, ``spectral-sweep`` and
``monte-carlo``.  Each request makes the library calls of one ``invwalk``
subcommand and is then checked by an independent route (``routes.py``);
a request that raises, ``WorkBudgetError`` included, or whose check
disagrees, counts as failed.

``--trace 0`` measures whole blocks of requests until ``--seconds`` have
passed and at least 100 requests ran, then reports the end-to-end metrics:
set-up time (median of fresh processes, run between blocks every 5
measured seconds), median and p90 request latency with the check
excluded, completed requests per second of busy time (checks included),
and peak RSS.  Request times are scaled to a reference host speed,
sampled through the run (``hostspeed.py``); the raw times are recorded
next to them.

``--trace 1`` reports per-layer metrics instead, in raw seconds.  It runs a
fixed number of blocks, so its work counts repeat exactly for a seed, and
each request twice, back to back in alternating order: untraced, and with
a span around each library call.  The spans are written to ``.bench_out/``
in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the sample counts.  Each failing request is
described on standard error.  ``python3 bench/selftest.py`` checks that
injected faults count as failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BUDGET_ENV = "INVWALK_BUDGET"
SETUP_SAMPLES = 7          # at least
SETUP_INTERVAL_S = 5.0     # measured seconds between set-up samples
TRACE_MIN_REQUESTS = 60     # requests in a traced run, rounded up to whole blocks
PROBE_TIMEOUT_S = 60

# Library functions the benchmark calls; each gets calls and self time.
TRACED_FUNCTIONS = (
    "chain.expected_inversions_dp", "chain.iterate_totals",
    "chain.expected_inversions_float",
    "formulas.eriksen", "formulas.closed_form_info", "formulas.bounds",
    "formulas.aperiodic_expected",
    "genfun.build_gf", "genfun.series", "genfun.pole_check",
    "spectral.build_table", "spectral.verify_identities",
    "simulate.monte_carlo", "asymptotics.predict",
)


def setup_seconds() -> float:
    """Set-up seconds of one fresh process, as measured.

    They are not scaled to the reference host speed, which the kernel
    samples in this process: on exact-routes, two sets of ten runs gave
    scaled medians a third apart and measured ones 4% apart.
    """
    done = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py")],
                          capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import mpmath
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "machine": platform.machine(),
    }


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _p50_p90(values) -> tuple:
    if len(values) < 2:
        return (values[0],) * 2 if values else (0.0, 0.0)
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


def end_to_end(outcomes, setup, host) -> tuple:
    """The end-to-end metrics, request times at the reference host speed, and
    the raw request times."""
    ok = [o for o in outcomes if not o.failed]
    busy = [(o.latency_s + o.check_s, o.start) for o in outcomes]
    scaled_p50, scaled_p90 = _p50_p90([host.scaled(o.latency_s, o.start) for o in ok])
    raw_p50, raw_p90 = _p50_p90([o.latency_s for o in ok])
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "request_s.p50": metric(scaled_p50, "s"),
        "request_s.p90": metric(scaled_p90, "s"),
        "requests_per_s": metric(len(ok) / sum(host.scaled(*b) for b in busy), "1/s"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    raw = {
        "request_s.p50": raw_p50,
        "request_s.p90": raw_p90,
        "requests_per_s": len(ok) / sum(seconds for seconds, _ in busy),
        "host_kernel_s": statistics.median(host.kernels),
    }
    return metrics, raw


def _rate(amount, seconds) -> float:
    return amount / seconds if seconds > 0 else 0.0


def per_layer(rec, outcomes, untraced_wall, traced_wall, import_s, host) -> dict:
    """Per-layer metrics of the traced pass, in raw seconds.

    ``bench.host_kernel_s`` gives the host speed they were taken at.
    """
    calls, self_s = rec.self_times()
    counts = rec.counts
    out = {}
    for name in TRACED_FUNCTIONS:
        out[f"{name}.calls"] = metric(calls[name], "count")
        out[f"{name}.self_s"] = metric(self_s[name], "s")
    # Exact DP sweeps run through chain directly and inside aperiodic_expected,
    # the reference of lazy Monte Carlo requests; cell updates count both.
    exact_s = sum(self_s[f] for f in ("chain.expected_inversions_dp", "chain.iterate_totals",
                                      "formulas.aperiodic_expected"))
    evaluations = counts["formulas.closed_form.evaluations"]
    attempted = len(outcomes)
    out.update({
        "chain.exact_cell_updates": metric(counts["chain.exact_cell_updates"], "count"),
        "chain.exact_cell_updates_per_s": metric(
            _rate(counts["chain.exact_cell_updates"], exact_s), "1/s"),
        "chain.float_cell_updates": metric(counts["chain.float_cell_updates"], "count"),
        "chain.float_cell_updates_per_s": metric(
            _rate(counts["chain.float_cell_updates"], self_s["chain.expected_inversions_float"]), "1/s"),
        "formulas.closed_form.terms": metric(counts["formulas.closed_form.terms"], "count"),
        "formulas.closed_form.terms_per_s": metric(
            _rate(counts["formulas.closed_form.terms"], self_s["formulas.closed_form_info"]), "1/s"),
        "formulas.closed_form.saturated_frac": metric(
            counts["formulas.closed_form.saturated"] / evaluations if evaluations else 0.0, "ratio"),
        "genfun.build_gf.dim_sum": metric(counts["genfun.build_gf.dim_sum"], "count"),
        "simulate.trial_steps": metric(counts["simulate.trial_steps"], "count"),
        "simulate.trial_steps_per_s": metric(
            _rate(counts["simulate.trial_steps"], self_s["simulate.monte_carlo"]), "1/s"),
        "simulate.max_abs_z": metric(rec.maxima.get("simulate.max_abs_z", 0.0), "sigma"),
        "budget.refusals": metric(sum(o.refused for o in outcomes), "count"),
        "cli.import_s": metric(import_s, "s"),
        "bench.requests": metric(attempted, "count"),
        "bench.failed_frac": metric(sum(o.failed for o in outcomes) / attempted, "ratio"),
        "bench.check_s": metric(sum(o.check_s for o in outcomes), "s"),
        "bench.trace_overhead_frac": metric(traced_wall / untraced_wall - 1, "ratio"),
        "bench.host_kernel_s": metric(statistics.median(host.kernels), "s"),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact-routes", "spectral-sweep", "monte-carlo"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "invwalk" / "__init__.py").is_file():
        print(f"error: no invwalk package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # A user's override must not change which requests the budget admits.
    budget_override = os.environ.pop(BUDGET_ENV, None)

    host = hostspeed.HostSpeed()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import invwalk.cli  # noqa: F401
    import_s = time.perf_counter() - start
    import client
    import routes
    import spans
    import workloads

    routes.warm_up()
    nproc = len(os.sched_getaffinity(0))
    source = workloads.blocks(args.workload, args.seed, nproc)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": environment(),
            "cleared_budget_override": budget_override}

    if args.trace:
        plain, rec = spans.Recorder(traced=False), spans.Recorder(traced=True)
        requests, passes = client.measure_traced(source, TRACE_MIN_REQUESTS, plain, rec, host)
        (untraced, untraced_wall), (outcomes, wall) = passes[plain], passes[rec]
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        rec.write(spans_file)
        info["spans_file"] = str(spans_file.relative_to(ROOT))
        metrics = per_layer(rec, outcomes, untraced_wall, wall, import_s, host)
        outcomes = untraced + outcomes
    else:
        # Set-up is sampled through the run, so it sees the same host as the requests.
        setup = []

        def sample_setup_if_due(wall):
            if wall >= len(setup) * SETUP_INTERVAL_S:
                setup.append(setup_seconds())

        requests, outcomes, wall = client.measure_for(
            source, args.seconds, spans.Recorder(traced=False), host, sample_setup_if_due)
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_seconds())
        info["setup_samples_s"] = setup
        metrics, info["raw"] = end_to_end(outcomes, setup, host)

    failed = sum(o.failed for o in outcomes)
    info.update({"attempted": len(outcomes), "latency_samples": len(outcomes) - failed,
                 "failed": failed, "refused": sum(o.refused for o in outcomes),
                 "measured_wall_s": wall,
                 "kinds": {k: sum(r.kind == k for r in requests)
                           for k in sorted({r.kind for r in requests})}})
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
