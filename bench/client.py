"""The closed-loop client: one request at a time, each checked after it returns."""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass

from invwalk.budget import WorkBudgetError

from routes import KINDS, CheckFailed

MIN_REQUESTS = 100  # p90 then has at least 10 samples beyond it


@dataclass(frozen=True)
class Outcome:
    start: float      # perf_counter when the request was sent
    latency_s: float  # the request's library calls, check excluded
    check_s: float
    failed: bool
    refused: bool     # failed with WorkBudgetError


def _report(what: str, req, detail: str) -> None:
    print(f"{what} {req}: {detail}", file=sys.stderr)


def execute(request_id: int, req, rec, kinds=KINDS) -> Outcome:
    """Run one request, then its check.  A failing request never stops the run."""
    run, check = kinds[req.kind]
    failed = refused = False
    with rec.request(request_id, req.kind):
        start = time.perf_counter()
        try:
            result = run(req, rec)
        except WorkBudgetError as exc:
            failed = refused = True
            _report("refused", req, str(exc))
        except Exception:
            failed = True
            _report("raised", req, traceback.format_exc())
        ran = time.perf_counter()
        if not failed:
            try:
                check(req, result, rec)
            except CheckFailed as exc:
                failed = True
                _report("check failed", req, str(exc))
            except WorkBudgetError as exc:
                failed = refused = True
                _report("check refused", req, str(exc))
            except Exception:
                failed = True
                _report("check raised", req, traceback.format_exc())
        checked = time.perf_counter()
    return Outcome(start, ran - start, checked - ran, failed, refused)


def measure_for(block_source, seconds: float, rec, host, after_block):
    """Whole blocks until ``seconds`` of them have passed and MIN_REQUESTS ran.

    ``host`` is sampled before and after each request.  ``after_block(wall)``
    is called after each block with the measured seconds so far; its own
    time is not measured.  Returns (requests, outcomes, wall seconds of the
    blocks).
    """
    requests, outcomes = [], []
    wall = 0.0
    while True:
        start = time.perf_counter()
        host.sample()
        for req in next(block_source):
            outcomes.append(execute(len(requests), req, rec))
            requests.append(req)
            host.sample()
        wall += time.perf_counter() - start
        after_block(wall)
        if wall >= seconds and len(requests) >= MIN_REQUESTS:
            return requests, outcomes, wall


def measure_traced(block_source, min_requests: int, plain, traced, host):
    """Whole blocks until ``min_requests`` ran, each request once per recorder.

    The two runs of a request follow each other, in alternating order, so
    drift in machine speed and caches warmed by the first run weigh on both
    alike.  ``host`` is sampled before each block.  Returns (requests,
    {recorder: (outcomes, wall seconds)}).
    """
    requests = []
    outcomes = {plain: [], traced: []}
    walls = {plain: 0.0, traced: 0.0}
    while len(requests) < min_requests:
        host.sample()
        for req in next(block_source):
            request_id = len(requests)
            for rec in (plain, traced) if request_id % 2 == 0 else (traced, plain):
                start = time.perf_counter()
                outcomes[rec].append(execute(request_id, req, rec))
                walls[rec] += time.perf_counter() - start
            requests.append(req)
    return requests, {rec: (outcomes[rec], walls[rec]) for rec in (plain, traced)}
