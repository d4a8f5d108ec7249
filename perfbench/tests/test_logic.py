"""Tests of the benchmark's own logic (no service or simulation runs).

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from harness import Outcome, TooFewSamples, percentile
from spans import Spans
from traffic import (CANARIES, Arrival, Observed, OpenLoop, Phase, body_key,
                     make_schedule, payload_digest)
from wl_ensemble import series_digest
from wl_scenario import ladder_goodput, phases, trace_overhead, verify

PLAN = [Phase("light", 4.0, 10.0), Phase("heavy", 12.0, 5.0)]


def test_schedule_is_a_function_of_the_seed():
    a, b = make_schedule(3, PLAN), make_schedule(3, PLAN)
    assert a == b
    assert make_schedule(4, PLAN).arrivals != a.arrivals


def test_schedule_counts_mix_and_canaries():
    traffic = make_schedule(9, PLAN)
    light = [x for x in traffic.arrivals if x.phase == "light"]
    heavy = [x for x in traffic.arrivals if x.phase == "heavy"]
    assert len(light) == 40 and len(heavy) == 60
    assert sum(x.kind == "repeat" for x in light) == 28
    assert all(0.0 <= x.due_s < 10.0 for x in light)
    assert all(10.0 <= x.due_s < 15.0 for x in heavy)
    dues = [x.due_s for x in traffic.arrivals]
    assert dues == sorted(dues)
    canaries = [x.canary for x in traffic.arrivals if x.canary is not None]
    assert canaries == list(range(len(CANARIES)))
    catalogue = {body_key(b) for b in traffic.catalogue}
    for x in traffic.arrivals:
        assert (body_key(x.body) in catalogue) == (x.kind == "repeat")


def test_percentile_reports_count_and_needs_ten_beyond():
    p = percentile(range(1, 101), 90)
    assert (p.value, p.n, p.beyond) == (90.0, 100, 10)
    with pytest.raises(TooFewSamples):
        percentile(range(1, 100), 90)
    p50 = percentile(range(20), 50)
    assert p50.n == 20 and p50.beyond == 10
    with pytest.raises(TooFewSamples):
        percentile(range(19), 50)
    with pytest.raises(TooFewSamples):
        percentile([], 50)


def _observed(i: int, phase: str, due: float, latency: float | None,
              state: str = "done", kind: str = "novel") -> Observed:
    body = {"region": "VA", "seed": i}
    o = Observed(Arrival(i, phase, due, kind, body), due=due, sent=due,
                 admitted=due, state=state, rid=f"s{i % 2}-r{i:06d}")
    if latency is not None:
        o.done = due + latency
        o.total_s = latency
    return o


def test_refused_and_timed_out_requests_fail_and_miss_the_limit():
    refused = _observed(0, "heavy", 0.0, None, state="refused")
    timed_out = _observed(1, "heavy", 0.0, None, state="timeout")
    for o in (refused, timed_out):
        assert not o.ok
        assert math.isinf(o.latency_s)
        assert o.finished is None
    # A rung whose fast answers are interleaved with 15% refusals misses
    # the limit, so the ladder credits no goodput to it.
    rung = Phase("heavy", 10.0, 10.0)
    results = [_observed(i, "heavy", i * 0.1, 0.05) for i in range(100)]
    for o in results[::7]:
        o.state, o.done = "refused", None
    out = Outcome("t", 0)
    assert ladder_goodput(out, results, [rung]) == 0.0
    assert out.detail["ladder.heavy.p90_ms"][0] == math.inf
    healthy = [_observed(i, "heavy", i * 0.1, 0.05) for i in range(100)]
    assert ladder_goodput(Outcome("t", 0), healthy, [rung]) > 9.0


def test_corrupted_payload_is_caught():
    answer = {"confirmed": [0.0, 1.25, 2.5], "attack_rate": [0.1]}
    good = payload_digest(answer)
    corrupt = payload_digest({**answer, "confirmed": [0.0, 1.25, 2.51]})
    assert good != corrupt
    repeat = _observed(0, "light", 0.0, 0.01, kind="repeat")
    repeat.digest = corrupt
    canary = _observed(1, "light", 0.0, 0.2)
    canary.arrival = Arrival(1, "light", 0.0, "novel", CANARIES[0], 0)
    canary.digest = corrupt
    first = {body_key(repeat.arrival.body): good}
    assert verify([repeat, canary], first, [good]) == (1, 1)
    assert not repeat.ok and not canary.ok
    series = np.linspace(0.0, 10.0, 11)
    bad = series.copy()
    bad[5] += 1e-12
    assert series_digest(series) != series_digest(bad)


@pytest.mark.parametrize("traced", [False, True])
def test_phases_cover_the_run(traced):
    plan = phases(30.0, traced)
    assert sum(p.duration_s for p in plan) == pytest.approx(30.0)
    assert [p.rate for p in plan] == sorted(p.rate for p in plan)
    assert plan[0].name == "light" and plan[-1].name == "saturation"
    assert ("heavy" in [p.name for p in plan]) == traced


def test_spans_self_time_excludes_children():
    spans = Spans(True)
    spans.add("a.outer", 0.0, 10.0)
    outer = spans.records[0].sid
    spans.add("b.inner", 2.0, 5.0, parent=outer)
    spans.add("b.inner", 4.0, 6.0, parent=outer)
    self_s = spans.self_times()
    assert self_s["a.outer"] == pytest.approx(6.0)
    assert self_s["b.inner"] == pytest.approx(5.0)
    off = Spans(False)
    with off.span("x"):
        pass
    assert off.records == []


def test_trace_overhead_within_noise_is_unresolved():
    loop = OpenLoop("127.0.0.1", 0, [], Spans(True), timeout_s=15.0,
                    parity=1)
    # The untraced (even) requests' two alternate halves read 10 and
    # 12 ms; traced (odd) ones read 11.5 ms, 5% over the untraced median
    # of 11 ms, which is less than the 17% between the untraced halves.
    noisy = [_observed(i, "light", 0.0,
                       0.0115 if i % 2 else (0.010 if i % 4 == 0 else 0.012),
                       kind="repeat") for i in range(80)]
    out = Outcome("t", 0)
    trace_overhead(out, loop, noisy)
    assert out.facts["obs.trace_overhead"].startswith("unresolved")
    assert out.layer["obs.trace_overhead"] == 0.0
    slowed = [_observed(i, "light", 0.0, 0.02 * (2 if i % 2 else 1),
                        kind="repeat") for i in range(80)]
    out = Outcome("t", 0)
    trace_overhead(out, loop, slowed)
    assert out.facts["obs.trace_overhead"] == "resolved"
    assert out.layer["obs.trace_overhead"] == pytest.approx(1.0)
