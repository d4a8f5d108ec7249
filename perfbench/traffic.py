"""Open-loop scenario traffic: the seeded schedule and its generator.

Analysts are independent users, so arrivals do not wait for replies: a
request is sent when it is due whether or not earlier ones have
finished, and its latency runs from when it was due to when the
generator first observes it in a terminal state.  The generator is one
process with two load threads: a sender that follows the schedule and a
poller that watches admitted requests.  Each HTTP call opens its own
connection, as the program's own ``ServiceClient`` does.
"""

from __future__ import annotations

import hashlib
import heapq
import http.client
import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from spans import Spans

#: Scenario shape every request shares.
DAYS = 60
SCALE = 1e-2
ASSET_SEED = 20200325  #: pinned: the population is built once per region
REGIONS = ("VA", "MD")

#: Region of every novel scenario.  The hot catalogue spans
#: :data:`REGIONS`; novel work stays in one region so that latency
#: percentiles do not straddle the gap between two regions' run times.
NOVEL_REGION = "VA"

#: Traffic mix.
REPEAT_SHARE = 0.7
ZIPF_A = 1.5
CATALOGUE_SIZE = 12

#: Poll schedule: a request is first polled ``POLL_FIRST_S`` after its
#: admission, then every ``POLL_STEPS`` interval that applies to its age
#: (``(max_age_s, interval_s)`` pairs), then every ``POLL_AGE_SHARE`` of
#: its age, capped at ``POLL_MAX_S`` so a deep backlog does not flood the
#: service with polls.
POLL_FIRST_S = 0.001
POLL_STEPS = ((0.015, 0.001), (0.5, 0.020))
POLL_AGE_SHARE = 0.1
POLL_MAX_S = 0.25


def poll_interval(age_s: float) -> float:
    for max_age, step in POLL_STEPS:
        if age_s < max_age:
            return step
    return min(POLL_MAX_S, POLL_AGE_SHARE * age_s)


def describe_polls() -> str:
    steps = ", ".join(f"every {1e3 * step:g} ms to {1e3 * age:g} ms"
                      for age, step in POLL_STEPS)
    return (f"first {1e3 * POLL_FIRST_S:g} ms after admission, {steps}, "
            f"then {POLL_AGE_SHARE:g} x age (at most {1e3 * POLL_MAX_S:g} "
            f"ms)")


TERMINAL = ("done", "failed", "cancelled")

#: Seconds one HTTP call of the generator may take.
HTTP_TIMEOUT_S = 10.0


def scenario(region: str, tau: float, sh: float, seed: int) -> dict:
    return {"region": region,
            "params": {"TAU": round(float(tau), 4),
                       "SH_COMPLIANCE": round(float(sh), 4)},
            "days": DAYS, "scale": SCALE, "seed": int(seed),
            "asset_seed": ASSET_SEED}


#: Seed-independent novel scenarios whose payload digests are committed.
CANARIES: tuple[dict, ...] = tuple(
    scenario(NOVEL_REGION, tau, sh, seed)
    for tau, sh, seed in ((0.2, 0.5, 11), (0.24, 0.4, 12),
                          (0.16, 0.7, 13), (0.28, 0.6, 14)))


#: Transmissibility and stay-at-home compliance levels fresh scenarios
#: cycle through (with a small drawn jitter).  Their cost depends on
#: both, so cycling rather than drawing keeps the work of each phase
#: nearly the same from seed to seed; the simulation seed is drawn.
TAU_LEVELS = (0.14, 0.18, 0.22, 0.26)
SH_LEVELS = (0.35, 0.55, 0.75)


def _fresh(rng: np.random.Generator, k: int, region: str) -> dict:
    """The ``k``-th fresh scenario of a run."""
    tau = TAU_LEVELS[k % len(TAU_LEVELS)]
    sh = SH_LEVELS[(k // len(TAU_LEVELS)) % len(SH_LEVELS)]
    return scenario(region, tau + rng.uniform(-0.01, 0.01),
                    sh + rng.uniform(-0.05, 0.05),
                    int(rng.integers(1_000, 2**31 - 1)))


@dataclass(frozen=True)
class Phase:
    name: str
    rate: float  #: arrivals per second
    duration_s: float


@dataclass(frozen=True)
class Arrival:
    index: int
    phase: str
    due_s: float  #: offset from the start of the traffic
    kind: str  #: "repeat" (from the hot catalogue) or "novel"
    body: dict
    canary: int | None = None  #: index into :data:`CANARIES`


@dataclass(frozen=True)
class Traffic:
    """The hot catalogue (sent once before timing starts) and arrivals."""

    catalogue: list[dict]
    arrivals: list[Arrival]


def make_schedule(seed: int, phases: list[Phase]) -> Traffic:
    """The run's traffic, a pure function of ``seed`` and ``phases``.

    Each phase holds exactly ``round(rate * duration)`` arrivals at
    uniformly drawn instants (a Poisson process conditioned on its
    count).  ``REPEAT_SHARE`` of them repeat a Zipf-weighted draw from
    the hot catalogue, which the run sends once before timing starts;
    the rest are novel scenarios sent once.  The first novel arrivals
    of the first phase are the committed canaries.
    """
    rng = np.random.default_rng([seed, 7])
    catalogue = [_fresh(rng, k // len(REGIONS), REGIONS[k % len(REGIONS)])
                 for k in range(CATALOGUE_SIZE)]
    fresh = 0
    weights = 1.0 / np.arange(1, CATALOGUE_SIZE + 1) ** ZIPF_A
    weights /= weights.sum()
    out: list[Arrival] = []
    start = 0.0
    canaries = deque(range(len(CANARIES)))
    for phase in phases:
        n = int(round(phase.rate * phase.duration_s))
        times = np.sort(rng.uniform(0.0, phase.duration_s, n))
        hot = np.zeros(n, dtype=bool)
        hot[rng.permutation(n)[:int(round(REPEAT_SHARE * n))]] = True
        for t, is_hot in zip(times, hot):
            canary = None
            if is_hot:
                kind = "repeat"
                body = catalogue[int(rng.choice(CATALOGUE_SIZE, p=weights))]
            else:
                kind = "novel"
                if canaries:
                    canary = canaries.popleft()
                    body = CANARIES[canary]
                else:
                    body = _fresh(rng, fresh, NOVEL_REGION)
                    fresh += 1
            out.append(Arrival(len(out), phase.name, start + float(t), kind,
                               body, canary))
        start += phase.duration_s
    return Traffic(catalogue, out)


def body_key(body: dict) -> str:
    return json.dumps(body, sort_keys=True)


def payload_digest(result: dict) -> str:
    """Digest of a result payload exactly as the API returned it."""
    return hashlib.sha256(
        json.dumps(result, sort_keys=True).encode()).hexdigest()


@dataclass
class Observed:
    """What the generator saw of one arrival (times on perf_counter)."""

    arrival: Arrival
    due: float
    sent: float = 0.0
    admitted: float = 0.0
    done: float | None = None
    state: str = "unsent"
    rid: str | None = None
    error: str | None = None
    digest: str | None = None
    wait_s: float | None = None
    total_s: float | None = None
    coalesced: bool = False

    @property
    def ok(self) -> bool:
        return self.state == "done"

    @property
    def finished(self) -> float | None:
        """When the service says the request finished: the send time plus
        its server-measured submit-to-terminal time.  Unlike ``done`` this
        carries no polling delay."""
        if not self.ok or self.total_s is None:
            return None
        return self.sent + self.total_s

    @property
    def latency_s(self) -> float:
        """Due to observed-terminal; infinite when refused or timed out."""
        if not self.ok or self.done is None:
            return float("inf")
        return self.done - self.due


def http_json(host: str, port: int, method: str, path: str,
              body: dict | None = None) -> tuple[int, dict]:
    """One call on its own connection, returning the raw status code
    (the generator counts refusals by it)."""
    conn = http.client.HTTPConnection(host, port, timeout=HTTP_TIMEOUT_S)
    try:
        data = None if body is None else json.dumps(body).encode()
        conn.request(method, path, body=data,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        raw = resp.read()
        return resp.status, json.loads(raw or b"{}")
    finally:
        conn.close()


@dataclass
class OpenLoop:
    """Drive one schedule against ``host:port`` and record every request."""

    host: str
    port: int
    schedule: list[Arrival]
    spans: Spans
    timeout_s: float  #: a request not terminal this long after due failed
    parity: int  #: in a traced run, requests of this index parity are traced
    results: list[Observed] = field(default_factory=list)
    lag_s: list[float] = field(default_factory=list)

    def traced(self, arrival: Arrival) -> bool:
        """Whether ``arrival``'s calls are recorded as spans.  A traced
        run records every other request, so the untraced half measures
        what recording costs; the run's seed picks which half starts."""
        return self.spans.enabled and arrival.index % 2 == self.parity

    def _span(self, name: str, start: float, end: float,
              obs: Observed) -> None:
        if self.traced(obs.arrival):
            self.spans.add(name, start, end, rid=str(obs.arrival.index),
                           parent=self._parent)

    def run(self) -> list[Observed]:
        self._parent = self.spans.current()
        t0 = time.perf_counter() + 0.05
        self.results = [Observed(a, t0 + a.due_s) for a in self.schedule]
        self._pending: list[tuple[float, int]] = []
        self._cv = threading.Condition()
        self._sending = True
        poller = threading.Thread(target=self._poll_loop, daemon=True,
                                  name="bench-poller")
        poller.start()
        try:
            self._send_loop()
        finally:
            with self._cv:
                self._sending = False
                self._cv.notify()
            poller.join(self.timeout_s + 30.0)
        if poller.is_alive():
            raise RuntimeError("poller did not finish")
        return self.results

    def _send_loop(self) -> None:
        for obs in self.results:
            delay = obs.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            obs.sent = time.perf_counter()
            self.lag_s.append(obs.sent - obs.due)
            try:
                status, payload = http_json(self.host, self.port, "POST",
                                            "/v1/scenarios", obs.arrival.body)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                status, payload = 0, {"error": {"code": "transport",
                                                "message": str(exc)}}
            obs.admitted = time.perf_counter()
            self._span("api.submit", obs.sent, obs.admitted, obs)
            if status != 202:
                err = payload.get("error", {})
                obs.state = "refused"
                obs.error = f"{status} {err.get('code', '')}".strip()
                continue
            obs.rid = payload["id"]
            obs.state = "admitted"
            with self._cv:
                heapq.heappush(self._pending,
                               (obs.admitted + POLL_FIRST_S,
                                obs.arrival.index))
                self._cv.notify()

    def _poll_loop(self) -> None:
        while True:
            with self._cv:
                while not self._pending and self._sending:
                    self._cv.wait(0.05)
                if not self._pending:
                    return
                when, index = heapq.heappop(self._pending)
            delay = when - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            obs = self.results[index]
            t_call = time.perf_counter()
            try:
                status, view = http_json(self.host, self.port, "GET",
                                         f"/v1/scenarios/{obs.rid}")
            except (OSError, http.client.HTTPException, ValueError) as exc:
                status, view = 0, {"error": {"message": str(exc)}}
            t_seen = time.perf_counter()
            self._span("api.poll", t_call, t_seen, obs)
            state = view.get("state") if status == 200 else None
            if state in TERMINAL:
                obs.done = t_seen
                obs.state = state
                obs.wait_s = view.get("wait_s")
                obs.total_s = view.get("total_s")
                obs.coalesced = bool(view.get("coalesced"))
                if state == "done" and "result" in view:
                    obs.digest = payload_digest(view["result"])
                else:
                    obs.error = str(view.get("error"))
                continue
            if t_seen - obs.due > self.timeout_s:
                obs.state = "timeout"
                obs.error = f"not terminal after {self.timeout_s:.0f}s"
                continue
            step = poll_interval(t_seen - obs.admitted)
            with self._cv:
                heapq.heappush(self._pending, (t_seen + step, index))
