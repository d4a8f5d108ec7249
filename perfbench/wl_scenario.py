"""Workload ``scenario_http``: what-if analysts on the ``/v1`` HTTP API.

Why: repeats exercise the router, queue, broker and store reads; novel
scenarios exercise the kernel and store writes, so a gain on one path
that costs the other shows.  The shared-memory plane is on here (and off
in ``ensemble``), so a plane change has a workload that uses it and one
that bypasses it.

Shape: ``repro serve --shards 2 --serial --plane`` as a subprocess tree,
warmed (every shard has loaded VA and MD) and primed (the hot catalogue
sent once), then an open loop of Poisson arrivals in phases at rising
rates: light and saturation, with a heavy phase between them in a traced
run.  Needs ``--seconds`` of at least 30 for every percentile to have
ten samples beyond it.
"""

from __future__ import annotations

import os
import shutil
import time

from harness import (BenchError, Outcome, TreeSampler, WORK, fresh_dir,
                     median, percentile)
from fleet import HOST, client, prime, region_sizes, start_fleet, warm
from refs import load_refs
from spans import Spans
from traffic import (CANARIES, CATALOGUE_SIZE, NOVEL_REGION, REPEAT_SHARE,
                     SCALE, ZIPF_A, OpenLoop, Phase, body_key, describe_polls,
                     make_schedule)

#: Offered rates (requests per second).  On a 2-core host the fleet
#: completes about 20 requests per second of this mix: light is a fifth
#: of that, heavy about three fifths (at the knee for a 1 s p90), and
#: saturation is above it, so the fleet runs flat out and its completion
#: rate is its capacity.
LIGHT_RPS = 4.0
HEAVY_RPS = 12.0
SATURATION_RPS = 26.0

#: A ladder rung (the heavy and saturation phases) meets the objective
#: when its all-request p90 is within this limit and its backlog does not
#: grow.
LIMIT_S = 1.0

#: Share of ``--seconds`` each phase gets in a traced run: light, heavy,
#: saturation.
PHASE_SHARES = (0.55, 0.3, 0.15)

#: Share of ``--seconds`` each phase gets in an untraced run: light and
#: saturation.  The end-to-end metrics are read from these two phases
#: only, so they get the whole run: the longer each is, the less a host's
#: slow spell moves its median.
PLAIN_SHARES = (0.75, 0.25)

#: A request not terminal this long after it was due has failed.
TIMEOUT_S = 15.0


def phases(seconds: float, traced: bool) -> list[Phase]:
    """The rate phases of a run, in rising order.

    The heavy phase feeds per-layer metrics only (its p90 and the
    goodput ladder), so only a traced run has one.
    """
    if not traced:
        light, saturation = (seconds * share for share in PLAIN_SHARES)
        return [Phase("light", LIGHT_RPS, light),
                Phase("saturation", SATURATION_RPS, saturation)]
    light, heavy, saturation = (seconds * share for share in PHASE_SHARES)
    return [Phase("light", LIGHT_RPS, light),
            Phase("heavy", HEAVY_RPS, heavy),
            Phase("saturation", SATURATION_RPS, saturation)]


def backlog_growth(results, phase: str) -> int:
    """Growth of ``phase``'s outstanding requests (due, not yet observed
    terminal) from a third of the way in to its last arrival."""
    due = [o for o in results if o.arrival.phase == phase]
    t0 = min(o.due for o in due)
    t1 = max(o.due for o in due)

    def outstanding(t: float) -> int:
        return sum(1 for o in due if o.due <= t
                   and (o.done is None or o.done > t))

    return outstanding(t1) - outstanding(t0 + (t1 - t0) / 3.0)


def verify(results, first: dict[str, str],
           canaries: list[str]) -> tuple[int, int]:
    """Mark answers that differ from their reference as failed.

    A repeat must be byte-identical to the first answer to the same
    scenario (``first``, from priming); a canary must match its committed
    digest.  Returns the number of bad repeats and bad canaries.
    """
    bad_repeat = bad_canary = 0
    for o in results:
        if not o.ok:
            continue
        if o.arrival.kind == "repeat":
            if o.digest != first.get(body_key(o.arrival.body)):
                o.state, bad_repeat = "mismatch", bad_repeat + 1
        elif o.arrival.canary is not None:
            if (o.arrival.canary >= len(canaries)
                    or o.digest != canaries[o.arrival.canary]):
                o.state, bad_canary = "mismatch", bad_canary + 1
    return bad_repeat, bad_canary


def ladder_goodput(out: Outcome, results, rungs: list[Phase]) -> float:
    """Completion rate of the highest rung that meets the objective.

    The rungs are the heavy and saturation phases, in rising order; a
    rung meets the objective when its all-request p90 is within
    ``LIMIT_S`` and its backlog does not grow.  0 when none does.
    """
    goodput = 0.0
    for rung in rungs:
        obs = [o for o in results if o.arrival.phase == rung.name]
        p90 = percentile([o.latency_s * 1e3 for o in obs], 90)
        growth = backlog_growth(results, rung.name)
        out.note(f"ladder.{rung.name}.p90_ms", p90.value, "ms")
        out.note(f"ladder.{rung.name}.backlog_growth", growth, "count")
        if p90.value > LIMIT_S * 1e3 or growth > max(3, rung.rate * LIMIT_S):
            break
        done = [o for o in obs if o.ok]
        goodput = len(done) / (max(o.done for o in done)
                               - min(o.due for o in done))
    return goodput


def saturation_capacity(sat: list) -> float:
    """Requests per second the fleet completes while saturated.

    Each shard's span runs from the first saturation arrival to the last
    request it finished (server-measured, so free of polling delay).
    Keys hash to shards unevenly, so the fleet's rate is the completed
    count over the *mean* shard span: the capacity of a balanced fleet,
    which does not move when a code change reshuffles the key hash.
    """
    start = min(o.due for o in sat)
    last: dict[str, float] = {}
    for o in sat:
        if o.finished is not None:
            shard = o.rid.split("-", 1)[0]
            last[shard] = max(last.get(shard, start), o.finished)
    n = sum(1 for o in sat if o.finished is not None)
    return n / (sum(t - start for t in last.values()) / len(last))


MIN_SECONDS = 30.0


def run(seed: int, seconds: float, spans: Spans) -> Outcome:
    if seconds < MIN_SECONDS:
        raise BenchError(f"scenario_http needs --seconds >= {MIN_SECONDS:g}")
    out = Outcome("scenario_http", seed)
    refs = load_refs("scenario_http")
    plan = phases(seconds, spans.enabled)
    traffic = make_schedule(seed, plan)
    workdir = fresh_dir(WORK / f"scenario-{os.getpid()}")
    sampler = TreeSampler([os.getpid()]).start()
    t_setup = time.perf_counter()
    with spans.span("service.fleet_start"):
        fleet = start_fleet(workdir)
    try:
        sampler.roots.append(fleet.proc.pid)
        with spans.span("service.warm"):
            warm(fleet)
        setup_s = time.perf_counter() - t_setup
        sizes = region_sizes(fleet)
        t_prime = time.perf_counter()
        with spans.span("service.prime"):
            first = prime(fleet.port, traffic.catalogue)
        out.note("scenario.prime_s", time.perf_counter() - t_prime, "s")
        before = client(fleet.port).metrics()
        loop = OpenLoop(HOST, fleet.port, traffic.arrivals, spans,
                        timeout_s=TIMEOUT_S, parity=seed % 2)
        with spans.span("client.open_loop"):
            results = loop.run()
        after = client(fleet.port).metrics()
        if spans.enabled:
            layer_probes(out, fleet, spans, traffic.catalogue[0])
    finally:
        fleet.stop()
        sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    # -- correctness ---------------------------------------------------------
    bad_repeat, bad_canary = verify(results, first, refs.get("canaries", []))
    n_canary = sum(1 for o in results if o.arrival.canary is not None)
    out.check("repeats byte-identical to their first answer",
              bad_repeat == 0, f"({bad_repeat} differ)")
    out.check("canary payloads match committed digests",
              bad_canary == 0 and n_canary == len(CANARIES),
              f"({n_canary - bad_canary}/{len(CANARIES)})")

    out.attempted = len(results)
    out.failed = sum(1 for o in results if not o.ok)

    # -- end-to-end ----------------------------------------------------------
    def of(phase: str, kind: str | None = None) -> list:
        return [o for o in results if o.arrival.phase == phase
                and (kind is None or o.arrival.kind == kind)]

    def lat_ms(obs: list) -> list[float]:
        return [o.latency_s * 1e3 for o in obs]

    capacity = saturation_capacity(of("saturation"))
    novel = percentile(lat_ms(of("light", "novel")), 50)
    repeat = percentile(lat_ms(of("light", "repeat")), 50)
    out.put("setup_s", setup_s, "s")
    out.put("peak_rss_mb", sampler.peak_rss_mb(), "MB")
    out.put("throughput_per_s", capacity, "1/s")
    out.put("latency_ms", novel.value, "ms")
    lag = [x * 1e3 for x in loop.lag_s]
    named = [("scenario.novel_p50_ms", novel),
             ("scenario.repeat_p50_ms", repeat)]
    if spans.enabled:
        named.append(("scenario.p90_ms.heavy",
                      percentile(lat_ms(of("heavy")), 90)))
        goodput = ladder_goodput(out, results, plan[1:])
        out.note("scenario.goodput_rps", goodput, "1/s")
        out.layer["scenario.goodput_rps"] = goodput
    for name, value in named:
        out.note(name, value.value, "ms")
        out.note(name + ".n", value.n, "count")
        out.layer[name] = value.value
    out.note("scenario.capacity_rps", capacity, "1/s")
    out.note("client.lag_ms.max", max(lag), "ms")
    out.facts.update({
        "rates_rps": {p.name: p.rate for p in plan},
        "phase_s": {p.name: round(p.duration_s, 2) for p in plan},
        "limit_s": LIMIT_S,
        "poll_schedule": describe_polls(),
        "scale": SCALE,
        "nodes_edges": sizes,
        "mix": f"{REPEAT_SHARE:.0%} repeats over {CATALOGUE_SIZE} hot "
               f"scenarios (Zipf a={ZIPF_A}), novel ones in {NOVEL_REGION}",
    })

    # -- per-layer -------------------------------------------------------------
    delta = {k: v - before.get(k, 0) for k, v in after.items()
             if isinstance(v, (int, float))}
    waits = [o.wait_s * 1e3 for o in results if o.wait_s is not None]
    execs = [(o.total_s - o.wait_s) * 1e3 for o in results
             if o.total_s is not None and o.wait_s is not None]
    layer = out.layer
    layer["service.wait_ms.p50"] = percentile(waits, 50).value
    layer["service.wait_ms.p90"] = percentile(waits, 90).value
    layer["service.exec_ms"] = median(execs)
    layer["service.coalesced_share"] = (
        sum(o.coalesced for o in results) / len(results))
    layer["service.rejected"] = sum(1 for o in results
                                    if o.state == "refused")
    layer["service.backlog_max"] = max_outstanding(results)
    layer["client.lag_ms"] = median(lag)
    hits, misses = delta.get("memo.hits", 0), delta.get("memo.misses", 0)
    layer["memo.hit_share"] = hits / max(1, hits + misses)
    layer["assets.cache.misses"] = delta.get("assets.cache.misses", 0)
    layer["engine.transitions"] = delta.get("engine.transitions", 0)
    layer["engine.contacts_evaluated"] = delta.get(
        "engine.contacts_evaluated", 0)
    for name in ("plane.built", "plane.attached", "plane.bytes"):
        layer[name] = after.get(name, 0)
    layer["runner.assets_s"] = delta.get("runner.assets_s", 0.0)
    sim_s = delta.get("runner.simulate_s", 0.0)
    for name in ("transmission", "progression", "interventions"):
        if sim_s:
            layer[f"epihiper.{name}_share"] = (
                delta.get(f"engine.{name}_s", 0.0) / sim_s)
    if delta.get("engine.transmission_s"):
        layer["epihiper.contacts_per_s"] = (
            delta.get("engine.contacts_evaluated", 0)
            / delta["engine.transmission_s"])
    if spans.enabled:
        trace_overhead(out, loop, of("light", "repeat"))
    return out


def trace_overhead(out: Outcome, loop: OpenLoop, repeats: list) -> None:
    """Latency of the traced over the untraced light-phase repeats.

    The noise floor is the same ratio between the two alternate halves
    of the untraced repeats.  When the traced/untraced difference is
    within it, tracing cost cannot be told from noise: the metric reads 0
    and the run's facts say it is unresolved.
    """
    traced = [o.latency_s for o in repeats if loop.traced(o.arrival)]
    plain = [o.latency_s for o in repeats if not loop.traced(o.arrival)]
    overhead = median(traced) / median(plain) - 1
    noise = abs(median(plain[0::2]) / median(plain[1::2]) - 1)
    out.note("obs.trace_overhead.measured", overhead, "share")
    out.note("obs.trace_overhead.noise", noise, "share")
    resolved = abs(overhead) > noise
    out.facts["obs.trace_overhead"] = "resolved" if resolved else (
        "unresolved: within the spread between untraced halves")
    out.layer["obs.trace_overhead"] = overhead if resolved else 0.0


def max_outstanding(results) -> int:
    events = []
    for o in results:
        if o.rid is None:
            continue
        events.append((o.due, 1))
        events.append((o.done if o.done is not None else float("inf"), -1))
    level = peak = 0
    for _t, step in sorted(events):
        level += step
        peak = max(peak, level)
    return peak


def layer_probes(out: Outcome, fleet, spans: Spans, body: dict) -> None:
    """Timed calls that isolate one layer each (traced runs only)."""
    router = client(fleet.port)
    rid = router.submit(body)["id"]
    shard = client(fleet.shard_ports[int(rid[1:rid.index("-")])])
    direct, routed = [], []
    for _ in range(40):
        t = time.perf_counter()
        shard.status(rid)
        direct.append(time.perf_counter() - t)
        t = time.perf_counter()
        router.status(rid)
        routed.append(time.perf_counter() - t)
    out.layer["router.hop_ms"] = (median(routed) - median(direct)) * 1e3
    attach_ms = plane_attach_ms(fleet, spans)
    if attach_ms is not None:
        out.layer["plane.attach_ms"] = attach_ms


def plane_attach_ms(fleet, spans: Spans) -> float | None:
    """Attach this process to the fleet's plane segment for VA, once.

    The attachment is dropped again before the fleet stops, so the
    fleet's own teardown still reclaims every segment.  None when the
    plane served a private copy instead (no shared memory on the host).
    """
    from repro.core.runner import load_region_assets
    from repro.obs import MetricsRegistry
    from repro.plane.lifecycle import runtime
    from traffic import ASSET_SEED, SCALE

    plane_dir = str(fleet.workdir / "plane")
    saved = {k: os.environ.get(k) for k in ("REPRO_PLANE", "REPRO_PLANE_DIR")}
    os.environ.update(REPRO_PLANE="1", REPRO_PLANE_DIR=plane_dir)
    reg = MetricsRegistry()
    try:
        load_region_assets.cache_clear()
        t = time.perf_counter()
        with spans.span("plane.attach"):
            load_region_assets("VA", SCALE, ASSET_SEED, metrics=reg)
        attach_s = time.perf_counter() - t
    finally:
        load_region_assets.cache_clear()
        runtime(plane_dir).shutdown()
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return attach_s * 1e3 if reg.value("plane.attached") else None
