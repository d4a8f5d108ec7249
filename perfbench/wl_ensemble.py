"""Workload ``ensemble``: the nightly batch a planner waits on.

Why: the ``epihiper`` kernel, ``core.batching`` and the ``core.parallel``
pool do almost all the work here, and the service and scheduling layers
do none.  Phase A forms one batch group per worker; phase B forms a
single group for two workers, so a change to grouping or to the pool
shows in one phase and not in the other.  The plane is off here.

Shape, repeated until ``--seconds`` have passed (each repetition with a
fresh result store):

- phase A: a prediction ensemble of VA and MD at scale 1e-2, three cells
  of heterogeneous ``TAU`` and stay-at-home compliance per region, two
  replicates each, over 120 days, through ``run_instances_memoized`` on
  a pool of ``nproc`` workers;
- phase B: one VA calibration round through ``run_calibration_workflow``
  (8 cells over 60 days, then the GPMSA emulator fit and MCMC).

Repetitions are kept short so that each metric is a median over several
of them: the 2-core hosts this runs on slow down intermittently, and a
median over short repetitions is far steadier than one long total.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from dataclasses import replace

import numpy as np

from harness import (Outcome, TreeSampler, WORK, fresh_dir, median)
from refs import load_refs
from spans import Spans

SCALE = 1e-2
ASSET_SEED = 20200325
REGIONS = ("VA", "MD")
DAYS = 120

#: Committed instance pool: every (region, TAU, SH, replicate) below has
#: a reference digest; a run draws its cells and replicates from it.
TAUS = (0.14, 0.21, 0.28)
SH_LEVELS = (0.3, 0.5, 0.7)
REPLICATES = (1, 2, 3, 4)
REPS_PER_CELL = 2

#: Calibration round shape, and the committed parameter-space variants a
#: round draws from (TAU bounds; the other three parameters keep the
#: case-study ranges).
CAL_CELLS = 8
CAL_DAYS = 60
CAL_SAMPLES = 800
CAL_BURN_IN = 400
CAL_TAU_BOUNDS = ((0.05, 0.50), (0.08, 0.40), (0.10, 0.35))

#: Region syntheses timed per run; ``setup_s`` takes their median.
SETUP_REPEATS = 3

#: Size of the untimed warm-up pass (days simulated, MCMC samples).
WARM_DAYS = 10
WARM_SAMPLES = 50


def instance_seed(ti: int, si: int, rep: int) -> int:
    return 7_000 + 100 * rep + 10 * ti + si


def instance_label(region: str, ti: int, si: int, rep: int) -> str:
    return f"{region}-t{ti}-s{si}-r{rep}"


def all_instances() -> list[tuple[str, int, int, int]]:
    return [(region, ti, si, rep) for region in REGIONS
            for ti in range(len(TAUS)) for si in range(len(SH_LEVELS))
            for rep in REPLICATES]


def make_spec(region: str, ti: int, si: int, rep: int):
    from repro.core.parallel import InstanceSpec

    return InstanceSpec(
        region_code=region,
        params={"TAU": TAUS[ti], "SH_COMPLIANCE": SH_LEVELS[si]},
        n_days=DAYS, scale=SCALE, seed=instance_seed(ti, si, rep),
        label=instance_label(region, ti, si, rep), asset_seed=ASSET_SEED)


def draw_ensemble(rng: np.random.Generator) -> list[tuple]:
    """Every TAU level and every SH level per region, with drawn
    replicates.

    Each region pairs the TAU levels with a drawn permutation of the SH
    levels, so every ensemble holds the same levels and its total work
    varies little from seed to seed; the pairing and the replicates vary.
    """
    out = []
    for region in REGIONS:
        pairing = rng.permutation(len(SH_LEVELS))
        for ti in range(len(TAUS)):
            si = int(pairing[ti])
            for rep in rng.choice(REPLICATES, REPS_PER_CELL, replace=False):
                out.append((region, ti, si, int(rep)))
    return out


def cal_space(variant: int):
    from repro.calibration.lhs import ParameterSpace
    from repro.core.designs import case_study_space

    base = case_study_space()
    lower, upper = base.lower.copy(), base.upper.copy()
    lower[0], upper[0] = CAL_TAU_BOUNDS[variant]
    return ParameterSpace(names=base.names, lower=lower, upper=upper)


def series_digest(series: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(series, dtype="<f8").tobytes()).hexdigest()


def posterior_summary(result) -> list[str]:
    """Posterior mean and sd per parameter, to 8 significant digits."""
    theta = result.posterior.theta_samples
    return [f"{v:.8g}" for v in np.concatenate([theta.mean(0),
                                                theta.std(0)])]


def run_calibration(variant: int, store):
    from repro.core.calibration_wf import run_calibration_workflow

    return run_calibration_workflow(
        "VA", n_cells=CAL_CELLS, n_days=CAL_DAYS, scale=SCALE,
        seed=ASSET_SEED, space=cal_space(variant), store=store,
        mcmc_samples=CAL_SAMPLES, mcmc_burn_in=CAL_BURN_IN,
        max_workers=os.cpu_count())


def warm_up(workdir) -> None:
    """One small untimed pass through both phases.

    The first call into the pool, the memo layer and the calibration
    code pays one-off costs (imports, first-use caches); this pays them
    before the clock starts, so the first timed repetition is like the
    others.  Its outputs are not checked.
    """
    from repro.core.calibration_wf import run_calibration_workflow
    from repro.store.cas import ContentStore
    from repro.store.memo import run_instances_memoized

    specs = [make_spec(region, 0, 0, REPLICATES[0]) for region in REGIONS]
    specs = [replace(spec, n_days=WARM_DAYS) for spec in specs]
    run_instances_memoized(specs, store=ContentStore(workdir / "warm-a"),
                           max_workers=os.cpu_count())
    run_calibration_workflow(
        "VA", n_cells=CAL_CELLS, n_days=WARM_DAYS, scale=SCALE,
        seed=ASSET_SEED, space=cal_space(0),
        store=ContentStore(workdir / "warm-b"),
        mcmc_samples=WARM_SAMPLES, mcmc_burn_in=WARM_SAMPLES // 2,
        max_workers=os.cpu_count())


def timed_store(root, spans: Spans):
    """A fresh result store whose get/put calls are recorded as spans."""
    from repro.store.cas import ContentStore

    store = ContentStore(root)
    if spans.enabled:
        get, put = store.get, store.put

        def timed_get(key):
            with spans.span("store.get"):
                return get(key)

        def timed_put(key, payload, **kw):
            with spans.span("store.put"):
                return put(key, payload, **kw)

        store.get, store.put = timed_get, timed_put
    return store


def registry_delta(before: dict, after: dict) -> dict[str, float]:
    """Counter/timer growth between two registry dumps."""
    out = {}
    for name, rec in after.items():
        if rec["kind"] == "gauge":
            out[name] = rec["value"]
        else:
            out[name] = rec["value"] - before.get(name, {}).get("value", 0)
    return out


def run(seed: int, seconds: float, spans: Spans) -> Outcome:
    out = Outcome("ensemble", seed)
    refs = load_refs("ensemble")
    rng = np.random.default_rng([seed, 3])
    sampler = TreeSampler([os.getpid()]).start()

    # -- set-up: imports and region synthesis, up to the first timed call --
    t0 = time.perf_counter()
    with spans.span("import.repro"):
        from repro.core.runner import load_region_assets
        from repro.obs import MetricsRegistry
        from repro.obs.registry import global_registry
        from repro.store.memo import run_instances_memoized
    import_s = time.perf_counter() - t0
    synth = []
    for _ in range(SETUP_REPEATS):
        load_region_assets.cache_clear()
        t = time.perf_counter()
        for region in REGIONS:
            with spans.span(f"runner.load_region_assets.{region}"):
                load_region_assets(region, SCALE, ASSET_SEED)
        synth.append(time.perf_counter() - t)
    out.put("setup_s", import_s + median(synth), "s")
    out.facts["nodes_edges"] = {
        region: (assets.net.n_nodes, int(assets.net.source.shape[0]))
        for region in REGIONS
        for assets in [load_region_assets(region, SCALE, ASSET_SEED)]}

    # -- timed repetitions ---------------------------------------------------
    workdir = fresh_dir(WORK / f"ensemble-{os.getpid()}")
    with spans.span("warm_up"):
        warm_up(workdir)
    # Rounds cycle through every parameter-space variant in a drawn
    # order, so a run's rounds cost the same whatever the seed.
    variants = rng.permutation(len(CAL_TAU_BOUNDS))
    a_times, b_times, a_counts = [], [], []
    a_traced, a_plain = [], []
    reg = MetricsRegistry()
    g = global_registry()
    cpu0, wall0 = sampler.cpu_s(), time.perf_counter()
    bad_instances = bad_rounds = attempted = failed = 0
    fit_s, round_workers = [], []
    it = 0
    while it == 0 or (time.perf_counter() - wall0
                      + (time.perf_counter() - wall0) / it <= seconds):
        # Iteration 0 pays warm-up costs, so it is traced but left out
        # of both halves; the seed picks which half iteration 1 joins.
        traced = spans.enabled and (it == 0 or (it + seed) % 2 == 1)
        rec = spans if traced else Spans(False)
        drawn = draw_ensemble(rng)
        specs = [make_spec(*d) for d in drawn]
        store = timed_store(workdir / f"a{it}", rec)
        t = time.perf_counter()
        try:
            with rec.span("memo.run_instances_memoized"):
                outcomes = run_instances_memoized(
                    specs, store=store, max_workers=os.cpu_count(),
                    registry=reg)
        except Exception as exc:  # noqa: BLE001 — counted, run continues
            out.check(f"phase A iteration {it}", False, repr(exc))
            outcomes = [None] * len(specs)
        dt = time.perf_counter() - t
        a_times.append(dt)
        a_counts.append(len(specs))
        if it:
            (a_traced if traced else a_plain).append(dt)
        for d, o in zip(drawn, outcomes):
            attempted += 1
            want = refs.get("instances", {}).get(instance_label(*d))
            if o is None:
                failed += 1
            elif series_digest(o.confirmed) != want:
                failed += 1
                bad_instances += 1

        variant = int(variants[it % len(variants)])
        store = timed_store(workdir / f"b{it}", rec)
        before = g.dump()
        t = time.perf_counter()
        attempted += 1
        try:
            with rec.span("calibration.run_calibration_workflow"):
                result = run_calibration(variant, store)
        except Exception as exc:  # noqa: BLE001 — counted, run continues
            out.check(f"phase B iteration {it}", False, repr(exc))
            result = None
        b_times.append(time.perf_counter() - t)
        delta = registry_delta(before, g.dump())
        fit_s.append(b_times[-1] - delta.get("memo.batch_s", 0.0))
        round_workers.append(delta.get("parallel.workers", 0))
        if result is None:
            failed += 1
        elif posterior_summary(result) != refs.get(
                "calibration", {}).get(str(variant)):
            failed += 1
            bad_rounds += 1
        it += 1
    wall = time.perf_counter() - wall0
    cpu = sampler.cpu_s() - cpu0
    shutil.rmtree(workdir, ignore_errors=True)
    if spans.enabled:
        layer_probes(out, spans)
    sampler.stop()
    out.check("instance confirmed series match committed digests",
              bad_instances == 0, f"({bad_instances} differ)")
    out.check("calibration posterior summaries match committed values",
              bad_rounds == 0, f"({bad_rounds} differ)")
    out.attempted, out.failed = attempted, failed

    rates = [n / t for n, t in zip(a_counts, a_times)]
    out.put("peak_rss_mb", sampler.peak_rss_mb(), "MB")
    out.put("throughput_per_s", median(rates), "1/s")
    out.put("latency_ms", median(b_times) * 1e3, "ms")
    out.note("ensemble.instances_per_s", median(rates), "1/s")
    out.note("calibration.round_s", median(b_times), "s")
    out.note("iterations", it, "count")
    out.facts.update({
        "scale": SCALE,
        "phase_a": f"{len(REGIONS)} regions x {len(TAUS)} cells x "
                   f"{REPS_PER_CELL} replicates x {DAYS} days",
        "phase_b": f"VA, {CAL_CELLS} cells x {CAL_DAYS} days",
        "workers": os.cpu_count(),
    })

    # -- per-layer (program counters from the phase-A registry) ----------------
    layer = out.layer
    v = reg.value
    n_inst = sum(a_counts)
    groups = v("batch.groups")
    sim_s = v("runner.simulate_s")
    phases = {name: v(f"batch.{name}_s") for name in
              ("transmission", "progression", "interventions", "census")}
    ticks = max(1, groups) * DAYS
    layer["runner.assets_s"] = v("runner.assets_s")
    layer["assets.cache.misses"] = v("assets.cache.misses")
    layer["epihiper.lane_tick_ms"] = sim_s / (n_inst * DAYS) * 1e3
    for name, secs in phases.items():
        layer[f"epihiper.{name}_share"] = secs / sim_s if sim_s else 0.0
    layer["epihiper.step_other_ms"] = (
        (sim_s - sum(phases.values())) / ticks * 1e3)
    layer["epihiper.contacts_per_s"] = (
        v("engine.contacts_evaluated") / phases["transmission"]
        if phases["transmission"] else 0.0)
    layer["engine.transitions"] = v("engine.transitions")
    layer["engine.contacts_evaluated"] = v("engine.contacts_evaluated")
    layer["batching.groups"] = groups / it
    layer["batching.lanes_mean"] = n_inst / groups if groups else 0.0
    layer["parallel.workers"] = v("parallel.workers")
    layer["parallel.workers.round"] = median(round_workers)
    layer["parallel.cpu_util"] = cpu / (wall * (os.cpu_count() or 1))
    busy = (v("runner.assets_s") + v("runner.batch_setup_s") + sim_s) / max(
        1, v("parallel.workers"))
    layer["parallel.unattributed_s"] = (sum(a_times) - busy) / it
    layer["retry.retries"] = v("retry.retries")
    layer["calibration.fit_s"] = median(fit_s)
    hits, misses = v("memo.hits"), v("memo.misses")
    layer["memo.hit_share"] = hits / max(1, hits + misses)
    for op in ("get", "put"):
        n = spans.count(f"store.{op}")
        layer[f"store.{op}_ms"] = (spans.total(f"store.{op}") / n * 1e3
                                   if n else 0.0)
    if a_traced and a_plain:
        layer["obs.trace_overhead"] = median(a_traced) / median(a_plain) - 1
    layer["ensemble.instances_per_s"] = median(rates)
    layer["calibration.round_s"] = median(b_times)
    return out


def layer_probes(out: Outcome, spans: Spans) -> None:
    """Timed calls that isolate one layer each (traced runs only)."""
    from repro.core.runner import load_region_assets, run_instance
    from repro.surveillance.truth import generate_region_truth
    from repro.synthpop.contacts import build_region_network

    truth_s = 0.0
    for region in REGIONS:
        t = time.perf_counter()
        with spans.span(f"synthpop.build_region_network.{region}"):
            _pop, net = build_region_network(region, scale=SCALE,
                                             seed=ASSET_SEED)
        dt = time.perf_counter() - t
        out.layer[f"synthpop.build_s.{region}"] = dt
        out.layer[f"synthpop.edges_per_s.{region}"] = net.source.shape[0] / dt
        t = time.perf_counter()
        with spans.span("surveillance.generate_region_truth"):
            generate_region_truth(region, n_days=210, seed=ASSET_SEED)
        truth_s += time.perf_counter() - t
    out.layer["surveillance.truth_s"] = truth_s
    assets = load_region_assets("VA", SCALE, ASSET_SEED)
    t = time.perf_counter()
    with spans.span("epihiper.run_instance"):
        run_instance(assets, {"TAU": TAUS[2], "SH_COMPLIANCE": SH_LEVELS[1]},
                     n_days=DAYS, seed=instance_seed(2, 1, 1))
    out.layer["epihiper.solo_tick_ms"] = (time.perf_counter() - t) / DAYS * 1e3
