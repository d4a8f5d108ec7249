"""Workload ``night_plan``: the modelled nightly cycle ``repro night`` runs.

Why: ``scheduling`` (the WMP instance and the level packers) and the
``cluster`` simulator do all of its work, and no other workload touches
them, so a change to either has a workload that uses it and two that
bypass it.

Shape: ``orchestrate_night(prediction_design())`` (9,180 jobs), repeated
until ``--seconds`` have passed, alternating the FFDT-DC and NFDT-DC
packers, each night with a runtime-draw seed taken from a committed
catalogue.  Metrics are medians over nights (or FFDT-DC/NFDT-DC pairs of
nights), which a host's intermittent slow spells barely move.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from harness import (CHILD_TIMEOUT_S, ROOT, Outcome, TreeSampler, child_env,
                     median)
from refs import load_refs
from spans import Spans

ALGORITHMS = ("FFDT-DC", "NFDT-DC")

#: Runtime-draw seeds with committed makespans (``refs/night_plan.json``).
NIGHT_SEEDS = tuple(range(8))

#: Fresh-interpreter set-ups per run; ``setup_s`` takes their median.
SETUP_REPEATS = 3

_SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); "
    "from repro.core.orchestrator import orchestrate_night; "
    "from repro.core.designs import prediction_design; "
    "prediction_design(); print(time.perf_counter() - t)")


def setup_once() -> float:
    """Imports plus design construction, in a fresh interpreter."""
    res = subprocess.run([sys.executable, "-c", _SETUP_SNIPPET], cwd=ROOT,
                         env=child_env(), capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True)
    return float(res.stdout.strip().splitlines()[-1])


def night_signature(report) -> dict:
    """What the committed reference pins for one night."""
    return {"makespan_s": f"{report.schedule.makespan:.6f}",
            "jobs": len(report.schedule.records),
            "fits_window": bool(report.fits_window)}


@contextmanager
def wrapped(module, name: str, spans: Spans, span_name: str):
    """Record every call ``module`` makes to its ``name`` as a span."""
    original = getattr(module, name)

    def timed(*args, **kwargs):
        with spans.span(span_name):
            return original(*args, **kwargs)

    setattr(module, name, timed)
    try:
        yield
    finally:
        setattr(module, name, original)


def run(seed: int, seconds: float, spans: Spans) -> Outcome:
    out = Outcome("night_plan", seed)
    refs = load_refs("night_plan")
    rng = np.random.default_rng([seed, 5])
    sampler = TreeSampler([os.getpid()]).start()
    setups = [setup_once() for _ in range(SETUP_REPEATS)]
    out.put("setup_s", median(setups), "s")
    with spans.span("import.orchestrator"):
        import repro.core.orchestrator as orch
        from repro.core.designs import prediction_design
    design = prediction_design()

    times: dict[str, list[float]] = {a: [] for a in ALGORITHMS}
    pair_traced, pair_plain = [], []
    attempted = failed = 0
    t0 = time.perf_counter()
    i = 0
    while i % 2 or i == 0 or (
            time.perf_counter() - t0) * (1 + 2 / i) <= seconds:
        algorithm = ALGORITHMS[i % 2]
        # Pair 0 pays warm-up costs, so it is traced but left out of
        # both halves; the seed picks which half pair 1 joins.
        pair_no = i // 2
        traced = spans.enabled and (pair_no == 0 or (pair_no + seed) % 2 == 1)
        rec = spans if traced else Spans(False)
        night_seed = int(rng.choice(NIGHT_SEEDS))
        attempted += 1
        t = time.perf_counter()
        try:
            with wrapped(orch, "make_nightly_instance", rec,
                         "scheduling.make_nightly_instance"), \
                    wrapped(orch, "pack_ffdt_dc", rec, "scheduling.pack"), \
                    wrapped(orch, "pack_nfdt_dc", rec, "scheduling.pack"), \
                    wrapped(orch, "execute_packing", rec,
                            "cluster.execute_packing"), \
                    rec.span("night.orchestrate_night"):
                report = orch.orchestrate_night(
                    design, algorithm=algorithm, seed=night_seed)
        except Exception as exc:  # noqa: BLE001 — counted, run continues
            out.check(f"night {i}", False, repr(exc))
            report = None
        dt = time.perf_counter() - t
        times[algorithm].append(dt)
        if report is None:
            failed += 1
        else:
            want = refs.get(f"{algorithm}:{night_seed}")
            if night_signature(report) != want:
                failed += 1
                out.check(f"night {i} ({algorithm}, seed {night_seed})",
                          False, f"got {night_signature(report)}, "
                                 f"want {want}")
        if i % 2 and pair_no:
            pair = times[ALGORITHMS[0]][-1] + times[ALGORITHMS[1]][-1]
            (pair_traced if traced else pair_plain).append(pair)
        i += 1
    sampler.stop()
    out.check("makespan, job count and window fit match committed values",
              failed == 0, f"({attempted - failed}/{attempted})")
    out.attempted, out.failed = attempted, failed

    plan_s = median(times[ALGORITHMS[0]])
    pairs = [a + b for a, b in zip(*times.values())]
    out.put("peak_rss_mb", sampler.peak_rss_mb(), "MB")
    out.put("throughput_per_s",
            len(ALGORITHMS) * design.n_simulations / median(pairs), "1/s")
    out.put("latency_ms", plan_s * 1e3, "ms")
    out.note("night.plan_s", plan_s, "s")
    out.note("night.plan_s.nfdt", median(times[ALGORITHMS[1]]), "s")
    out.note("nights", i, "count")
    out.facts.update({"design": f"prediction ({design.n_simulations} jobs, "
                                f"{design.n_regions} regions, modelled)"})

    layer = out.layer
    n_traced = spans.count("night.orchestrate_night")
    if n_traced:
        layer["scheduling.instance_s"] = (
            spans.total("scheduling.make_nightly_instance") / n_traced)
        layer["scheduling.pack_s"] = spans.total("scheduling.pack") / n_traced
        layer["scheduling.pack_calls"] = (
            spans.count("scheduling.pack") / n_traced)
        dispatch = spans.total("cluster.execute_packing")
        layer["cluster.dispatch_s"] = dispatch / n_traced
        layer["cluster.jobs_per_s"] = (
            spans.count("cluster.execute_packing") * design.n_simulations
            / dispatch)
    if pair_traced and pair_plain:
        layer["obs.trace_overhead"] = (median(pair_traced)
                                       / median(pair_plain) - 1)
    layer["night.plan_s"] = plan_s
    return out
