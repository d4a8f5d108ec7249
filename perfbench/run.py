"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads are listed in ``BENCHMARK.json`` at the root of the checkout,
which also names every metric and its unit.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` records spans around the benchmark's
calls into each layer, writes them under ``.bench_out/`` and reports the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

T_START = time.perf_counter()

from harness import (OUT, ROOT, SRC, WORK, BenchError, adopt_orphans,  # noqa: E402
                     emit, host_facts, host_probe_ms, import_worker_s,
                     program_available, stop_all)
from spans import Spans  # noqa: E402

WORKLOADS = {
    "ensemble": "wl_ensemble",
    "scenario_http": "wl_scenario",
    "night_plan": "wl_night",
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not program_available():
        print(f"benchmark: no program sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    module = __import__(WORKLOADS[args.workload])
    spans = Spans(enabled=bool(args.trace))
    probe_start = host_probe_ms()
    outcome = module.run(args.seed, args.seconds, spans)
    outcome.facts.update(host_facts())
    outcome.facts["host_probe_ms"] = [round(probe_start, 1),
                                      round(host_probe_ms(), 1)]
    outcome.facts["seed"] = args.seed
    outcome.facts["seconds"] = args.seconds
    outcome.facts["wall_s"] = round(time.perf_counter() - T_START, 2)
    if spans.enabled:
        outcome.layer["import.worker_s"] = import_worker_s()
        path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        spans.write(path)
        print(f"   spans: {len(spans.records)} written to "
              f"{path.relative_to(ROOT)}")
        print(spans.report())
    emit(outcome, spec["per_layer" if args.trace else "end_to_end"],
         traced=bool(args.trace))
    return 0


def _terminate(signum, _frame) -> None:
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    # A run that is told to stop still unwinds, so every process it
    # started is stopped and waited for before it exits.
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, _terminate)
    adopt_orphans()
    code = 2
    try:
        code = main()
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
    finally:
        stop_all()
    sys.exit(code)
