"""Regenerate the committed references under ``perfbench/refs/``.

    python3 perfbench/make_refs.py [ensemble|scenario_http|night_plan ...]

Run it only when a change is meant to alter the program's outputs, and
commit the new references with that change.
"""

from __future__ import annotations

import sys

from harness import SRC, WORK, fresh_dir
from refs import save_refs

sys.path.insert(0, str(SRC))


def ensemble_refs() -> dict:
    import wl_ensemble as wl
    from repro.core.parallel import run_instances
    from repro.store.cas import ContentStore

    pool = wl.all_instances()
    outcomes = run_instances([wl.make_spec(*d) for d in pool])
    instances = {wl.instance_label(*d): wl.series_digest(o.confirmed)
                 for d, o in zip(pool, outcomes)}
    calibration = {}
    for variant in range(len(wl.CAL_TAU_BOUNDS)):
        store = ContentStore(fresh_dir(WORK / "refs-cal"))
        result = wl.run_calibration(variant, store)
        calibration[str(variant)] = wl.posterior_summary(result)
    return {"instances": instances, "calibration": calibration}


def scenario_refs() -> dict:
    from fleet import run_direct, start_fleet
    from traffic import CANARIES, payload_digest

    fleet = start_fleet(fresh_dir(WORK / "refs-fleet"))
    try:
        digests = []
        for body in CANARIES:
            view = run_direct(fleet.port, body)
            digests.append(payload_digest(view["result"]))
    finally:
        fleet.stop()
    return {"canaries": digests}


def night_refs() -> dict:
    import wl_night as wl
    from repro.core.designs import prediction_design
    from repro.core.orchestrator import orchestrate_night

    design = prediction_design()
    return {f"{alg}:{seed}": wl.night_signature(
                orchestrate_night(design, algorithm=alg, seed=seed))
            for alg in wl.ALGORITHMS for seed in wl.NIGHT_SEEDS}


MAKERS = {"ensemble": ensemble_refs, "scenario_http": scenario_refs,
          "night_plan": night_refs}


def main(argv: list[str]) -> int:
    for name in argv or sorted(MAKERS):
        path = save_refs(name, MAKERS[name]())
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
