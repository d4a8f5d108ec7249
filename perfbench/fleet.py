"""Start, warm and stop ``repro serve --shards 2 --serial --plane``."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from harness import ROOT, child_env, stop_process
from traffic import ASSET_SEED, DAYS, REGIONS, SCALE, body_key, payload_digest

HOST = "127.0.0.1"
SHARDS = 2
START_TIMEOUT_S = 90.0

#: Untimed requests (warm-up, priming, references) must finish within
#: this many seconds; they are polled every ``WAIT_POLL_S``.
WAIT_TIMEOUT_S = 120.0
WAIT_POLL_S = 0.01


@dataclass
class Fleet:
    """One running router + shards, owned by the benchmark."""

    proc: subprocess.Popen
    port: int
    shard_ports: list[int]
    workdir: Path
    log: object

    def stop(self) -> None:
        try:
            stop_process(self.proc)
        finally:
            self.log.close()


def start_fleet(workdir: Path) -> Fleet:
    """Spawn the fleet and wait until the router and every shard answer."""
    store = workdir / "store"
    port_file = workdir / "router.port"
    log = (workdir / "serve.log").open("w")
    cmd = [sys.executable, "-m", "repro.cli", "serve",
           "--shards", str(SHARDS), "--serial", "--plane",
           "--plane-dir", str(workdir / "plane"),
           "--port", "0", "--port-file", str(port_file),
           "--store-dir", str(store), "--no-trace"]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log,
                            stderr=subprocess.STDOUT)
    fleet = Fleet(proc, 0, [], workdir, log)
    try:
        deadline = time.perf_counter() + START_TIMEOUT_S
        while True:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"serve exited with {proc.returncode}; see {log.name}")
            if time.perf_counter() > deadline:
                raise RuntimeError("serve did not start in time")
            try:
                fleet.port = int(port_file.read_text())
                break
            except (OSError, ValueError):
                time.sleep(0.02)
        for i in range(SHARDS):
            info = json.loads((store / "run" / f"shard{i}.port").read_text())
            fleet.shard_ports.append(int(info["port"]))
    except BaseException:
        fleet.stop()
        raise
    return fleet


def warm_body(region: str, seed: int) -> dict:
    return {"region": region, "params": {"TAU": 0.2}, "days": DAYS,
            "scale": SCALE, "seed": seed, "asset_seed": ASSET_SEED}


def client(port: int):
    """The program's own client, bound to one router or shard port."""
    from repro.service.client import ServiceClient

    return ServiceClient(f"http://{HOST}:{port}")


def finish(svc, rid: str) -> dict:
    """Wait for ``rid``'s terminal view; it must be ``done``."""
    view = svc.wait(rid, timeout_s=WAIT_TIMEOUT_S, poll_s=WAIT_POLL_S)
    if view["state"] != "done":
        raise RuntimeError(f"untimed request failed: {view}")
    return view


def run_direct(port: int, body: dict) -> dict:
    """Submit one scenario and wait for its terminal view."""
    svc = client(port)
    return finish(svc, svc.submit(body)["id"])


def warm(fleet: Fleet) -> None:
    """Make every shard load every region before traffic starts.

    Warm-up scenarios use seeds the traffic never sends, so the store
    holds nothing the timed requests can hit.
    """
    seed = 1
    for port in fleet.shard_ports:
        for region in REGIONS:
            run_direct(port, warm_body(region, seed))
            seed += 1


def prime(port: int, bodies: list[dict]) -> dict[str, str]:
    """Send each hot-catalogue scenario once and wait for every answer.

    Returns the payload digest of each first answer, keyed by
    :func:`~traffic.body_key`.
    """
    svc = client(port)
    ids = [svc.submit(body)["id"] for body in bodies]
    return {body_key(body): payload_digest(finish(svc, rid)["result"])
            for body, rid in zip(bodies, ids)}


def region_sizes(fleet: Fleet) -> dict[str, tuple[int, int]]:
    """(nodes, edges) per region, read from the fleet's plane manifests."""
    out = {}
    for path in sorted((fleet.workdir / "plane" / "manifests").glob("*.json")):
        manifest = json.loads(path.read_text())
        edges = next(a["shape"][0] for a in manifest["arrays"]
                     if a["name"] == "net.source")
        out[manifest["asset"]["region_code"]] = (
            manifest["meta"]["n_nodes"], edges)
    return out
