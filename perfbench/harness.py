"""Shared plumbing of the benchmark: statistics, memory, host facts, output.

Nothing here imports ``repro``: the workloads import the program, this
module only measures it from outside.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Smallest number of samples a percentile needs beyond it to be reported.
MIN_BEYOND = 10

#: Seconds between two samples of a process tree's memory and CPU time.
SAMPLE_INTERVAL_S = 0.1

#: Seconds a stopped process gets to drain before it is killed.
STOP_GRACE_S = 60.0

#: Seconds a helper subprocess (a fresh-interpreter timing) may take.
CHILD_TIMEOUT_S = 120.0

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
OUT = ROOT / ".bench_out"


class BenchError(RuntimeError):
    """The benchmark cannot run (missing program, bad arguments)."""


def program_available() -> bool:
    """Whether the program's sources sit next to the benchmark."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts.

    The program's caches, stores and traces are pointed inside the
    checkout so a run touches nothing outside it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.setdefault("REPRO_STORE_DIR", str(WORK / "default-store"))
    env.setdefault("REPRO_TRACE_PATH", str(WORK / "trace.jsonl"))
    env.setdefault("REPRO_PLANE_DIR", str(WORK / "plane"))
    return env


# -- statistics ----------------------------------------------------------------


@dataclass(frozen=True)
class Percentile:
    """One percentile of a sample, with the count that supports it."""

    q: float
    value: float
    n: int
    beyond: int  #: samples strictly above the percentile's rank


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values, q: float) -> Percentile:
    """The ``q``-th percentile (nearest rank) of ``values``.

    Raises :class:`TooFewSamples` unless at least ``MIN_BEYOND`` samples
    lie beyond the percentile's rank, so a tail is never read off a
    handful of points.
    """
    xs = sorted(float(v) for v in values)
    n = len(xs)
    if n == 0:
        raise TooFewSamples(f"p{q:g} of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it "
            f"(needs {MIN_BEYOND})")
    return Percentile(q=q, value=xs[rank - 1], n=n, beyond=beyond)


def median(values) -> float:
    xs = sorted(float(v) for v in values)
    if not xs:
        raise TooFewSamples("median of an empty sample")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


# -- memory and CPU of a process tree ------------------------------------------


def _children(pid: int) -> list[int]:
    """Children of every thread of ``pid`` (a pool may fork from one)."""
    out = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            out.extend(int(tok) for tok in
                       (task / "children").read_text().split())
        except OSError:
            continue
    return out


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its live descendants."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(_children(p))
    return out


def _pss_kb(pid: int) -> int:
    """Proportional set size of one live process: its private pages plus
    its share of each page it maps together with other processes."""
    try:
        for line in Path(f"/proc/{pid}/smaps_rollup").read_text().splitlines():
            if line.startswith("Pss:"):
                return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _cpu_s(pid: int) -> float:
    """User + system CPU seconds of one live process."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
        parts = fields.split()
        ticks = int(parts[11]) + int(parts[12])
    except (OSError, ValueError, IndexError):
        return 0.0
    return ticks / os.sysconf("SC_CLK_TCK")


class TreeSampler:
    """Samples a process tree's memory and CPU time in the background.

    Peak memory is the largest sum, over the processes alive at one
    sample, of each one's PSS.  PSS splits a page mapped by several
    processes among them, so shared-memory segments and copy-on-write
    pages a forked worker still shares with its parent count once, and a
    process that builds a private copy instead shows as more memory.  CPU
    time is the sum of each process's last observed user+system time, so
    work done by a pool worker that has since exited still counts up to
    its last sample.
    """

    def __init__(self, roots: list[int]) -> None:
        self.roots = list(roots)
        self.peak_kb = 0
        self.cpu: dict[int, float] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self) -> None:
        total_kb = 0
        for root in self.roots:
            for pid in process_tree(root):
                total_kb += _pss_kb(pid)
                cpu = _cpu_s(pid)
                if cpu:
                    self.cpu[pid] = max(self.cpu.get(pid, 0.0), cpu)
        self.peak_kb = max(self.peak_kb, total_kb)

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.sample()

    def start(self) -> "TreeSampler":
        self.sample()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="bench-sampler")
        self._thread.start()
        return self

    def stop(self) -> None:
        self.sample()
        self._stop.set()
        if self._thread is not None:
            self._thread.join(5.0)

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0

    def cpu_s(self) -> float:
        return sum(self.cpu.values())


# -- subprocess lifetime ---------------------------------------------------------


#: Seconds an orphaned descendant (a shard or resource tracker whose
#: parent has exited) gets to end on its own before it is killed.
ORPHAN_GRACE_S = 5.0

#: ``prctl`` option that makes orphaned descendants children of the caller.
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of every descendant that outlives
    its own parent, so :func:`end_children` can wait for each of them.

    Without it a server's grandchildren (its shards, its multiprocessing
    resource tracker) would be re-parented outside the benchmark and
    could still be running after it exits.
    """
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _kill_tree(pid: int) -> None:
    for p in process_tree(pid):
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _own_tracker_pid() -> int | None:
    """Pid of this process's multiprocessing resource tracker, if any."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    return getattr(getattr(tracker, "_resource_tracker", None), "_pid", None)


def end_children() -> None:
    """Wait until every child of this process has ended and is reaped.

    A child still running after ``ORPHAN_GRACE_S`` is killed with all
    its descendants.  This process's own resource tracker is left alone:
    :func:`stop_all` stops it.
    """
    deadline = time.monotonic() + ORPHAN_GRACE_S
    while True:
        tracker = _own_tracker_pid()
        kids = [p for p in _children(os.getpid()) if p != tracker]
        if not kids:
            return
        if time.monotonic() >= deadline:
            for pid in kids:
                _kill_tree(pid)
        for pid in kids:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.02)


def stop_all() -> None:
    """Stop every process this run started and wait for each to end."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        # Closing its pipe makes the tracker release what it holds and
        # exit; _stop then reaps it.
        tracker._resource_tracker._stop()
    end_children()


def stop_process(proc: subprocess.Popen) -> None:
    """SIGINT ``proc`` (graceful drain), SIGKILL its process tree if it
    has not ended within ``STOP_GRACE_S``, then wait until every process
    it left behind has ended too."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(STOP_GRACE_S)
        except subprocess.TimeoutExpired:
            _kill_tree(proc.pid)
            proc.wait(10.0)
    end_children()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def import_worker_s() -> float:
    """Import closure of a pool worker and a service shard, in a fresh
    interpreter (what every spawned process pays before its first task)."""
    snippet = ("import time; t = time.perf_counter(); "
               "import repro.core.runner, repro.service.shard; "
               "print(time.perf_counter() - t)")
    res = subprocess.run([sys.executable, "-c", snippet], cwd=ROOT,
                         env=child_env(), capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True)
    return float(res.stdout.strip().splitlines()[-1])


# -- host facts ----------------------------------------------------------------


#: Iterations of the fixed loop :func:`host_probe_ms` times.
HOST_PROBE_LOOPS = 1_000_000


def host_probe_ms() -> float:
    """Milliseconds a fixed pure-Python loop takes right now.

    Timed at the start and at the end of every run, it shows whether the
    host ran slower during one run than during another, so a shift in
    timing medians can be checked against the host's own speed.
    """
    t = time.perf_counter()
    x = 0
    for i in range(HOST_PROBE_LOOPS):
        x += i
    return (time.perf_counter() - t) * 1e3


def host_facts() -> dict:
    """What a number from this run must be read next to."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


# -- result ----------------------------------------------------------------------


@dataclass
class Outcome:
    """Everything one workload run reports."""

    workload: str
    seed: int
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    detail: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, name: str, value: float, unit: str) -> None:
        """A number printed for the reader but not part of the result."""
        self.detail[name] = (float(value), unit)

    def check(self, name: str, ok: bool, info: str = "") -> bool:
        self.checks.append((name, bool(ok), info))
        return ok

    @property
    def correct(self) -> bool:
        return all(ok for _name, ok, _info in self.checks)


def emit(outcome: Outcome, spec: list[dict], *, traced: bool) -> None:
    """Print the human table, then the one-line JSON result last.

    ``spec`` is the ``end_to_end`` (untraced) or ``per_layer`` (traced)
    list of ``BENCHMARK.json``.  A per-layer metric of a layer the
    workload does not exercise reads 0.
    """
    print(f"== {outcome.workload} (seed {outcome.seed}, "
          f"{'traced' if traced else 'untraced'})")
    for key, value in sorted(outcome.facts.items()):
        print(f"   fact {key}: {value}")
    for name, ok, info in outcome.checks:
        print(f"   check {name}: {'ok' if ok else 'FAILED'} {info}".rstrip())
    for name, (value, unit) in sorted(outcome.detail.items()):
        print(f"   {name:<34} {value:>14.6g} {unit}")
    print(f"   attempted {outcome.attempted}, failed {outcome.failed} "
          f"(failed_share {outcome.failed / max(1, outcome.attempted):.4f})")
    result = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        if traced:
            value = float(outcome.layer.get(name, 0.0))
            mark = "" if name in outcome.layer else "  (not exercised)"
        else:
            value, measured_unit = outcome.metrics[name]
            if measured_unit != unit:
                raise BenchError(f"{name} measured in {measured_unit}, "
                                 f"BENCHMARK.json says {unit}")
            mark = ""
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is not finite: {value}")
        print(f"   {name:<34} {value:>14.6g} {unit}{mark}")
        result[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": result,
    }))
    sys.stdout.flush()
