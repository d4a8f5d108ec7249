"""In-memory spans recorded around the benchmark's own calls into layers.

Each span has a name (``<layer>.<call>``), start and end on the
``perf_counter`` clock, the id of the span that caused it and an optional
request id shared by every span of one request.  Spans stay in memory
while the workload runs and are written out once, at the end.  A
disabled recorder records nothing and costs one attribute test per call,
which is what the untraced (end-to-end) runs use.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: str | None


class Spans:
    """A span recorder; safe to use from several threads."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Id of this thread's innermost open span."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, rid: str | None = None) -> Iterator[None]:
        """Record the enclosed block as one span under the current one."""
        if not self.enabled:
            yield
            return
        parent = self.current()
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.records.append(Span(sid, name, start, end, parent, rid))

    def add(self, name: str, start: float, end: float, *,
            rid: str | None = None, parent: int | None = None) -> int:
        """Record a span measured elsewhere (e.g. across two threads)."""
        if not self.enabled:
            return 0
        with self._lock:
            sid = next(self._ids)
            self.records.append(Span(sid, name, start, end, parent, rid))
        return sid

    def self_times(self) -> dict[str, float]:
        """Seconds per span name not covered by that span's children."""
        children: dict[int, list[Span]] = {}
        for s in self.records:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, float] = {}
        for s in self.records:
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - covered
        return out

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.records if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.records if s.name == name)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (called once, at the end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in sorted(self.records, key=lambda s: s.start):
                fh.write(json.dumps(asdict(s)) + "\n")

    def report(self) -> str:
        """The self-time-per-span-name table."""
        rows = sorted(self.self_times().items(), key=lambda kv: -kv[1])
        lines = [f"   {'span':<40} {'count':>6} {'self_s':>10}"]
        for name, self_s in rows:
            lines.append(f"   {name:<40} {self.count(name):>6} "
                         f"{self_s:>10.4f}")
        return "\n".join(lines)
