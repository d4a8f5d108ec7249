"""Committed reference outputs the correctness checks compare against.

``make_refs.py`` regenerates them; a run never writes them.
"""

from __future__ import annotations

import json
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"


def load_refs(workload: str) -> dict:
    path = REFS / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def save_refs(workload: str, data: dict) -> Path:
    path = REFS / f"{workload}.json"
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return path
