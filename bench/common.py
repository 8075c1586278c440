"""Pieces shared by the workload modules, worker.py and run.py."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests"
OUT = BENCH_DIR / "out"
HASH_SEED = "0"  # workers iterate string-keyed tables in a fixed order


@dataclass
class Job:
    """One unit of timed work.  `run` calls the library and returns a small
    summary of its output; `check` raises AssertionError when that summary
    disagrees with an independent route."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def digest(output) -> str:
    return hashlib.sha256(repr(output).encode()).hexdigest()


class CliOutput(NamedTuple):
    """What a `cli.main` call printed, and its exit status."""

    rc: int
    stdout: str
