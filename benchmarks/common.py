"""Pieces shared by the workloads: per-round records and latency statistics."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

WORKLOADS = ("dispatch_100k", "durable_http", "parse_eval")

# Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


@dataclass
class Round:
    """What one pass over a workload's script produced."""

    wall: float = 0.0  # seconds from the first event to the last
    events: list[float] = field(default_factory=list)  # seconds per completed event
    alerts: list[float] = field(default_factory=list)  # seconds per case-opening event
    reads: list[float] = field(default_factory=list)  # seconds per case read-back
    messages: int = 0
    layer2_calls: int = 0
    ledger_entries: int = 0
    recall: float = 1.0
    scores: list[float] = field(default_factory=list)
    pair_seconds: float = 0.0
    pairs: int = 0
    lost_mutations: int = 0  # durable_http: served ledger changes missing from the final snapshot
    digest: str = ""
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failures.append(problem)


class Workload:
    """One named workload.

    `set_up()` does what a user pays for before the first event and returns
    its seconds; `round()` runs the script once from a fresh program state.
    """

    tracer = None  # the Tracer of the rounds being traced, if any

    def __init__(self, manifest: dict) -> None:
        self.manifest = manifest

    def open(self) -> None:
        """Start what the workload needs around the program (stub servers)."""

    def set_up(self) -> float:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Run what the first round pays for once (first calls, caches), untimed."""

    def round(self) -> Round:
        raise NotImplementedError

    def close(self) -> None:
        """Release what `set_up` holds (processes, large tables)."""

    def trace(self, tracer) -> None:
        """Trace the following rounds with `tracer`; `None` stops tracing."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        raise NotImplementedError


def tail_percentile(per_round: int) -> float:
    """The highest listed percentile that leaves at least ten of one
    round's samples beyond it.

    It is chosen from the per-round count, which the script fixes, so it
    does not change with how many rounds a run manages.
    """
    return next((p for p in TAIL_PERCENTILES if per_round * (100 - p) >= 1000), 50.0)


def percentile(values: list[float], pct: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=1000, method="inclusive")[round(pct * 10) - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
