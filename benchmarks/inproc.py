"""The in-process workloads: `dispatch_100k` and `parse_eval`.

`dispatch_100k` drives `Gateway.handle_event` the way a chat adapter
does: closed loop, one event at a time, the logical clock advanced to the
event's tick first and the outbound queue drained after. Donor replies go
to the oldest alert not yet answered, so they follow what the program sent.
"""

from __future__ import annotations

import gc
import json
import resource
import time
from collections import deque
from pathlib import Path

import gen
from checks import digest, ledger_invariants
from common import Round, Workload

from cbrs import evalkit, layer1, schema
from cbrs.dispatch import DispatchEngine
from cbrs.gateway import Gateway, InboundEvent
from cbrs.layer2 import Backend, ParseRecord, RulesBackend


class InProcess(Workload):
    """A workload run inside the benchmark process; `set_up` times `load`."""

    def set_up(self) -> float:
        t0 = time.perf_counter()
        self.load()
        return time.perf_counter() - t0

    def load(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One round, discarded: the first round after set-up ran about a
        fifth slower on its cheap events (first calls into the parsers and
        the gazetteer, cold caches)."""
        self.round()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def trace(self, tracer) -> None:
        """Wrap the layers in this process while a tracer is set."""
        if self.tracer is not None:
            self.tracer.uninstall()
        self.tracer = tracer
        if tracer is not None:
            tracer.install()


class Dispatch100k(InProcess):
    """100k donors restored from a snapshot; dispatch does most of the work."""

    def __init__(self, manifest: dict) -> None:
        super().__init__(manifest)
        self.script = manifest["script"]
        self.texts = {s["message_id"]: s["text"] for s in self.script if s["op"] == "message"}
        self.requests = sum(1 for s in self.script if s["op"] == "message" and s["label"] == 1)
        self.model = None

    def fresh_engine(self) -> tuple[DispatchEngine, dict[str, str]]:
        """The registry every round starts from, and donor_id -> platform_id."""
        engine = DispatchEngine(stage_timeout=self.manifest["stage_timeout"])
        engine.restore(self.manifest["snapshot"])
        return engine, self.manifest["donor_map"]

    def load(self) -> None:
        """Load the model and restore the registry, after freeing the last ones."""
        self.model = None
        gc.collect()
        self.model = layer1.load_model(self.manifest["model"])
        self.fresh_engine()

    def close(self) -> None:
        self.model = None

    def round(self) -> Round:
        engine, donor_platform = self.fresh_engine()
        gateway = Gateway(self.model, RulesBackend(), engine=engine, clock=engine.clock)
        pending: deque[tuple[str, str]] = deque()  # (message_id, donor platform_id)
        opened: list[str] = []  # message ids with a case, targets of edits
        outbound: list[dict] = []
        rnd = Round(messages=len(self.texts))
        found = 0
        wall = time.perf_counter()
        for step in self.script:
            op = step["op"]
            if op == "message":
                ev = InboundEvent(
                    kind="message", group_id=step["group"], sender=step["sender"],
                    message_id=step["message_id"], text=step["text"], tick=step["tick"],
                )
            elif op == "reply":
                if not pending:
                    continue
                message_id, sender = pending.popleft()
                ev = InboundEvent(
                    kind="donor_response", sender=sender, message_id=message_id,
                    text=step["answer"], tick=step["tick"],
                )
            elif op == "edit":
                if not opened:
                    continue
                message_id = opened[step["pick"] % len(opened)]
                text = self.texts[message_id] + gen.MANAGED_SUFFIX
                ev = InboundEvent(kind="edit", message_id=message_id, text=text, tick=step["tick"])
            else:
                ev = None
            rnd.attempted += 1
            t0 = time.perf_counter()
            try:
                engine.advance_to(step["tick"])
                action = gateway.handle_event(ev) if ev is not None else None
                events = engine.drain_outbound()
            except Exception as exc:  # counted as a failed event; the run goes on
                rnd.fail(f"{op} at tick {step['tick']}: {exc!r}")
                continue
            elapsed = time.perf_counter() - t0
            rnd.events.append(elapsed)
            outbound.extend(events)
            for out in events:
                if out["kind"] == "donor_alert":
                    case = engine.cases[out["request_id"]]
                    pending.append((case.message_id, donor_platform[out["donor_id"]]))
            if op == "message" and action["action"] == "ingested" and action["trace"]["request_id"]:
                rnd.alerts.append(elapsed)
                opened.append(step["message_id"])
                found += step["label"]
        rnd.wall = time.perf_counter() - wall
        rnd.layer2_calls = gateway.layer2_calls
        rnd.ledger_entries = len(engine.ledger)
        rnd.recall = found / self.requests if self.requests else 1.0
        rnd.digest = digest(outbound)
        for problem in ledger_invariants(outbound, engine.cases, len(engine.ledger), engine.clock.epoch_date):
            rnd.fail(problem)
        return rnd


class _Recording(Backend):
    """Passes parses through and keeps the last outcome for the recall count."""

    def __init__(self, inner: Backend) -> None:
        self.inner = inner
        self.name = inner.name
        self.calls = 0
        self.last: ParseRecord | None = None

    def parse(self, text: str) -> ParseRecord:
        self.calls += 1
        self.last = self.inner.parse(text)
        return self.last


class ParseEval(InProcess):
    """Offline parser evaluation plus TED-weighted scoring of perturbed pairs.

    An event is one scored item: a gold message parsed and scored by
    `evaluate_parser`, or one (gold, perturbed) pair scored by
    `parsing_score`. Gold items whose gold outcome is a request stand in
    for the case-opening messages of the serving workloads.
    """

    def __init__(self, manifest: dict) -> None:
        super().__init__(manifest)
        self.goldset: list = []
        self.pairs = [
            (schema.validate(json.dumps(g)), schema.validate(json.dumps(p))) for g, p in manifest["pairs"]
        ]

    def load(self) -> None:
        """Read and validate the gold-set file, as `cbrs eval-parse` does."""
        self.goldset = evalkit.load_goldset(Path(self.manifest["goldset"]))

    def round(self) -> Round:
        backend = _Recording(RulesBackend())
        rnd = Round(messages=len(self.goldset))
        requests = found = 0
        wall = time.perf_counter()
        for item in self.goldset:
            rnd.attempted += 1
            t0 = time.perf_counter()
            report = evalkit.evaluate_parser(backend, [item])
            elapsed = time.perf_counter() - t0
            if report.errors:
                rnd.fail(f"parser error on gold item {item[0][:40]!r}")
                continue
            rnd.events.append(elapsed)
            rnd.scores.append(report.overall_weighted)
            if not item[1].is_negative:
                requests += 1
                rnd.alerts.append(elapsed)
                found += not backend.last.outcome.is_negative
        pairs_start = time.perf_counter()
        for gold, pred in self.pairs:
            rnd.attempted += 1
            t0 = time.perf_counter()
            score = evalkit.parsing_score(gold, pred)
            rnd.events.append(time.perf_counter() - t0)
            rnd.scores.append(score.weighted)
        end = time.perf_counter()
        rnd.wall = end - wall
        rnd.pair_seconds = end - pairs_start
        rnd.pairs = len(self.pairs)
        rnd.layer2_calls = backend.calls
        rnd.recall = found / requests if requests else 1.0
        rnd.digest = digest([round(s, 9) for s in rnd.scores])
        return rnd
