"""Spans around calls into each layer, recorded from outside the program.

`Tracer.install()` replaces public functions and methods of the `cbrs`
modules with timing wrappers and `uninstall()` puts the originals back, so
untraced runs execute the program unmodified. A span records its layer
name, duration and self time (duration minus the time its child spans
cover) and the id of the event it belongs to, taken from the outermost
span: the `message_id` of a gateway event, otherwise the HTTP request
line or the span's name, plus a sequence number. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import cbrs.dispatch
import cbrs.evalkit
import cbrs.gateway
import cbrs.layer1
import cbrs.layer2
import cbrs.schema
import cbrs.service


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []
        self.spans: list[tuple[str, str, float, float]] = []  # event id, name, duration, self
        self.counts: dict[str, float] = defaultdict(float)
        self._roots = itertools.count()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def record(self, name: str, seconds: float, overlaps: bool = False) -> None:
        """A span timed by the caller, in the current event. Unless it
        `overlaps` spans already recorded, it counts as a child of the
        enclosing span."""
        stack = self._stack()
        event = stack[0][3] if stack else f"{name}#{next(self._roots)}"
        if stack and not overlaps:
            stack[-1][2] += seconds
        with self._lock:
            self.spans.append((event, name, seconds, seconds))

    def span(self, name: str | Callable[..., str | None], fn: Callable, on_result: Callable | None = None) -> Callable:
        """Wrap `fn` so each call records a span; `name` may be computed from the call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if label is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            event = stack[0][3] if stack else self._event_id(label, args, kwargs)
            frame = [label, time.perf_counter(), 0.0, event]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = time.perf_counter() - frame[1]
                if stack:
                    stack[-1][2] += duration
                with self._lock:
                    self.spans.append((event, label, duration, duration - frame[2]))
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return wrapper

    def _event_id(self, label: str, args: tuple, kwargs: dict) -> str:
        """`message_id` (or HTTP request line, or span name) and a sequence
        number, unique across the rounds that replay one script."""
        for value in (*args, *kwargs.values()):
            message_id = getattr(value, "message_id", None)
            if isinstance(message_id, str) and message_id:
                label = message_id
                break
            path = getattr(value, "path", None)
            if isinstance(path, str):
                label = f"{getattr(value, 'command', '')} {path}"
        return f"{label}#{next(self._roots)}"

    def patch(self, owner: Any, attr: str, name, on_result: Callable | None = None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, on_result))

    # -- the layer boundaries -----------------------------------------------

    def install(self) -> None:
        """Wrap the public entry points of every layer.

        Functions imported by name into another module are patched where
        they are looked up (`cbrs.layer1.tokenize`, not `cbrs.textrep`).
        """
        l1, l2, sch, dsp, ev = cbrs.layer1, cbrs.layer2, cbrs.schema, cbrs.dispatch, cbrs.evalkit
        engine = dsp.DispatchEngine

        def forward_done(pred, model, text):
            self.count("layer1.calls")
            self.count("layer1.passed", pred.label)

        def parse_done(record, backend, text):
            self.count("layer2.calls")
            self.count("layer2.errors", record.failed)
            self.count("layer2.repairs", record.repair_applied)
            self.count("layer2.requests", not record.failed and not record.outcome.is_negative)
            self.count("layer2.input_tokens", record.input_tokens)

        def ranked(result, eng, case):
            self.count("dispatch.ranked", len(result))

        def stage_done(entries, eng, case):
            self.count("dispatch.stages_fired", bool(entries))
            self.count("dispatch.alerts", len(entries))

        def persisted(result, eng, path):
            self.count("dispatch.persist_calls")
            self.count("dispatch.persist_bytes", os.path.getsize(path))

        def tree_sizes(result, a, b):
            self.count("ted.pairs")
            self.count("ted.nodes", a.size() + b.size())

        self.patch(cbrs.gateway.Gateway, "handle_event", "gateway.handle_event")
        self.patch(l1, "normalize_text", "corpus.normalize")
        self.patch(l1, "tokenize", "textrep.tokenize")
        self.patch(l1, "message_features", "textrep.featurize")
        self.patch(l1, "forward", "layer1.forward", forward_done)
        for backend in (l2.RulesBackend, l2.RemoteBackend):
            self.patch(backend, "parse", "layer2.parse", parse_done)
        self.patch(l2, "build_prompt", "layer2.build_prompt")
        self.patch(l2, "parse_remote", "layer2.remote")
        self.patch(sch, "validate", "schema.validate")
        self.patch(sch, "repair", "schema.repair")
        self.patch(sch, "canonicalize", "schema.canonicalize")
        self.patch(sch, "to_tree", "schema.to_tree")
        self.patch(engine, "open_case", "dispatch.open_case")
        self.patch(engine, "eligible_donors", "dispatch.eligible_donors", ranked)
        self.patch(engine, "notify_stage", "dispatch.notify_stage", stage_done)
        self.patch(engine, "advance_to", "dispatch.advance_to")
        self.patch(engine, "handle_response", "dispatch.handle_response")
        self.patch(engine, "handle_edit", "dispatch.handle_edit")
        self.patch(engine, "persist", "dispatch.persist", persisted)
        self.patch(engine, "restore", "dispatch.restore")
        self.patch(ev, "evaluate_parser", "evalkit.evaluate_parser")
        self.patch(ev, "parsing_score", "evalkit.parsing_score")
        self.patch(ev, "tree_edit_distance", "ted.distance", tree_sizes)
        handler = cbrs.service._Handler
        self.patch(handler, "do_POST", lambda h: f"service.post {h.path}")
        self.patch(handler, "do_GET", lambda h: "service.get_request" if h.path.startswith("/requests/") else None)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def by_event(self) -> dict[str, dict[str, float]]:
        """Self time per layer, summed over the spans of each event."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for event, name, _, self_time in self.spans:
            out[event][name] += self_time
        return out

    def write_events(self, path: Path) -> None:
        """One JSON line per event: its id and the self milliseconds of each layer."""
        with path.open("w", encoding="utf-8") as fh:
            for event, layers in self.by_event().items():
                fh.write(json.dumps({"event": event, "self_ms": {k: v * 1e3 for k, v in layers.items()}}) + "\n")


class TimedLock:
    """Stands in for the service lock and records wait and hold times."""

    def __init__(self, tracer: Tracer) -> None:
        self._lock = threading.Lock()
        self._tracer = tracer
        self._held_since = 0.0

    def __enter__(self) -> "TimedLock":
        t0 = time.perf_counter()
        self._lock.acquire()
        self._held_since = time.perf_counter()
        self._tracer.record("service.lock_wait", self._held_since - t0)
        return self

    def __exit__(self, *exc) -> None:
        held = time.perf_counter() - self._held_since
        self._lock.release()
        self._tracer.record("service.lock_hold", held, overlaps=True)

