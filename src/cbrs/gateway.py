"""The outermost shell: chat adapter contract, pipeline, and simulation.

Real chat platforms are out of scope; the adapter contract is an
:class:`InboundEvent` in and reply/notification events out, so platform
bindings can be added without touching the core. Every message that opens a
case has a four-stage trace (arrival, parsed-and-stored, first notification,
first affirmative response), which `case_trace` derives from the saved case
and its ledger entries, so it survives a restart; stage timestamps come from
the injected clock and are monotone by construction. Messages and edits
share one two-layer decision; a Layer-2 failure is an error, never a
negative, and changes nothing: the sender's redelivery is the retry.

`Gateway.replay` is the one step from a scenario line to its transcript
entries: it moves the clock to the line's tick, applies the line and emits
the outbound events that fell due and that the line caused. `simulate`
and the crash-replay tests both run it. A donor write goes through
`Gateway.put_donor`, for scenario lines and `POST /donors` alike, and
persists before it returns, as `handle_event` does.
"""

from __future__ import annotations

import hashlib
import json
import logging
import statistics
import string
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

from . import layer1
from .dispatch import DONOR_FIELDS, Clock, DispatchEngine
from .layer1 import ClassifierModel
from .layer2 import Backend
from .records import DonorRecord, PipelineTrace, RequestCase, encode, read_fields
from .schema import ParseOutcome

log = logging.getLogger(__name__)

EVENT_KINDS = ("message", "edit", "command", "donor_response")

COMMANDS = ("/start", "/help", "/show_my_info", "/update_my_info", "/register_as_donor", "/goodbye")

HELP_TEXT = """Available commands:
/start              Initialize interaction with the bot
/help               Display a user guide
/show_my_info       Show the registered user details
/update_my_info     Update user information
/register_as_donor  Register as a blood donor
/goodbye            End interaction with the bot"""

_YES_WORDS = frozenset({"yes", "y", "sure", "ok", "okay", "raji", "parbo", "ji", "হ্যাঁ", "হা"})
_LEADING_YES_WORDS = frozenset({"yes", "y", "হ্যাঁ"})  # the others also lead refusals: "parbo na", "ji na"


@dataclass(frozen=True)
class InboundEvent:
    kind: str
    platform: str = "sim"
    group_id: str = "g1"
    sender: str = ""
    message_id: str = ""
    text: str = ""
    tick: int = 0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")


def decode_event(obj: dict, required: Iterable[str] = (), **defaults) -> InboundEvent:
    """The event a JSON object describes, read by `records.read_fields`;
    fields it lacks come from `defaults`, then from `InboundEvent`'s own.
    ValueError for an unknown kind."""
    return InboundEvent(**{**defaults, **read_fields(InboundEvent, obj, required=required)})


@dataclass(frozen=True)
class Decision:
    """What the two layers made of one text."""

    status: str  # a PipelineTrace.layer2_outcome value
    layer1_prob: float  # rounded to 9 digits, as records hold it
    outcome: ParseOutcome | None  # None on a Layer-2 error


def intake_token(platform_id: str) -> str:
    """Stable per-sender token for the donor-intake URL."""
    return hashlib.blake2b(platform_id.encode("utf-8"), digest_size=8).hexdigest()


def case_trace(engine: DispatchEngine, case: RequestCase) -> PipelineTrace:
    """The trace of the message that opened `case`, from the records a
    snapshot saves: the case's creation, its earliest alert and its fulfilment."""
    notified = min((e.notified_at for e in engine.case_entries(case.request_id)), default=None)
    return PipelineTrace(case.message_id, case.created_at, case.created_at, notified, case.fulfilled_at,
                         case.layer1_prob, "request", case.request_id)


class Gateway:
    """Wires the classifier, the parser backend, and the dispatch engine.

    The engine's clock is the one time source: `clock` only builds the
    default engine, and a clock that is not the given engine's is refused.
    An event's `tick` and `group_id` are read by no rule, so a redelivery is
    accepted whatever came after it. `engine.case_by_message` is the one
    index that routes a message or edit.
    """

    def __init__(
        self,
        model: ClassifierModel,
        backend: Backend,
        engine: DispatchEngine | None = None,
        clock: Clock | None = None,
        snapshot_path: str | Path | None = None,
        threshold: float | None = None,
    ):
        if engine is None:
            engine = DispatchEngine(clock=clock)
        elif clock is not None and clock is not engine.clock:
            raise ValueError("clock is not the engine's: pass the engine alone")
        self.engine = engine
        self.model = model
        self.backend = backend
        self.threshold = threshold if threshold is not None else model.hyper.threshold
        self.snapshot_path = Path(snapshot_path) if snapshot_path else None
        self.layer2_calls = 0

    @property
    def clock(self) -> Clock:
        return self.engine.clock

    # -- command surface ----------------------------------------------------

    def handle_command(self, cmd: str, sender: str) -> str:
        """Exact string dispatch over the slash-command surface."""
        if not cmd.startswith("/"):
            raise ValueError("commands must start with '/'")
        name = cmd.split()[0]
        if name == "/start":
            return (
                "Hello! I watch this group for blood-request messages and alert "
                "registered donors. Send /help for the command list."
            )
        if name == "/help":
            return HELP_TEXT
        if name == "/show_my_info":
            donor = self.engine.donor_by_platform(sender)
            if donor is None:
                return "You are not registered yet. Send /register_as_donor to begin."
            last = donor.last_donation_date.isoformat() if donor.last_donation_date else "never"
            return (
                f"donor_id: {donor.donor_id}\n"
                f"blood_group: {donor.blood_group}\n"
                f"location: ({donor.latitude:.4f}, {donor.longitude:.4f})\n"
                f"last_donation_date: {last}"
            )
        if name in ("/register_as_donor", "/update_my_info"):
            token = intake_token(sender)
            return f"Use your personal intake link to submit details: https://intake.invalid/d/{token}"
        if name == "/goodbye":
            return "Goodbye! Send /start any time to resume."
        return HELP_TEXT

    # -- pipeline -----------------------------------------------------------

    def _decide(self, ev: InboundEvent) -> Decision:
        """Run both layers on the event's text.

        Texts below the Layer-1 threshold never reach the backend; that is
        the entire cost case for the two-layer design. A backend that
        raises or returns a failed record is an error, never a negative:
        it is logged with the event's message id, and the caller changes
        nothing for it, so the sender's redelivery is the retry.
        """
        p_positive = layer1.forward(self.model, ev.text).p_positive
        prob = round(p_positive, 9)
        if p_positive < self.threshold:
            return Decision("skipped", prob, ParseOutcome.negative())
        try:
            record = self.backend.parse(ev.text)
        except Exception as exc:
            log.error("layer-2 backend failed for %s: %s", ev.message_id, exc)
            return Decision("error", prob, None)
        self.layer2_calls += 1
        if record.failed:
            log.error("layer-2 parse failed for %s: %s", ev.message_id, record.error)
            return Decision("error", prob, None)
        status = "negative" if record.outcome.is_negative else "request"
        return Decision(status, prob, record.outcome)

    def ingest_message(self, ev: InboundEvent) -> PipelineTrace:
        """Run one message through both layers and, on a parse, open its case
        and answer its trace. A redelivery (an id with a case) changes
        nothing, its trace naming the case; nor does a Layer-2 error."""
        if ev.kind != "message":
            raise ValueError(f"ingest_message needs a message event, got {ev.kind!r}")
        request_id = self.engine.case_by_message.get(ev.message_id)
        if request_id is not None:
            return PipelineTrace(ev.message_id, self.clock.now, request_id=request_id)
        decision = self._decide(ev)
        if decision.status != "request":
            return PipelineTrace(ev.message_id, self.clock.now, layer1_prob=decision.layer1_prob, layer2_outcome=decision.status)
        case = self.engine.open_case(ev.message_id, decision.outcome.request, layer1_prob=decision.layer1_prob)
        return case_trace(self.engine, case)

    def handle_edit_event(self, ev: InboundEvent) -> str:
        """Edits re-run both layers, through the same decision as messages.

        Edits of a message with a case go through dispatch (managed markers
        resolve it without reaching either layer, other changes update it).
        An edit of a message without a case is read as a message, whether
        or not this gateway saw the original: it answers "new-case" or
        "ignored-non-request". A Layer-2 error answers "parse-error" and
        changes no case.
        """
        if ev.kind != "edit":
            raise ValueError(f"handle_edit_event needs an edit event, got {ev.kind!r}")
        if ev.message_id in self.engine.case_by_message:
            return self.engine.handle_edit(ev.message_id, ev.text, lambda _: self._decide(ev).outcome)
        trace = self.ingest_message(replace(ev, kind="message"))
        if trace.layer2_outcome == "error":
            return "parse-error"
        return "new-case" if trace.request_id else "ignored-non-request"

    def handle_donor_response(self, ev: InboundEvent) -> str:
        """Route a donor's reply to its request's ledger: a yes if it is one yes word,
        or several words led by yes, y or হ্যাঁ (casefolded, less trailing punctuation)."""
        if ev.kind != "donor_response":
            raise ValueError(f"expected donor_response, got {ev.kind!r}")
        donor = self.engine.donor_by_platform(ev.sender)
        if donor is None:
            return "ignored-unregistered"
        request_id = self.engine.case_by_message.get(ev.message_id)
        if request_id is None:
            return "ignored-unknown-request"
        if (request_id, donor.donor_id) not in self.engine.ledger:
            return "ignored-not-alerted"
        words = ev.text.casefold().split()
        first = words[0].rstrip(string.punctuation + "।") if words else ""
        affirmative = first in (_YES_WORDS if len(words) == 1 else _LEADING_YES_WORDS)
        return self.engine.handle_response(request_id, donor.donor_id, affirmative)

    def handle_event(self, ev: InboundEvent) -> dict:
        """Uniform entry point; returns a JSON-friendly action record.

        What the event changed is persisted before the record is returned.
        """
        if ev.kind == "command" or (ev.kind == "message" and ev.text.startswith("/")):
            action = {"action": "command_reply", "reply": self.handle_command(ev.text, ev.sender)}
        elif ev.kind == "message":
            action = {"action": "ingested", "trace": encode(self.ingest_message(ev))}
        elif ev.kind == "edit":
            action = {"action": "edit", "status": self.handle_edit_event(ev)}
        else:
            action = {"action": "donor_response", "status": self.handle_donor_response(ev)}
        self.persist()
        return action

    def put_donor(self, platform_id: str, fields: dict) -> DonorRecord:
        """Write a donor by `DispatchEngine.put_donor`'s rule and persist
        the write before returning the record."""
        record = self.engine.put_donor(platform_id, fields)
        self.persist()
        return record

    def replay(self, line: dict, decoded: InboundEvent | tuple[str, dict] | None) -> list[dict]:
        """The transcript entries of one scenario line and what it decoded
        to (`load_scenario`). The clock moves to the line's tick and the
        outbound events that fell due come first. Then the line is applied:
        an event by `handle_event`, a donor write by `put_donor`, and an
        `advance` line only persists. The outbound events the line caused
        come last."""
        tick = line["tick"]

        def outbound() -> list[dict]:
            return [{"tick": tick, "event": {"kind": "outbound"}, "action": e} for e in self.engine.drain_outbound()]

        self.engine.advance_to(tick)
        due = outbound()
        if line["kind"] == "advance":
            self.persist()
            action = {"action": "advance"}
        elif line["kind"] == "donor":
            action = {"action": "donor_registered", "donor_id": self.put_donor(*decoded).donor_id}
        else:
            action = self.handle_event(decoded)
        return [*due, {"tick": tick, "event": line, "action": action}, *outbound()]

    def persist(self) -> None:
        """Save the engine's unsaved changes to `snapshot_path`, if one is set.
        A failed save takes the restart path, then raises: the engine is put
        back as restored from the file, which holds exactly the acknowledged
        state (none while there is no file), but the clock keeps its time. The
        outbound events queued by the last successful save stay queued
        (`engine.outbound_saved`); those whose changes the file lacks go."""
        try:
            if self.snapshot_path is not None:
                self.engine.persist(self.snapshot_path)
        except Exception:
            engine = DispatchEngine(self.clock, self.engine.stage_size, self.engine.stage_timeout, self.engine.eligibility_days)
            if self.snapshot_path.exists():
                engine.restore(self.snapshot_path)  # if this raises too, the engine stays as it is
            engine.outbound = self.engine.outbound[: self.engine.outbound_saved]
            engine.outbound_saved = len(engine.outbound)
            self.engine = engine
            raise


# --------------------------------------------------------------------------
# Scenario simulation


@dataclass
class SimulationResult:
    transcript: list[dict]
    traces: dict[str, PipelineTrace]
    summary: dict
    engine: DispatchEngine

    def transcript_text(self) -> str:
        return "\n".join(json.dumps(entry, sort_keys=True, ensure_ascii=False) for entry in self.transcript)


def _duration_stats(values: list[int]) -> dict:
    if not values:
        return {"count": 0, "mean": None, "stddev": None}
    return {
        "count": len(values),
        "mean": statistics.mean(values),
        "stddev": statistics.pstdev(values),
    }


def summarize_traces(traces: dict[str, PipelineTrace]) -> dict:
    """Mean/stddev of parse, retrieval, and response durations of case traces."""
    parse, retrieval, response = [], [], []
    for trace in traces.values():
        parse.append(trace.t_parsed_stored - trace.t_arrival)
        if trace.t_first_notification is not None:
            retrieval.append(trace.t_first_notification - trace.t_parsed_stored)
        if trace.t_first_response is not None:
            response.append(trace.t_first_response - trace.t_first_notification)
    return {
        "parse_seconds": _duration_stats(parse),
        "retrieval_seconds": _duration_stats(retrieval),
        "response_seconds": _duration_stats(response),
        "fulfilled_with_full_trace": len(response),
    }


class ScenarioError(Exception):
    """Scenario file is malformed; the message carries the line number."""


def bundled_scenarios() -> list[Path]:
    """Paths of the scenario suite shipped inside the package."""
    from importlib import resources

    root = Path(str(resources.files("cbrs.data").joinpath("scenarios")))
    return sorted(root.glob("*.jsonl"))


def _decode_line(obj: object) -> InboundEvent | tuple[str, dict] | dict | None:
    """What a scenario line decodes to: an event, a donor write (the
    arguments of `Gateway.put_donor`), a `config` line's staging knobs, or
    nothing (`advance`). ValueError, or a FieldError naming the fields,
    unless it has an integer `tick` and a `kind` whose fields decode."""
    if not isinstance(obj, dict) or "tick" not in obj or "kind" not in obj:
        raise ValueError("event needs 'tick' and 'kind'")
    read_fields(InboundEvent, obj, ("tick",))
    kind = obj["kind"]
    if kind in EVENT_KINDS:
        return decode_event(obj)
    if kind == "donor":
        sender = read_fields(InboundEvent, obj, ("sender",), required=("sender",))["sender"]
        return sender, read_fields(DonorRecord, obj, DONOR_FIELDS)
    if kind == "config":
        return read_fields(DispatchEngine, obj)  # the staging knobs
    if kind != "advance":
        raise ValueError(f"unknown kind {kind!r}")
    return None


def load_scenario(path: str | Path) -> tuple[dict, list[tuple[dict, object]]]:
    """The staging knobs of a scenario file's `config` line (none without
    one), and its other lines, each with what it decodes to
    (`_decode_line`) for `Gateway.replay`. A `config` line comes first,
    with knobs the engine accepts (`check_staging`), and each donor line is
    a write the engine accepts (the donor lines are applied, in order, to
    a scratch registry built with the knobs). Every line, `config` too, is
    in tick order. ScenarioError names the file and line of the first bad
    one."""
    knobs: dict = {}
    lines: list[tuple[dict, object]] = []
    ticks: list[int] = []
    registry = DispatchEngine()
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            try:
                obj = json.loads(line)
                decoded = _decode_line(obj)
                if obj["kind"] == "config":
                    if ticks:
                        raise ValueError("config must be the first scenario line")
                    knobs, registry = decoded, DispatchEngine(**decoded)
                else:
                    if obj["kind"] == "donor":
                        registry.put_donor(*decoded)
                    lines.append((obj, decoded))
            except ValueError as exc:
                raise ScenarioError(f"{path}:{lineno}: {exc}") from exc
            ticks.append(obj["tick"])
    if ticks != sorted(ticks):
        raise ScenarioError(f"{path}: events must be ordered by tick")
    return knobs, lines


def simulate(
    scenario_path: str | Path,
    model: ClassifierModel,
    backend: Backend,
    threshold: float | None = None,
) -> SimulationResult:
    """Replay a scripted event timeline under a logical clock.

    Scenario files are line-delimited JSON with a ``tick`` field. Besides
    the four inbound kinds, ``donor`` lines write donors as ``POST /donors``
    does (standing in for the out-of-scope intake form), ``advance`` lines
    only move time, and an optional leading ``config`` line overrides the
    staging knobs. Each line goes through `Gateway.replay`. Identical
    scenarios produce byte-identical transcripts.
    """
    knobs, lines = load_scenario(scenario_path)
    gateway = Gateway(model=model, backend=backend, engine=DispatchEngine(**knobs), threshold=threshold)
    transcript = [entry for line, decoded in lines for entry in gateway.replay(line, decoded)]
    engine = gateway.engine
    traces = {case.message_id: case_trace(engine, case) for case in engine.cases.values()}
    summary = summarize_traces(traces)
    summary["cases"] = {
        rid: engine.cases[rid].status for rid in sorted(engine.cases)
    }
    summary["layer2_calls"] = gateway.layer2_calls
    return SimulationResult(
        transcript=transcript, traces=traces, summary=summary, engine=engine
    )
