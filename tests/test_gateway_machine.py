"""The Gateway under random event streams, with crashes.

`GatewayMachine` drives a `Gateway` that persists to a snapshot file, as a
chat platform and the HTTP service do: messages (requests, chatter, hard
negatives), redeliveries of sent messages, edits (a managed marker, a field
change, chatter edited into a request, an id never sent), donor writes
through `Gateway.put_donor`, donor replies from alerted donors and others,
clock steps through `Gateway.replay`, and crashes, after which a new engine
and a new gateway are restored from the file alone. Each new message comes
a tick after the last event; a redelivery carries its message's first tick,
as a sender's retry does, so it is older than the messages sent in between.
Two rules fail a step: a broken Layer-2 backend, which both gateways see,
and a full disk, which only the live gateway's persist meets; the twin gets
an event only if the live gateway acknowledged it.

A twin gateway gets the same events and never restarts. After every step,
the failed ones included:
- every answer and every outbound event drained so far equals the twin's;
- a fresh restore of the file equals the live engine in every field;
- `LedgerMachine`'s ledger laws hold (tests/test_dispatch_index.py), and a
  message id has at most one case;
- the twin keeps a trace for each case and for nothing else, and the live
  gateway the twin's trace of each case it saw open.
"""

import errno
import shutil
import tempfile
from functools import lru_cache
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from cbrs import dispatch as dp
from cbrs import journal
from cbrs import layer1
from cbrs.dispatch import Clock, DispatchEngine
from cbrs.gateway import Gateway, InboundEvent
from cbrs.layer2 import RulesBackend
from cbrs.synth import separable_corpus
from test_gateway import BrokenBackend
from test_journal import engine_state

KNOBS = {"stage_size": 1, "stage_timeout": 600}
REQUESTS = (
    "Urgent! 2 bags O+ blood needed at Square Hospital, Dhaka. Call 01712345678 today.",
    "Urgent! 3 bags O+ blood needed at Square Hospital, Dhaka. Call 01712345678 tomorrow.",
    "Emergency: need 2 units AB- blood today at Popular Hospital, Dhaka. Please call 01811122233.",
)
CHATTER = (
    "Anyone up for cricket practice this evening at the field?",
    "Reminder: the picnic bus leaves at 8 in the morning sharp.",
)
# Passes Layer 1, and Layer 2 reads it as no request.
HARD_NEGATIVE = "We are very grateful to Rahim bhai for donating 2 bags A+ blood at Square Hospital, Dhaka."
MANAGED = "Update: Managed, thanks all."
PLATFORMS = ("p0", "p1", "p2", "p3")
POINTS = ((23.8103, 90.4125), (23.8203, 90.4125), (22.3569, 91.7832))


@lru_cache(maxsize=1)
def _model():
    """The scenario model of tests/conftest.py."""
    return layer1.train(separable_corpus(400, seed=13), layer1.Hyper(dim=16, buckets=1 << 14, epochs=8, lr=0.5, seed=7))


def _gateway(engine, snapshot=None):
    return Gateway(_model(), RulesBackend(), engine=engine, snapshot_path=snapshot)


class GatewayMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="gateway-machine-"))
        self.path = self.dir / "state.snap"
        self.live = _gateway(DispatchEngine(clock=Clock(), **KNOBS), self.path)
        self.live.persist()
        self.twin = _gateway(DispatchEngine(clock=Clock(), **KNOBS))
        self.tick = 0
        self.sent: dict[str, tuple[str, int]] = {}  # message id -> the text and tick first sent
        self.outbound: dict[str, list[dict]] = {"live": [], "twin": []}
        self.first_answer: dict[tuple[str, str], str] = {}
        self.managed: set[str] = set()

    def teardown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _both(self, step):
        """Apply `step` to both gateways; their answers must agree."""
        answer = step(self.live)
        assert answer == step(self.twin)
        self._drain()
        return answer

    def _drain(self):
        self.outbound["live"] += self.live.engine.drain_outbound()
        self.outbound["twin"] += self.twin.engine.drain_outbound()

    def _event(self, kind, **fields):
        ev = InboundEvent(**{"kind": kind, "tick": self.tick, **fields})
        return self._both(lambda g: g.handle_event(ev))

    def _new_message(self, text):
        """The id of a new message, sent a tick after the last event."""
        self.tick += 1
        message_id = f"m{len(self.sent)}"
        self.sent[message_id] = (text, self.tick)
        return message_id

    @rule(text=st.sampled_from((*REQUESTS, *CHATTER, HARD_NEGATIVE)))
    def message(self, text):
        self._event("message", message_id=self._new_message(text), text=text)

    @precondition(lambda self: self.sent)
    @rule(data=st.data())
    def redeliver(self, data):
        message_id = data.draw(st.sampled_from(sorted(self.sent)))
        request_id = self.live.engine.case_by_message.get(message_id)
        text, tick = self.sent[message_id]
        answer = self._event("message", message_id=message_id, text=text, tick=tick)
        if request_id is not None:
            assert answer["trace"]["request_id"] == request_id

    @rule(data=st.data(), text=st.sampled_from((MANAGED, *REQUESTS, *CHATTER)))
    def edit(self, data, text):
        message_id = data.draw(st.sampled_from([*sorted(self.sent), f"x{self.tick}"]))
        request_id = self.live.engine.case_by_message.get(message_id)
        self._event("edit", message_id=message_id, text=text)
        if text == MANAGED and request_id is not None and self.live.engine.cases[request_id].status in dp._TERMINAL:
            self.managed.add(request_id)

    @rule(platform=st.sampled_from(PLATFORMS), group=st.sampled_from(("O+", "AB-")), point=st.sampled_from(POINTS))
    def donor_write(self, platform, group, point):
        fields = {"blood_group": group, "latitude": point[0], "longitude": point[1]}
        self._both(lambda g: g.put_donor(platform, fields))

    @precondition(lambda self: self.sent)
    @rule(data=st.data(), affirmative=st.booleans())
    def reply(self, data, affirmative):
        engine = self.live.engine
        alerted = [(engine.cases[rid].message_id, donor_id) for rid, donor_id in sorted(engine.ledger)]
        if alerted and data.draw(st.booleans()):
            message_id, donor_id = data.draw(st.sampled_from(alerted))
            sender = next(d.platform_id for d in engine.donors.values() if d.donor_id == donor_id)
        else:
            message_id = data.draw(st.sampled_from(sorted(self.sent)))
            sender = data.draw(st.sampled_from((*PLATFORMS, "ghost")))
        donor = engine.donor_by_platform(sender)
        key = (engine.case_by_message.get(message_id), donor.donor_id if donor else None)
        if key in engine.ledger:
            self.first_answer.setdefault(key, "affirmative" if affirmative else "negative")
        self._event("donor_response", sender=sender, message_id=message_id, text="yes" if affirmative else "no")

    @rule(seconds=st.sampled_from([0, 300, 600, 86400]))
    def advance(self, seconds):
        self.tick += seconds
        line = {"tick": self.tick, "kind": "advance"}
        for name, gateway in (("live", self.live), ("twin", self.twin)):
            entries = gateway.replay(line, None)
            self.outbound[name] += [e["action"] for e in entries if e["event"]["kind"] == "outbound"]

    @rule(data=st.data(), text=st.sampled_from(REQUESTS), raises=st.booleans())
    def failing_backend(self, data, text, raises):
        """A new message or an edit whose Layer-2 call fails, on both
        gateways: an error that changes nothing. A later redelivery of the
        message, with its first tick, is its retry."""
        message_id = data.draw(st.sampled_from(["new", *sorted(self.sent)]))
        kind = "message" if message_id == "new" else "edit"
        if kind == "message":
            message_id = self._new_message(text)
        for gateway in (self.live, self.twin):
            gateway.backend = BrokenBackend(raises)
        try:
            answer = self._event(kind, message_id=message_id, text=text)
        finally:
            for gateway in (self.live, self.twin):
                gateway.backend = RulesBackend()
        if kind == "edit":
            assert answer == {"action": "edit", "status": "parse-error"}
        else:
            assert answer["trace"]["layer2_outcome"] == "error"

    @rule(data=st.data(), platform=st.sampled_from(PLATFORMS), text=st.sampled_from(REQUESTS))
    def disk_full(self, data, platform, text):
        """A new request message, a donor write or a "yes" from an alerted
        donor on the live gateway, whose persist meets a full disk: an
        append that writes half its batch, or a rewrite that writes nothing.
        The twin gets the step only if the live gateway changed nothing to
        write, and so acknowledged it."""

        def half(path, batch):
            with open(path, "ab") as fh:
                fh.write(batch[: len(batch) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        def nothing(path, batch):
            raise OSError(errno.ENOSPC, "No space left on device")

        engine = self.live.engine
        alerted = sorted(key for key, entry in engine.ledger.items() if entry.response == "none")
        kind = data.draw(st.sampled_from(["message", "donor", *(["reply"] if alerted else [])]))
        key = None
        if kind == "donor":
            fields = {"blood_group": "AB-", "latitude": POINTS[2][0], "longitude": POINTS[2][1]}
            step = lambda g: g.put_donor(platform, fields)  # noqa: E731
        else:
            if kind == "message":
                message_id = self._new_message(text)
                ev = InboundEvent(kind="message", tick=self.tick, message_id=message_id, text=text)
            else:
                key = data.draw(st.sampled_from(alerted))
                sender = next(d.platform_id for d in engine.donors.values() if d.donor_id == key[1])
                message_id = engine.cases[key[0]].message_id
                ev = InboundEvent(kind="donor_response", tick=self.tick, sender=sender, message_id=message_id, text="yes")
            step = lambda g: g.handle_event(ev)  # noqa: E731
        with mock.patch.object(journal, "_append", half), mock.patch.object(journal, "_replace", nothing):
            try:
                step(self.live)
            except OSError:
                return
        if key is not None:
            self.first_answer.setdefault(key, "affirmative")
        step(self.twin)

    @rule()
    def crash(self):
        """Drop the live gateway and its engine; restore new ones from the
        file. Outbound events already drained were delivered."""
        engine = DispatchEngine(clock=Clock(), **KNOBS)
        engine.restore(self.path)
        self.live = _gateway(engine, self.path)

    @invariant()
    def same_outbound_as_the_twin(self):
        self._drain()
        assert self.outbound["live"] == self.outbound["twin"]

    @invariant()
    def the_file_holds_the_live_engine(self):
        restored = DispatchEngine(clock=Clock(), **KNOBS)
        restored.restore(self.path)
        assert engine_state(restored) == engine_state(self.live.engine)

    @invariant()
    def a_message_has_at_most_one_case(self):
        engine = self.live.engine
        assert {c.message_id: rid for rid, c in engine.cases.items()} == engine.case_by_message
        assert len(engine.cases) == len(engine.case_by_message)

    @invariant()
    def ledger_laws(self):
        engine = self.live.engine
        outbound = self.outbound["live"]
        alerts = [(e["request_id"], e["donor_id"]) for e in outbound if e["kind"] == "donor_alert"]
        assert len(alerts) == len(set(alerts)) and set(alerts) == set(engine.ledger)
        for case in engine.cases.values():
            assert case.stages_fired <= dp.urgency_depth(case, engine.clock.epoch_date)
        for key, answer in self.first_answer.items():
            assert engine.ledger[key].response == answer
        notices = [(e["request_id"], e["donor_id"]) for e in outbound if e["kind"] == "resolution_notice"]
        assert len(notices) == len(set(notices))
        assert set(notices) == {key for key in engine.ledger if key[0] in self.managed}

    @invariant()
    def traces_are_kept_for_cases_only(self):
        assert set(self.twin.traces) == set(self.twin.engine.case_by_message)

    @invariant()
    def live_traces_are_the_twins(self):
        """The live gateway keeps the twin's trace of each case it saw open
        (a crash drops the traces of the cases opened before it)."""
        for message_id, trace in self.live.traces.items():
            assert trace == self.twin.traces[message_id]


GatewayMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_gateway_machine = GatewayMachine.TestCase
