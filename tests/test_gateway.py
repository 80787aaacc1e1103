import errno
import json
from dataclasses import replace

import pytest

from cbrs import gateway as gw
from cbrs import journal
from cbrs.dispatch import Clock, DispatchEngine, FULFILLED, RESOLVED_EXTERNALLY
from cbrs.gateway import Gateway, InboundEvent, bundled_scenarios, load_scenario, simulate
from cbrs.layer2 import Backend, ParseRecord, RulesBackend, parse_rules
from conftest import check_protocol_invariants

REQUEST_TEXT = "Urgent! 2 bags O+ blood needed at Square Hospital, Dhaka. Call 01712345678 today."
CHITCHAT = "Anyone up for cricket practice this evening at the field?"


class CountingBackend(Backend):
    """Wraps the rules backend and counts parse calls."""

    name = "counting"

    def __init__(self):
        self.calls = 0

    def parse(self, text):
        self.calls += 1
        return parse_rules(text)


class BrokenBackend(Backend):
    """Counts parse calls; each raises, or returns an unrepairable record."""

    name = "broken"

    def __init__(self, raises):
        self.raises = raises
        self.calls = 0

    def parse(self, text):
        self.calls += 1
        if self.raises:
            raise RuntimeError("down")
        return ParseRecord(
            outcome=None, input_tokens=1, output_tokens=1, latency_seconds=0.0, backend=self.name, error="bad"
        )


def _gateway(scenario_model, **kw):
    clock = Clock()
    backend = CountingBackend()
    g = Gateway(
        model=scenario_model,
        backend=backend,
        engine=DispatchEngine(clock=clock, stage_size=3),
        clock=clock,
        **kw,
    )
    return g, backend


def test_a_request_with_a_three_digit_year_restores(scenario_model, tmp_path):
    # The rules parser read "12/05/202" as the day, which the schema refuses,
    # and a snapshot holding it failed to restore.
    text = "Urgent O+ blood needed 12/05/202 at Square Hospital, Dhaka. Call 01712345678"
    g, _ = _gateway(scenario_model, snapshot_path=tmp_path / "state.snap")
    action = g.handle_event(InboundEvent("message", message_id="m1", text=text))
    assert action["trace"]["request_id"] == "r00001"
    restored = DispatchEngine(clock=Clock())
    restored.restore(tmp_path / "state.snap")
    assert restored.cases["r00001"].request == g.engine.cases["r00001"].request
    assert restored.cases["r00001"].request.probable_day == "12/05"


def test_a_case_whose_first_stage_stalled_gets_its_first_notification_time(scenario_model, tmp_path):
    lines = [
        {"tick": 0, "kind": "message", "message_id": "m1", "text": REQUEST_TEXT.replace("O+", "AB-")},
        {"tick": 100, "kind": "donor", "sender": "ana", "blood_group": "AB-", "latitude": 23.81, "longitude": 90.41},
        {"tick": 700, "kind": "donor_response", "sender": "ana", "message_id": "m1", "text": "yes"},
    ]
    path = tmp_path / "late_stage.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    result = simulate(path, scenario_model, RulesBackend())
    assert [(e["action"]["tick"], e["action"]["kind"]) for e in result.transcript if e["event"]["kind"] == "outbound"] == [
        (0, "operator_attention"), (600, "donor_alert"), (700, "seeker_update"),
    ]
    trace = result.traces["m1"]
    assert (trace.t_parsed_stored, trace.t_first_notification, trace.t_first_response) == (0, 600, 700)
    assert result.summary["fulfilled_with_full_trace"] == 1
    assert result.summary["retrieval_seconds"]["mean"] == 600


# -- commands -----------------------------------------------------------------


def test_help_lists_all_commands(scenario_model):
    g, _ = _gateway(scenario_model)
    reply = g.handle_command("/help", "u1")
    for cmd in gw.COMMANDS:
        assert cmd in reply


def test_show_my_info_roundtrip(scenario_model):
    g, _ = _gateway(scenario_model)
    g.engine.register_donor("u1", "O-", 23.81, 90.41)
    reply = g.handle_command("/show_my_info", "u1")
    assert "O-" in reply
    assert "d00001" in reply


def test_show_my_info_unregistered(scenario_model):
    g, _ = _gateway(scenario_model)
    assert "not registered" in g.handle_command("/show_my_info", "stranger")


def test_unknown_command_falls_back_to_help(scenario_model):
    g, _ = _gateway(scenario_model)
    assert g.handle_command("/frobnicate", "u1") == gw.HELP_TEXT


def test_register_returns_unique_stable_token(scenario_model):
    g, _ = _gateway(scenario_model)
    a1 = g.handle_command("/register_as_donor", "alice")
    a2 = g.handle_command("/update_my_info", "alice")
    b = g.handle_command("/register_as_donor", "bob")
    token = gw.intake_token("alice")
    assert token in a1 and token in a2
    assert gw.intake_token("bob") in b
    assert gw.intake_token("bob") != token


# -- ingest --------------------------------------------------------------------


def test_chitchat_never_calls_layer2(scenario_model):
    g, backend = _gateway(scenario_model)
    trace = g.ingest_message(InboundEvent(kind="message", message_id="m1", text=CHITCHAT))
    assert backend.calls == 0
    assert trace.layer2_outcome == "skipped"
    assert trace.t_parsed_stored is None


def test_request_flows_to_dispatch(scenario_model):
    g, backend = _gateway(scenario_model)
    g.engine.register_donor("alice", "O+", 23.81, 90.41)
    trace = g.ingest_message(InboundEvent(kind="message", message_id="m1", text=REQUEST_TEXT))
    assert backend.calls == 1
    assert trace.layer2_outcome == "request"
    assert trace.request_id is not None
    assert trace.t_parsed_stored == trace.t_arrival
    assert trace.t_first_notification is not None


def test_appreciation_passes_layer1_rejected_by_layer2(scenario_model):
    g, backend = _gateway(scenario_model)
    text = "We are very grateful to Rahim bhai for donating 2 bags A+ blood at Square Hospital, Dhaka."
    trace = g.ingest_message(InboundEvent(kind="message", message_id="m1", text=text))
    assert backend.calls == 1  # it got past layer 1
    assert trace.layer2_outcome == "negative"
    assert trace.request_id is None
    assert not g.engine.cases


def test_cost_path_calls_equal_layer1_positives(scenario_model):
    g, backend = _gateway(scenario_model)
    from cbrs import layer1

    positives = 0
    for i in range(200):
        text = REQUEST_TEXT if i % 10 == 0 else CHITCHAT
        text = f"{text} [{i}]"
        if layer1.forward(scenario_model, text).p_positive >= g.threshold:
            positives += 1
        g.ingest_message(InboundEvent(kind="message", message_id=f"m{i}", text=text, tick=i))
    assert backend.calls == positives


@pytest.mark.parametrize("raises", [True, False], ids=["raising", "failed-record"])
def test_backend_failure_is_logged_and_opens_nothing(scenario_model, caplog, raises):
    clock = Clock()
    g = Gateway(model=scenario_model, backend=BrokenBackend(raises), clock=clock)
    trace = g.ingest_message(InboundEvent(kind="message", message_id="m1", text=REQUEST_TEXT))
    assert trace.layer2_outcome == "error"
    assert (trace.request_id, g.engine.cases, g.traces) == (None, {}, {})
    assert "for m1:" in caplog.text
    assert g.layer2_calls == (0 if raises else 1)


def test_gateway_refuses_a_clock_other_than_its_engines(scenario_model):
    # The engine's clock is the one time source; a second one is an error,
    # not a silent replacement.
    engine = DispatchEngine(clock=Clock())
    with pytest.raises(ValueError, match="clock"):
        Gateway(model=scenario_model, backend=RulesBackend(), engine=engine, clock=Clock())
    g = Gateway(model=scenario_model, backend=RulesBackend(), engine=engine, clock=engine.clock)
    assert g.clock is engine.clock


def test_a_layer2_error_changes_nothing_and_its_redelivery_opens_the_case(scenario_model):
    # A message whose Layer-2 call failed changed nothing: a message before
    # it in the same group is ingested, and its redelivery (the retry)
    # opens the case.
    g, _ = _gateway(scenario_model)
    working = g.backend
    g.backend = BrokenBackend(raises=True)
    late = InboundEvent(kind="message", message_id="m2", text=REQUEST_TEXT, tick=50)
    assert g.ingest_message(late).layer2_outcome == "error"
    g.backend = working
    assert g.ingest_message(InboundEvent(kind="message", message_id="m1", text=CHITCHAT, tick=10)).layer2_outcome == "skipped"
    assert g.ingest_message(late).request_id == "r00001"


def test_a_redelivery_after_a_later_message_of_its_group_opens_its_case(scenario_model):
    # The redelivery carries its message's own tick, older than the message
    # that got through in between: no tick order refuses it.
    g, _ = _gateway(scenario_model)
    working, g.backend = g.backend, BrokenBackend(raises=True)
    request = InboundEvent(kind="message", message_id="m1", text=REQUEST_TEXT, tick=50)
    assert g.handle_event(request)["trace"]["layer2_outcome"] == "error"
    g.backend = working
    later = InboundEvent(kind="message", message_id="m2", text=CHITCHAT, tick=60)
    assert g.handle_event(later)["trace"]["layer2_outcome"] == "skipped"
    assert g.handle_event(request)["trace"]["request_id"] == "r00001"


def test_slash_message_routes_to_command(scenario_model):
    g, backend = _gateway(scenario_model)
    action = g.handle_event(InboundEvent(kind="message", message_id="m1", text="/help", sender="u"))
    assert action["action"] == "command_reply"
    assert backend.calls == 0


# -- edits ----------------------------------------------------------------------


def test_managed_edit_event(scenario_model):
    g, _ = _gateway(scenario_model)
    g.engine.register_donor("alice", "O+", 23.81, 90.41)
    g.ingest_message(InboundEvent(kind="message", message_id="m1", text=REQUEST_TEXT, tick=0))
    status = g.handle_edit_event(
        InboundEvent(kind="edit", message_id="m1", text="Update: Managed, " + REQUEST_TEXT, tick=5)
    )
    assert status == RESOLVED_EXTERNALLY


def test_edit_turns_chitchat_into_request(scenario_model):
    g, _ = _gateway(scenario_model)
    g.engine.register_donor("alice", "O+", 23.81, 90.41)
    g.ingest_message(InboundEvent(kind="message", message_id="m1", text=CHITCHAT, tick=0))
    assert not g.engine.cases
    status = g.handle_edit_event(InboundEvent(kind="edit", message_id="m1", text=REQUEST_TEXT, tick=5))
    assert status == "new-case"
    assert len(g.engine.cases) == 1


def test_edit_never_seen_message_is_read_as_a_message(scenario_model):
    g, _ = _gateway(scenario_model)
    g.engine.register_donor("alice", "O+", 23.81, 90.41)
    status = g.handle_edit_event(InboundEvent(kind="edit", message_id="mX", text=REQUEST_TEXT, tick=0))
    assert status == "new-case"
    assert g.engine.case_by_message == {"mX": "r00001"}
    status = g.handle_edit_event(InboundEvent(kind="edit", message_id="mY", text=CHITCHAT, tick=0))
    assert status == "ignored-non-request"


def _restarted(g, scenario_model, snapshot):
    """A new engine and gateway restored from `snapshot`, as after a crash."""
    engine = DispatchEngine(clock=Clock(), stage_size=3)
    engine.restore(snapshot)
    return Gateway(scenario_model, g.backend, engine=engine, snapshot_path=snapshot)


def test_edit_after_a_restart_turns_seen_chatter_into_a_case(scenario_model, tmp_path):
    snapshot = tmp_path / "s.snap"
    g, _ = _gateway(scenario_model, snapshot_path=snapshot)
    g.put_donor("alice", {"blood_group": "O+", "latitude": 23.81, "longitude": 90.41})
    g.handle_event(InboundEvent(kind="message", message_id="m1", text=CHITCHAT, tick=0))
    g = _restarted(g, scenario_model, snapshot)
    edit = InboundEvent(kind="edit", message_id="m1", text=REQUEST_TEXT, tick=5)
    assert g.handle_event(edit) == {"action": "edit", "status": "new-case"}
    assert g.engine.case_by_message == {"m1": "r00001"}


def _deliver_twice(scenario_model, snapshot, restart):
    """A request message, a persisted step of the clock, an optional
    restart, then the same message again: both answers, and the gateway."""
    g, backend = _gateway(scenario_model, snapshot_path=snapshot)
    for i in range(3):
        g.put_donor(f"u{i}", {"blood_group": "O+", "latitude": 23.81, "longitude": 90.41})
    message = InboundEvent(kind="message", message_id="m1", text=REQUEST_TEXT, tick=5)
    first = g.handle_event(message)
    g.replay({"tick": 30, "kind": "advance"}, None)  # drains the first stage's alerts
    if restart:
        g = _restarted(g, scenario_model, snapshot)
    size = snapshot.stat().st_size
    second = g.handle_event(replace(message, tick=1))  # late, yet answered
    assert snapshot.stat().st_size == size  # nothing changed, nothing written
    assert list(g.engine.cases) == ["r00001"] and backend.calls == 1
    assert g.engine.drain_outbound() == [] and len(g.engine.ledger) == 3
    return first, second, g


def test_a_redelivered_message_opens_nothing(scenario_model, tmp_path):
    first, second, g = _deliver_twice(scenario_model, tmp_path / "live.snap", restart=False)
    assert first["trace"]["request_id"] == "r00001"
    assert second == {"action": "ingested", "trace": {
        "message_id": "m1", "t_arrival": 30, "t_parsed_stored": None, "t_first_notification": None,
        "t_first_response": None, "layer1_prob": None, "layer2_outcome": "skipped", "request_id": "r00001"}}
    assert g.traces["m1"].t_arrival == 0  # the case's trace is the first delivery's
    assert _deliver_twice(scenario_model, tmp_path / "restart.snap", restart=True)[1] == second


def test_traces_are_kept_for_cases_only(scenario_model):
    g, _ = _gateway(scenario_model)
    g.engine.register_donor("alice", "O+", 23.81, 90.41)
    texts = [CHITCHAT, REQUEST_TEXT, "We are very grateful to Rahim bhai for donating 2 bags A+ blood.", CHITCHAT]
    for i, text in enumerate(texts):
        g.handle_event(InboundEvent(kind="message", message_id=f"m{i}", text=text, tick=i))
    g.handle_event(InboundEvent(kind="edit", message_id="m3", text=REQUEST_TEXT, tick=9))
    g.handle_event(InboundEvent(kind="edit", message_id="m0", text=CHITCHAT + "!", tick=9))
    assert set(g.traces) == set(g.engine.case_by_message) == {"m1", "m3"}


def test_edit_seen_message_still_not_request(scenario_model):
    g, _ = _gateway(scenario_model)
    g.ingest_message(InboundEvent(kind="message", message_id="m1", text=CHITCHAT, tick=0))
    status = g.handle_edit_event(InboundEvent(kind="edit", message_id="m1", text=CHITCHAT + "!", tick=5))
    assert status == "ignored-non-request"


@pytest.mark.parametrize("raises", [True, False], ids=["raising", "failed-record"])
def test_edit_of_case_with_layer2_error_changes_nothing(scenario_model, tmp_path, caplog, raises):
    snapshot = tmp_path / "s.snap"
    g, _ = _gateway(scenario_model, snapshot_path=snapshot)
    g.engine.register_donor("alice", "O+", 23.81, 90.41)
    g.handle_event(InboundEvent(kind="message", message_id="m1", text=REQUEST_TEXT))
    case = g.engine.cases[g.engine.case_by_message["m1"]]
    request, size, calls = case.request, snapshot.stat().st_size, g.layer2_calls
    g.backend = BrokenBackend(raises)
    edit = InboundEvent(kind="edit", message_id="m1", text=REQUEST_TEXT.replace("2 bags", "3 bags"), tick=5)
    assert g.handle_event(edit) == {"action": "edit", "status": "parse-error"}
    assert g.backend.calls == 1
    assert case.request == request
    assert snapshot.stat().st_size == size  # the case was not marked changed
    assert "for m1:" in caplog.text
    assert g.layer2_calls == calls + (0 if raises else 1)


def test_put_donor_and_replay_persist_before_they_return(scenario_model, tmp_path):
    snapshot = tmp_path / "s.snap"
    g, _ = _gateway(scenario_model, snapshot_path=snapshot)

    def restored():
        engine = DispatchEngine(clock=Clock())
        engine.restore(snapshot)
        return engine

    record = g.put_donor("alice", {"blood_group": "O+", "latitude": 23.81, "longitude": 90.41})
    assert restored().donors == {"alice": record}
    message = {"tick": 3, "kind": "message", "message_id": "m1", "text": REQUEST_TEXT}
    entries = g.replay(message, gw.decode_event(message))
    # The alert the message caused follows its entry.
    assert [(e["event"]["kind"], e["action"].get("kind")) for e in entries] == [
        ("message", None), ("outbound", "donor_alert")]
    assert restored().ledger == g.engine.ledger
    entries = g.replay({"tick": 10**6, "kind": "advance"}, None)
    # What fell due before the line comes first, and is persisted: the next
    # stage finds no donor left, then the deadline passes.
    assert [(e["event"]["kind"], e["action"].get("kind")) for e in entries] == [
        ("outbound", "operator_attention"), ("outbound", "case_expired"), ("advance", None)]
    assert restored().cases == g.engine.cases


@pytest.mark.parametrize("raises", [True, False], ids=["raising", "failed-record"])
def test_edit_of_seen_message_with_layer2_error(scenario_model, caplog, raises):
    g, _ = _gateway(scenario_model)
    g.ingest_message(InboundEvent(kind="message", message_id="m1", text=CHITCHAT, tick=0))
    g.backend = BrokenBackend(raises)
    status = g.handle_edit_event(InboundEvent(kind="edit", message_id="m1", text=REQUEST_TEXT, tick=5))
    assert status == "parse-error"
    assert g.backend.calls == 1
    assert not g.engine.cases
    assert "for m1:" in caplog.text
    assert g.layer2_calls == (0 if raises else 1)


# -- donor responses ---------------------------------------------------------------


def test_donor_response_fulfills_and_stamps_trace(scenario_model):
    g, _ = _gateway(scenario_model)
    g.engine.register_donor("alice", "O+", 23.81, 90.41)
    g.ingest_message(InboundEvent(kind="message", message_id="m1", text=REQUEST_TEXT, tick=0))
    g.clock.advance(30)
    status = g.handle_donor_response(
        InboundEvent(kind="donor_response", sender="alice", message_id="m1", text="yes", tick=30)
    )
    assert status == FULFILLED
    trace = g.traces["m1"]
    assert trace.t_first_response == 30
    stamps = trace.timestamps()
    assert stamps == sorted(stamps) and len(stamps) == 4


def test_donor_response_from_unregistered_ignored(scenario_model):
    g, _ = _gateway(scenario_model)
    status = g.handle_donor_response(
        InboundEvent(kind="donor_response", sender="ghost", message_id="m1", text="yes")
    )
    assert status == "ignored-unregistered"


def test_reply_from_a_donor_the_request_never_alerted_is_ignored(scenario_model, tmp_path):
    path = tmp_path / "not_alerted.jsonl"
    lines = [
        {"tick": 0, "kind": "config", "stage_size": 1},
        {"tick": 0, "kind": "donor", "sender": "a1", "blood_group": "O+", "latitude": 23.8103, "longitude": 90.4125},
        {"tick": 0, "kind": "donor", "sender": "b1", "blood_group": "B-", "latitude": 23.8103, "longitude": 90.4125},
        {"tick": 10, "kind": "message", "sender": "s", "message_id": "m1", "text": REQUEST_TEXT},
        {"tick": 20, "kind": "donor_response", "sender": "b1", "message_id": "m1", "text": "yes"},
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    result = simulate(path, scenario_model, RulesBackend())
    assert result.transcript[-1]["action"] == {"action": "donor_response", "status": "ignored-not-alerted"}
    assert [e.response for e in result.engine.ledger.values()] == ["none"]


# -- scenarios ----------------------------------------------------------------------


def test_bundled_scenario_suite_present():
    names = {p.stem for p in bundled_scenarios()}
    assert len(names) >= 10
    assert {"managed_edit", "donor_exhaustion", "simultaneous_affirmatives", "empty"} <= names


def test_scenarios_run_with_invariants_and_determinism(scenario_model):
    for path in bundled_scenarios():
        first = simulate(path, scenario_model, RulesBackend())
        second = simulate(path, scenario_model, RulesBackend())
        assert first.transcript_text() == second.transcript_text(), path.name
        check_protocol_invariants(first)


def test_simulation_deterministic_across_processes(scenario_model):
    # A fresh interpreter (fresh hash seed, fresh caches) must train the
    # same model and replay the same transcript byte for byte.
    import hashlib
    import subprocess
    import sys

    code = (
        "from cbrs import layer1\n"
        "from cbrs.gateway import bundled_scenarios, simulate\n"
        "from cbrs.layer1 import Hyper\n"
        "from cbrs.layer2 import RulesBackend\n"
        "from cbrs.synth import separable_corpus\n"
        "import hashlib\n"
        "model = layer1.train(separable_corpus(400, seed=13),"
        " Hyper(dim=16, buckets=1 << 14, epochs=8, lr=0.5, seed=7))\n"
        "path = next(p for p in bundled_scenarios() if p.stem == 'managed_edit')\n"
        "text = simulate(path, model, RulesBackend()).transcript_text()\n"
        "print(hashlib.sha256(text.encode()).hexdigest())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    path = next(p for p in bundled_scenarios() if p.stem == "managed_edit")
    local = simulate(path, scenario_model, RulesBackend()).transcript_text()
    assert out.stdout.strip() == hashlib.sha256(local.encode()).hexdigest()


def test_empty_scenario(scenario_model):
    path = next(p for p in bundled_scenarios() if p.stem == "empty")
    result = simulate(path, scenario_model, RulesBackend())
    assert result.transcript == []
    assert result.summary["cases"] == {}


def test_basic_scenario_outcome(scenario_model):
    path = next(p for p in bundled_scenarios() if p.stem == "basic_fulfilled")
    result = simulate(path, scenario_model, RulesBackend())
    assert list(result.summary["cases"].values()) == [FULFILLED]
    assert result.summary["response_seconds"]["count"] == 1
    assert result.summary["response_seconds"]["mean"] == 30  # tick 40 - tick 10


def test_three_requests_scenario(scenario_model):
    path = next(p for p in bundled_scenarios() if p.stem == "three_requests")
    result = simulate(path, scenario_model, RulesBackend())
    assert list(result.summary["cases"].values()) == [FULFILLED] * 3
    for trace in result.traces.values():
        assert len(trace.timestamps()) == 4


def test_managed_edit_scenario(scenario_model):
    path = next(p for p in bundled_scenarios() if p.stem == "managed_edit")
    result = simulate(path, scenario_model, RulesBackend())
    assert list(result.summary["cases"].values()) == [RESOLVED_EXTERNALLY]
    notices = [
        e["action"]
        for e in result.transcript
        if e["event"].get("kind") == "outbound" and e["action"]["kind"] == "resolution_notice"
    ]
    notified = {k[1] for k in result.engine.ledger}
    assert {n["donor_id"] for n in notices} == notified
    assert len(notices) == len(notified) == 4  # stages of 2 + 2 before the edit


def test_donor_exhaustion_scenario(scenario_model):
    path = next(p for p in bundled_scenarios() if p.stem == "donor_exhaustion")
    result = simulate(path, scenario_model, RulesBackend())
    case = next(iter(result.engine.cases.values()))
    assert case.needs_attention
    assert len(result.engine.ledger) == 2  # both donors used, nobody left
    attention = [
        e
        for e in result.transcript
        if e["event"].get("kind") == "outbound" and e["action"]["kind"] == "operator_attention"
    ]
    assert attention


def test_urgency_depths_scenario(scenario_model):
    path = next(p for p in bundled_scenarios() if p.stem == "urgency_depths")
    result = simulate(path, scenario_model, RulesBackend())
    by_message = {c.message_id: c for c in result.engine.cases.values()}
    counts = {
        mid: sum(1 for (rid, _) in result.engine.ledger if rid == case.request_id)
        for mid, case in by_message.items()
    }
    assert counts == {"m_today": 3, "m_tomorrow": 2, "m_nodate": 1}


def test_simultaneous_affirmatives_scenario(scenario_model):
    path = next(p for p in bundled_scenarios() if p.stem == "simultaneous_affirmatives")
    result = simulate(path, scenario_model, RulesBackend())
    assert list(result.summary["cases"].values()) == [FULFILLED]
    seeker_updates = [
        e
        for e in result.transcript
        if e["event"].get("kind") == "outbound" and e["action"]["kind"] == "seeker_update"
    ]
    assert len(seeker_updates) == 1


def test_scenario_rejects_malformed(tmp_path, scenario_model):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"tick": 0, "kind": "message"}\n{oops\n')
    with pytest.raises(gw.ScenarioError) as err:
        load_scenario(bad)
    assert ":2" in str(err.value)


@pytest.mark.parametrize(
    "line,field",
    [('{"tick": 1, "kind": "message", "message_id": "m1", "text": 5}', "text"),
     ('{"tick": true, "kind": "edit", "message_id": "m1", "text": "x"}', "tick"),
     ('{"tick": 1.5, "kind": "donor_response", "sender": "u1", "text": "yes"}', "tick")],
    ids=["text", "tick-bool", "tick-float"],
)
def test_scenario_rejects_wrong_typed_event(tmp_path, scenario_model, line, field):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"tick": 0, "kind": "advance"}\n' + line + "\n")
    with pytest.raises(gw.ScenarioError) as err:
        simulate(bad, scenario_model, RulesBackend())
    assert ":2:" in str(err.value) and repr(field) in str(err.value)


def test_load_scenario_returns_each_line_with_what_it_decoded_to(tmp_path):
    path = tmp_path / "lines.jsonl"
    lines = [
        {"tick": 0, "kind": "config", "stage_size": 2},
        {"tick": 0, "kind": "donor", "sender": "u1", "blood_group": "O+", "latitude": 23, "longitude": 90.4},
        {"tick": 5, "kind": "message", "message_id": "m1", "text": "hello", "platform": "api"},
        {"tick": 9, "kind": "advance"},
    ]
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    assert load_scenario(path) == ({"stage_size": 2}, [
        (lines[1], ("u1", {"blood_group": "O+", "latitude": 23.0, "longitude": 90.4})),
        (lines[2], InboundEvent(kind="message", platform="api", message_id="m1", text="hello", tick=5)),
        (lines[3], None),
    ])


@pytest.mark.parametrize(
    "line, field",
    [('{"tick": 0, "kind": "config", "stage_size": "3"}', "stage_size"),
     ('{"tick": 0, "kind": "config", "eligibility_days": true}', "eligibility_days"),
     ('{"tick": 0, "kind": "donor", "blood_group": "O+", "latitude": 1.0, "longitude": 1.0}', "sender"),
     ('{"tick": 0, "kind": "donor", "sender": 7, "blood_group": "O+", "latitude": 1.0, "longitude": 1.0}', "sender"),
     ('{"tick": 0, "kind": "donor", "sender": "u1", "blood_group": "O+", "latitude": 1.0}', "longitude")],
    ids=["knob-string", "knob-bool", "donor-without-sender", "donor-sender-int", "donor-without-longitude"],
)
def test_scenario_refuses_a_config_or_donor_line_naming_the_field(tmp_path, line, field):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(line + "\n")
    with pytest.raises(gw.ScenarioError, match=f":1: .*'{field}'"):
        load_scenario(bad)


def test_scenario_rejects_staging_knob_below_its_least(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"tick": 0, "kind": "config", "stage_size": 2, "stage_timeout": 0}\n'
                   '{"tick": 0, "kind": "advance"}\n')
    with pytest.raises(gw.ScenarioError, match=r":1: stage_timeout must be at least 1, got 0"):
        load_scenario(bad)


def test_scenario_orders_the_config_line_by_tick_too(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"tick": 10, "kind": "config", "stage_size": 2}\n{"tick": 5, "kind": "advance"}\n')
    with pytest.raises(gw.ScenarioError, match="ordered by tick"):
        load_scenario(bad)


def test_scenario_rejects_unordered(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"tick": 10, "kind": "advance"}\n{"tick": 5, "kind": "advance"}\n'
    )
    with pytest.raises(gw.ScenarioError):
        load_scenario(bad)


def _full_disk(monkeypatch):
    def full(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(journal, "_append", full)
    monkeypatch.setattr(journal, "_replace", full)


@pytest.mark.parametrize("step", ["message", "donor"])
def test_a_failed_save_keeps_the_events_queued_before_its_step(scenario_model, tmp_path, monkeypatch, step):
    # An acknowledged request's alerts, not yet drained, outlive a later
    # step whose save fails; that step's own events go with its changes.
    g, _ = _gateway(scenario_model, snapshot_path=tmp_path / "s.snap")
    for i in range(4):
        g.put_donor(f"p{i}", {"blood_group": "O+", "latitude": 23.8 + i / 100, "longitude": 90.4})
    g.handle_event(InboundEvent(kind="message", message_id="m1", text=REQUEST_TEXT, tick=1))
    acknowledged = list(g.engine.outbound)
    assert [e["kind"] for e in acknowledged] == ["donor_alert"] * 3
    with monkeypatch.context() as m:
        _full_disk(m)
        with pytest.raises(OSError):
            if step == "message":
                g.handle_event(InboundEvent(kind="message", message_id="m2", text=REQUEST_TEXT, tick=2))
            else:
                g.put_donor("p9", {"blood_group": "B+", "latitude": 23.7, "longitude": 90.3})
    assert g.engine.outbound == acknowledged
    assert list(g.engine.cases) == ["r00001"] and "p9" not in g.engine.donors


def test_a_failed_save_answers_an_older_message_as_a_restart_does(scenario_model, tmp_path, monkeypatch):
    snapshot = tmp_path / "s.snap"
    g, _ = _gateway(scenario_model, snapshot_path=snapshot)
    g.put_donor("p0", {"blood_group": "O+", "latitude": 23.8, "longitude": 90.4})
    with monkeypatch.context() as m:
        _full_disk(m)
        with pytest.raises(OSError):
            g.handle_event(InboundEvent(kind="message", message_id="m1", text=REQUEST_TEXT, tick=50))
    early = InboundEvent(kind="message", message_id="m2", text=CHITCHAT, tick=20)
    assert _restarted(g, scenario_model, snapshot).handle_event(early)["action"] == "ingested"
    assert g.handle_event(early)["action"] == "ingested"


def test_a_message_older_than_its_group_gets_the_same_answer_after_a_restart(scenario_model, tmp_path):
    snapshot = tmp_path / "s.snap"
    g, _ = _gateway(scenario_model, snapshot_path=snapshot)
    g.handle_event(InboundEvent(kind="message", message_id="m1", text=CHITCHAT, tick=50))
    early = InboundEvent(kind="message", message_id="m2", text=CHITCHAT, tick=10)
    assert g.handle_event(early) == _restarted(g, scenario_model, snapshot).handle_event(early)


def test_a_second_failed_save_keeps_the_acknowledged_events_too(scenario_model, tmp_path, monkeypatch):
    g, _ = _gateway(scenario_model, snapshot_path=tmp_path / "s.snap")
    g.put_donor("p0", {"blood_group": "O+", "latitude": 23.8, "longitude": 90.4})
    g.handle_event(InboundEvent(kind="message", message_id="m1", text=REQUEST_TEXT, tick=1))
    acknowledged = list(g.engine.outbound)
    with monkeypatch.context() as m:
        _full_disk(m)
        for message_id in ("m2", "m3"):
            with pytest.raises(OSError):
                g.handle_event(InboundEvent(kind="message", message_id=message_id, text=REQUEST_TEXT, tick=2))
    assert [e["kind"] for e in acknowledged] == ["donor_alert"] and g.engine.outbound == acknowledged


def test_a_failed_save_keeps_only_the_events_the_file_holds(scenario_model, tmp_path, monkeypatch):
    # Stage 1's alert is delivered. Stage 2 fires outside a step, so its
    # alert is queued while its ledger entry is unsaved. A failed save drops
    # both; the restored engine fires stage 2 again, and each donor is
    # alerted once.
    snapshot = tmp_path / "s.snap"
    g = Gateway(scenario_model, RulesBackend(), engine=DispatchEngine(clock=Clock(), stage_size=1),
                snapshot_path=snapshot)
    for i in range(3):
        g.put_donor(f"p{i}", {"blood_group": "O+", "latitude": 23.8 + i / 100, "longitude": 90.4})
    g.handle_event(InboundEvent(kind="message", message_id="m1", text=REQUEST_TEXT, tick=1))
    delivered = g.engine.drain_outbound()
    g.engine.advance_to(700)
    with monkeypatch.context() as m:
        _full_disk(m)
        with pytest.raises(OSError):
            g.handle_event(InboundEvent(kind="message", message_id="m2", text=CHITCHAT, tick=700))
    g.engine.advance_to(800)
    events = delivered + g.engine.drain_outbound()
    alerts = [(e["request_id"], e["donor_id"]) for e in events if e["kind"] == "donor_alert"]
    assert alerts == [("r00001", "d00002"), ("r00001", "d00003")]
    g.handle_event(InboundEvent(kind="message", message_id="m3", text=CHITCHAT, tick=800))
    assert _restarted(g, scenario_model, snapshot).engine.ledger == g.engine.ledger
