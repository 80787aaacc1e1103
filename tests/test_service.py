import errno
import http.client
import json
import urllib.error
import urllib.request

import pytest

from cbrs import journal
from cbrs.dispatch import Clock, DispatchEngine, SnapshotError
from cbrs.gateway import Gateway, ScenarioError, case_trace, load_scenario, simulate
from cbrs.layer2 import Backend, BackendConfig, RulesBackend, parse_rules
from cbrs.records import encode
from cbrs.schema import ParsedRequest, ParseOutcome, to_dict
from cbrs.service import MAX_BODY_BYTES, ServiceConfig, _case_payload, serve
from test_gateway import CountingBackend
from test_journal import engine_state

REQUEST_TEXT = "Urgent! 2 bags O+ blood needed at Square Hospital, Dhaka. Call 01712345678 today."


@pytest.fixture()
def service(scenario_model):
    clock = Clock()
    gateway = Gateway(
        model=scenario_model,
        backend=RulesBackend(),
        engine=DispatchEngine(clock=clock, stage_size=3),
        clock=clock,
    )
    running = serve(gateway, port=0)
    yield running, gateway
    running.shutdown()


def _call(port, method, path, payload=None):
    url = f"http://127.0.0.1:{port}{path}"
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=5) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        with err:  # the error holds the open response
            return err.code, json.loads(err.read())


def test_health(service):
    running, _ = service
    status, body = _call(running.port, "GET", "/health")
    assert status == 200
    assert body == {"status": "ok"}


def test_donor_post_get_roundtrip(service):
    running, _ = service
    donor = {
        "platform_id": "alice",
        "blood_group": "O+",
        "latitude": 23.81,
        "longitude": 90.41,
        "last_donation_date": "2024-09-01",
    }
    status, body = _call(running.port, "POST", "/donors", donor)
    assert status == 200
    for key, value in donor.items():
        assert body[key] == value
    assert body["donor_id"] == "d00001"


def test_replies_carry_each_record_in_its_json_form(service):
    # The donor reply and the case body hold every field of their records,
    # the case's ledger every field of its entries; the keys these replies
    # had before they did keep their values.
    running, gateway = service
    donor = {"platform_id": "alice", "blood_group": "O+", "latitude": 23.81, "longitude": 90.41,
             "last_donation_date": "2024-09-01"}
    _, body = _call(running.port, "POST", "/donors", donor)
    assert body == {"donor_id": "d00001", **donor, "registered_at": 0}
    _, action = _call(running.port, "POST", "/messages", {"message_id": "m1", "text": REQUEST_TEXT})
    status, case = _call(running.port, "GET", "/requests/r00001")
    assert status == 200
    stored = gateway.engine.cases["r00001"]
    assert case == {
        "request_id": "r00001",
        "message_id": "m1",
        "request": to_dict(ParseOutcome.positive(stored.request)),
        "status": "open",
        "created_at": 0,
        "deadline": 23 * 3600 + 59 * 60,  # "today": the end of the day
        "anchor": list(stored.anchor),
        "stages_fired": 1,
        "next_stage_due": 600,
        "needs_attention": False,
        "layer1_prob": action["trace"]["layer1_prob"],
        "fulfilled_at": None,
        "trace": action["trace"],
        "ledger": [{"request_id": "r00001", "donor_id": "d00001", "stage": 1, "notified_at": 0,
                    "response": "none", "resolution_notified": False}],
    }
    assert case["request"]["blood_group"] == "O+" and stored.anchor is not None


def test_donor_partial_update(service):
    running, _ = service
    _call(
        running.port,
        "POST",
        "/donors",
        {"platform_id": "alice", "blood_group": "O+", "latitude": 23.81, "longitude": 90.41},
    )
    status, body = _call(
        running.port, "POST", "/donors", {"platform_id": "alice", "blood_group": "AB-"}
    )
    assert status == 200
    assert body["blood_group"] == "AB-"
    assert body["latitude"] == 23.81


def test_donor_move_keeps_the_last_donation_date(service):
    # A known donor's body changes only the fields it carries: a move with
    # group and coordinates keeps the date, an explicit null clears it.
    running, gateway = service
    alice = {"platform_id": "alice", "blood_group": "O+", "latitude": 23.81, "longitude": 90.41,
             "last_donation_date": "2026-01-01"}
    _call(running.port, "POST", "/donors", alice)
    move = {"platform_id": "alice", "blood_group": "O+", "latitude": 22.36, "longitude": 91.78}
    status, body = _call(running.port, "POST", "/donors", move)
    assert status == 200
    assert body == {**alice, **move, "donor_id": "d00001", "registered_at": 0}
    assert gateway.engine.donors["alice"].last_donation_date.isoformat() == "2026-01-01"
    status, body = _call(running.port, "POST", "/donors", {**move, "last_donation_date": None})
    assert status == 200 and body["last_donation_date"] is None
    status, body = _call(running.port, "POST", "/donors", {**move, "platform_id": "bob"})
    assert status == 200 and body["donor_id"] == "d00002" and body["last_donation_date"] is None


def test_donor_post_for_an_unknown_id_names_the_missing_fields(service):
    running, gateway = service
    status, body = _call(running.port, "POST", "/donors", {"platform_id": "carol", "latitude": 23.8, "longitude": 90.4})
    assert status == 400
    assert body["fields"] == ["blood_group"]
    assert gateway.engine.donors == {}


def test_scenario_donor_lines_write_as_post_donors_does(service, scenario_model, tmp_path):
    # The same donor writes, through the service and through a scenario,
    # leave equal registries; a re-registration without a date keeps it.
    running, gateway = service
    writes = [
        ("alice", {"blood_group": "O+", "latitude": 23.81, "longitude": 90.41, "last_donation_date": "2024-12-20"}),
        ("bob", {"blood_group": "A-", "latitude": 22.36, "longitude": 91.78}),
        ("alice", {"blood_group": "O+", "latitude": 23.9, "longitude": 90.4}),
        ("bob", {"blood_group": "B+"}),
        ("bob", {"last_donation_date": "2025-01-02"}),
    ]
    for sender, fields in writes:
        assert _call(running.port, "POST", "/donors", {"platform_id": sender, **fields})[0] == 200
    scenario = tmp_path / "donors.jsonl"
    scenario.write_text("".join(
        json.dumps({"tick": 0, "kind": "donor", "sender": sender, **fields}) + "\n" for sender, fields in writes
    ))
    result = simulate(scenario, scenario_model, RulesBackend())
    assert result.engine.donors == gateway.engine.donors
    assert result.engine.donors["alice"].last_donation_date.isoformat() == "2024-12-20"


@pytest.mark.parametrize(
    "field, value", [("latitude", True), ("latitude", "23.8"), ("blood_group", "Z+")],
    ids=["latitude-bool", "latitude-string", "unknown-group"],
)
def test_every_donor_reader_refuses_a_value_and_names_its_field(service, tmp_path, field, value):
    # POST /donors, a scenario `donor` line and a snapshot donor line read a
    # donor by one table and one check: each refuses the same values.
    running, gateway = service
    donor = {"blood_group": "O+", "latitude": 23.8, "longitude": 90.4, field: value}
    status, body = _call(running.port, "POST", "/donors", {"platform_id": "alice", **donor})
    assert status == 400 and field in (body.get("fields") or body["error"])
    assert gateway.engine.donors == {}

    scenario = tmp_path / "donor.jsonl"
    scenario.write_text(json.dumps({"tick": 0, "kind": "donor", "sender": "alice", **donor}) + "\n")
    with pytest.raises(ScenarioError, match=f":1: .*{field}"):
        load_scenario(scenario)

    engine = DispatchEngine(clock=Clock())
    engine.register_donor("alice", "O+", 23.8, 90.4)
    engine.persist(tmp_path / "good.snap")
    lines = (tmp_path / "good.snap").read_text("utf-8").splitlines()
    line = json.loads(lines[1])
    assert line["section"] == "donor"
    lines[1] = json.dumps({**line, field: value})
    (tmp_path / "bad.snap").write_text("\n".join(lines) + "\n", "utf-8")
    with pytest.raises(SnapshotError, match=f"line 2: .*{field}"):
        DispatchEngine(clock=Clock()).restore(tmp_path / "bad.snap")


def test_donor_validation_diagnostics(service):
    running, _ = service
    status, body = _call(
        running.port,
        "POST",
        "/donors",
        {"platform_id": "bad", "blood_group": "Z+", "latitude": 99.0, "longitude": 0.0},
    )
    assert status == 400
    assert "latitude" in body["error"]
    assert "blood_group" in body["error"]


def test_message_creates_retrievable_request(service):
    running, gateway = service
    _call(
        running.port,
        "POST",
        "/donors",
        {"platform_id": "alice", "blood_group": "O+", "latitude": 23.81, "longitude": 90.41},
    )
    status, body = _call(
        running.port, "POST", "/messages", {"message_id": "m1", "text": REQUEST_TEXT}
    )
    assert status == 200
    rid = body["trace"]["request_id"]
    assert rid is not None
    assert body["trace"]["t_parsed_stored"] == body["trace"]["t_arrival"]
    status, case = _call(running.port, "GET", f"/requests/{rid}")
    assert status == 200
    assert case["status"] == "open"
    assert case["request"]["blood_group"] == "O+"
    assert case["ledger"][0]["donor_id"] == "d00001"
    assert case["trace"]["layer1_prob"] >= 0.5


O_PLUS = {"blood_group": "O+", "latitude": 23.81, "longitude": 90.41}


class FlakyBackend(Backend):
    """The rules backend behind a remote that fails its first `failures` calls."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def parse(self, text):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError("down")
        return parse_rules(text)


def _post(port, path, payload):
    """POST `payload`; the status, the Retry-After header and the body."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("POST", path, json.dumps(payload), {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.getheader("Retry-After"), json.loads(resp.read())
    finally:
        conn.close()


def _restored(snapshot):
    engine = DispatchEngine(clock=Clock(), stage_size=3)
    engine.restore(snapshot)
    return engine_state(engine)


def test_edit_with_failing_backend_answers_503(service):
    running, gateway = service
    _call(running.port, "POST", "/messages", {"message_id": "m1", "text": REQUEST_TEXT})
    before = _call(running.port, "GET", "/requests/r00001")
    gateway.backend = FlakyBackend(failures=1)
    edit = {"kind": "edit", "message_id": "m1", "text": REQUEST_TEXT.replace("2 bags", "3 bags")}
    status, retry_after, body = _post(running.port, "/messages", edit)
    assert (status, retry_after) == (503, "1") and "layer-2" in body["error"]
    assert _call(running.port, "GET", "/requests/r00001") == before
    assert _post(running.port, "/messages", edit)[0] == 200  # the redelivery is the retry
    assert _call(running.port, "GET", "/requests/r00001")[1]["request"]["bags_needed"] == "3"


def test_a_redelivery_after_a_later_message_opens_its_case(service):
    # The message answered 503 comes again with its own tick, older than
    # that of the message answered 200 in between.
    running, gateway = service
    gateway.backend = FlakyBackend(failures=1)
    request = {"message_id": "m1", "text": REQUEST_TEXT, "tick": 50}
    assert _post(running.port, "/messages", request)[:2] == (503, "1")
    assert _post(running.port, "/messages", {"message_id": "m2", "text": "good morning everyone", "tick": 60})[0] == 200
    status, _, body = _post(running.port, "/messages", request)
    assert (status, body["trace"]["request_id"]) == (200, "r00001")


@pytest.mark.parametrize("failures", [1, 3])
def test_a_message_whose_backend_fails_n_times_opens_its_case_on_the_next_delivery(
        scenario_model, tmp_path, failures):
    snapshot = tmp_path / "served.snap"
    backend = FlakyBackend(failures)
    engine = DispatchEngine(clock=Clock(), stage_size=3)
    gateway = Gateway(scenario_model, backend, engine=engine, snapshot_path=snapshot)
    running = serve(gateway, port=0)
    message = {"message_id": "m1", "text": REQUEST_TEXT, "tick": 5}
    try:
        _call(running.port, "POST", "/donors", {"platform_id": "u0", **O_PLUS})
        before = _restored(snapshot)
        for _ in range(failures):
            status, retry_after, _ = _post(running.port, "/messages", message)
            assert (status, retry_after) == (503, "1")
            assert _call(running.port, "GET", "/requests/r00001")[0] == 404
            assert _restored(snapshot) == before and engine_state(gateway.engine) == before
            assert gateway.engine.outbound == [] and gateway.engine.cases == {}
        status, _, body = _post(running.port, "/messages", message)
        assert (status, body["trace"]["request_id"]) == (200, "r00001")
        status, _, again = _post(running.port, "/messages", message)
        assert (status, again["trace"]["request_id"]) == (200, "r00001")
    finally:
        running.shutdown()
    assert list(gateway.engine.cases) == ["r00001"] and backend.calls == failures + 1
    assert [e["kind"] for e in gateway.engine.outbound] == ["donor_alert"]
    assert _restored(snapshot) == engine_state(gateway.engine)


def _full_disk(monkeypatch):
    def full(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(journal, "_append", full)
    monkeypatch.setattr(journal, "_replace", full)


def test_a_full_disk_answers_503_and_changes_nothing(scenario_model, tmp_path, monkeypatch):
    snapshot = tmp_path / "served.snap"

    def started(engine):
        gateway = Gateway(scenario_model, RulesBackend(), engine=engine, snapshot_path=snapshot)
        return serve(gateway, port=0), gateway

    running, gateway = started(DispatchEngine(clock=Clock(), stage_size=3))
    try:
        assert _call(running.port, "POST", "/donors", {"platform_id": "alice", **O_PLUS})[0] == 200
        before = _restored(snapshot)
        with monkeypatch.context() as m:
            _full_disk(m)
            status, retry_after, body = _post(running.port, "/donors", {"platform_id": "bob", **O_PLUS})
            assert (status, retry_after) == (503, "1") and "No space left" in body["error"]
            # No GET reads a donor; a body with only the platform id of an
            # unknown one is a 400 naming the missing fields.
            assert _post(running.port, "/donors", {"platform_id": "bob"})[2]["error"] == "missing fields"
            status, retry_after, _ = _post(running.port, "/messages", {"message_id": "m1", "text": REQUEST_TEXT})
            assert (status, retry_after) == (503, "1")
            assert _call(running.port, "GET", "/requests/r00001")[0] == 404
            assert engine_state(gateway.engine) == before == _restored(snapshot)
        assert _call(running.port, "POST", "/donors", {"platform_id": "bob", **O_PLUS})[0] == 200
        status, body = _call(running.port, "POST", "/messages", {"message_id": "m1", "text": REQUEST_TEXT})
        assert (status, body["trace"]["request_id"]) == (200, "r00001")
        case = _call(running.port, "GET", "/requests/r00001")
        yes = {"sender": "bob", "message_id": "m1", "text": "yes"}
        with monkeypatch.context() as m:
            _full_disk(m)
            assert _post(running.port, "/responses", yes)[:2] == (503, "1")
            assert _call(running.port, "GET", "/requests/r00001") == case  # no fulfilment time, in case or trace
        assert _call(running.port, "POST", "/responses", yes) == (200, {"status": "fulfilled"})
        served = engine_state(gateway.engine)
    finally:
        running.shutdown()
    engine = DispatchEngine(clock=Clock(), stage_size=3)
    engine.restore(snapshot)
    assert engine_state(engine) == served
    running, gateway = started(engine)  # a restart
    try:
        status, case = _call(running.port, "GET", "/requests/r00001")
        assert (status, case["status"]) == (200, "fulfilled")
        assert {e["donor_id"]: e["response"] for e in case["ledger"]} == {"d00001": "none", "d00002": "affirmative"}
    finally:
        running.shutdown()


def test_a_failed_restore_after_a_failed_write_still_answers_503(scenario_model, tmp_path, monkeypatch):
    # The file cannot be read back either: the POST still gets its 503, and
    # the gateway keeps the engine it had.
    snapshot = tmp_path / "served.snap"
    gateway = Gateway(scenario_model, RulesBackend(), engine=DispatchEngine(clock=Clock()), snapshot_path=snapshot)
    gateway.persist()
    engine = gateway.engine
    running = serve(gateway, port=0)

    def unreadable(self, path):
        raise SnapshotError("unreadable")

    try:
        _full_disk(monkeypatch)
        monkeypatch.setattr(DispatchEngine, "restore", unreadable)
        status, retry_after, body = _post(running.port, "/donors", {"platform_id": "alice", **O_PLUS})
    finally:
        running.shutdown()
    assert (status, retry_after, body) == (503, "1", {"error": "SnapshotError: unreadable"})
    assert gateway.engine is engine and "alice" in engine.donors


def test_response_endpoint_fulfills(service):
    running, _ = service
    _call(
        running.port,
        "POST",
        "/donors",
        {"platform_id": "alice", "blood_group": "O+", "latitude": 23.81, "longitude": 90.41},
    )
    _, body = _call(running.port, "POST", "/messages", {"message_id": "m1", "text": REQUEST_TEXT})
    rid = body["trace"]["request_id"]
    status, body = _call(
        running.port, "POST", "/responses", {"sender": "alice", "message_id": "m1", "text": "yes"}
    )
    assert status == 200
    assert body["status"] == "fulfilled"
    _, case = _call(running.port, "GET", f"/requests/{rid}")
    assert case["status"] == "fulfilled"
    assert case["ledger"][0]["response"] == "affirmative"


def test_reply_from_a_donor_never_alerted_answers_its_status(service):
    running, gateway = service
    for name, group in (("alice", "O+"), ("bob", "B-")):
        _call(running.port, "POST", "/donors",
              {"platform_id": name, "blood_group": group, "latitude": 23.81, "longitude": 90.41})
    _call(running.port, "POST", "/messages", {"message_id": "m1", "text": REQUEST_TEXT})
    status, body = _call(running.port, "POST", "/responses", {"sender": "bob", "message_id": "m1", "text": "yes"})
    assert (status, body) == (200, {"status": "ignored-not-alerted"})
    assert [e.response for e in gateway.engine.ledger.values()] == ["none"]


def _post_twice(scenario_model, snapshot, restart):
    """POST a request message, then the same message again; with `restart`,
    the service is stopped between the two and a new engine and gateway are
    restored from `snapshot`. Both answers, the last gateway, the backend."""
    backend = CountingBackend()

    def started(engine):
        gateway = Gateway(scenario_model, backend, engine=engine, snapshot_path=snapshot)
        return serve(gateway, port=0), gateway

    running, gateway = started(DispatchEngine(clock=Clock(), stage_size=3))
    try:
        for i in range(3):
            _call(running.port, "POST", "/donors",
                  {"platform_id": f"u{i}", "blood_group": "O+", "latitude": 23.81, "longitude": 90.41})
        message = {"message_id": "m1", "text": REQUEST_TEXT, "tick": 5}
        _, first = _call(running.port, "POST", "/messages", message)
        if restart:
            running.shutdown()
            engine = DispatchEngine(clock=Clock(), stage_size=3)
            engine.restore(snapshot)
            running, gateway = started(engine)
        status, second = _call(running.port, "POST", "/messages", {**message, "tick": 1})
    finally:
        running.shutdown()
    assert status == 200
    return first, second, gateway, backend


def test_a_redelivered_post_opens_nothing(scenario_model, tmp_path):
    first, second, gateway, backend = _post_twice(scenario_model, tmp_path / "live.snap", restart=False)
    assert first["trace"]["request_id"] == second["trace"]["request_id"] == "r00001"
    assert (second["trace"]["layer1_prob"], second["trace"]["layer2_outcome"]) == (None, "skipped")
    alerts = [(e["request_id"], e["donor_id"]) for e in gateway.engine.outbound if e["kind"] == "donor_alert"]
    assert sorted(alerts) == sorted(gateway.engine.ledger) and len(alerts) == 3
    assert list(gateway.engine.cases) == ["r00001"] and backend.calls == 1
    _, restarted, gateway, backend = _post_twice(scenario_model, tmp_path / "restart.snap", restart=True)
    assert restarted == second
    assert [e for e in gateway.engine.outbound if e["kind"] == "donor_alert"] == []
    assert list(gateway.engine.cases) == ["r00001"] and len(gateway.engine.ledger) == 3 and backend.calls == 1


def test_a_case_trace_survives_a_restart(scenario_model, tmp_path):
    # Three cases: one alerted at opening, one whose first stage found
    # nobody and whose second alerted a donor registered later, and one
    # fulfilled. A gateway restored from the file answers each GET
    # /requests/{id} as the live one did, its trace included.
    snapshot = tmp_path / "state.snap"
    live = Gateway(scenario_model, RulesBackend(), engine=DispatchEngine(clock=Clock(), stage_size=3),
                   snapshot_path=snapshot)
    ab_negative = REQUEST_TEXT.replace("O+", "AB-")
    lines = [
        {"tick": 0, "kind": "donor", "sender": "alice", **O_PLUS},
        {"tick": 10, "kind": "message", "message_id": "m1", "text": REQUEST_TEXT},
        {"tick": 20, "kind": "message", "message_id": "m2", "text": ab_negative},
        {"tick": 100, "kind": "donor", "sender": "ana", **O_PLUS, "blood_group": "AB-"},
        {"tick": 700, "kind": "advance"},
        {"tick": 710, "kind": "message", "message_id": "m3", "text": REQUEST_TEXT.replace("2 bags", "3 bags")},
        {"tick": 750, "kind": "donor_response", "sender": "alice", "message_id": "m3", "text": "yes"},
    ]
    path = tmp_path / "three_kinds.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    for line, decoded in load_scenario(path)[1]:
        live.replay(line, decoded)
    before = {rid: _case_payload(live, case) for rid, case in live.engine.cases.items()}
    traces = {rid: payload["trace"] for rid, payload in before.items()}
    assert [(t["t_arrival"], t["t_first_notification"], t["t_first_response"]) for t in traces.values()] == [
        (10, 10, None), (20, 620, None), (710, 710, 750)]
    engine = DispatchEngine(clock=Clock(), stage_size=3)
    engine.restore(snapshot)
    restored = Gateway(scenario_model, RulesBackend(), engine=engine, snapshot_path=snapshot)
    assert {rid: _case_payload(restored, case) for rid, case in engine.cases.items()} == before


def test_case_payload_matches_full_ledger_scan(scenario_model):
    # Several cases whose donors are alerted out of donor-id order (nearest
    # first), with responses: the payload lists each case's entries by donor
    # id, exactly as a sorted scan of the whole ledger does.
    clock = Clock()
    engine = DispatchEngine(clock=clock, stage_size=3, stage_timeout=600)
    for i in range(9):
        engine.register_donor(f"u{i}", "O+" if i % 3 else "B-", 23.9 - i * 0.01, 90.41)
    gateway = Gateway(model=scenario_model, backend=RulesBackend(), engine=engine, clock=clock)
    for n, group in enumerate(("O+", "B-", "O+")):
        request = ParsedRequest(group, location_markers=("Dhaka",), probable_day="today")
        engine.open_case(f"m{n}", request)
    engine.handle_response("r00001", "d00009", affirmative=False)
    engine.advance_to(600)
    reordered = False
    for case in engine.cases.values():
        scanned = [encode(e) for (rid, _), e in sorted(engine.ledger.items()) if rid == case.request_id]
        assert scanned
        assert json.dumps(_case_payload(gateway, case)["ledger"]) == json.dumps(scanned)
        alerted = [e.donor_id for e in engine.ledger.values() if e.request_id == case.request_id]
        reordered |= alerted != sorted(alerted)
    assert reordered


def test_acknowledged_posts_survive_a_restore(scenario_model, tmp_path):
    # Every acknowledged POST is in the snapshot file before its reply:
    # a reply, a registration and an update each restore without a later
    # event to carry them.
    snapshot = tmp_path / "served.snap"
    clock = Clock()
    engine = DispatchEngine(clock=clock, stage_size=3)
    gateway = Gateway(scenario_model, RulesBackend(), engine=engine, clock=clock, snapshot_path=snapshot)
    running = serve(gateway, port=0)

    def restored():
        fresh = DispatchEngine(clock=Clock())
        fresh.restore(snapshot)
        return fresh

    try:
        for name in ("alice", "bob"):
            _call(running.port, "POST", "/donors",
                  {"platform_id": name, "blood_group": "O+", "latitude": 23.81, "longitude": 90.41})
        _, body = _call(running.port, "POST", "/messages", {"message_id": "m1", "text": REQUEST_TEXT})
        rid = body["trace"]["request_id"]
        status, body = _call(running.port, "POST", "/responses",
                             {"sender": "bob", "message_id": "m1", "text": "no"})
        assert (status, body) == (200, {"status": "open"})
        bob = engine.donor_by_platform("bob").donor_id
        assert restored().ledger[(rid, bob)].response == "negative"

        status, _ = _call(running.port, "POST", "/donors",
                          {"platform_id": "carol", "blood_group": "B-", "latitude": 22.36,
                           "longitude": 91.78, "last_donation_date": "2024-09-01"})
        assert status == 200
        assert restored().donors["carol"] == engine.donors["carol"]

        status, _ = _call(running.port, "POST", "/donors", {"platform_id": "carol", "blood_group": "AB-"})
        assert status == 200
        assert restored().donors["carol"].blood_group == "AB-"
        final = restored()
        assert (final.donors, final.cases, final.ledger) == (engine.donors, engine.cases, engine.ledger)
    finally:
        running.shutdown()


def test_unknown_request_404(service):
    running, _ = service
    status, body = _call(running.port, "GET", "/requests/r99999")
    assert status == 404
    assert "unknown" in body["error"]


def test_malformed_body_400(service):
    running, _ = service
    url = f"http://127.0.0.1:{running.port}/messages"
    req = urllib.request.Request(url, data=b"{not json", method="POST")
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(req, timeout=5)
    with err.value:
        assert err.value.code == 400


def _post_raw(port, path, data: bytes, length: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.putrequest("POST", path)
        conn.putheader("Content-Length", length)
        conn.endheaders(data)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


@pytest.mark.parametrize(
    "path,body,length,fields",
    [
        ("/donors", {"platform_id": "bob", "blood_group": "O+", "latitude": [1], "longitude": 90.4}, None, ["latitude"]),
        ("/donors", {"platform_id": "alice", "latitude": [1]}, None, ["latitude"]),
        ("/donors", {"platform_id": "alice", "last_donation_date": 5}, None, ["last_donation_date"]),
        ("/messages", {"message_id": "m2", "text": 5}, None, ["text"]),
        ("/messages", {"message_id": "m2", "text": "hi", "tick": [1]}, None, ["tick"]),
        ("/messages", {"kind": "edit", "message_id": "m1", "text": 5, "tick": 9}, None, ["text"]),
        ("/responses", {"sender": "alice", "message_id": "m1", "text": 5}, None, ["text"]),
        ("/messages", {"message_id": "m2", "text": "hi"}, "12abc", ["Content-Length"]),
        ("/donors", {"platform_id": "alice"}, "-1", ["Content-Length"]),
        ("/messages", b'{"message_id": "m2", "text": "\xff"}', None, None),
        ("/messages", {"message_id": "m2", "text": "hi", "tick": True}, None, ["tick"]),
        ("/messages", {"message_id": "m2", "text": "hi", "tick": 2.9}, None, ["tick"]),
        ("/responses", {"sender": "alice", "message_id": "m1", "text": "yes", "tick": "7"}, None, ["tick"]),
        ("/donors", {"platform_id": "bob", "blood_group": "O+", "latitude": "23.8", "longitude": 90.4}, None, ["latitude"]),
        ("/donors", {"platform_id": "alice", "latitude": True}, None, ["latitude"]),
        ("/donors", {"platform_id": "alice", "longitude": 1e400}, None, None),
        ("/donors", {"platform_id": "bad\ud800", "blood_group": "O+", "latitude": 1, "longitude": 2}, None,
         ["platform_id"]),
    ],
    ids=["latitude", "update-latitude", "last-donation-date", "text", "tick", "edit-text",
         "response-text", "content-length", "negative-content-length", "not-utf8",
         "tick-bool", "tick-float", "response-tick-string", "latitude-string", "latitude-bool",
         "longitude-infinite", "lone-surrogate"],
)
def test_wrong_typed_input_400_changes_nothing(service, path, body, length, fields):
    running, gateway = service
    engine = gateway.engine
    _call(running.port, "POST", "/donors", {"platform_id": "alice", "blood_group": "O+", "latitude": 23.8, "longitude": 90.4})
    _call(running.port, "POST", "/messages", {"message_id": "m1", "text": "good morning everyone", "tick": 5})

    def state():
        traces = [encode(case_trace(engine, case)) for case in engine.cases.values()]
        return traces, *({k: encode(r) for k, r in table.items()} for table in (engine.donors, engine.cases, engine.ledger))

    before = state()
    data = body if isinstance(body, bytes) else json.dumps(body).encode()
    status, reply = _post_raw(running.port, path, data, length or str(len(data)))
    assert status == 400
    assert reply.get("fields") == fields
    assert state() == before


def test_a_post_after_a_lone_surrogate_persists(scenario_model, tmp_path):
    # A string no UTF-8 file can hold is refused before it reaches the
    # engine, so the writes after it still persist.
    snapshot = tmp_path / "served.snap"
    gateway = Gateway(scenario_model, RulesBackend(), engine=DispatchEngine(clock=Clock()), snapshot_path=snapshot)
    running = serve(gateway, port=0)
    donor = {"blood_group": "O+", "latitude": 23.81, "longitude": 90.41}
    try:
        status, reply = _call(running.port, "POST", "/donors", {"platform_id": "bad\ud800", **donor})
        assert (status, reply["fields"]) == (400, ["platform_id"])
        status, reply = _call(running.port, "POST", "/messages", {"message_id": "m1", "text": "O+ \udfff"})
        assert (status, reply["fields"]) == (400, ["text"])
        assert _call(running.port, "POST", "/donors", {"platform_id": "alice", **donor})[0] == 200
        status, body = _call(running.port, "POST", "/messages", {"message_id": "m2", "text": REQUEST_TEXT})
        assert (status, body["trace"]["request_id"]) == (200, "r00001")
    finally:
        running.shutdown()
    restored = DispatchEngine(clock=Clock())
    restored.restore(snapshot)
    assert list(restored.donors) == ["alice"] and list(restored.cases) == ["r00001"]


def test_oversized_body_413_before_it_is_read(service):
    running, gateway = service
    for length in (MAX_BODY_BYTES + 1, 10**15):
        conn = http.client.HTTPConnection("127.0.0.1", running.port, timeout=5)
        try:
            conn.putrequest("POST", "/messages")
            conn.putheader("Content-Length", str(length))
            conn.endheaders()  # no body follows: the reply must not wait for one
            resp = conn.getresponse()
            assert (resp.status, json.loads(resp.read())["fields"]) == (413, ["Content-Length"])
        finally:
            conn.close()
    assert gateway.engine.cases == {}
    assert _call(running.port, "GET", "/health") == (200, {"status": "ok"})


def test_missing_fields_400(service):
    running, _ = service
    status, body = _call(running.port, "POST", "/messages", {"text": "no id"})
    assert status == 400
    assert body["fields"] == ["message_id"]


def test_unknown_path_404(service):
    running, _ = service
    status, _ = _call(running.port, "GET", "/nothing")
    assert status == 404


def test_config_file_roundtrip(tmp_path):
    cfg_text = """# service settings
threshold = 0.6
stage_size = 4
stage_timeout_seconds = 120
backend = rules
snapshot_path = /tmp/x.snap
port = 9000
"""
    path = tmp_path / "cbrs.conf"
    path.write_text(cfg_text)
    cfg = ServiceConfig.from_file(path)
    assert cfg.threshold == 0.6
    assert cfg.stage_size == 4
    assert cfg.stage_timeout_seconds == 120
    assert cfg.backend == "rules"
    assert cfg.port == 9000
    assert cfg.eligibility_days == 90  # default preserved


def test_config_backend_defaults_are_backend_config_defaults():
    cfg, backend = ServiceConfig(), BackendConfig()
    assert (cfg.backend, cfg.endpoint, cfg.backend_model, cfg.prompt_mode) == (
        backend.kind, backend.endpoint, backend.model, backend.mode
    )


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("no_such_key = 1\n")
    with pytest.raises(ValueError):
        ServiceConfig.from_file(path)


@pytest.mark.parametrize(
    "line,knob",
    [("stage_size = 0", "stage_size"), ("stage_timeout_seconds = 0", "stage_timeout_seconds"),
     ("eligibility_days = -1", "eligibility_days")],
)
def test_config_refuses_staging_knobs_below_their_least(tmp_path, line, knob):
    # The refusal names the key as the file spells it.
    path = tmp_path / "bad.conf"
    path.write_text(f"stage_size = 3\n{line}\n")
    with pytest.raises(ValueError, match=f": {knob} must be at least"):
        ServiceConfig.from_file(path)
