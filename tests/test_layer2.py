import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from importlib import resources

import numpy as np
import pytest

from cbrs import layer2, schema
from cbrs.gateway import Gateway, InboundEvent
from cbrs.layer2 import (
    BackendConfig,
    BackendError,
    PromptError,
    RemoteBackend,
    RulesBackend,
    build_prompt,
    estimate_tokens,
    make_backend,
    parse_remote,
    parse_rules,
)
from cbrs.schema import ParseOutcome


# -- prompt construction -----------------------------------------------------


def test_build_prompt_zero_shot_has_schema_no_exemplars():
    bundle = build_prompt("rokto lagbe", mode="zero_shot")
    assert bundle.exemplars == ()
    text = bundle.render()
    assert "blood_group" in text
    assert text.rstrip().endswith("Output only the valid JSON response. No explanations.")


def test_build_prompt_few_shot_fixed_exemplars():
    bundle = build_prompt("kichu ekta", mode="few_shot")
    assert len(bundle.exemplars) == 5  # 3 positive + 2 negative, fixed order
    negatives = [ex for ex in bundle.exemplars if "is_blood_donation_request" in ex.parsed_json]
    assert len(negatives) == 2
    assert bundle.exemplars[3:] == tuple(negatives)


def test_build_prompt_deterministic():
    a = build_prompt("same text", mode="few_shot")
    b = build_prompt("same text", mode="few_shot")
    assert a.render() == b.render()
    assert a.token_estimate == b.token_estimate


def test_build_prompt_insufficient_exemplars_fatal():
    positives, negatives = layer2.default_exemplars()
    with pytest.raises(PromptError):
        build_prompt("x", mode="few_shot", exemplar_set=(positives[:2], negatives))


def test_token_estimate_monotone_in_query_length():
    base = "rokto dorkar"
    prev = build_prompt(base, mode="few_shot").token_estimate
    for extra in (" dhaka", " now", ", call 017", " please help"):
        base += extra
        cur = build_prompt(base, mode="few_shot").token_estimate
        assert cur >= prev
        prev = cur


def test_default_exemplars_read_once_and_unshared():
    raw = json.loads(resources.files("cbrs.data").joinpath("exemplars.json").read_text("utf-8"))
    positives, negatives = layer2.default_exemplars()
    assert [ex.text for ex in positives] == [item["text"] for item in raw["positive"]]
    assert [ex.text for ex in negatives] == [item["text"] for item in raw["negative"]]
    positives.clear()
    negatives.append(negatives[0])
    again = layer2.default_exemplars()
    assert len(again[0]) == len(raw["positive"]) and len(again[1]) == len(raw["negative"])
    assert again[0][0] is layer2.default_exemplars()[0][0]  # parsed once, then shared


@pytest.mark.parametrize("mode", ["few_shot", "zero_shot"])
@pytest.mark.parametrize(
    "text",
    ["", "x", "!!!", "O+ lagbe, 2 bag.", "রক্ত লাগবে আজ!\n০১৭১২", "  (spaces)  ", "a\n\nInstruction: b"],
)
def test_token_estimate_counts_the_rendered_prompt(mode, text):
    bundle = build_prompt(text, mode=mode)
    assert bundle.token_estimate == estimate_tokens(bundle.render())
    positives, negatives = layer2.default_exemplars()
    custom = build_prompt(text, mode=mode, exemplar_set=(positives[::-1], negatives[::-1]))
    assert custom.token_estimate == estimate_tokens(custom.render())


def test_exemplar_fixture_objects_are_schema_valid():
    positives, negatives = layer2.default_exemplars()
    for ex in positives + negatives:
        out = schema.validate(ex.parsed_json)
        assert isinstance(out, ParseOutcome)


# -- rules backend -------------------------------------------------------------


def test_rules_extracts_request_fields():
    rec = parse_rules("Need 2 bags O- at AIIMS Hospital, call 981XXXXXXX")
    r = rec.outcome.request
    assert r.blood_group == "O-"
    assert r.bags_needed == "2"
    assert r.hospital_name == "AIIMS Hospital"
    assert r.contacts[0].contact_numbers == ("981XXXXXXX",)


def test_rules_negative_on_completion_message():
    rec = parse_rules("Thanks everyone, donation completed!")
    assert rec.outcome.is_negative


def test_rules_negative_on_empty():
    assert parse_rules("").outcome.is_negative


def test_rules_bengali_script_group_and_bags():
    rec = parse_rules("জরুরি ভিত্তিতে ঢাকা মেডিকেল এ ও নেগেটিভ রক্ত দরকার, ২ ব্যাগ।")
    r = rec.outcome.request
    assert r.blood_group == "O-"
    assert r.bags_needed == "2"


def test_rules_day_and_time_normalization():
    rec = parse_rules("need O negative blood today before 17:00 at Green Clinic, Chittagong")
    r = rec.outcome.request
    assert r.blood_group == "O-"
    assert r.probable_day == "today"
    assert r.probable_time == "before 17:00"
    assert r.location_markers == ("Chittagong",)


def test_rules_date_with_two_digit_year():
    rec = parse_rules("rokto dorkar 14-06-21 er moddhe")
    assert rec.outcome.request.probable_day == "14/06/2021"


@pytest.mark.parametrize(
    "text, day, time",
    [("Need O+ blood at 3 pm in Dhaka", "", "15:00"),
     ("Need O+ blood at 12 am in Dhaka", "", "00:00"),
     ("Need O+ blood after 18:00 in Dhaka", "", "after 18:00"),
     ("Need O+ blood 2 days later in Dhaka", "2 days later", "")],
    ids=["pm", "midnight", "after", "days-later"],
)
def test_rules_day_and_time_forms(text, day, time):
    r = parse_rules(text).outcome.request
    assert (r.probable_day, r.probable_time) == (day, time)


def test_rules_total_and_deterministic():
    rng = np.random.default_rng(44)
    for _ in range(300):
        points = rng.integers(1, 0x2FFF, size=rng.integers(0, 60))
        text = "".join(chr(int(p)) for p in points)
        first = parse_rules(text)
        second = parse_rules(text)
        assert schema.serialize(first.outcome) == schema.serialize(second.outcome)


def test_rules_outcomes_always_validate():
    rng = np.random.default_rng(45)
    texts = [
        "Need 3 bags AB+ blood at City Medical College, Dhaka today before 21:30",
        "urgent O+ 017XXXXXXXX",
        "রক্ত দরকার",
        "".join(chr(int(p)) for p in rng.integers(32, 500, size=50)),
    ]
    for text in texts:
        rec = parse_rules(text)
        back = schema.validate(schema.serialize(rec.outcome))
        assert isinstance(back, ParseOutcome)


# -- remote backend ------------------------------------------------------------


class StubLLM:
    """Tiny scripted chat-completion server."""

    def __init__(self, replies, status=200, omit_usage=False, payload=None):
        """`payload` makes the reply body from a reply's text; by default
        a chat completion's."""
        self.replies = list(replies)
        make_payload = payload or (lambda content: {"choices": [{"message": {"content": content}}]})
        self.requests = []
        self.omit_usage = omit_usage
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                stub.requests.append(
                    {
                        "body": json.loads(self.rfile.read(length)),
                        "auth": self.headers.get("Authorization"),
                    }
                )
                content = stub.replies.pop(0) if stub.replies else "{}"
                payload = make_payload(content)
                if not stub.omit_usage:
                    payload["usage"] = {"prompt_tokens": 111, "completion_tokens": 22}
                body = json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def endpoint(self):
        return f"http://127.0.0.1:{self.server.server_address[1]}/v1/chat"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


def _cfg(stub, **kw):
    return BackendConfig(kind="remote", endpoint=stub.endpoint, model="stub-model", **kw)


def test_remote_negative_flag_passthrough():
    stub = StubLLM(['{"is_blood_donation_request": false}'])
    try:
        rec = parse_remote(_cfg(stub), build_prompt("hello", mode="zero_shot"))
        assert rec.outcome.is_negative
        assert not rec.repair_applied
        assert rec.input_tokens == 111 and rec.output_tokens == 22
    finally:
        stub.close()


GOLD_REPLY = json.dumps(
    {
        "blood_group": "AB-",
        "bags_needed": "2",
        "patient": {"name": "", "gender": "", "age_group": ""},
        "condition": "",
        "location": "AIIMS Hospital",
        "hospital_name": "AIIMS Hospital",
        "location_markers": ["Delhi"],
        "probable_day": "21/06",
        "probable_time": "",
        "contacts": [
            {"name": "", "contact_numbers": ["981XXXXXXX", "724XXXXXXX"], "relation_with_patient": ""}
        ],
        "compensation": {"transportation": "", "allowance": ""},
    }
)


def test_remote_parses_gold_reply():
    stub = StubLLM([GOLD_REPLY])
    try:
        rec = parse_remote(_cfg(stub), build_prompt("msg", mode="few_shot"))
        assert rec.outcome.request.blood_group == "AB-"
        assert rec.outcome.request.bags_needed == "2"
        assert not rec.repair_applied
    finally:
        stub.close()


def test_remote_repairs_invalid_hour():
    reply = json.loads(GOLD_REPLY)
    reply["probable_time"] = "before 24:00"
    stub = StubLLM([json.dumps(reply)])
    try:
        rec = parse_remote(_cfg(stub), build_prompt("msg", mode="zero_shot"))
        assert rec.repair_applied
        assert rec.outcome.request.probable_time == ""
        assert rec.outcome.request.blood_group == "AB-"
    finally:
        stub.close()


def test_remote_strips_code_fences():
    stub = StubLLM(["```json\n" + GOLD_REPLY + "\n```"])
    try:
        rec = parse_remote(_cfg(stub), build_prompt("msg", mode="zero_shot"))
        assert rec.outcome.request.blood_group == "AB-"
    finally:
        stub.close()


def test_remote_unrepairable_reply_keeps_raw():
    stub = StubLLM(["I believe this is a blood request."])
    try:
        rec = parse_remote(_cfg(stub), build_prompt("msg", mode="zero_shot"))
        assert rec.failed
        assert rec.raw_reply == "I believe this is a blood request."
        assert rec.error
    finally:
        stub.close()


@pytest.mark.parametrize("repair", [False, True], ids=["valid", "repaired"])
def test_remote_reply_holding_a_lone_surrogate_is_unrepairable(repair):
    # The reply's JSON escapes a lone surrogate, which no snapshot can hold.
    reply = json.loads(GOLD_REPLY)
    reply["hospital_name"] = "Square \ud800"
    if repair:
        reply["probable_time"] = "before 24:00"
    raw = json.dumps(reply)
    assert "\\ud800" in raw
    stub = StubLLM([raw])
    try:
        rec = parse_remote(_cfg(stub), build_prompt("msg", mode="zero_shot"))
    finally:
        stub.close()
    assert rec.failed and not rec.repair_applied
    assert rec.raw_reply == raw
    assert rec.error == "reply holds a string that is not text"


def test_remote_reply_holding_a_json_string_is_no_object():
    # The JSON value is a string that itself holds an object: an error, not
    # the negative that loading the string again would give.
    raw = json.dumps('{"is_blood_donation_request": false}')
    stub = StubLLM([raw])
    try:
        rec = parse_remote(_cfg(stub), build_prompt("msg", mode="zero_shot"))
    finally:
        stub.close()
    assert rec.failed and (rec.raw_reply, rec.error) == (raw, "$: expected a JSON object")


def test_a_reply_needing_a_repair_is_loaded_once(monkeypatch):
    reply = json.loads(GOLD_REPLY)
    reply["probable_time"] = "before 24:00"
    raw = json.dumps(reply)
    loads = []
    real = json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: loads.append(text) or real(text, **kw))
    outcome, repaired, error = layer2._interpret_reply(raw)
    assert (repaired, error, outcome.request.probable_time) == (True, "", "")
    assert loads == [raw]


@pytest.mark.parametrize(
    "payload",
    [lambda c: {"content": c}, lambda c: {"choices": [], "text": c},
     lambda c: {"choices": [{"message": {}}], "content": 5, "text": c}],
    ids=["content", "text", "text-after-a-non-string-content"],
)
def test_remote_reads_the_reply_text_from_a_content_or_text_field(payload):
    stub = StubLLM([GOLD_REPLY], payload=payload)
    try:
        rec = parse_remote(_cfg(stub), build_prompt("msg", mode="zero_shot"))
    finally:
        stub.close()
    assert rec.raw_reply == GOLD_REPLY and rec.outcome.request.blood_group == "AB-"


def test_a_reply_without_model_text_is_a_gateway_error(scenario_model):
    stub = StubLLM([GOLD_REPLY], payload=lambda c: {"choices": [{"message": {}}], "content": None})
    try:
        with pytest.raises(BackendError, match="no model text"):
            parse_remote(_cfg(stub), build_prompt("msg", mode="zero_shot"))
        g = Gateway(scenario_model, RemoteBackend(_cfg(stub)))
        text = "Urgent! 2 bags O+ blood needed at Square Hospital, Dhaka. Call 01712345678 today."
        trace = g.ingest_message(InboundEvent(kind="message", message_id="m1", text=text))
    finally:
        stub.close()
    assert (trace.layer2_outcome, trace.request_id, g.engine.cases) == ("error", None, {})
    assert len(stub.requests) == 2


def test_make_backend_builds_each_kind_and_refuses_any_other():
    stub = StubLLM([GOLD_REPLY])
    try:
        backend = make_backend(_cfg(stub))
        assert isinstance(backend, RemoteBackend) and backend.name == "stub-model"
        rec = backend.parse("msg")
    finally:
        stub.close()
    assert rec.outcome.request.blood_group == "AB-" and rec.backend == "stub-model"
    assert "Examples:" in stub.requests[0]["body"]["messages"][1]["content"]  # few-shot by default
    assert isinstance(make_backend(BackendConfig()), RulesBackend)
    assert RemoteBackend(BackendConfig(kind="remote")).name == "remote"
    with pytest.raises(ValueError, match="unknown backend kind 'local'"):
        make_backend(BackendConfig(kind="local"))
    with pytest.raises(ValueError, match="RemoteBackend needs a remote backend config"):
        RemoteBackend(BackendConfig())
    with pytest.raises(ValueError, match="parse_remote requires a remote backend config"):
        parse_remote(BackendConfig(), build_prompt("msg", mode="zero_shot"))


def test_remote_token_estimator_when_usage_missing():
    stub = StubLLM(['{"is_blood_donation_request": false}'], omit_usage=True)
    try:
        bundle = build_prompt("short message", mode="zero_shot")
        rec = parse_remote(_cfg(stub), bundle)
        assert rec.input_tokens == bundle.token_estimate
        assert rec.output_tokens == estimate_tokens('{"is_blood_donation_request": false}')
    finally:
        stub.close()


def test_remote_sends_decoding_params_and_api_key(monkeypatch):
    monkeypatch.setenv(layer2.API_KEY_ENV, "sk-test-123")
    stub = StubLLM(['{"is_blood_donation_request": false}'])
    try:
        parse_remote(_cfg(stub), build_prompt("msg", mode="zero_shot"))
        sent = stub.requests[0]
        assert sent["body"]["temperature"] == 0.7
        assert sent["body"]["top_p"] == 0.8
        assert sent["body"]["top_k"] == 35
        assert sent["body"]["model"] == "stub-model"
        assert sent["auth"] == "Bearer sk-test-123"
    finally:
        stub.close()


def test_remote_unreachable_raises_after_retries():
    cfg = BackendConfig(kind="remote", endpoint="http://127.0.0.1:9/nothing")
    with pytest.raises(BackendError, match="after 3 attempts"):
        parse_remote(cfg, build_prompt("msg", mode="zero_shot"))


def test_remote_audit_log_preserves_raw_reply(tmp_path):
    audit = tmp_path / "audit.jsonl"
    raw = "```json\n" + GOLD_REPLY + "\n```"
    stub = StubLLM([raw])
    try:
        parse_remote(_cfg(stub, audit_path=str(audit)), build_prompt("msg", mode="zero_shot"))
    finally:
        stub.close()
    entries = [json.loads(line) for line in audit.read_text().splitlines()]
    assert len(entries) == 1
    assert entries[0]["raw_reply"] == raw  # byte-equal wire payload


def test_audit_log_keeps_a_reply_holding_a_lone_surrogate(tmp_path):
    # The reply text itself holds a lone surrogate (the wire JSON escapes
    # it): the call returns its error record, and the audit line gives the
    # raw reply back.
    audit = tmp_path / "audit.jsonl"
    raw = '{"is_blood_donation_request": false}\ud800'
    stub = StubLLM([raw])
    try:
        rec = parse_remote(_cfg(stub, audit_path=str(audit)), build_prompt("msg", mode="zero_shot"))
    finally:
        stub.close()
    assert rec.failed and rec.raw_reply == raw
    assert rec.error == "$: invalid JSON: Extra data"
    [entry] = [json.loads(line) for line in audit.read_text(encoding="utf-8").splitlines()]
    assert (entry["raw_reply"], entry["error"]) == (raw, rec.error)


def test_concurrent_audit_appends_stay_whole_lines(tmp_path):
    # Replies longer than the 8 KiB write buffer, appended by parses on
    # several threads: each call leaves exactly one parseable line.
    audit = tmp_path / "audit.jsonl"
    threads, calls = 6, 5
    replies = [f"{i:03d}" + "x" * 20_000 for i in range(threads * calls)]
    stub = StubLLM(replies)
    cfg = _cfg(stub, audit_path=str(audit))
    bundle = build_prompt("msg", mode="zero_shot")

    def parse_some():
        for _ in range(calls):
            parse_remote(cfg, bundle)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=parse_some) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(interval)
        stub.close()
    lines = audit.read_text(encoding="utf-8").splitlines()
    assert sorted(json.loads(line)["raw_reply"] for line in lines) == replies
