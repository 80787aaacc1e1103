import json
import urllib.request
from types import SimpleNamespace

import pytest

from cbrs import cli, schema, service
from cbrs.corpus import save_corpus
from cbrs.gateway import bundled_scenarios
from cbrs.layer1 import Hyper
from cbrs.synth import goldset, separable_corpus

FAST = [
    "--dim", "16", "--buckets", "16384", "--epochs", "6", "--lr", "0.5", "--seed", "7",
]


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    save_corpus(separable_corpus(240, seed=13), path)
    return path


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, corpus_file):
    path = tmp_path_factory.mktemp("model") / "clf.bin"
    rc = cli.main(["train", str(corpus_file), "-o", str(path), *FAST])
    assert rc == 0
    return path


def test_train_writes_model(model_file):
    assert model_file.read_bytes()[:5] == b"CBRS1"


def test_hyper_flags_default_to_hyper_and_word_ngrams_sets_word_n():
    parser = cli.build_parser()
    assert cli._hyper_from(parser.parse_args(["train", "c", "-o", "m"])) == Hyper()
    args = parser.parse_args(["eval-classify", "c", "--word-ngrams", "2"])
    assert cli._hyper_from(args) == Hyper(word_n=2)


def test_train_missing_corpus_exits_2(tmp_path, capsys):
    rc = cli.main(["train", str(tmp_path / "absent.jsonl"), "-o", str(tmp_path / "m.bin")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_classify_text(model_file, capsys):
    rc = cli.main(
        [
            "classify",
            str(model_file),
            "--text",
            "Urgent! 2 bags O+ blood needed at Square Hospital, Dhaka. Call 01712345678 today.",
        ]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["label"] == 1
    assert out["p_positive"] > 0.5


def test_classify_threshold_override(model_file, capsys):
    rc = cli.main(["classify", str(model_file), "--text", "hello there", "--threshold", "0.0"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["label"] == 1  # forced by threshold


def test_classify_reads_stdin(model_file, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("first line here\nsecond line here\n"))
    rc = cli.main(["classify", str(model_file)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert all("p_positive" in line for line in lines)


def test_report(model_file, corpus_file, capsys):
    rc = cli.main(["report", str(model_file), str(corpus_file), "--timing-calls", "20"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "accuracy" in out
    assert "class 1" in out
    assert "forward median" in out


def test_eval_parse_rules_backend(tmp_path, capsys):
    gold_path = tmp_path / "gold.jsonl"
    with gold_path.open("w", encoding="utf-8") as fh:
        for text, gold, lang in goldset(18, seed=17):
            fh.write(
                json.dumps(
                    {"text": text, "language": lang, "gold": json.loads(schema.serialize(gold))},
                    ensure_ascii=False,
                )
                + "\n"
            )
    json_out = tmp_path / "report.json"
    rc = cli.main(["eval-parse", str(gold_path), "--backend", "rules", "--json-out", str(json_out)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "overall" in out
    report = json.loads(json_out.read_text())
    assert 0.0 <= report["overall_weighted"] <= 1.0
    assert report["count"] == 18


@pytest.mark.parametrize(
    "line",
    ['{"text": $TEXT, "gold": $GOLD}', "[1]", '{"text": $TEXT, language: "en", "gold": $GOLD}',
     '{"text": $TEXT, "language": "fr", "gold": $GOLD}'],
    ids=["no-language", "not-an-object", "bad-json", "unknown-language"],
)
def test_eval_parse_malformed_goldset_line_exits_2(tmp_path, capsys, line):
    # Line 1 is a valid item; line 2 is malformed and otherwise valid.
    (text, gold, lang), = goldset(1, seed=17)
    gold, text = schema.serialize(gold), json.dumps(text, ensure_ascii=False)
    good = f'{{"text": {text}, "language": "{lang}", "gold": {gold}}}'
    gold_path = tmp_path / "gold.jsonl"
    gold_path.write_text(good + "\n" + line.replace("$GOLD", gold).replace("$TEXT", text) + "\n", encoding="utf-8")
    assert cli.main(["eval-parse", str(gold_path)]) == 2
    assert f"{gold_path}:2:" in capsys.readouterr().err


def test_eval_classify(corpus_file, capsys):
    rc = cli.main(["eval-classify", str(corpus_file), *FAST])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dlf" in out
    assert "tfidf_logreg" in out


def test_cost_output(capsys):
    rc = cli.main(["cost", "15", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "single=$0.0045" in out
    assert "dual=$0.0003" in out


def test_cost_invalid_exits_2(capsys):
    rc = cli.main(["cost", "10", "11"])
    assert rc == 2


def test_simulate_bundled_scenario(model_file, tmp_path, capsys):
    out_path = tmp_path / "transcript.jsonl"
    rc = cli.main(
        [
            "simulate",
            "--scenario",
            "basic_fulfilled",
            "--model",
            str(model_file),
            "--transcript-out",
            str(out_path),
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["cases"] == {"r00001": "fulfilled"}
    assert out_path.read_text().strip()


def test_simulate_unknown_scenario_exits_2(capsys):
    rc = cli.main(["simulate", "--scenario", "no-such-scenario"])
    assert rc == 2
    assert "bundled" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lines,bad_line,field",
    [(['{"tick": 0, "kind": "donor", "sender": "a1", "blood_group": "A+", "latitude": "23.8", "longitude": 90.4}'],
      1, "latitude"),
     (['{"tick": 0, "kind": "advance"}', '{"tick": "5", "kind": "advance"}'], 2, "tick")],
    ids=["donor-latitude-string", "tick-string"],
)
def test_simulate_wrong_typed_scenario_line_exits_2(model_file, tmp_path, capsys, lines, bad_line, field):
    scenario = tmp_path / "bad.jsonl"
    scenario.write_text("\n".join(lines) + "\n")
    rc = cli.main(["simulate", "--scenario", str(scenario), "--model", str(model_file)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{scenario}:{bad_line}:" in err and repr(field) in err


@pytest.mark.parametrize(
    "values,field",
    [({"blood_group": "Z+"}, "blood_group"), ({"latitude": 95.0}, "latitude")],
    ids=["blood-group", "latitude-out-of-range"],
)
def test_simulate_invalid_donor_value_exits_2(model_file, tmp_path, capsys, values, field):
    donor = {"tick": 0, "kind": "donor", "sender": "a1", "blood_group": "A+", "latitude": 23.8,
             "longitude": 90.4, **values}
    scenario = tmp_path / "bad.jsonl"
    scenario.write_text('{"tick": 0, "kind": "advance"}\n' + json.dumps(donor) + "\n")
    rc = cli.main(["simulate", "--scenario", str(scenario), "--model", str(model_file)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{scenario}:2:" in err and field in err


def test_simulate_wrong_typed_config_knob_exits_2(model_file, tmp_path, capsys):
    basic = next(p for p in bundled_scenarios() if p.stem == "basic_fulfilled")
    scenario = tmp_path / "bad.jsonl"
    scenario.write_text('{"tick": 0, "kind": "config", "stage_size": "2"}\n' + basic.read_text())
    rc = cli.main(["simulate", "--scenario", str(scenario), "--model", str(model_file)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{scenario}:1:" in err and "'stage_size'" in err


@pytest.mark.parametrize("knob,value", [("stage_size", -3), ("stage_timeout", 0), ("eligibility_days", -1)])
def test_simulate_config_knob_below_its_least_exits_2(model_file, tmp_path, capsys, knob, value):
    basic = next(p for p in bundled_scenarios() if p.stem == "basic_fulfilled")
    scenario = tmp_path / "bad.jsonl"
    config = {"tick": 0, "kind": "config", knob: value}
    scenario.write_text(json.dumps(config) + "\n" + basic.read_text())
    rc = cli.main(["simulate", "--scenario", str(scenario), "--model", str(model_file)])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"{scenario}:1:" in captured.err and f"{knob} must be at least" in captured.err
    assert "donor_alert" not in captured.out


def test_serve_config_knob_below_its_least_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "serve", lambda gateway, port: pytest.fail("served"))
    conf = tmp_path / "cbrs.conf"
    conf.write_text("stage_size = 0\n")
    assert cli.main(["serve", "--config", str(conf)]) == 2
    assert "stage_size must be at least 1, got 0" in capsys.readouterr().err


def test_serve_uses_the_model_threshold_unless_the_config_sets_one(corpus_file, tmp_path, monkeypatch):
    model = tmp_path / "clf.bin"
    assert cli.main(["train", str(corpus_file), "-o", str(model), *FAST, "--threshold", "0.3"]) == 0
    served = []

    def interrupted():
        raise KeyboardInterrupt

    def fake_serve(gateway, port):
        served.append(gateway)
        return SimpleNamespace(port=port, thread=SimpleNamespace(join=interrupted), shutdown=lambda: None)

    monkeypatch.setattr(cli, "serve", fake_serve)
    conf = tmp_path / "cbrs.conf"
    for text, threshold in (("", 0.3), ("threshold = 0.7\n", 0.7)):
        conf.write_text(f"model_path = {model}\n{text}")
        assert cli.main(["serve", "--config", str(conf)]) == 0
        assert served.pop().threshold == threshold


def _http(port, method, path, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(f"http://127.0.0.1:{port}{path}", data=data, method=method)
    with urllib.request.urlopen(req, timeout=5) as resp:
        return json.loads(resp.read())


def test_serve_restores_an_existing_snapshot(model_file, tmp_path, monkeypatch):
    # The first serve writes a donor and two cases, one alerted and one
    # fulfilled, through its gateway; the second, on the same config, starts
    # from the file that left and answers each GET /requests/{id} as the
    # first did, its trace included.
    served = []

    def fake_serve(gateway, port):
        running = service.serve(gateway, port=port)
        served.append((gateway, running))
        return SimpleNamespace(port=running.port, thread=SimpleNamespace(join=lambda: None), shutdown=running.shutdown)

    monkeypatch.setattr(cli, "serve", fake_serve)
    conf = tmp_path / "cbrs.conf"
    conf.write_text(f"model_path = {model_file}\nsnapshot_path = {tmp_path / 'served.snap'}\nport = 0\n")
    assert cli.main(["serve", "--config", str(conf)]) == 0
    first, running = served.pop()
    try:
        _http(running.port, "POST", "/donors", {"platform_id": "alice", "blood_group": "O+", "latitude": 23.81,
                                                 "longitude": 90.41})
        text = "Urgent! 2 bags O+ blood needed at Square Hospital, Dhaka. Call 01712345678 today."
        for message_id in ("m1", "m2"):
            answer = _http(running.port, "POST", "/messages", {"message_id": message_id, "text": text})
            assert answer["trace"]["request_id"] == f"r0000{message_id[1]}"
        yes = {"sender": "alice", "message_id": "m2", "text": "yes"}
        assert _http(running.port, "POST", "/responses", yes) == {"status": "fulfilled"}
        before = [_http(running.port, "GET", f"/requests/{rid}") for rid in ("r00001", "r00002")]
    finally:
        running.shutdown()
    assert [(c["trace"]["t_first_notification"], c["trace"]["t_first_response"]) for c in before] == [(0, None), (0, 0)]
    assert cli.main(["serve", "--config", str(conf)]) == 0
    second, running = served.pop()
    try:
        assert [_http(running.port, "GET", f"/requests/{rid}") for rid in ("r00001", "r00002")] == before
    finally:
        running.shutdown()
    assert second.engine.donors == first.engine.donors and second.engine.cases == first.engine.cases
    assert second.engine.case_by_message == {"m1": "r00001", "m2": "r00002"}
