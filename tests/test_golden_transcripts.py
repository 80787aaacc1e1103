"""Every bundled scenario replays to its recorded transcript, byte for byte,
and to its recorded `cbrs simulate` summary.

`tests/golden/<scenario>.txt` holds
`simulate(path, scenario_model, RulesBackend()).transcript_text()` plus a
final newline, and `tests/golden/summaries.json` each scenario's
`simulate(...).summary` under its name. Run-to-run determinism alone would
let a reordered alert pass; these files pin the order itself. A deliberate
behaviour change rewrites them with that same call.
"""

import json
from pathlib import Path

import pytest

from cbrs import layer1
from cbrs.gateway import bundled_scenarios, simulate
from cbrs.layer2 import RulesBackend
from cbrs.records import encode

GOLDEN = Path(__file__).parent / "golden"


def test_every_scenario_has_a_golden_transcript():
    assert {p.stem for p in bundled_scenarios()} == {p.stem for p in GOLDEN.glob("*.txt")}


@pytest.mark.parametrize("path", bundled_scenarios(), ids=lambda p: p.stem)
def test_transcript_matches_golden(path, scenario_model):
    text = simulate(path, scenario_model, RulesBackend()).transcript_text() + "\n"
    assert text == (GOLDEN / f"{path.stem}.txt").read_text(encoding="utf-8")


def test_every_scenario_has_a_golden_summary():
    summaries = json.loads((GOLDEN / "summaries.json").read_text(encoding="utf-8"))
    assert set(summaries) == {p.stem for p in bundled_scenarios()}


@pytest.mark.parametrize("path", bundled_scenarios(), ids=lambda p: p.stem)
def test_summary_matches_golden(path, scenario_model):
    summary = simulate(path, scenario_model, RulesBackend()).summary
    golden = json.loads((GOLDEN / "summaries.json").read_text(encoding="utf-8"))[path.stem]
    assert json.loads(json.dumps(summary)) == golden


def _traces_from_transcript(transcript: list[dict], model) -> dict[str, dict]:
    """Each case's trace, rebuilt from the transcript alone: its arrival and
    Layer 1's probability from the action that opened it (an edit's answer
    holds no probability, so the model gives it), its first notification
    from its first `donor_alert`, its first response from the first reply
    answered "fulfilled"."""
    traces: dict[str, dict] = {}
    for entry in transcript:
        event, action = entry["event"], entry["action"]
        if action.get("action") == "ingested" and action["trace"]["layer2_outcome"] == "request":
            opened = action["trace"]
            t_arrival, prob, request_id = opened["t_arrival"], opened["layer1_prob"], opened["request_id"]
        elif action.get("action") == "edit" and action["status"] == "new-case":
            t_arrival, prob = entry["tick"], round(layer1.forward(model, event["text"]).p_positive, 9)
            request_id = f"r{len(traces) + 1:05d}"  # cases are numbered in opening order
        else:
            if action.get("kind") == "donor_alert":
                trace = next(t for t in traces.values() if t["request_id"] == action["request_id"])
                if trace["t_first_notification"] is None:
                    trace["t_first_notification"] = action["tick"]
            if event["kind"] == "donor_response" and action["status"] == "fulfilled":
                trace = traces[event["message_id"]]
                if trace["t_first_response"] is None:
                    trace["t_first_response"] = entry["tick"]
            continue
        traces[event["message_id"]] = {
            "message_id": event["message_id"], "t_arrival": t_arrival, "t_parsed_stored": t_arrival,
            "t_first_notification": None, "t_first_response": None, "layer1_prob": prob,
            "layer2_outcome": "request", "request_id": request_id,
        }
    return traces


@pytest.mark.parametrize("path", bundled_scenarios(), ids=lambda p: p.stem)
def test_case_traces_follow_from_the_transcript(path, scenario_model):
    result = simulate(path, scenario_model, RulesBackend())
    recorded = {message_id: encode(trace) for message_id, trace in result.traces.items()}
    assert recorded == _traces_from_transcript(result.transcript, scenario_model)
