"""Crash after every event: the snapshot file always holds the live engine.

Each bundled scenario is replayed through `Gateway.replay`, the step
`simulate` runs, but with a `snapshot_path`: every line persists what it
changed before its entries are returned. After every line a fresh engine
restores the file and must equal the live one in every field. With
`restart`, the restored engine then replaces the live one, so the run
continues from the file alone and its transcript must still be the
recorded one: nothing is sent twice, resolution notices included.

The bundled registries are small, so the appended tail soon outgrows the
snapshot and `persist` often compacts, which writes every record. The
`appending` runs lift the compaction limit, so that every change after the
first write reaches the file through the records its mutation marked.
"""

import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbrs import journal
from cbrs.dispatch import Clock, DispatchEngine
from cbrs.gateway import Gateway, bundled_scenarios, load_scenario
from cbrs.layer2 import RulesBackend
from cbrs.schema import BLOOD_GROUPS, Compensation, Contact, ParsedRequest, ParseOutcome, Patient

GOLDEN = Path(__file__).parent / "golden"


def engine_state(engine: DispatchEngine) -> dict:
    return {
        "donors": {k: asdict(v) for k, v in engine.donors.items()},
        "cases": {k: asdict(v) for k, v in engine.cases.items()},
        "ledger": {k: asdict(v) for k, v in engine.ledger.items()},
        "case_by_message": engine.case_by_message,
        "entries": {r: {d: asdict(e) for d, e in es.items()} for r, es in engine._entries.items() if es},
        "counters": (engine._donor_seq, engine._case_seq, engine.clock.now),
    }


def replay(path: Path, model, snapshot: Path, restart: bool) -> str:
    knobs, lines = load_scenario(path)
    clock = Clock()
    gateway = Gateway(model, RulesBackend(), engine=DispatchEngine(clock=clock, **knobs), snapshot_path=snapshot)
    transcript = []
    for line, decoded in lines:
        transcript += gateway.replay(line, decoded)
        restored = DispatchEngine(clock=Clock(), **knobs)
        restored.restore(snapshot)
        assert engine_state(restored) == engine_state(gateway.engine), (path.stem, line)
        if restart:
            restored.clock = clock
            gateway.engine = restored
    return "\n".join(json.dumps(e, sort_keys=True, ensure_ascii=False) for e in transcript) + "\n"


@pytest.mark.parametrize("appending", [False, True], ids=["compacting", "appending"])
@pytest.mark.parametrize("restart", [False, True], ids=["check", "restart"])
@pytest.mark.parametrize("path", bundled_scenarios(), ids=lambda p: p.stem)
def test_crash_after_every_event(path, scenario_model, tmp_path, monkeypatch, restart, appending):
    if appending:
        monkeypatch.setattr(journal, "_TAIL_LIMIT", 10**9)
    snapshot = tmp_path / "state.snap"
    text = replay(path, scenario_model, snapshot, restart)
    assert text == (GOLDEN / f"{path.stem}.txt").read_text(encoding="utf-8")
    if appending and snapshot.exists():
        assert snapshot.read_text("utf-8").count('"section": "meta"') > 1  # batches were appended


def test_snapshot_bytes_match_golden(scenario_model, tmp_path, monkeypatch):
    """The bytes `persist` writes, pinned: the batches appended while
    `three_requests` replays (donor, case and ledger lines among them), and
    a full snapshot of the engine restored from them."""
    monkeypatch.setattr(journal, "_TAIL_LIMIT", 10**9)
    [path] = [p for p in bundled_scenarios() if p.stem == "three_requests"]
    snapshot = tmp_path / "state.snap"
    replay(path, scenario_model, snapshot, restart=False)
    assert snapshot.read_bytes() == (GOLDEN / "three_requests.v2.snap").read_bytes()
    engine = DispatchEngine(clock=Clock())
    engine.restore(snapshot)
    engine.persist(tmp_path / "full.snap")
    assert (tmp_path / "full.snap").read_bytes() == (GOLDEN / "three_requests.full.v2.snap").read_bytes()


@pytest.mark.parametrize("name", ["three_requests", "three_requests.full"])
def test_a_version_1_snapshot_restores_with_the_fields_version_2_added_empty(name):
    """The version-1 goldens, written before cases held Layer 1's probability
    and their fulfilment time, restore to the state of their version-2
    twins but for those two fields; the donor and ledger lines of both
    versions are the same bytes."""
    old, new = DispatchEngine(clock=Clock()), DispatchEngine(clock=Clock())
    old.restore(GOLDEN / f"{name}.snap")
    new.restore(GOLDEN / f"{name}.v2.snap")
    assert [(c.layer1_prob, c.fulfilled_at) for c in old.cases.values()] == [(None, None)] * 3
    for case in new.cases.values():
        assert case.layer1_prob is not None and case.fulfilled_at is not None
        case.layer1_prob = case.fulfilled_at = None
    assert engine_state(old) == engine_state(new)

    def lines(version, section):
        text = (GOLDEN / f"{name}{version}.snap").read_text("utf-8")
        return [line for line in text.splitlines() if json.loads(line)["section"] == section]

    for section in ("donor", "ledger"):
        assert lines("", section) == lines(".v2", section)


# Any text in every string field: surrogates aside (`st.text()` draws
# none), each is a value a backend may hand the engine.
_TEXT = st.text(max_size=12)
_TEXTS = st.lists(_TEXT, max_size=2).map(tuple)
_REQUESTS = st.builds(
    ParsedRequest,
    blood_group=st.one_of(st.sampled_from(BLOOD_GROUPS), _TEXT),
    bags_needed=_TEXT,
    patient=st.builds(Patient, name=_TEXT, gender=_TEXT, age_group=_TEXT),
    condition=_TEXT,
    location=_TEXT,
    hospital_name=_TEXT,
    location_markers=st.lists(st.one_of(st.just("Dhaka"), _TEXT), max_size=2).map(tuple),
    probable_day=st.one_of(st.sampled_from(("today", "21/06", "2 days later")), _TEXT),
    probable_time=st.one_of(st.sampled_from(("19:00", "before 19:00", "in 3 hours")), _TEXT),
    contacts=st.lists(
        st.builds(Contact, name=_TEXT, contact_numbers=_TEXTS, relation_with_patient=_TEXT), max_size=2
    ).map(tuple),
    compensation=st.builds(Compensation, transportation=_TEXT, allowance=_TEXT),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_REQUESTS, _REQUESTS)
def test_a_case_opened_and_edited_with_any_text_restores(opened, edited):
    engine = DispatchEngine(clock=Clock())
    engine.register_donor("p1", "O+", 23.81, 90.41)
    engine.open_case("m1", opened)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.snap"
        engine.persist(path)  # writes the opened case
        assert engine.handle_edit("m1", "edited", lambda _: ParseOutcome.positive(edited)) == "updated"
        engine.persist(path)  # writes the edited case
        restored = DispatchEngine(clock=Clock())
        restored.restore(path)
    assert engine_state(restored) == engine_state(engine)
