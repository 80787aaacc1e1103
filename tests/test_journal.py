"""Crash after every event: the snapshot file always holds the live engine.

Each bundled scenario is replayed the way `simulate` replays it, but with a
`snapshot_path`. Inbound events go through `Gateway.handle_event`, which
persists before it returns; `donor` and `advance` lines persist through
`Gateway.persist`, as the service does after `POST /donors`. After every
line a fresh engine restores the file and must equal the live one in every
field. With `restart`, the restored engine then replaces the live one, so
the run continues from the file alone and its transcript must still be the
recorded one: nothing is sent twice, resolution notices included.

The bundled registries are small, so the appended tail soon outgrows the
snapshot and `persist` often compacts, which writes every record. The
`appending` runs lift the compaction limit, so that every change after the
first write reaches the file through the records its mutation marked.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from cbrs import dispatch
from cbrs.dispatch import Clock, DispatchEngine
from cbrs.gateway import Gateway, bundled_scenarios, load_scenario
from cbrs.layer2 import RulesBackend

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
    lines = load_scenario(path)
    params = lines.pop(0)[1] if lines and lines[0][0]["kind"] == "config" else {}

    clock = Clock()
    engine = DispatchEngine(clock=clock, **params)
    gateway = Gateway(model, RulesBackend(), engine=engine, clock=clock, snapshot_path=snapshot)
    transcript = []

    def flush(tick):
        for event in gateway.engine.drain_outbound():
            transcript.append({"tick": tick, "event": {"kind": "outbound"}, "action": event})

    for obj, decoded in lines:
        tick, kind = obj["tick"], obj["kind"]
        gateway.engine.advance_to(tick)
        flush(tick)
        if kind in ("advance", "donor"):
            action = {"action": "advance"}
            if kind == "donor":
                record = gateway.engine.put_donor(*decoded)
                action = {"action": "donor_registered", "donor_id": record.donor_id}
            gateway.persist()
        else:
            action = gateway.handle_event(decoded)
        transcript.append({"tick": tick, "event": obj, "action": action})
        flush(tick)

        restored = DispatchEngine(clock=Clock(), **params)
        restored.restore(snapshot)
        assert engine_state(restored) == engine_state(gateway.engine), (path.stem, tick, kind)
        if restart:
            restored.clock = clock
            gateway.engine = restored
    return "\n".join(json.dumps(e, sort_keys=True, ensure_ascii=False) for e in transcript) + "\n"


@pytest.mark.parametrize("appending", [False, True], ids=["compacting", "appending"])
@pytest.mark.parametrize("restart", [False, True], ids=["check", "restart"])
@pytest.mark.parametrize("path", bundled_scenarios(), ids=lambda p: p.stem)
def test_crash_after_every_event(path, scenario_model, tmp_path, monkeypatch, restart, appending):
    if appending:
        monkeypatch.setattr(dispatch, "_TAIL_LIMIT", 10**9)
    snapshot = tmp_path / "state.snap"
    text = replay(path, scenario_model, snapshot, restart)
    assert text == (GOLDEN / f"{path.stem}.txt").read_text(encoding="utf-8")
    if appending and snapshot.exists():
        assert snapshot.read_text("utf-8").count('"section": "meta"') > 1  # batches were appended


def test_snapshot_bytes_match_golden(scenario_model, tmp_path, monkeypatch):
    """The bytes `persist` writes, pinned: the batches appended while
    `three_requests` replays (donor, case and ledger lines among them), and
    a full snapshot of the engine restored from them."""
    monkeypatch.setattr(dispatch, "_TAIL_LIMIT", 10**9)
    [path] = [p for p in bundled_scenarios() if p.stem == "three_requests"]
    snapshot = tmp_path / "state.snap"
    replay(path, scenario_model, snapshot, restart=False)
    assert snapshot.read_bytes() == (GOLDEN / "three_requests.snap").read_bytes()
    engine = DispatchEngine(clock=Clock())
    engine.restore(snapshot)
    engine.persist(tmp_path / "full.snap")
    assert (tmp_path / "full.snap").read_bytes() == (GOLDEN / "three_requests.full.snap").read_bytes()
