"""A table the engine does not own, journalled beside its three in one file.

A toy record type is registered with the engine's `Journal` through its
public methods alone: `register`, `tables`, `touch`. `DispatchEngine.persist`
and `restore` then write and read it with the donors, cases and ledger
entries, by the same batch protocol.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import attrgetter

import pytest

from cbrs import journal
from cbrs.dispatch import Clock, DispatchEngine, SnapshotError
from cbrs.layer2 import parse_rules

REQUEST = parse_rules("Urgent! 2 bags O+ blood needed at Square Hospital, Dhaka. Call 01712345678 today.")


@dataclass
class Note:
    note_id: str
    text: str
    stars: int = 0


def _check(note: Note) -> None:
    if note.stars < 0:
        raise ValueError(f"stars {note.stars} below 0")


def _engine(notes: bool = True) -> DispatchEngine:
    engine = DispatchEngine(clock=Clock(), stage_size=2)
    if notes:
        engine.journal.register("note", Note, attrgetter("note_id"), _check)
    return engine


def _note(engine: DispatchEngine, note_id: str, text: str, stars: int = 0) -> None:
    note = engine.journal.tables["note"][note_id] = Note(note_id, text, stars)
    engine.journal.touch(note)


def _lines(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text("utf-8").splitlines()]


def _restored(path) -> DispatchEngine:
    engine = _engine()
    engine.restore(path)
    return engine


def test_persist_appends_only_the_changed_records_and_restore_reads_them(tmp_path, monkeypatch):
    monkeypatch.setattr(journal, "_TAIL_LIMIT", 10**9)
    engine, path = _engine(), tmp_path / "s.snap"
    engine.register_donor("u1", "O+", 23.8, 90.4)
    _note(engine, "n1", "first")
    _note(engine, "n2", "second")
    engine.persist(path)
    assert [line["section"] for line in _lines(path)] == ["meta", "donor", "note", "note", "end"]
    size = path.stat().st_size
    _note(engine, "n2", "second, edited", stars=3)
    engine.persist(path)
    appended = [json.loads(line) for line in path.read_bytes()[size:].decode("utf-8").splitlines()]
    assert [line["section"] for line in appended] == ["meta", "note", "end"]
    assert appended[1] == {"section": "note", "note_id": "n2", "text": "second, edited", "stars": 3}
    restored = _restored(path)
    assert restored.journal.tables["note"] == engine.journal.tables["note"]
    assert restored.donors == engine.donors


def test_a_batch_cut_short_is_dropped_and_a_refused_note_names_its_line(tmp_path, monkeypatch):
    monkeypatch.setattr(journal, "_TAIL_LIMIT", 10**9)
    engine, path = _engine(), tmp_path / "s.snap"
    _note(engine, "n1", "kept")
    engine.persist(path)
    whole = path.read_bytes()
    _note(engine, "n1", "torn")
    engine.persist(path)
    path.write_bytes(path.read_bytes()[:-5])  # the end line cut short
    assert _restored(path).journal.tables["note"] == {"n1": Note("n1", "kept")}
    lines = whole.decode("utf-8").splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), "stars": -1})
    path.write_text("\n".join(lines) + "\n", "utf-8")
    with pytest.raises(SnapshotError, match="line 2: ValueError.*stars -1 below 0"):
        _restored(path)


def test_compaction_rewrites_every_table(tmp_path):
    engine, path = _engine(), tmp_path / "s.snap"
    engine.register_donor("u1", "O+", 23.8, 90.4)
    _note(engine, "n1", "first")
    engine.persist(path)
    sections = []
    for i in range(8):
        _note(engine, "n2", f"edit {i}")
        engine.persist(path)
        sections.append([line["section"] for line in _lines(path)])
    # Each time the appended batches outgrow the head, the file is
    # rewritten as one batch of every record of every table.
    appended = [s.count("meta") > 1 for s in sections]
    rewrites = [s for was, now, s in zip(appended, appended[1:], sections[1:]) if was and not now]
    assert rewrites and all(s == ["meta", "donor", "note", "note", "end"] for s in rewrites)
    assert _restored(path).journal.tables["note"] == engine.journal.tables["note"]


def _engine_steps(tmp_path, notes: bool) -> list[str]:
    """The snapshot lines an engine's steps write, with or without notes
    changed at each step, appended batch by batch."""
    engine, path = _engine(notes), tmp_path / f"notes-{notes}.snap"
    steps = [
        lambda: engine.register_donor("u1", "O+", 23.8, 90.4),
        lambda: engine.register_donor("u2", "O+", 23.9, 90.5),
        lambda: engine.open_case("m1", REQUEST.outcome.request),
        lambda: engine.handle_response("r00001", "d00001", False),
        lambda: engine.advance_to(10**6),
    ]
    for i, step in enumerate(steps):
        step()
        if notes:
            _note(engine, f"n{i % 2}", f"step {i}")
        engine.persist(path)
    return path.read_text("utf-8").splitlines()


def test_the_engine_lines_are_the_same_with_a_registered_table(tmp_path, monkeypatch):
    monkeypatch.setattr(journal, "_TAIL_LIMIT", 10**9)
    plain = _engine_steps(tmp_path, notes=False)
    with_notes = _engine_steps(tmp_path, notes=True)
    assert {json.loads(line)["section"] for line in plain} == {"meta", "donor", "case", "ledger", "end"}
    assert [line for line in with_notes if json.loads(line)["section"] not in ("note", "end")] == [
        line for line in plain if json.loads(line)["section"] != "end"
    ]
    ends = [json.loads(line)["records"] for line in plain if json.loads(line)["section"] == "end"]
    assert [json.loads(line)["records"] for line in with_notes if json.loads(line)["section"] == "end"] == [
        n + 1 for n in ends
    ]
