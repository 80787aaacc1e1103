"""The snapshot journal: named tables of records saved to one file.

An owner registers each table once (`Journal.register`), changes its rows
in place and marks each record it changed (`touch`) for `persist` to
write. The file is JSON lines, each a section name (a table's, `meta` or
`end`) and a record's `records.encode` form, which the HTTP service
answers too. A batch is a `meta` line (format version, the owner's
counters), one line per record, table by table in registration order, and
an `end` line counting the batch's lines. A version-1 batch restores with
the fields version 2 added (`register`) at their defaults. A full snapshot
is one batch of every record, written to a temporary file and renamed over the old one.
`persist` appends one batch of just the touched records to the file it
last wrote or restored, in one write. Restore reads the batches in order,
each record replacing the one with its key. A batch with no `end` line is
a write cut short by a crash: it was never acknowledged, and restore drops
it. Once the appended batches would outgrow the full snapshot at the head
of the file, `persist` rewrites the file in full (compaction). A change
counts as acknowledged once the `persist` after it returns; the file is
not fsynced, so it survives a crash of the process, not of the machine.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Hashable, Iterable

from .records import decode, encode

SNAPSHOT_VERSION = 2

# `persist` rewrites the snapshot in full instead of appending a batch that
# would make the appended tail longer than this many times the full
# snapshot at the head of the file.
_TAIL_LIMIT = 1


class SnapshotError(Exception):
    """Snapshot is missing, truncated, or corrupt; nothing was loaded."""


@dataclass(frozen=True)
class _End:
    """The last line of a snapshot batch: how many lines the batch holds."""

    records: int


@dataclass(frozen=True)
class _File:
    """The snapshot file as the journal last wrote or restored it."""

    stat: tuple[int, int, int, int]  # device, inode, size, mtime in ns
    base: int  # bytes of the full snapshot the appended batches follow
    meta: object  # the meta line of the file's last batch


class Journal:
    """Tables of records and the snapshot file that holds them. `meta` is
    the type of a batch's first line: a dataclass whose first field,
    `version`, is the format version, and whose others the owner's counters."""

    def __init__(self, meta: type):
        self.tables: dict[str, dict] = {}  # section -> key -> record
        self._types: dict[str, type] = {"meta": meta, "end": _End}  # section -> the type its lines hold
        self._keys: dict[str, Callable[[object], Hashable]] = {}
        self._checks: dict[str, Callable[[object], None]] = {}
        self._added: dict[str, dict] = {}  # section -> the fields version 2 added -> their defaults
        self._section: dict[type, str] = {}
        self._dirty: dict[str, set] = {}  # section -> keys touched since the last persist or restore
        self._file: _File | None = None

    def register(self, section: str, cls: type, key: Callable[[object], Hashable],
                 check: Callable[[object], None], added: Iterable[str] = ()) -> None:
        """Journal the records of type `cls` as the table `section`, under
        `key(record)`. On restore `check(record)` raises ValueError for a
        record whose values its owner never writes. `added` names the fields
        of `cls` that version 2 added: a version-1 line lacks them."""
        self._types[section], self._keys[section], self._checks[section] = cls, key, check
        self._added[section] = {f.name: f.default for f in fields(cls) if f.name in added}
        self.tables[section], self._section[cls], self._dirty[section] = {}, section, set()

    def touch(self, record: object) -> None:
        """Mark `record` as changed, for the next `persist` to write."""
        section = self._section[type(record)]
        self._dirty[section].add(self._keys[section](record))

    def _batch(self, meta: object, keys: dict[str, Iterable]) -> bytes:
        """A `meta` line, the records `keys` names by section in key order,
        and an `end` line."""
        lines = [_line("meta", meta)]
        for section, rows in self.tables.items():
            lines += [_line(section, rows[k]) for k in sorted(keys[section])]
        lines.append(_line("end", _End(len(lines))))
        return ("\n".join(lines) + "\n").encode("utf-8")

    def _wrote(self, file: _File | None) -> None:
        self._file = file
        for keys in self._dirty.values():
            keys.clear()

    def persist(self, path: Path, meta: object) -> None:
        """Save the tables to `path`, with `meta` as the batch's first line.

        If `path` is still the file this journal last wrote or restored
        (same inode, size and mtime), only the records touched since then
        are appended, as one batch in one write; with nothing touched and
        `meta` unchanged nothing is written. Otherwise, after a failed
        write, or when the appended batches would outgrow the full snapshot
        they follow, every table is rewritten atomically.
        """
        file, self._file = self._file, None  # a failed write leaves None
        if file is not None and _identity_at(path) == file.stat:
            if not any(self._dirty.values()) and file.meta == meta:
                self._file = file
                return
            batch = self._batch(meta, self._dirty)
            if file.stat[2] + len(batch) - file.base <= _TAIL_LIMIT * file.base:
                self._wrote(_File(_identity(_append(path, batch)), file.base, meta))
                return
        st = _replace(path, self._batch(meta, self.tables))
        self._wrote(_File(_identity(st), st.st_size, meta))

    def restore(self, path: Path, on_batch: dict[str, Callable[[dict[str, dict], list], None]],
                check: Callable[[dict[str, dict]], None]) -> object:
        """Load the snapshot in `path`, or nothing, and return the meta line
        of its last complete batch. The batches apply in file order, each
        record replacing the one with its key.

        A trailing batch without its `end` line (a write cut short, never
        acknowledged) is dropped; a malformed line before the last `end`,
        or a file with no complete batch, raises SnapshotError naming the
        line. A line is malformed if `decode` refuses it or its table's
        check its values. After each complete batch,
        `on_batch[section](tables, lines)` gets the tables read so far and
        that section's (line number, record) pairs in the batch; `check`
        gets the tables read before they replace the journal's. Either
        raises SnapshotError to refuse the file.
        """
        try:
            fh = path.open("rb")
        except FileNotFoundError:
            raise SnapshotError(f"snapshot not found: {path}") from None
        types, checks = self._types, self._checks
        tables: dict[str, dict] = {section: {} for section in self.tables}
        meta = batch_meta = None
        batch: dict[str, list] | None = None  # the records of the batch being read, by section
        lacking: dict[str, dict] = {}  # section -> the fields the batch's version lacks -> their defaults
        watched: dict[str, list] = {}  # the batch's (line number, record) pairs, of the sections on_batch names
        problem = ""  # the first malformed line; fatal if a batch completes after it
        offset = base = complete = 0  # bytes read; of the first batch; up to the last `end`
        with fh:
            st = os.fstat(fh.fileno())
            for lineno, raw in enumerate(fh, start=1):
                offset += len(raw)
                if problem:
                    if _is_end(raw):
                        raise SnapshotError(f"corrupt snapshot {path}: {problem}")
                    continue
                try:
                    obj = _loads(raw)
                    section = obj.pop("section")
                    if section not in types:
                        raise ValueError(f"unknown section {section!r}")
                    if section == "meta" and batch is not None:
                        raise ValueError("meta line inside a batch")
                    if section != "meta" and batch is None:
                        raise ValueError(f"{section!r} line outside a batch")
                    record = decode(types[section], {**lacking[section], **obj} if section in lacking else obj)
                    if section == "meta":
                        if not 1 <= record.version <= SNAPSHOT_VERSION:
                            raise ValueError(f"unsupported snapshot version {record.version}")
                        batch_meta, batch = record, {section: [] for section in tables}
                        lacking = self._added if record.version < SNAPSHOT_VERSION else {}
                        watched = {section: [] for section in on_batch}
                    elif section != "end":
                        checks[section](record)
                        batch[section].append(record)
                        if section in watched:
                            watched[section].append((lineno, record))
                    elif record.records != (lines := 1 + sum(map(len, batch.values()))):
                        raise SnapshotError(
                            f"corrupt snapshot {path}: line {lineno}: batch of "
                            f"{lines} lines ends claiming {record.records}"
                        )
                    else:
                        for section, records in batch.items():
                            tables[section].update(zip(map(self._keys[section], records), records))
                        for section, hook in on_batch.items():
                            hook(tables, watched[section])
                        meta, batch = batch_meta, None
                        complete = offset if raw.endswith(b"\n") else -1
                        base = base or offset
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    if raw.strip():
                        problem = f"line {lineno}: {exc!r}"
        if meta is None:
            why = problem or "no end line"
            raise SnapshotError(f"snapshot {path} is truncated or corrupt: {why}")
        check(tables)
        self.tables = tables
        torn = complete != offset or offset != st.st_size  # the next persist rewrites the file
        self._wrote(None if torn else _File(_identity(st), base, meta))
        return meta


def _identity(st: os.stat_result) -> tuple[int, int, int, int]:
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


def _identity_at(path: Path) -> tuple[int, int, int, int] | None:
    try:
        return _identity(os.stat(path))
    except OSError:
        return None


def _append(path: Path, data: bytes) -> os.stat_result:
    fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        return os.fstat(fd)
    finally:
        os.close(fd)


def _replace(path: Path, data: bytes) -> os.stat_result:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return os.stat(path)


_scan = json.JSONDecoder().scan_once


def _loads(raw: bytes) -> object:
    """`json.loads(raw.decode("utf-8"))`, quicker on the lines `persist`
    writes: a line that starts with its value and ends right after it, or
    after it and a newline, is scanned once; `json.loads` reads any other,
    so the two accept and reject the same lines."""
    text = raw.decode("utf-8")
    try:
        obj, end = _scan(text, 0)
    except StopIteration:  # a value is missing; json.loads says where
        return json.loads(text)
    if end == len(text) or (end == len(text) - 1 and text[end] == "\n"):
        return obj
    return json.loads(text)


def _is_end(raw: bytes) -> bool:
    try:
        obj = json.loads(raw)
    except ValueError:
        return False
    return isinstance(obj, dict) and obj.get("section") == "end"


# One encoder for every line: `json.dumps(..., ensure_ascii=False)` would
# build a new one per call.
_ENCODER = json.JSONEncoder(ensure_ascii=False)


def _line(section: str, record: object) -> str:
    """One snapshot line: the section, then the record's JSON form."""
    return _ENCODER.encode({"section": section, **encode(record)})
