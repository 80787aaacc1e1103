"""The fixed blood-request schema: validation, canonicalization, trees.

A parse outcome is either a structured request object or a negative flag
(``{"is_blood_donation_request": false}``). Canonical serialization always
emits every field, in one fixed order, so byte-level comparison of two
canonical objects is meaningful. Outcomes convert to ordered labeled trees
for edit-distance scoring.

The record dataclasses are the schema. Their fields, in declared order, are
its keys. A field's default gives its shape: a string, a nested record, or
a tuple for a list. Its `metadata` holds the rest of its rule: `enum` (the
allowed spellings), `pattern` (a check on the whitespace-collapsed value)
or `item` (the record type of a list's items; other lists hold strings).
`validate`, `canonicalize` and `to_dict` walk that one spec.

This module alone knows the grammar of the two fields that say when blood
is needed, one pattern each. A `probable_day` is "today", "tomorrow",
DD/MM with an optional /YYYY (without one, the nearest such day), or
"n days later"; a `probable_time` is HH:MM with an optional
"before "/"after ", a range HH:MM-HH:MM, or "in n hours".
`day_pattern_ok`/`time_pattern_ok` check a value, and `read_day` (the date
it names) and `read_time` (a relation and an amount) read one for the
deadline and urgency rules of dispatch.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import date, timedelta
from typing import Any, Callable, NamedTuple

BLOOD_GROUPS = ("A+", "A-", "B+", "B-", "O+", "O-", "AB+", "AB-")
GENDERS = ("M", "F")
AGE_GROUPS = ("child", "teenager", "young", "adult")
YES_NO = ("Y", "N")

NEGATIVE_KEY = "is_blood_donation_request"

_WS_RUN = re.compile(r"\s+")

_DAY = re.compile(
    r"(?P<word>today|tomorrow)|(?P<dd>\d{2})/(?P<mm>\d{2})(?:/(?P<yyyy>\d{4}))?|(?P<later>\d+) days? later"
)
_HHMM = r"(?:[01]\d|2[0-3]):[0-5]\d"
_TIME = re.compile(
    rf"(?P<relation>before|after) (?P<clock>{_HHMM})|(?P<start>{_HHMM})(?:-{_HHMM})?|in (?P<hours>\d+) hours?"
)

# How far from the creation day a DD/MM without a year may name a date.
_NEAR_DAYS = 183


def day_pattern_ok(value: str) -> bool:
    return value == "" or _DAY.fullmatch(value) is not None


def time_pattern_ok(value: str) -> bool:
    return value == "" or _TIME.fullmatch(value) is not None


def read_day(value: str, created: date) -> date | None:
    """The date a `probable_day` names, for a request created on `created`;
    None for an empty or refused value and for a day the calendar lacks
    (31/02, or past year 9999). A DD/MM without a year names its occurrence
    nearest `created`, the later on a tie, if that lies within
    `_NEAR_DAYS` of it, and nothing otherwise: on 31/12, 02/01 is two days
    later and 30/12 the day before, while 29/02 reads as nothing unless a
    29 February lies that near."""
    m = _DAY.fullmatch(value)
    if m is None:
        return None
    try:
        if m["word"]:
            return created if m["word"] == "today" else created + timedelta(days=1)
        if m["later"]:
            return created + timedelta(days=int(m["later"]))
        if m["yyyy"]:
            return date(int(m["yyyy"]), int(m["mm"]), int(m["dd"]))
    except (ValueError, OverflowError):
        return None
    seen = []
    for year in (created.year - 1, created.year, created.year + 1):
        try:
            seen.append(date(year, int(m["mm"]), int(m["dd"])))
        except ValueError:  # not a day of that year, or a year the calendar lacks
            pass
    near = [d for d in seen if abs((d - created).days) <= _NEAR_DAYS]
    return max(near, key=lambda d: (-abs((d - created).days), d), default=None)


def read_time(value: str) -> tuple[str, int] | None:
    """What a `probable_time` says: ("in", hours), or "before", "after" or
    "at" with the minutes past midnight (a range counts from its start);
    None for an empty or refused value, and for more hours than `int` reads."""
    m = _TIME.fullmatch(value)
    if m is None:
        return None
    if m["hours"]:
        try:
            return "in", int(m["hours"])
        except ValueError:
            return None
    clock = m["clock"] or m["start"]
    return m["relation"] or "at", int(clock[:2]) * 60 + int(clock[3:])


def _enum(allowed: tuple[str, ...]) -> Any:
    return field(default="", metadata={"enum": allowed})


def _pattern(ok: Callable[[str], bool]) -> Any:
    return field(default="", metadata={"pattern": ok})


@dataclass(frozen=True)
class SchemaError:
    path: str
    reason: str

    def __str__(self) -> str:
        return f"{self.path}: {self.reason}"


@dataclass(frozen=True)
class Patient:
    name: str = ""
    gender: str = _enum(GENDERS)
    age_group: str = _enum(AGE_GROUPS)


@dataclass(frozen=True)
class Contact:
    name: str = ""
    contact_numbers: tuple[str, ...] = ()
    relation_with_patient: str = ""


@dataclass(frozen=True)
class Compensation:
    transportation: str = _enum(YES_NO)
    allowance: str = _enum(YES_NO)


@dataclass(frozen=True)
class ParsedRequest:
    blood_group: str = _enum(BLOOD_GROUPS)
    bags_needed: str = ""
    patient: Patient = Patient()
    condition: str = ""
    location: str = ""
    hospital_name: str = ""
    location_markers: tuple[str, ...] = ()
    probable_day: str = _pattern(day_pattern_ok)
    probable_time: str = _pattern(time_pattern_ok)
    contacts: tuple[Contact, ...] = field(default=(), metadata={"item": Contact})
    compensation: Compensation = Compensation()


@dataclass(frozen=True)
class ParseOutcome:
    """Either a parsed request or the negative flag, never both."""

    request: ParsedRequest | None = None

    @property
    def is_negative(self) -> bool:
        return self.request is None

    @classmethod
    def negative(cls) -> "ParseOutcome":
        return cls(request=None)

    @classmethod
    def positive(cls, request: ParsedRequest) -> "ParseOutcome":
        return cls(request=request)


@dataclass(frozen=True)
class LabeledTree:
    label: str
    children: tuple["LabeledTree", ...] = ()

    def size(self) -> int:
        count = 1
        for child in self.children:
            count += child.size() if child.children else 1
        return count


def _clean(value: str) -> str:
    return _WS_RUN.sub(" ", value).strip()


def _canonical_enum(value: str, allowed: tuple[str, ...]) -> str | None:
    """Case-insensitive, whitespace-tolerant enum lookup; None if no match."""
    cleaned = _clean(value)
    if cleaned == "":
        return ""
    for candidate in allowed:
        if cleaned.casefold() == candidate.casefold():
            return candidate
    return None


class _Rule(NamedTuple):
    """One field's rule, read from its dataclass field."""

    is_list: bool
    record: type | None  # the nested record type of the field or of its items
    enum: tuple[str, ...] | None
    pattern: Callable[[str], bool] | None


@functools.cache
def _spec(cls: type) -> dict[str, _Rule]:
    """Field name -> rule for one record type, in declared order."""
    spec = {}
    for f in fields(cls):
        is_list = isinstance(f.default, tuple)
        if is_list:
            record = f.metadata.get("item")
        else:
            record = type(f.default) if is_dataclass(f.default) else None
        spec[f.name] = _Rule(is_list, record, f.metadata.get("enum"), f.metadata.get("pattern"))
    return spec


def _check_record(cls: type, raw: Any, path: str, errors: list[SchemaError]) -> Any:
    """The record a JSON object holds, each invalid value left at its
    default; None when `raw` is not an object.

    Unknown keys are errors at every level, missing keys only at the top
    (the empty path): nested objects may omit keys.
    """
    if not isinstance(raw, dict):
        errors.append(SchemaError(path, "expected object"))
        return None
    prefix = f"{path}." if path else ""
    spec = _spec(cls)
    errors.extend(SchemaError(prefix + key, "unknown-key") for key in raw if key not in spec)
    values = {}
    for name, rule in spec.items():
        if name in raw:
            value = _check_value(rule, raw[name], prefix + name, errors)
            if value is not None:
                values[name] = value
        elif not path:
            errors.append(SchemaError(name, "missing-key"))
    return cls(**values)


def _check_value(rule: _Rule, raw: Any, path: str, errors: list[SchemaError]) -> Any:
    """One field's checked value, enums canonicalized; None when invalid."""
    if rule.is_list:
        if not isinstance(raw, list):
            errors.append(SchemaError(path, "expected list"))
            return None
        items = []
        for i, item in enumerate(raw):
            if rule.record is not None:
                item = _check_record(rule.record, item, f"{path}[{i}]", errors)
            elif not isinstance(item, str):
                errors.append(SchemaError(f"{path}[{i}]", "expected string"))
                item = None
            if item is not None:
                items.append(item)
        return tuple(items)
    if rule.record is not None:
        return _check_record(rule.record, raw, path, errors)
    if not isinstance(raw, str):
        errors.append(SchemaError(path, f"expected string, got {type(raw).__name__}"))
        return None
    if rule.enum is not None:
        value = _canonical_enum(raw, rule.enum)
        if value is None:
            errors.append(SchemaError(path, "enum-violation"))
        return value
    if rule.pattern is not None and not rule.pattern(_clean(raw)):
        errors.append(SchemaError(path, "pattern-violation"))
        return None
    return raw


def _canonical(record: Any) -> Any:
    """The record with whitespace collapsed everywhere and enums canonical."""
    values = {}
    for name, rule in _spec(type(record)).items():
        value = getattr(record, name)
        if rule.is_list:
            values[name] = tuple(_canonical(x) if rule.record else _clean(x) for x in value)
        elif rule.record is not None:
            values[name] = _canonical(value)
        elif rule.enum is not None:
            values[name] = _canonical_enum(value, rule.enum) or ""
        else:
            values[name] = _clean(value)
    return type(record)(**values)


def _plain(record: Any) -> dict[str, Any]:
    """The record as a dict in field order: records nest as dicts, tuples
    become lists."""
    out = {}
    for name, rule in _spec(type(record)).items():
        value = getattr(record, name)
        if rule.is_list:
            out[name] = [_plain(x) for x in value] if rule.record else list(value)
        elif rule.record is not None:
            out[name] = _plain(value)
        else:
            out[name] = value
    return out


def _check(raw: str | Any) -> tuple[ParseOutcome | None, list[SchemaError]]:
    """Check JSON text, or an object `json.loads` returned, against the schema.

    Returns the outcome with every invalid value blanked and unknown keys
    dropped (None when the payload is not a JSON object) and the errors
    found on the way.
    """
    obj = raw
    if isinstance(raw, str):
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            return None, [SchemaError("$", f"invalid JSON: {exc.msg}")]
    if not isinstance(obj, dict):
        return None, [SchemaError("$", "expected a JSON object")]
    if obj.get(NEGATIVE_KEY) is False:
        return ParseOutcome.negative(), []
    errors: list[SchemaError] = []
    request = _check_record(ParsedRequest, {k: v for k, v in obj.items() if k != NEGATIVE_KEY}, "", errors)
    return ParseOutcome.positive(request), errors


def validate(raw: str | Any) -> ParseOutcome | list[SchemaError]:
    """Validate JSON text, or an already-loaded JSON object, against the schema.

    Returns a :class:`ParseOutcome` when the payload is clean, otherwise the
    collected error list (field path + reason). The caller decides whether
    to repair or reject. Syntactically invalid JSON yields a single
    syntax-error entry.
    """
    outcome, errors = _check(raw)
    return errors or outcome


def repair(raw: str | Any) -> ParseOutcome | None:
    """One repair pass: drop unknown keys, blank missing or invalid values.

    Returns None when the payload is not a JSON object at all (unrepairable
    without guessing).
    """
    return _check(raw)[0]


def canonicalize(request: ParsedRequest) -> ParsedRequest:
    """Trim and collapse whitespace everywhere; normalize enum spellings.

    Free-text fields keep their original language and wording; only
    surrounding/internal whitespace runs are touched. Idempotent.
    """
    return _canonical(request)


def canonicalize_outcome(outcome: ParseOutcome) -> ParseOutcome:
    if outcome.is_negative:
        return outcome
    return ParseOutcome.positive(canonicalize(outcome.request))


def to_dict(outcome: ParseOutcome) -> dict[str, Any]:
    """Plain-dict form with every field present, in canonical field order."""
    if outcome.is_negative:
        return {NEGATIVE_KEY: False}
    return _plain(outcome.request)


def serialize(outcome: ParseOutcome) -> str:
    """Canonical JSON: fixed field order, UTF-8 text, no extra whitespace."""
    return json.dumps(to_dict(outcome), ensure_ascii=False, separators=(",", ":"))


def to_tree(outcome: ParseOutcome) -> LabeledTree:
    """Deterministic ordered tree for edit-distance scoring.

    Root "request" with one child per schema field in declared order;
    objects expand to subtrees, list items become index-labeled children,
    scalars become "key=value" leaves. The negative flag is a single node.
    """
    if outcome.is_negative:
        return LabeledTree("negative")

    def node(key: str, value: Any) -> LabeledTree:
        if isinstance(value, str):
            return LabeledTree(f"{key}={value}")
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return LabeledTree(key, tuple(node(str(k), v) for k, v in items))

    return node("request", to_dict(outcome))


def leaf_paths(outcome: ParseOutcome) -> dict[str, str]:
    """Flatten an outcome to its scalar leaf paths.

    The negative flag flattens to an empty mapping; object fields appear
    under dotted paths and list entries under index-qualified ones.
    """
    paths: dict[str, str] = {}

    def walk(path: str, value: Any) -> None:
        if isinstance(value, str):
            paths[path] = value
        elif isinstance(value, dict):
            for key, item in value.items():
                walk(f"{path}.{key}" if path else key, item)
        else:
            for i, item in enumerate(value):
                walk(f"{path}[{i}]", item)

    if not outcome.is_negative:
        walk("", to_dict(outcome))
    return paths
