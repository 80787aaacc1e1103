"""The records the engine keeps and their one JSON form, `encode`'s.

All JSON input is checked by one table from a field's annotation to its
JSON types, `_JSON`: `decode` reads snapshot lines, `read_fields` HTTP
bodies and scenario lines, and both refuse by one FieldError naming the
fields. Every dataclass whose annotations `_JSON` holds has a form, in
which `_FORMS` names the fields that are not their value.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, fields
from datetime import date
from typing import Callable, Iterable

from . import schema
from .schema import ParsedRequest, ParseOutcome

# A case's status: open, then one of the three terminal ones.
OPEN = "open"
FULFILLED = "fulfilled"
RESOLVED_EXTERNALLY = "resolved_externally"
EXPIRED = "expired"


@dataclass
class DonorRecord:
    donor_id: str
    platform_id: str
    blood_group: str
    latitude: float
    longitude: float
    last_donation_date: date | None = None
    registered_at: int = 0


@dataclass
class RequestCase:
    request_id: str
    message_id: str
    request: ParsedRequest
    status: str = OPEN
    created_at: int = 0
    deadline: int | None = None
    anchor: tuple[float, float] | None = None
    stages_fired: int = 0
    next_stage_due: int | None = None
    needs_attention: bool = False
    layer1_prob: float | None = None  # of the text that opened the case
    fulfilled_at: int | None = None  # the tick of the reply that fulfilled it


@dataclass
class LedgerEntry:
    request_id: str
    donor_id: str
    stage: int
    notified_at: int
    response: str = "none"  # none, affirmative or negative
    resolution_notified: bool = False


@dataclass
class PipelineTrace:
    """One message's way through the pipeline: the tick of each stage it
    reached, Layer 1's probability and what Layer 2 made of it."""

    message_id: str
    t_arrival: int | None = None
    t_parsed_stored: int | None = None
    t_first_notification: int | None = None
    t_first_response: int | None = None
    layer1_prob: float | None = None
    layer2_outcome: str = "skipped"  # skipped | request | negative | error
    request_id: str | None = None

    def timestamps(self) -> list[int]:
        stamps = (self.t_arrival, self.t_parsed_stored, self.t_first_notification, self.t_first_response)
        return [t for t in stamps if t is not None]


class FieldError(ValueError):
    """A JSON object lacks fields of its record type, holds unknown ones, or holds wrong-typed values."""

    def __init__(self, record: str, error: str, names: list[str]):
        super().__init__(f"{record} {error}: {names}")
        self.error, self.fields = error, names


def _request(obj: dict) -> ParsedRequest:
    """A case's request: valid, and canonical as the engine stores it."""
    outcome = schema.validate(obj)
    if not isinstance(outcome, ParseOutcome) or outcome.is_negative:
        raise ValueError("bad case payload")
    return schema.canonicalize(outcome.request)


def _date(value: str) -> date | None:
    """The date `encode` writes as YYYY-MM-DD, or None for ""; no other
    ISO 8601 form (Python 3.11's `date.fromisoformat` reads 20250101 too)."""
    if not value:
        return None
    day = date.fromisoformat(value)
    if day.isoformat() != value:
        raise ValueError(f"date {value!r} is not YYYY-MM-DD")
    return day


def _anchor(value: list) -> tuple[float, float]:
    if len(value) != 2 or not all(type(x) in _JSON["float"] for x in value):
        raise ValueError(f"anchor {value!r} is not two numbers")
    return float(value[0]), float(value[1])


# The fields whose JSON form is not their value: name -> (to JSON, from JSON).
_FORMS = {
    DonorRecord: {"last_donation_date": (lambda d: d.isoformat() if d else None, _date)},
    RequestCase: {
        "request": (lambda r: schema.to_dict(ParseOutcome.positive(r)), _request),
        "anchor": (lambda a: list(a) if a else None, _anchor),
    },
}
_NULL = type(None)
# A field's annotation -> the JSON types its value may hold (none, for one
# missing here). JSON's true and false are no integers here, nor 1 and 0
# booleans; an integer is a float.
_JSON = {
    "str": (str,), "str | None": (str, _NULL), "int": (int,), "int | None": (int, _NULL), "bool": (bool,),
    "float": (float, int), "float | None": (float, int, _NULL), "date | None": (str, _NULL),
    "ParsedRequest": (dict,), "tuple[float, float] | None": (list, _NULL),
}


def _conversion(cls: type, name: str, annotation: str, kind: type) -> Callable | None:
    """What makes a JSON value of type `kind` the value of a field: its
    `_FORMS` reader, `float` for an integer where a float goes, or None."""
    if kind is _NULL:
        return None
    form = _FORMS.get(cls, {}).get(name)
    if form:
        return form[1]
    return float if kind is int and float in _JSON[annotation] else None


def _signatures(cls: type) -> dict[tuple[type, ...], tuple[tuple[int, Callable], ...]]:
    """Every type signature of the JSON form of `cls` (the types of its
    values, in field order) -> the conversions it needs, by position."""
    fs = fields(cls)
    return {
        signature: tuple(
            (i, convert)
            for i, (f, kind) in enumerate(zip(fs, signature))
            if (convert := _conversion(cls, f.name, f.type, kind)) is not None
        )
        for signature in itertools.product(*(_JSON[f.type] for f in fs))
    }


class _Codecs(dict):
    """Record type -> its field names, a getter of their values from a JSON
    object, and its `_signatures`; each built on the type's first lookup."""

    def __missing__(self, cls: type) -> tuple:
        names = tuple(f.name for f in fields(cls))
        get = operator.itemgetter(*names)
        codec = self[cls] = (names, get if len(names) > 1 else lambda obj: (get(obj),), _signatures(cls))
        return codec


_CODECS = _Codecs()


def encode(record: object) -> dict:
    """The JSON form of a record: every field, in declared order; dates as
    ISO strings or null, the request as `schema.to_dict`, the anchor as a
    list."""
    obj = dict(vars(record))
    for name, (to_json, _) in _FORMS.get(type(record), {}).items():
        obj[name] = to_json(obj[name])
    return obj


def decode(cls: type, obj: dict) -> object:
    """The record of type `cls` whose JSON form is `obj`, which holds
    exactly its fields: the inverse of `encode`. One lookup of the values'
    type signature checks them all and yields the conversions they need;
    only a form that fails is read again, for the FieldError."""
    names, get, signatures = _CODECS[cls]
    try:
        values = get(obj)
        conversions = signatures[tuple(map(type, values))]
        if conversions:
            values = list(values)
            for i, from_json in conversions:
                values[i] = from_json(values[i])
    except (KeyError, TypeError, ValueError, OverflowError):
        values = None
    if values is None or len(obj) != len(names):
        read_fields(cls, obj, required=names)
        raise FieldError(cls.__name__, "unknown fields", sorted(obj.keys() - set(names)))
    return cls(*values)


@functools.cache
def _annotations(cls: type) -> dict[str, str]:
    return {name: kind for name, kind in cls.__init__.__annotations__.items() if name != "return"}


def read_fields(cls: type, obj: dict, names: Iterable[str] = (), required: Iterable[str] = ()) -> dict:
    """The values `obj` holds for parameters of the constructor of `cls`
    (only `names`, if given), checked and converted as `decode` does; other
    keys are ignored. FieldError names the `required` fields `obj` lacks,
    else the values of a JSON type `_JSON` refuses or that do not convert,
    and strings that are not text (a lone surrogate, which no UTF-8 file
    can hold)."""
    missing = [name for name in required if name not in obj]
    if missing:
        raise FieldError(cls.__name__, "missing fields", missing)
    annotations = _annotations(cls)
    values, wrong = {}, []
    for name in names or annotations:
        if name in obj:
            value, annotation = obj[name], annotations[name]
            try:
                if type(value) not in _JSON.get(annotation, ()):
                    raise TypeError(name)
                if type(value) is str:
                    value.encode("utf-8")  # UnicodeEncodeError is a ValueError
                convert = _conversion(cls, name, annotation, type(value))
                values[name] = value if convert is None else convert(value)
            except (TypeError, ValueError, OverflowError):
                wrong.append(name)
    if wrong:
        raise FieldError(cls.__name__, "wrong-typed fields", wrong)
    return values
