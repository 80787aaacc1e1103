"""The fixed blood-request schema: validation, canonicalization, trees.

A parse outcome is either a structured request object or a negative flag
(``{"is_blood_donation_request": false}``). Canonical serialization always
emits every field, in one fixed order, so byte-level comparison of two
canonical objects is meaningful. Outcomes convert to ordered labeled trees
for edit-distance scoring.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any

BLOOD_GROUPS = ("A+", "A-", "B+", "B-", "O+", "O-", "AB+", "AB-")
GENDERS = ("M", "F")
AGE_GROUPS = ("child", "teenager", "young", "adult")
YES_NO = ("Y", "N")

NEGATIVE_KEY = "is_blood_donation_request"

_WS_RUN = re.compile(r"\s+")

_DAY_PATTERNS = (
    re.compile(r"^\d{2}/\d{2}$"),
    re.compile(r"^\d{2}/\d{2}/\d{4}$"),
    re.compile(r"^\d+ days? later$"),
)
_DAY_WORDS = ("today", "tomorrow")

_TIME_HHMM = r"(?:[01]\d|2[0-3]):[0-5]\d"
_TIME_PATTERNS = (
    re.compile(rf"^{_TIME_HHMM}$"),
    re.compile(rf"^before {_TIME_HHMM}$"),
    re.compile(rf"^after {_TIME_HHMM}$"),
    re.compile(rf"^{_TIME_HHMM}-{_TIME_HHMM}$"),
    re.compile(r"^in \d+ hours?$"),
)


@dataclass(frozen=True)
class SchemaError:
    path: str
    reason: str

    def __str__(self) -> str:
        return f"{self.path}: {self.reason}"


@dataclass(frozen=True)
class Patient:
    name: str = ""
    gender: str = ""
    age_group: str = ""


@dataclass(frozen=True)
class Contact:
    name: str = ""
    contact_numbers: tuple[str, ...] = ()
    relation_with_patient: str = ""


@dataclass(frozen=True)
class Compensation:
    transportation: str = ""
    allowance: str = ""


@dataclass(frozen=True)
class ParsedRequest:
    blood_group: str = ""
    bags_needed: str = ""
    patient: Patient = Patient()
    condition: str = ""
    location: str = ""
    hospital_name: str = ""
    location_markers: tuple[str, ...] = ()
    probable_day: str = ""
    probable_time: str = ""
    contacts: tuple[Contact, ...] = ()
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
        return 1 + sum(c.size() for c in self.children)


def day_pattern_ok(value: str) -> bool:
    if value == "" or value in _DAY_WORDS:
        return True
    return any(p.match(value) for p in _DAY_PATTERNS)


def time_pattern_ok(value: str) -> bool:
    if value == "":
        return True
    return any(p.match(value) for p in _TIME_PATTERNS)


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


_FIELD_ORDER = (
    "blood_group",
    "bags_needed",
    "patient",
    "condition",
    "location",
    "hospital_name",
    "location_markers",
    "probable_day",
    "probable_time",
    "contacts",
    "compensation",
)
_PATIENT_KEYS = ("name", "gender", "age_group")
_CONTACT_KEYS = ("name", "contact_numbers", "relation_with_patient")
_COMPENSATION_KEYS = ("transportation", "allowance")


def _check_str(obj: dict, key: str, path: str, errors: list[SchemaError]) -> str:
    value = obj.get(key, "")
    if not isinstance(value, str):
        errors.append(SchemaError(path, f"expected string, got {type(value).__name__}"))
        return ""
    return value


def _validate_dict(obj: dict[str, Any]) -> tuple[ParsedRequest, list[SchemaError]]:
    errors: list[SchemaError] = []
    for key in obj:
        if key not in _FIELD_ORDER:
            errors.append(SchemaError(key, "unknown-key"))
    for key in _FIELD_ORDER:
        if key not in obj:
            errors.append(SchemaError(key, "missing-key"))

    blood_group = _canonical_enum(_check_str(obj, "blood_group", "blood_group", errors), BLOOD_GROUPS)
    if blood_group is None:
        errors.append(SchemaError("blood_group", "enum-violation"))
        blood_group = ""

    bags_needed = _check_str(obj, "bags_needed", "bags_needed", errors)

    patient_raw = obj.get("patient", {})
    if not isinstance(patient_raw, dict):
        errors.append(SchemaError("patient", "expected object"))
        patient_raw = {}
    for key in patient_raw:
        if key not in _PATIENT_KEYS:
            errors.append(SchemaError(f"patient.{key}", "unknown-key"))
    gender = _canonical_enum(_check_str(patient_raw, "gender", "patient.gender", errors), GENDERS)
    if gender is None:
        errors.append(SchemaError("patient.gender", "enum-violation"))
        gender = ""
    age_group = _canonical_enum(
        _check_str(patient_raw, "age_group", "patient.age_group", errors), AGE_GROUPS
    )
    if age_group is None:
        errors.append(SchemaError("patient.age_group", "enum-violation"))
        age_group = ""
    patient = Patient(
        name=_check_str(patient_raw, "name", "patient.name", errors),
        gender=gender,
        age_group=age_group,
    )

    condition = _check_str(obj, "condition", "condition", errors)
    location = _check_str(obj, "location", "location", errors)
    hospital_name = _check_str(obj, "hospital_name", "hospital_name", errors)

    markers_raw = obj.get("location_markers", [])
    markers: list[str] = []
    if not isinstance(markers_raw, list):
        errors.append(SchemaError("location_markers", "expected list"))
    else:
        for i, item in enumerate(markers_raw):
            if isinstance(item, str):
                markers.append(item)
            else:
                errors.append(SchemaError(f"location_markers[{i}]", "expected string"))

    probable_day = _check_str(obj, "probable_day", "probable_day", errors)
    if not day_pattern_ok(_clean(probable_day)):
        errors.append(SchemaError("probable_day", "pattern-violation"))
        probable_day = ""
    probable_time = _check_str(obj, "probable_time", "probable_time", errors)
    if not time_pattern_ok(_clean(probable_time)):
        errors.append(SchemaError("probable_time", "pattern-violation"))
        probable_time = ""

    contacts_raw = obj.get("contacts", [])
    contacts: list[Contact] = []
    if not isinstance(contacts_raw, list):
        errors.append(SchemaError("contacts", "expected list"))
    else:
        for i, item in enumerate(contacts_raw):
            if not isinstance(item, dict):
                errors.append(SchemaError(f"contacts[{i}]", "expected object"))
                continue
            for key in item:
                if key not in _CONTACT_KEYS:
                    errors.append(SchemaError(f"contacts[{i}].{key}", "unknown-key"))
            numbers_raw = item.get("contact_numbers", [])
            numbers: list[str] = []
            if not isinstance(numbers_raw, list):
                errors.append(SchemaError(f"contacts[{i}].contact_numbers", "expected list"))
            else:
                for j, num in enumerate(numbers_raw):
                    if isinstance(num, str):
                        numbers.append(num)
                    else:
                        errors.append(
                            SchemaError(f"contacts[{i}].contact_numbers[{j}]", "expected string")
                        )
            contacts.append(
                Contact(
                    name=_check_str(item, "name", f"contacts[{i}].name", errors),
                    contact_numbers=tuple(numbers),
                    relation_with_patient=_check_str(
                        item, "relation_with_patient", f"contacts[{i}].relation_with_patient", errors
                    ),
                )
            )

    comp_raw = obj.get("compensation", {})
    if not isinstance(comp_raw, dict):
        errors.append(SchemaError("compensation", "expected object"))
        comp_raw = {}
    for key in comp_raw:
        if key not in _COMPENSATION_KEYS:
            errors.append(SchemaError(f"compensation.{key}", "unknown-key"))
    transportation = _canonical_enum(
        _check_str(comp_raw, "transportation", "compensation.transportation", errors), YES_NO
    )
    if transportation is None:
        errors.append(SchemaError("compensation.transportation", "enum-violation"))
        transportation = ""
    allowance = _canonical_enum(
        _check_str(comp_raw, "allowance", "compensation.allowance", errors), YES_NO
    )
    if allowance is None:
        errors.append(SchemaError("compensation.allowance", "enum-violation"))
        allowance = ""

    request = ParsedRequest(
        blood_group=blood_group,
        bags_needed=bags_needed,
        patient=patient,
        condition=condition,
        location=location,
        hospital_name=hospital_name,
        location_markers=tuple(markers),
        probable_day=probable_day,
        probable_time=probable_time,
        contacts=tuple(contacts),
        compensation=Compensation(transportation=transportation, allowance=allowance),
    )
    return request, errors


def _check(raw: str) -> tuple[ParseOutcome | None, list[SchemaError]]:
    """Load raw JSON text and check it against the schema.

    Returns the outcome with every invalid value blanked and unknown keys
    dropped (None when the payload is not a JSON object) and the errors
    found on the way.
    """
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        return None, [SchemaError("$", f"invalid JSON: {exc.msg}")]
    if not isinstance(obj, dict):
        return None, [SchemaError("$", "expected a JSON object")]
    if obj.get(NEGATIVE_KEY) is False:
        return ParseOutcome.negative(), []
    request, errors = _validate_dict({k: v for k, v in obj.items() if k != NEGATIVE_KEY})
    return ParseOutcome.positive(request), errors


def validate(raw: str) -> ParseOutcome | list[SchemaError]:
    """Validate raw JSON text against the schema.

    Returns a :class:`ParseOutcome` when the payload is clean, otherwise the
    collected error list (field path + reason). The caller decides whether
    to repair or reject. Syntactically invalid JSON yields a single
    syntax-error entry.
    """
    outcome, errors = _check(raw)
    return errors or outcome


def repair(raw: str) -> ParseOutcome | None:
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
    def enum(value: str, allowed: tuple[str, ...]) -> str:
        canonical = _canonical_enum(value, allowed)
        return canonical if canonical is not None else ""

    return ParsedRequest(
        blood_group=enum(request.blood_group, BLOOD_GROUPS),
        bags_needed=_clean(request.bags_needed),
        patient=Patient(
            name=_clean(request.patient.name),
            gender=enum(request.patient.gender, GENDERS),
            age_group=enum(request.patient.age_group, AGE_GROUPS),
        ),
        condition=_clean(request.condition),
        location=_clean(request.location),
        hospital_name=_clean(request.hospital_name),
        location_markers=tuple(_clean(m) for m in request.location_markers),
        probable_day=_clean(request.probable_day),
        probable_time=_clean(request.probable_time),
        contacts=tuple(
            Contact(
                name=_clean(c.name),
                contact_numbers=tuple(_clean(n) for n in c.contact_numbers),
                relation_with_patient=_clean(c.relation_with_patient),
            )
            for c in request.contacts
        ),
        compensation=Compensation(
            transportation=enum(request.compensation.transportation, YES_NO),
            allowance=enum(request.compensation.allowance, YES_NO),
        ),
    )


def canonicalize_outcome(outcome: ParseOutcome) -> ParseOutcome:
    if outcome.is_negative:
        return outcome
    return ParseOutcome.positive(canonicalize(outcome.request))


def to_dict(outcome: ParseOutcome) -> dict[str, Any]:
    """Plain-dict form with every field present, in canonical field order."""
    if outcome.is_negative:
        return {NEGATIVE_KEY: False}
    r = outcome.request
    return {
        "blood_group": r.blood_group,
        "bags_needed": r.bags_needed,
        "patient": {
            "name": r.patient.name,
            "gender": r.patient.gender,
            "age_group": r.patient.age_group,
        },
        "condition": r.condition,
        "location": r.location,
        "hospital_name": r.hospital_name,
        "location_markers": list(r.location_markers),
        "probable_day": r.probable_day,
        "probable_time": r.probable_time,
        "contacts": [
            {
                "name": c.name,
                "contact_numbers": list(c.contact_numbers),
                "relation_with_patient": c.relation_with_patient,
            }
            for c in r.contacts
        ],
        "compensation": {
            "transportation": r.compensation.transportation,
            "allowance": r.compensation.allowance,
        },
    }


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
