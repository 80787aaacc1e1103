import json
import re
from collections import Counter

import numpy as np

from cbrs import schema
from cbrs.schema import ParsedRequest, ParseOutcome
from conftest import random_outcome

# Gold object shaped like a real hashtag-style request (AB-, two masked
# phone numbers, city marker distinct from hospital).
GOLD_AB_NEG = {
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
        {
            "name": "",
            "contact_numbers": ["981XXXXXXX", "724XXXXXXX"],
            "relation_with_patient": "",
        }
    ],
    "compensation": {"transportation": "", "allowance": ""},
}


def test_validate_negative_flag():
    out = schema.validate('{"is_blood_donation_request": false}')
    assert isinstance(out, ParseOutcome)
    assert out.is_negative


def test_validate_full_object():
    out = schema.validate(json.dumps(GOLD_AB_NEG))
    assert isinstance(out, ParseOutcome)
    assert out.request.blood_group == "AB-"
    assert out.request.bags_needed == "2"
    assert out.request.contacts[0].contact_numbers == ("981XXXXXXX", "724XXXXXXX")


def test_validate_enum_violation_path():
    bad = dict(GOLD_AB_NEG, blood_group="C+")
    errors = schema.validate(json.dumps(bad))
    assert isinstance(errors, list)
    assert any(e.path == "blood_group" and e.reason == "enum-violation" for e in errors)


def test_validate_lenient_blood_group_spelling():
    ok = dict(GOLD_AB_NEG, blood_group=" o- ")
    out = schema.validate(json.dumps(ok))
    assert isinstance(out, ParseOutcome)
    assert out.request.blood_group == "O-"


def test_validate_syntax_error():
    errors = schema.validate("{nope")
    assert isinstance(errors, list)
    assert len(errors) == 1
    assert errors[0].path == "$"


def test_validate_unknown_and_missing_keys():
    obj = dict(GOLD_AB_NEG)
    obj.pop("condition")
    obj["urgency_score"] = 5
    errors = schema.validate(json.dumps(obj))
    assert isinstance(errors, list)
    reasons = {(e.path, e.reason) for e in errors}
    assert ("urgency_score", "unknown-key") in reasons
    assert ("condition", "missing-key") in reasons


def test_validate_time_range():
    bad = dict(GOLD_AB_NEG, probable_time="before 24:00")
    errors = schema.validate(json.dumps(bad))
    assert isinstance(errors, list)
    assert any(e.path == "probable_time" for e in errors)


def test_repair_blanks_invalid_time_drops_unknowns():
    obj = dict(GOLD_AB_NEG, probable_time="before 24:00", extra_field="x")
    out = schema.repair(json.dumps(obj))
    assert out is not None and not out.is_negative
    assert out.request.probable_time == ""
    assert out.request.blood_group == "AB-"


def test_repair_fills_missing_with_empties():
    out = schema.repair('{"blood_group": "O+"}')
    assert out is not None
    assert out.request.blood_group == "O+"
    assert out.request.bags_needed == ""
    assert out.request.contacts == ()


def test_repair_unparseable_returns_none():
    assert schema.repair("not json") is None
    assert schema.repair('["a", "b"]') is None


def test_canonicalize_blood_group_case():
    r = ParsedRequest(blood_group=" o- ")
    assert schema.canonicalize(r).blood_group == "O-"


def test_canonicalize_collapses_internal_whitespace():
    r = ParsedRequest(location="Dhaka-r  Shahbage")
    assert schema.canonicalize(r).location == "Dhaka-r Shahbage"


def test_canonicalize_idempotent():
    rng = np.random.default_rng(6)
    for _ in range(100):
        out = random_outcome(rng)
        if out.is_negative:
            continue
        once = schema.canonicalize(out.request)
        assert schema.canonicalize(once) == once


def test_to_tree_negative_single_node():
    tree = schema.to_tree(ParseOutcome.negative())
    assert tree.label == "negative"
    assert tree.size() == 1


def test_to_tree_empty_request_node_count():
    # Hand enumeration: root + 7 scalar leaves + patient(1+3) +
    # compensation(1+2) + empty location_markers(1) + empty contacts(1) = 17.
    tree = schema.to_tree(ParseOutcome.positive(ParsedRequest()))
    assert tree.size() == 17


def test_to_tree_single_leaf_difference():
    a = schema.to_tree(ParseOutcome.positive(ParsedRequest(blood_group="O+")))
    b = schema.to_tree(ParseOutcome.positive(ParsedRequest(blood_group="O-")))

    def labels(t):
        out = [t.label]
        for c in t.children:
            out.extend(labels(c))
        return out

    la, lb = labels(a), labels(b)
    assert len(la) == len(lb)
    diffs = [(x, y) for x, y in zip(la, lb) if x != y]
    assert diffs == [("blood_group=O+", "blood_group=O-")]


def test_validate_serialize_fixpoint():
    rng = np.random.default_rng(7)
    for _ in range(200):
        out = random_outcome(rng)
        text = schema.serialize(out)
        back = schema.validate(text)
        assert isinstance(back, ParseOutcome)
        assert schema.serialize(back) == text


def test_serialize_fixed_field_order():
    out = schema.validate(json.dumps(GOLD_AB_NEG))
    text = schema.serialize(out)
    keys = list(json.loads(text).keys())
    assert keys == [
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
    ]


def test_to_tree_injective_on_canonical():
    rng = np.random.default_rng(12)
    outcomes = [schema.canonicalize_outcome(random_outcome(rng)) for _ in range(80)]
    for i in range(len(outcomes)):
        for j in range(i + 1, len(outcomes)):
            if outcomes[i] != outcomes[j]:
                assert schema.to_tree(outcomes[i]) != schema.to_tree(outcomes[j])


def test_day_and_time_patterns():
    for good in ("", "today", "tomorrow", "21/06", "14/06/2021", "5 days later"):
        assert schema.day_pattern_ok(good), good
    for bad in ("Jun_21", "21-06", "yesterday", "06/2021/14"):
        assert not schema.day_pattern_ok(bad), bad
    for good in ("", "19:00", "before 19:00", "after 08:30", "09:00-17:00", "in 2 hours"):
        assert schema.time_pattern_ok(good), good
    for bad in ("before 24:00", "25:00", "7 pm", "in as soon as possible"):
        assert not schema.time_pattern_ok(bad), bad


# -- the derived walks against hand-written references ----------------------------


def _reference_to_tree(outcome: ParseOutcome) -> schema.LabeledTree:
    """`to_tree` as it was written out field by field."""
    LabeledTree = schema.LabeledTree
    if outcome.is_negative:
        return LabeledTree("negative")

    def leaf(key, value):
        return LabeledTree(f"{key}={value}")

    def scalar_list(key, values):
        return LabeledTree(key, tuple(leaf(str(i), v) for i, v in enumerate(values)))

    r = outcome.request
    children = (
        leaf("blood_group", r.blood_group),
        leaf("bags_needed", r.bags_needed),
        LabeledTree(
            "patient",
            (
                leaf("name", r.patient.name),
                leaf("gender", r.patient.gender),
                leaf("age_group", r.patient.age_group),
            ),
        ),
        leaf("condition", r.condition),
        leaf("location", r.location),
        leaf("hospital_name", r.hospital_name),
        scalar_list("location_markers", r.location_markers),
        leaf("probable_day", r.probable_day),
        leaf("probable_time", r.probable_time),
        LabeledTree(
            "contacts",
            tuple(
                LabeledTree(
                    str(i),
                    (
                        leaf("name", c.name),
                        scalar_list("contact_numbers", c.contact_numbers),
                        leaf("relation_with_patient", c.relation_with_patient),
                    ),
                )
                for i, c in enumerate(r.contacts)
            ),
        ),
        LabeledTree(
            "compensation",
            (
                leaf("transportation", r.compensation.transportation),
                leaf("allowance", r.compensation.allowance),
            ),
        ),
    )
    return LabeledTree("request", children)


def _reference_leaf_paths(outcome: ParseOutcome) -> dict[str, str]:
    """`leaf_paths` as it was written out field by field."""
    if outcome.is_negative:
        return {}
    r = outcome.request
    paths = {
        "blood_group": r.blood_group,
        "bags_needed": r.bags_needed,
        "patient.name": r.patient.name,
        "patient.gender": r.patient.gender,
        "patient.age_group": r.patient.age_group,
        "condition": r.condition,
        "location": r.location,
        "hospital_name": r.hospital_name,
        "probable_day": r.probable_day,
        "probable_time": r.probable_time,
        "compensation.transportation": r.compensation.transportation,
        "compensation.allowance": r.compensation.allowance,
    }
    for i, marker in enumerate(r.location_markers):
        paths[f"location_markers[{i}]"] = marker
    for i, c in enumerate(r.contacts):
        paths[f"contacts[{i}].name"] = c.name
        for j, number in enumerate(c.contact_numbers):
            paths[f"contacts[{i}].contact_numbers[{j}]"] = number
        paths[f"contacts[{i}].relation_with_patient"] = c.relation_with_patient
    return paths


_TEXTS = ("", " ", "dhaka", "ঢাকা মেডিকেল", "রহিম", "  ward 5 ", "a=b", "[0]", "x.y", "017XXXXXXXX")


def _random_walk_case(rng: np.random.Generator) -> ParseOutcome:
    """Up to three markers, contacts and numbers per contact, Bengali and
    empty text, enum values, and the negative flag."""
    if rng.random() < 0.1:
        return ParseOutcome.negative()

    def text():
        return str(rng.choice(_TEXTS))

    def enum(values):
        return str(rng.choice(values + ("",)))

    return ParseOutcome.positive(
        ParsedRequest(
            blood_group=enum(schema.BLOOD_GROUPS),
            bags_needed=text(),
            patient=schema.Patient(name=text(), gender=enum(schema.GENDERS), age_group=enum(schema.AGE_GROUPS)),
            condition=text(),
            location=text(),
            hospital_name=text(),
            location_markers=tuple(text() for _ in range(rng.integers(0, 4))),
            probable_day=text(),
            probable_time=text(),
            contacts=tuple(
                schema.Contact(
                    name=text(),
                    contact_numbers=tuple(text() for _ in range(rng.integers(0, 4))),
                    relation_with_patient=text(),
                )
                for _ in range(rng.integers(0, 4))
            ),
            compensation=schema.Compensation(
                transportation=enum(schema.YES_NO), allowance=enum(schema.YES_NO)
            ),
        )
    )


def test_derived_walks_match_hand_written_references():
    def labels(tree, depth=0):
        out = [(depth, tree.label)]
        for child in tree.children:
            out.extend(labels(child, depth + 1))
        return out

    rng = np.random.default_rng(2026)
    seen_contacts = set()
    for _ in range(600):
        outcome = _random_walk_case(rng)
        if not outcome.is_negative:
            seen_contacts.add(len(outcome.request.contacts))
        assert labels(schema.to_tree(outcome)) == labels(_reference_to_tree(outcome))
        assert schema.to_tree(outcome) == _reference_to_tree(outcome)
        paths, reference = schema.leaf_paths(outcome), _reference_leaf_paths(outcome)
        assert sorted(paths.items()) == sorted(reference.items())
    assert seen_contacts == {0, 1, 2, 3}



# -- the spec-driven walks against the hand-written code they replaced ------------

_REF_FIELD_ORDER = (
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
_REF_PATIENT_KEYS = ("name", "gender", "age_group")
_REF_CONTACT_KEYS = ("name", "contact_numbers", "relation_with_patient")
_REF_COMPENSATION_KEYS = ("transportation", "allowance")
SchemaError = schema.SchemaError


def _ref_clean(value):
    return re.sub(r"\s+", " ", value).strip()


def _ref_canonical_enum(value, allowed):
    cleaned = _ref_clean(value)
    if cleaned == "":
        return ""
    for candidate in allowed:
        if cleaned.casefold() == candidate.casefold():
            return candidate
    return None


def _ref_check_str(obj, key, path, errors):
    value = obj.get(key, "")
    if not isinstance(value, str):
        errors.append(SchemaError(path, f"expected string, got {type(value).__name__}"))
        return ""
    return value


def _ref_validate_dict(obj):
    """`_validate_dict` as it was written out field by field."""
    errors = []
    for key in obj:
        if key not in _REF_FIELD_ORDER:
            errors.append(SchemaError(key, "unknown-key"))
    for key in _REF_FIELD_ORDER:
        if key not in obj:
            errors.append(SchemaError(key, "missing-key"))

    blood_group = _ref_canonical_enum(_ref_check_str(obj, "blood_group", "blood_group", errors), schema.BLOOD_GROUPS)
    if blood_group is None:
        errors.append(SchemaError("blood_group", "enum-violation"))
        blood_group = ""

    bags_needed = _ref_check_str(obj, "bags_needed", "bags_needed", errors)

    patient_raw = obj.get("patient", {})
    if not isinstance(patient_raw, dict):
        errors.append(SchemaError("patient", "expected object"))
        patient_raw = {}
    for key in patient_raw:
        if key not in _REF_PATIENT_KEYS:
            errors.append(SchemaError(f"patient.{key}", "unknown-key"))
    gender = _ref_canonical_enum(_ref_check_str(patient_raw, "gender", "patient.gender", errors), schema.GENDERS)
    if gender is None:
        errors.append(SchemaError("patient.gender", "enum-violation"))
        gender = ""
    age_group = _ref_canonical_enum(
        _ref_check_str(patient_raw, "age_group", "patient.age_group", errors), schema.AGE_GROUPS
    )
    if age_group is None:
        errors.append(SchemaError("patient.age_group", "enum-violation"))
        age_group = ""
    patient = schema.Patient(
        name=_ref_check_str(patient_raw, "name", "patient.name", errors),
        gender=gender,
        age_group=age_group,
    )

    condition = _ref_check_str(obj, "condition", "condition", errors)
    location = _ref_check_str(obj, "location", "location", errors)
    hospital_name = _ref_check_str(obj, "hospital_name", "hospital_name", errors)

    markers_raw = obj.get("location_markers", [])
    markers = []
    if not isinstance(markers_raw, list):
        errors.append(SchemaError("location_markers", "expected list"))
    else:
        for i, item in enumerate(markers_raw):
            if isinstance(item, str):
                markers.append(item)
            else:
                errors.append(SchemaError(f"location_markers[{i}]", "expected string"))

    probable_day = _ref_check_str(obj, "probable_day", "probable_day", errors)
    if not schema.day_pattern_ok(_ref_clean(probable_day)):
        errors.append(SchemaError("probable_day", "pattern-violation"))
        probable_day = ""
    probable_time = _ref_check_str(obj, "probable_time", "probable_time", errors)
    if not schema.time_pattern_ok(_ref_clean(probable_time)):
        errors.append(SchemaError("probable_time", "pattern-violation"))
        probable_time = ""

    contacts_raw = obj.get("contacts", [])
    contacts = []
    if not isinstance(contacts_raw, list):
        errors.append(SchemaError("contacts", "expected list"))
    else:
        for i, item in enumerate(contacts_raw):
            if not isinstance(item, dict):
                errors.append(SchemaError(f"contacts[{i}]", "expected object"))
                continue
            for key in item:
                if key not in _REF_CONTACT_KEYS:
                    errors.append(SchemaError(f"contacts[{i}].{key}", "unknown-key"))
            numbers_raw = item.get("contact_numbers", [])
            numbers = []
            if not isinstance(numbers_raw, list):
                errors.append(SchemaError(f"contacts[{i}].contact_numbers", "expected list"))
            else:
                for j, num in enumerate(numbers_raw):
                    if isinstance(num, str):
                        numbers.append(num)
                    else:
                        errors.append(SchemaError(f"contacts[{i}].contact_numbers[{j}]", "expected string"))
            contacts.append(
                schema.Contact(
                    name=_ref_check_str(item, "name", f"contacts[{i}].name", errors),
                    contact_numbers=tuple(numbers),
                    relation_with_patient=_ref_check_str(
                        item, "relation_with_patient", f"contacts[{i}].relation_with_patient", errors
                    ),
                )
            )

    comp_raw = obj.get("compensation", {})
    if not isinstance(comp_raw, dict):
        errors.append(SchemaError("compensation", "expected object"))
        comp_raw = {}
    for key in comp_raw:
        if key not in _REF_COMPENSATION_KEYS:
            errors.append(SchemaError(f"compensation.{key}", "unknown-key"))
    transportation = _ref_canonical_enum(
        _ref_check_str(comp_raw, "transportation", "compensation.transportation", errors), schema.YES_NO
    )
    if transportation is None:
        errors.append(SchemaError("compensation.transportation", "enum-violation"))
        transportation = ""
    allowance = _ref_canonical_enum(
        _ref_check_str(comp_raw, "allowance", "compensation.allowance", errors), schema.YES_NO
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
        compensation=schema.Compensation(transportation=transportation, allowance=allowance),
    )
    return request, errors


def _ref_check(raw):
    """`_check` as it was, for JSON text."""
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        return None, [SchemaError("$", f"invalid JSON: {exc.msg}")]
    if not isinstance(obj, dict):
        return None, [SchemaError("$", "expected a JSON object")]
    if obj.get(schema.NEGATIVE_KEY) is False:
        return ParseOutcome.negative(), []
    request, errors = _ref_validate_dict({k: v for k, v in obj.items() if k != schema.NEGATIVE_KEY})
    return ParseOutcome.positive(request), errors


def _ref_canonicalize(request):
    """`canonicalize` as it was written out field by field."""
    def enum(value, allowed):
        canonical = _ref_canonical_enum(value, allowed)
        return canonical if canonical is not None else ""

    return ParsedRequest(
        blood_group=enum(request.blood_group, schema.BLOOD_GROUPS),
        bags_needed=_ref_clean(request.bags_needed),
        patient=schema.Patient(
            name=_ref_clean(request.patient.name),
            gender=enum(request.patient.gender, schema.GENDERS),
            age_group=enum(request.patient.age_group, schema.AGE_GROUPS),
        ),
        condition=_ref_clean(request.condition),
        location=_ref_clean(request.location),
        hospital_name=_ref_clean(request.hospital_name),
        location_markers=tuple(_ref_clean(m) for m in request.location_markers),
        probable_day=_ref_clean(request.probable_day),
        probable_time=_ref_clean(request.probable_time),
        contacts=tuple(
            schema.Contact(
                name=_ref_clean(c.name),
                contact_numbers=tuple(_ref_clean(n) for n in c.contact_numbers),
                relation_with_patient=_ref_clean(c.relation_with_patient),
            )
            for c in request.contacts
        ),
        compensation=schema.Compensation(
            transportation=enum(request.compensation.transportation, schema.YES_NO),
            allowance=enum(request.compensation.allowance, schema.YES_NO),
        ),
    )


def _ref_to_dict(outcome):
    """`to_dict` as it was written out field by field."""
    if outcome.is_negative:
        return {schema.NEGATIVE_KEY: False}
    r = outcome.request
    return {
        "blood_group": r.blood_group,
        "bags_needed": r.bags_needed,
        "patient": {"name": r.patient.name, "gender": r.patient.gender, "age_group": r.patient.age_group},
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


_JUNK = (5, 1.5, True, None, [], {}, ["x"], {"a": 1}, [{"name": 3}], "x")
_ODD_SPELLINGS = {
    "blood_group": (" o- ", "ab+", "AB +", "\tb-\n", "C+", "O  +", "o+"),
    "gender": ("m", " F ", "male", "f\n"),
    "age_group": ("ADULT", " child", "Teen ager", "young  "),
    "transportation": ("y", " n ", "yes", "\u00a0N"),
    "allowance": ("Y ", "no", " n"),
    "probable_day": ("21-06", " 21/06 ", "Today", "2  days   later", "1 day later", "tomorrow ", "yesterday"),
    "probable_time": ("before 24:00", " 19:00", "in  2  hours", "7 pm", "09:00 - 17:00", "after\t08:30"),
}
_NON_OBJECTS = ("[1]", "5", "null", '"x"', "{", "", "[{}]", '{"is_blood_donation_request": false, "x": 1}')


def _junk(rng):
    return _JUNK[rng.integers(len(_JUNK))]


def _mangle(rng, value, rate, key=None):
    """A copy of a `to_dict` value with random damage at every level: keys
    dropped, added or given the wrong type and junk list items, each at
    about `rate`; odd enum spellings, bad day and time patterns."""
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            r = rng.random()
            if r < rate:
                continue
            out[k] = _junk(rng) if r < 2 * rate else _mangle(rng, v, rate, k)
        if rng.random() < rate:
            out[f"extra_{rng.integers(3)}"] = _junk(rng)
        return out
    if isinstance(value, list):
        out = [_mangle(rng, v, rate) for v in value]
        if rng.random() < 2 * rate:
            out.insert(int(rng.integers(len(out) + 1)), _junk(rng))
        return out
    if key in _ODD_SPELLINGS and rng.random() < 0.3:
        spellings = _ODD_SPELLINGS[key]
        return spellings[rng.integers(len(spellings))]
    return f" {value}\t " if rng.random() < 0.1 else value


def _mangled_payload(rng):
    if rng.random() < 0.04:
        return _NON_OBJECTS[rng.integers(len(_NON_OBJECTS))]
    outcome = random_outcome(rng) if rng.random() < 0.5 else _random_walk_case(rng)
    rate = (0.0, 0.02, 0.1)[rng.integers(3)]
    return json.dumps(_mangle(rng, schema.to_dict(outcome), rate), ensure_ascii=False)


def test_spec_walks_match_hand_written_references():
    rng = np.random.default_rng(505)
    reasons = Counter()
    for _ in range(3000):
        text = _mangled_payload(rng)
        ref_outcome, ref_errors = _ref_check(text)
        reasons.update(e.reason.split(",")[0] for e in ref_errors)
        inputs = [text]
        try:
            loaded = json.loads(text)
        except json.JSONDecodeError:
            loaded = ""
        if not isinstance(loaded, str):  # a string is always read as JSON text
            inputs.append(loaded)
        for raw in inputs:
            result = schema.validate(raw)
            if ref_errors:
                assert Counter(result) == Counter(ref_errors), text
            else:
                assert result == ref_outcome, text
            assert schema.repair(raw) == ref_outcome, text
        if ref_outcome is None:
            continue
        canonical = schema.canonicalize_outcome(ref_outcome)
        if not ref_outcome.is_negative:
            assert canonical.request == _ref_canonicalize(ref_outcome.request), text
        for outcome in (ref_outcome, canonical):
            plain = schema.to_dict(outcome)
            assert json.dumps(plain) == json.dumps(_ref_to_dict(outcome)), text
            assert plain == _ref_to_dict(outcome), text
            assert schema.to_tree(outcome) == _reference_to_tree(outcome), text
            assert schema.leaf_paths(outcome) == _reference_leaf_paths(outcome), text
    # Every kind of error the schema reports came up.
    assert set(reasons) == {
        "unknown-key",
        "missing-key",
        "expected string",
        "expected object",
        "expected list",
        "enum-violation",
        "pattern-violation",
        "invalid JSON: Expecting property name enclosed in double quotes",
        "invalid JSON: Expecting value",
        "expected a JSON object",
    }, reasons


def test_nested_objects_may_omit_keys():
    obj = dict(GOLD_AB_NEG, patient={"gender": "f"}, contacts=[{}], compensation={})
    out = schema.validate(obj)
    assert isinstance(out, ParseOutcome)
    assert out.request.patient == schema.Patient(gender="F")
    assert out.request.contacts == (schema.Contact(),)


def test_validate_returns_raw_day_and_time():
    obj = dict(GOLD_AB_NEG, probable_day=" 2  days later", probable_time="in  3 hours ")
    out = schema.validate(json.dumps(obj))
    assert (out.request.probable_day, out.request.probable_time) == (" 2  days later", "in  3 hours ")
