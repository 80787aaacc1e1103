import json

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
