from decimal import Decimal

import numpy as np
import pytest

from cbrs import evalkit, schema
from cbrs.evalkit import (
    compare_classifiers,
    cost_report,
    evaluate_parser,
    field_accuracy,
    parsing_score,
    ted_normalized,
    train_tfidf_logreg,
)
from cbrs.layer2 import Backend, ParseRecord
from cbrs.schema import Contact, ParsedRequest, ParseOutcome, to_tree
from cbrs.synth import goldset, separable_corpus
from conftest import random_outcome


# -- ted normalization ---------------------------------------------------------


def test_ted_normalized_identical_zero():
    t = to_tree(ParseOutcome.positive(ParsedRequest(blood_group="O+")))
    assert ted_normalized(t, t) == 0.0


def test_ted_normalized_single_nodes():
    from cbrs.schema import LabeledTree

    assert ted_normalized(LabeledTree("x"), LabeledTree("y")) == 1.0


def test_ted_normalized_gold_vs_negative():
    gold = to_tree(ParseOutcome.positive(ParsedRequest(blood_group="O+", bags_needed="2")))
    neg = to_tree(ParseOutcome.negative())
    from cbrs.ted import tree_edit_distance

    direct = tree_edit_distance(gold, neg)
    assert ted_normalized(gold, neg) == direct / gold.size()
    assert direct == gold.size()  # delete all but root, relabel root


# -- field accuracy -------------------------------------------------------------


def _gold_ab_neg():
    return ParsedRequest(
        blood_group="AB-",
        bags_needed="2",
        location="AIIMS Hospital",
        hospital_name="AIIMS Hospital",
        location_markers=("Delhi",),
        probable_day="21/06",
        probable_time="",
        contacts=(Contact(contact_numbers=("981XXXXXXX", "724XXXXXXX")),),
    )


def test_field_accuracy_reflexive():
    rng = np.random.default_rng(3)
    for _ in range(100):
        out = random_outcome(rng)
        assert field_accuracy(out, out) == 1.0


def test_field_accuracy_polarity_mismatch_zero():
    gold = ParseOutcome.positive(_gold_ab_neg())
    assert field_accuracy(gold, ParseOutcome.negative()) == 0.0
    assert field_accuracy(ParseOutcome.negative(), gold) == 0.0


def test_field_accuracy_both_negative_one():
    assert field_accuracy(ParseOutcome.negative(), ParseOutcome.negative()) == 1.0


def test_field_accuracy_hallucinated_time_and_marker():
    # Prediction errs in exactly three leaves: day format, wrong marker,
    # hallucinated time. Populated-path union: blood_group, bags_needed,
    # location, hospital_name, markers[0], probable_day, probable_time,
    # two contact numbers = 9 paths, 6 of them correct.
    gold = ParseOutcome.positive(_gold_ab_neg())
    pred_req = ParsedRequest(
        blood_group="AB-",
        bags_needed="2",
        location="AIIMS Hospital",
        hospital_name="AIIMS Hospital",
        location_markers=("AIIMS Hospital",),
        probable_day="Jun_21",
        probable_time="before 24:00",
        contacts=(Contact(contact_numbers=("981XXXXXXX", "724XXXXXXX")),),
    )
    pred = ParseOutcome.positive(pred_req)
    acc = field_accuracy(gold, pred)
    assert acc == pytest.approx(6 / 9)


def test_field_accuracy_hallucinated_list_entry_penalized():
    gold = ParseOutcome.positive(ParsedRequest(blood_group="O+", location_markers=("Dhaka",)))
    pred = ParseOutcome.positive(
        ParsedRequest(blood_group="O+", location_markers=("Dhaka", "Mirpur"))
    )
    # Union: blood_group, markers[0], markers[1] -> 2 of 3 correct.
    assert field_accuracy(gold, pred) == pytest.approx(2 / 3)


# -- parsing score ---------------------------------------------------------------


def test_parsing_score_perfect_match():
    gold = ParseOutcome.positive(_gold_ab_neg())
    score = parsing_score(gold, gold)
    assert score.weighted == 1.0
    assert score.ted == 0


def test_parsing_score_worst_case_zero():
    gold = ParseOutcome.positive(_gold_ab_neg())
    score = parsing_score(gold, ParseOutcome.negative())
    assert score.field_accuracy == 0.0
    assert score.ted_normalized == 1.0
    assert score.weighted == 0.0


def test_parsing_score_arithmetic():
    # weighted = 0.8*fa + 0.2*(1 - tn); fa=0.9, tn=0.1 -> 0.90.
    assert 0.8 * 0.9 + 0.2 * (1 - 0.1) == pytest.approx(0.90)
    rng = np.random.default_rng(8)
    for _ in range(300):
        gold, pred = random_outcome(rng), random_outcome(rng)
        s = parsing_score(gold, pred)
        assert 0.0 <= s.weighted <= 1.0
        assert s.weighted == pytest.approx(
            0.8 * s.field_accuracy + 0.2 * (1.0 - s.ted_normalized), abs=1e-12
        )


def test_parsing_score_one_iff_canonical_equal():
    rng = np.random.default_rng(9)
    for _ in range(200):
        gold, pred = random_outcome(rng), random_outcome(rng)
        s = parsing_score(gold, pred)
        equal = schema.serialize(schema.canonicalize_outcome(gold)) == schema.serialize(
            schema.canonicalize_outcome(pred)
        )
        assert (s.weighted == 1.0) == equal


# -- evaluate_parser ---------------------------------------------------------------


class EchoBackend(Backend):
    """Returns the gold outcome it is constructed with, keyed by text."""

    name = "echo"

    def __init__(self, items):
        self.answers = {text: gold for text, gold, _ in items}

    def parse(self, text):
        out = self.answers[text]
        return ParseRecord(
            outcome=out, input_tokens=10, output_tokens=5, latency_seconds=0.001, backend="echo"
        )


class AlwaysNegative(Backend):
    name = "never"

    def parse(self, text):
        return ParseRecord(
            outcome=ParseOutcome.negative(),
            input_tokens=10,
            output_tokens=3,
            latency_seconds=0.001,
            backend="never",
        )


class Exploding(Backend):
    name = "boom"

    def parse(self, text):
        raise RuntimeError("backend down")


def test_evaluate_parser_echo_scores_one():
    items = goldset(30, seed=17)
    report = evaluate_parser(EchoBackend(items), items)
    assert report.overall_weighted == pytest.approx(1.0)
    for stats in report.per_language.values():
        assert stats.mean_weighted == pytest.approx(1.0)


def test_evaluate_parser_always_negative_on_positive_goldset():
    items = [it for it in goldset(30, seed=17) if not it[1].is_negative]
    report = evaluate_parser(AlwaysNegative(), items)
    # Every item is a polarity mismatch: fa = 0, weighted collapses to the
    # tree term only.
    for text, gold, _ in items:
        assert parsing_score(gold, ParseOutcome.negative()).field_accuracy == 0.0
    assert report.overall_weighted < 0.2


def test_evaluate_parser_overall_is_sample_weighted_mean():
    items = goldset(45, seed=17)
    report = evaluate_parser(parse_rules_backend(), items)
    total = sum(s.mean_weighted * s.count for s in report.per_language.values())
    assert report.overall_weighted == pytest.approx(total / report.count)


def parse_rules_backend():
    from cbrs.layer2 import RulesBackend

    return RulesBackend()


def test_evaluate_parser_errors_score_zero():
    items = goldset(12, seed=17)
    report = evaluate_parser(Exploding(), items)
    assert report.errors == len(items)
    assert report.overall_weighted == 0.0


def test_evaluate_parser_rejects_unknown_language():
    items = [("text", ParseOutcome.negative(), "fr")]
    with pytest.raises(ValueError):
        evaluate_parser(AlwaysNegative(), items)


def test_goldset_file_roundtrip(tmp_path):
    import json as js

    items = goldset(12, seed=17)
    path = tmp_path / "gold.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for text, gold, lang in items:
            fh.write(
                js.dumps(
                    {"text": text, "language": lang, "gold": js.loads(schema.serialize(gold))},
                    ensure_ascii=False,
                )
                + "\n"
            )
    loaded = evalkit.load_goldset(path)
    assert len(loaded) == len(items)
    for (t1, g1, l1), (t2, g2, l2) in zip(items, loaded):
        assert (t1, l1) == (t2, l2)
        assert schema.serialize(g1) == schema.serialize(g2)


# -- cost model ---------------------------------------------------------------------


def test_cost_table_bit_exact():
    rows = [
        (15, 1, Decimal("0.0045"), Decimal("0.0003")),
        (55, 3, Decimal("0.0165"), Decimal("0.0009")),
        (95, 5, Decimal("0.0285"), Decimal("0.0015")),
    ]
    for volume, blood, single, dual in rows:
        rep = cost_report(volume, blood, "0.0003")
        assert rep.single_layer_dollars == single
        assert rep.dual_layer_dollars == dual


def test_cost_report_checks_bounds():
    with pytest.raises(ValueError):
        cost_report(10, 11, "0.0003")
    with pytest.raises(ValueError):
        cost_report(10, 1, "0.00000001")  # finer than a micro-dollar


def test_cost_ratio_reported_not_asserted():
    rep = cost_report(15, 1, "0.0003")
    assert rep.dual_over_single == pytest.approx(1 / 15)
    assert "dual/single" in rep.formatted()


# -- classifier comparison -------------------------------------------------------------


def test_compare_classifiers_both_good_on_separable():
    corpus = separable_corpus(400, seed=13)
    reports = compare_classifiers(corpus, seed=7, timing_calls=50)
    assert set(reports) == {"dlf", "tfidf_logreg"}
    for name, rep in reports.items():
        assert rep.weighted["f1"] >= 0.95, name
        assert rep.median_forward_seconds > 0


def test_compare_classifiers_deterministic():
    corpus = separable_corpus(200, seed=13)
    a = compare_classifiers(corpus, seed=3, timing_calls=5)
    b = compare_classifiers(corpus, seed=3, timing_calls=5)
    for name in a:
        assert a[name].accuracy == b[name].accuracy
        assert a[name].confusion == b[name].confusion


def test_tfidf_logreg_probability_sane():
    corpus = separable_corpus(200, seed=13)
    model = train_tfidf_logreg(corpus, seed=5)
    pos = [s for s in corpus if s.label == 1][0]
    neg = [s for s in corpus if s.label == 0][0]
    assert model.predict_proba(pos.text) > 0.5
    assert model.predict_proba(neg.text) < 0.5
