"""Scoring and benchmarking: parsing quality, classifier comparison, cost.

Parsing quality is a weighted score: 80% field-level accuracy over the
union of populated leaf paths, 20% the complement of a normalized tree edit
distance. Money is held as integer micro-dollars so the dual-layer cost
table reproduces exactly under decimal arithmetic.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Sequence

import numpy as np

from . import layer1, schema, textrep
from .corpus import Corpus, split
from .layer1 import ClassReport, Hyper, timed_report
from .layer2 import Backend
from .schema import ParseOutcome
from .ted import tree_edit_distance

log = logging.getLogger(__name__)

FIELD_WEIGHT = 0.8
TED_WEIGHT = 0.2

MICRO = 1_000_000

# The languages a gold set may tag its items with.
GOLD_LANGUAGES = ("bn", "en", "tbn")


@dataclass(frozen=True)
class ParsingScore:
    field_accuracy: float
    ted: int
    ted_normalized: float
    weighted: float


@dataclass(frozen=True)
class CostReport:
    daily_volume: int
    blood_message_count: int
    unit_price_micro: int  # micro-dollars per message
    single_layer_micro: int
    dual_layer_micro: int

    @property
    def single_layer_dollars(self) -> Decimal:
        return _dollars(self.single_layer_micro)

    @property
    def dual_layer_dollars(self) -> Decimal:
        return _dollars(self.dual_layer_micro)

    @property
    def dual_over_single(self) -> float:
        if self.single_layer_micro == 0:
            return 0.0
        return self.dual_layer_micro / self.single_layer_micro

    def formatted(self) -> str:
        return (
            f"volume={self.daily_volume} blood={self.blood_message_count} "
            f"single=${self.single_layer_dollars} dual=${self.dual_layer_dollars} "
            f"(dual/single={self.dual_over_single:.4f})"
        )


def _dollars(micro: int) -> Decimal:
    return (Decimal(micro) / MICRO).normalize()


@dataclass
class LanguageStats:
    count: int = 0
    weighted_sum: float = 0.0

    @property
    def mean_weighted(self) -> float:
        return self.weighted_sum / self.count if self.count else 0.0


@dataclass
class ParserEvalReport:
    per_language: dict[str, LanguageStats]
    overall_weighted: float
    mean_input_tokens: float
    mean_output_tokens: float
    mean_latency_seconds: float
    errors: int
    count: int

    def to_dict(self) -> dict:
        return {
            "per_language": {
                lang: {"count": s.count, "mean_weighted": s.mean_weighted}
                for lang, s in sorted(self.per_language.items())
            },
            "overall_weighted": self.overall_weighted,
            "mean_input_tokens": self.mean_input_tokens,
            "mean_output_tokens": self.mean_output_tokens,
            "mean_latency_seconds": self.mean_latency_seconds,
            "errors": self.errors,
            "count": self.count,
        }

    def table(self) -> str:
        rows = [f"{'language':<10}{'count':>8}{'mean weighted':>16}"]
        for lang, s in sorted(self.per_language.items()):
            rows.append(f"{lang:<10}{s.count:>8}{s.mean_weighted:>16.4f}")
        rows.append(f"{'overall':<10}{self.count:>8}{self.overall_weighted:>16.4f}")
        return "\n".join(rows)


def ted_normalized(a: schema.LabeledTree, b: schema.LabeledTree) -> float:
    """Edit distance divided by the larger node count; 0 for two empties."""
    return _normalized(tree_edit_distance(a, b), a, b)


def _normalized(ted: int, a: schema.LabeledTree, b: schema.LabeledTree) -> float:
    bigger = max(a.size(), b.size())
    return ted / bigger if bigger else 0.0


def field_accuracy(gold: ParseOutcome, pred: ParseOutcome) -> float:
    """Fraction of populated leaf paths whose canonical values match.

    The denominator is the union of leaf paths populated on either side, so
    hallucinated values and list entries are penalized. Matching negative
    flags score 1.0; a polarity mismatch scores 0.0.
    """
    return _field_accuracy(schema.canonicalize_outcome(gold), schema.canonicalize_outcome(pred))


def _field_accuracy(gold: ParseOutcome, pred: ParseOutcome) -> float:
    """`field_accuracy` of two canonical outcomes."""
    if gold.is_negative and pred.is_negative:
        return 1.0
    if gold.is_negative != pred.is_negative:
        return 0.0
    gold_paths = schema.leaf_paths(gold)
    pred_paths = schema.leaf_paths(pred)
    union = {p for p, v in gold_paths.items() if v} | {p for p, v in pred_paths.items() if v}
    if not union:
        return 1.0
    correct = sum(1 for p in union if gold_paths.get(p, "") == pred_paths.get(p, ""))
    return correct / len(union)


def parsing_score(gold: ParseOutcome, pred: ParseOutcome) -> ParsingScore:
    gold_c = schema.canonicalize_outcome(gold)
    pred_c = schema.canonicalize_outcome(pred)
    gold_tree = schema.to_tree(gold_c)
    pred_tree = schema.to_tree(pred_c)
    ted = tree_edit_distance(gold_tree, pred_tree)
    tn = _normalized(ted, gold_tree, pred_tree)
    fa = _field_accuracy(gold_c, pred_c)
    return ParsingScore(
        field_accuracy=fa,
        ted=ted,
        ted_normalized=tn,
        weighted=FIELD_WEIGHT * fa + TED_WEIGHT * (1.0 - tn),
    )


def evaluate_parser(
    backend: Backend, goldset: Sequence[tuple[str, ParseOutcome, str]]
) -> ParserEvalReport:
    """Run the backend over a gold set and aggregate per-language means.

    A backend error on an item logs the failure and scores that item 0.
    The overall mean is sample-weighted, i.e. the plain mean over items.
    """
    for _, _, language in goldset:
        if language not in GOLD_LANGUAGES:
            raise ValueError(f"goldset language must be bn/en/tbn, got {language!r}")
    per_language: dict[str, LanguageStats] = {}
    weighted_total = 0.0
    input_tokens: list[int] = []
    output_tokens: list[int] = []
    latencies: list[float] = []
    errors = 0
    for text, gold, language in goldset:
        stats = per_language.setdefault(language, LanguageStats())
        stats.count += 1
        try:
            record = backend.parse(text)
        except Exception as exc:
            log.error("backend %s failed on item: %s", backend.name, exc)
            errors += 1
            continue
        input_tokens.append(record.input_tokens)
        output_tokens.append(record.output_tokens)
        latencies.append(record.latency_seconds)
        if record.failed:
            errors += 1
            continue
        score = parsing_score(gold, record.outcome)
        stats.weighted_sum += score.weighted
        weighted_total += score.weighted
    count = len(goldset)
    return ParserEvalReport(
        per_language=per_language,
        overall_weighted=weighted_total / count if count else 0.0,
        mean_input_tokens=float(np.mean(input_tokens)) if input_tokens else 0.0,
        mean_output_tokens=float(np.mean(output_tokens)) if output_tokens else 0.0,
        mean_latency_seconds=float(np.mean(latencies)) if latencies else 0.0,
        errors=errors,
        count=count,
    )


def load_goldset(path: str | Path) -> list[tuple[str, ParseOutcome, str]]:
    """Gold-set file: line-delimited {"text", "language", "gold"} objects;
    ValueError names the file and line of the first malformed one."""
    items: list[tuple[str, ParseOutcome, str]] = []
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict) or not isinstance(obj.get("text"), str):
                    raise ValueError("not a JSON object with a string 'text'")
                if obj.get("language") not in GOLD_LANGUAGES:
                    raise ValueError(f"'language' is not one of {GOLD_LANGUAGES}")
                outcome = schema.validate(obj.get("gold"))
                if not isinstance(outcome, ParseOutcome):
                    raise ValueError(f"gold object invalid: {outcome[0]}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            items.append((obj["text"], outcome, obj["language"]))
    return items


def unit_price_to_micro(unit_price: str | Decimal) -> int:
    price = Decimal(str(unit_price))
    micro = price * MICRO
    if micro != micro.to_integral_value():
        raise ValueError(f"unit price {unit_price} is finer than one micro-dollar")
    return int(micro)


def cost_report(
    daily_volume: int, blood_count: int, unit_price: str | Decimal = "0.0003"
) -> CostReport:
    """Single-layer vs dual-layer daily cost at a flat per-message price.

    Single-layer sends every message to the paid parser; dual-layer pays
    only for messages the first layer forwards (its own cost is treated as
    zero).
    """
    if blood_count > daily_volume:
        raise ValueError(
            f"blood message count {blood_count} exceeds daily volume {daily_volume}"
        )
    if daily_volume < 0 or blood_count < 0:
        raise ValueError("counts must be nonnegative")
    micro = unit_price_to_micro(unit_price)
    if micro < 0:
        raise ValueError("unit price must be nonnegative")
    return CostReport(
        daily_volume=daily_volume,
        blood_message_count=blood_count,
        unit_price_micro=micro,
        single_layer_micro=daily_volume * micro,
        dual_layer_micro=blood_count * micro,
    )


# --------------------------------------------------------------------------
# Classifier baseline: TF-IDF features + logistic regression


@dataclass
class TfidfLogReg:
    vocab: textrep.TfidfVocabulary
    weights: np.ndarray
    bias: float
    threshold: float = 0.5

    def predict_proba(self, text: str) -> float:
        vec = textrep.tfidf_transform(self.vocab, text)
        z = self.bias + sum(self.weights[i] * v for i, v in vec.items())
        return 1.0 / (1.0 + math.exp(-z))

    def predict(self, text: str) -> int:
        return 1 if self.predict_proba(text) >= self.threshold else 0


def train_tfidf_logreg(corpus: Corpus, seed: int = 1) -> TfidfLogReg:
    """Plain SGD logistic regression on tf-idf features, L2-regularized:
    30 epochs, learning rate 0.5 decaying linearly to 0, L2 weight 1e-4."""
    epochs, lr, l2 = 30, 0.5, 1e-4
    vocab = textrep.tfidf_fit(corpus)
    vectors = [textrep.tfidf_transform(vocab, s.text) for s in corpus.samples]
    labels = [s.label for s in corpus.samples]
    weights = np.zeros(len(vocab))
    bias = 0.0
    rng = np.random.default_rng(seed)
    total = epochs * len(vectors)
    step = 0
    for _ in range(epochs):
        for i in rng.permutation(len(vectors)):
            rate = lr * (1.0 - step / total)
            step += 1
            vec, y = vectors[i], labels[i]
            z = bias + sum(weights[j] * v for j, v in vec.items())
            p = 1.0 / (1.0 + math.exp(-max(-500.0, min(500.0, z))))
            err = p - y
            for j, v in vec.items():
                weights[j] -= rate * (err * v + l2 * weights[j])
            bias -= rate * err
    return TfidfLogReg(vocab=vocab, weights=weights, bias=bias)


def compare_classifiers(
    corpus: Corpus,
    dlf_hyper: Hyper | None = None,
    seed: int = 7,
    timing_calls: int = 1000,
) -> dict[str, ClassReport]:
    """Train DLF and the TF-IDF baseline on a shared split and report each."""
    train_set, _, test_set = split(corpus, (0.8, 0.1, 0.1), seed=seed)
    model = layer1.train(train_set, dlf_hyper or Hyper(dim=32, buckets=2**18, epochs=8, lr=0.5, seed=seed))
    reports = {"dlf": layer1.classification_report(model, test_set, timing_calls)}
    baseline = train_tfidf_logreg(train_set, seed=seed)
    reports["tfidf_logreg"] = timed_report(baseline.predict, test_set, timing_calls)
    return reports


def comparison_table(reports: dict[str, ClassReport]) -> str:
    rows = [
        f"{'classifier':<16}{'accuracy':>10}{'precision':>11}{'recall':>9}{'f1':>8}{'median s':>12}"
    ]
    for name, rep in reports.items():
        rows.append(
            f"{name:<16}{rep.accuracy:>10.4f}{rep.weighted['precision']:>11.4f}"
            f"{rep.weighted['recall']:>9.4f}{rep.weighted['f1']:>8.4f}"
            f"{rep.median_forward_seconds:>12.3e}"
        )
    return "\n".join(rows)
