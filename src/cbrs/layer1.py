"""Layer-1 request classifier: embedding bag, linear head, weighted loss.

A message vector (mean-pooled hashed subword / word-n-gram embeddings) runs
through a 2-logit linear head and softmax. Training minimizes a weighted
binary cross-entropy whose positive term is scaled by ``alpha`` so that a
missed request costs more than a false alarm; alpha defaults to 12.

Inference builds no message vector. The head is linear up to the softmax,
so the logits are ``b + (Σ_words c_w + W · Σ_grams E[g]) / units``, where
``c_w = W · mean(E[subword ids of w])`` depends only on the word
(`word_logits`). A model loaded from a file keeps a memo of up to
`MEMO_WORDS` words' pairs, so a message costs its hashing, one lookup per
word, one gather of its word-n-gram rows and a two-class softmax. Models
built in RAM (`init_model`, `train`) keep none: their tables change as
they train, so `forward` computes their words' pairs each call, by the
same function.

The model serializes to a single binary blob: magic ``CBRS1``, a version
byte, a fixed hyperparameter block, then the E, W, b tensors as row-major
little-endian float32. A loaded model is for inference only, and none of
its arrays can be written: its table is the file's float32 bytes mapped
read-only, so only the pages of the rows messages touch are resident, and
`forward` casts just the gathered rows to float64 (exactly); W and b are
read-only float64 copies. `init_model` and `train` build float64 tables
in RAM, which training and `gradient_check` write to.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
import threading
import time
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import Corpus, normalize_text
from .textrep import MessageFeatures, mask_digit_runs, message_features, tokenize

MAGIC = b"CBRS1"
FORMAT_VERSION = 1

_EPS = 1e-12

_HYPER_STRUCT = struct.Struct("<7q4d")  # d, buckets, minn, maxn, word_n, epochs, seed, alpha, lr, threshold, pad
_HEADER_SIZE = len(MAGIC) + 1 + _HYPER_STRUCT.size


class TrainingError(Exception):
    """Raised when a corpus cannot be trained on (e.g. single-class data)."""


@dataclass(frozen=True)
class Hyper:
    dim: int = 100
    buckets: int = 2**21
    minn: int = 3
    maxn: int = 6
    word_n: int = 3
    epochs: int = 1000
    seed: int = 1
    alpha: float = 12.0
    lr: float = 1.0
    threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 1 <= self.minn <= self.maxn:
            raise ValueError("need 1 <= minn <= maxn")


@dataclass
class ClassifierModel:
    embeddings: np.ndarray  # buckets x dim
    weights: np.ndarray  # 2 x dim
    bias: np.ndarray  # 2
    hyper: Hyper
    # Only a model from `load_model` keeps one; see `forward`.
    memo: WordMemo | None = field(default=None, repr=False, compare=False)

    def features(self, text: str) -> MessageFeatures:
        words = tokenize(mask_digit_runs(normalize_text(text)))
        return message_features(
            words, self.hyper.minn, self.hyper.maxn, self.hyper.word_n, self.hyper.buckets
        )


@dataclass(frozen=True)
class Prediction:
    p_positive: float
    label: int
    logits: tuple[float, float]


@dataclass
class ClassReport:
    accuracy: float
    per_class: dict[int, dict[str, float]]  # precision / recall / f1 / support
    macro: dict[str, float]
    weighted: dict[str, float]
    confusion: dict[tuple[int, int], int]  # (gold, pred) -> count
    median_forward_seconds: float
    mean_forward_seconds: float


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax (max logit subtracted before exp)."""
    shifted = logits - np.max(logits)
    exp = np.exp(shifted)
    return exp / exp.sum()


# Words whose logit pairs a loaded model remembers, as `_word_parts`
# remembers 65536 words' ids.
MEMO_WORDS = 65536


class WordMemo:
    """A loaded model's bounded memo, word -> its `word_logits` pair.

    A pair depends on the word, the tables and the subword settings alone,
    so the memo keeps the (embeddings, weights, hyper) it was filled from
    and starts empty when the model holds others. Past `MEMO_WORDS` words
    it starts over. Reads take no lock; a race only recomputes a pair.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._state: tuple[tuple, dict[str, tuple[float, float]]] = ((None, None, None), {})

    def pairs(self, model: ClassifierModel) -> dict[str, tuple[float, float]]:
        (table, weights, hyper), pairs = self._state
        if table is not model.embeddings or weights is not model.weights or hyper is not model.hyper:
            pairs = {}
            self._state = ((model.embeddings, model.weights, model.hyper), pairs)
        return pairs

    def add(self, pairs: dict[str, tuple[float, float]], new: dict[str, tuple[float, float]]) -> None:
        with self._lock:
            if len(pairs) + len(new) > MEMO_WORDS:
                pairs.clear()
            if len(new) <= MEMO_WORDS:
                pairs.update(new)

    def __len__(self) -> int:
        return len(self._state[1])


def word_logits(table: np.ndarray, weights: np.ndarray, subwords: Sequence[tuple[int, ...]]) -> list[tuple[float, float]]:
    """``c_w = W · mean(E[ids])`` for each word's subword ids `ids`, from
    one gather, as the mean of the rows' own logits ``W · E[id]``.

    Each pair is bit-identical however the words are batched: every
    ``W · E[id]`` is its own sum over the dimension, and every word's mean
    its own reduction over its rows (a matrix product's rounding can
    depend on its shape). A float32 table gives its float64 copy's pairs.
    """
    counts = np.fromiter(map(len, subwords), dtype=np.intp, count=len(subwords))
    ids = np.fromiter(chain.from_iterable(subwords), dtype=np.intp, count=int(counts.sum()))
    rows = table[ids].astype(np.float64, copy=False)
    logits = np.einsum("kd,jd->jk", rows, weights)  # 2 x rows
    c0, c1 = np.add.reduceat(logits, np.cumsum(counts) - counts, axis=1) / counts
    return list(zip(c0.tolist(), c1.tolist()))


def _word_pairs(model: ClassifierModel, feats: MessageFeatures) -> list[tuple[float, float]]:
    """Each word's `word_logits` pair, from the model's memo where it holds
    the word; the others come from one gather and, with a memo, join it."""
    memo = model.memo
    pairs = memo.pairs(model) if memo is not None else {}
    got = [pairs.get(word) for word in feats.words]
    if None not in got:
        return got
    missing = {w: ids for w, ids, pair in zip(feats.words, feats.subwords, got) if pair is None}
    new = dict(zip(missing, word_logits(model.embeddings, model.weights, list(missing.values()))))
    if memo is not None:
        memo.add(pairs, new)
    return [new[w] if pair is None else pair for w, pair in zip(feats.words, got)]


def forward(model: ClassifierModel, text: str) -> Prediction:
    """Layer 1's decision on `text`.

    The head is linear up to the softmax, so the logits are
    ``b + (Σ_words c_w + W · Σ_grams E[g]) / units``, with `word_logits`'
    ``c_w`` read from the model's memo when it has one.
    """
    feats = model.features(text)
    units = feats.units
    z0, z1 = model.bias.tolist()
    if units:
        s0 = s1 = 0.0
        for c0, c1 in _word_pairs(model, feats):
            s0 += c0
            s1 += c1
        if feats.grams.size:
            # Fancy indexing, not `np.take`: see `MessageFeatures.pool`.
            grams = np.add.reduce(model.embeddings[feats.grams].astype(np.float64, copy=False), axis=0)
            g0, g1 = (model.weights @ grams).tolist()
            s0 += g0
            s1 += g1
        z0 += s0 / units
        z1 += s1 / units
    top = max(z0, z1)
    e0, e1 = math.exp(z0 - top), math.exp(z1 - top)
    p_pos = e1 / (e0 + e1)
    # Ties at the threshold resolve positive: a missed request is the
    # expensive mistake, so the boundary goes to class 1.
    label = 1 if p_pos >= model.hyper.threshold else 0
    return Prediction(p_positive=p_pos, label=label, logits=(z0, z1))


def loss(p_positive: float, y: int, alpha: float) -> float:
    """Weighted binary cross-entropy, positive term scaled by alpha."""
    p = min(max(p_positive, _EPS), 1.0 - _EPS)
    if y == 1:
        return float(-alpha * np.log(p))
    return float(-np.log(1.0 - p))


def init_model(hyper: Hyper) -> ClassifierModel:
    rng = np.random.default_rng(hyper.seed)
    bound = 1.0 / hyper.dim
    embeddings = rng.uniform(-bound, bound, size=(hyper.buckets, hyper.dim))
    weights = np.zeros((2, hyper.dim))
    bias = np.zeros(2)
    return ClassifierModel(embeddings=embeddings, weights=weights, bias=bias, hyper=hyper)


def _sample_gradients(
    model: ClassifierModel, feats: MessageFeatures, y: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Gradient of the weighted loss w.r.t. W, b, and the touched E rows.

    Returns (dW, db, dE_rows, p_positive) where dE_rows has one row per
    entry of feats.rows.
    """
    vec = feats.pool(model.embeddings)
    logits = model.weights @ vec + model.bias
    probs = softmax(logits)
    scale = model.hyper.alpha if y == 1 else 1.0
    dz = scale * (probs - np.eye(2)[y])
    d_w = np.outer(dz, vec)
    d_vec = model.weights.T @ dz
    d_rows = np.outer(feats.coeffs, d_vec) if not feats.empty else np.zeros((0, model.hyper.dim))
    return d_w, dz, d_rows, float(probs[1])


def train(
    corpus: Corpus,
    hyper: Hyper = Hyper(),
    on_epoch: Callable[[int, "ClassifierModel", float], None] | None = None,
) -> ClassifierModel:
    """SGD on the weighted loss with a linearly decaying learning rate.

    The rate decays from ``hyper.lr`` to 0 over all steps; a constant rate
    of 1.0 diverges on dense gradients. Deterministic for a fixed seed.
    Raises :class:`TrainingError` on single-class corpora.
    """
    counts = corpus.label_counts()
    if counts[0] == 0 or counts[1] == 0:
        raise TrainingError(
            f"training needs both classes; corpus has {counts[1]} positive "
            f"and {counts[0]} negative samples"
        )
    model = init_model(hyper)
    feats = [model.features(s.text) for s in corpus.samples]
    labels = [s.label for s in corpus.samples]
    rng = np.random.default_rng(hyper.seed + 1)
    total_steps = hyper.epochs * len(feats)
    step = 0
    for epoch in range(hyper.epochs):
        order = rng.permutation(len(feats))
        epoch_loss = 0.0
        for i in order:
            rate = hyper.lr * (1.0 - step / total_steps)
            step += 1
            f, y = feats[i], labels[i]
            d_w, d_b, d_rows, p_pos = _sample_gradients(model, f, y)
            epoch_loss += loss(p_pos, y, hyper.alpha)
            model.weights -= rate * d_w
            model.bias -= rate * d_b
            if not f.empty:
                np.subtract.at(model.embeddings, f.rows, rate * d_rows)
        if on_epoch is not None:
            on_epoch(epoch, model, epoch_loss / len(feats))
    return model


def gradient_check(model: ClassifierModel, text: str, y: int, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Checks W, b, and every embedding row the message touches.
    """
    feats = model.features(text)

    def loss_at() -> float:
        return loss(forward(model, text).p_positive, y, model.hyper.alpha)

    d_w, d_b, d_rows, _ = _sample_gradients(model, feats, y)

    def rel_err(analytic: float, numeric: float) -> float:
        denom = max(abs(analytic) + abs(numeric), 1e-8)
        return abs(analytic - numeric) / denom

    worst = 0.0

    def check_param(array: np.ndarray, grad: np.ndarray, index: tuple) -> None:
        nonlocal worst
        keep = array[index]
        array[index] = keep + h
        up = loss_at()
        array[index] = keep - h
        down = loss_at()
        array[index] = keep
        numeric = (up - down) / (2 * h)
        worst = max(worst, rel_err(float(grad[index]), numeric))

    for idx in np.ndindex(model.weights.shape):
        check_param(model.weights, d_w, idx)
    for idx in np.ndindex(model.bias.shape):
        check_param(model.bias, d_b, idx)
    for r, row in enumerate(feats.rows):
        for c in range(model.hyper.dim):
            keep = model.embeddings[row, c]
            model.embeddings[row, c] = keep + h
            up = loss_at()
            model.embeddings[row, c] = keep - h
            down = loss_at()
            model.embeddings[row, c] = keep
            numeric = (up - down) / (2 * h)
            worst = max(worst, rel_err(float(d_rows[r, c]), numeric))
    return worst


def build_report(
    pairs: Sequence[tuple[int, int]], times: Sequence[float]
) -> ClassReport:
    """Confusion-matrix metrics from (gold, predicted) label pairs."""
    confusion: dict[tuple[int, int], int] = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
    for gold, pred in pairs:
        confusion[(gold, pred)] += 1

    def metrics_for(cls: int) -> dict[str, float]:
        tp = confusion[(cls, cls)]
        fp = confusion[(1 - cls, cls)]
        fn = confusion[(cls, 1 - cls)]
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return {"precision": precision, "recall": recall, "f1": f1, "support": tp + fn}

    per_class = {0: metrics_for(0), 1: metrics_for(1)}
    total = len(pairs)
    accuracy = (confusion[(0, 0)] + confusion[(1, 1)]) / total
    macro = {k: (per_class[0][k] + per_class[1][k]) / 2 for k in ("precision", "recall", "f1")}
    weighted = {
        k: (per_class[0][k] * per_class[0]["support"] + per_class[1][k] * per_class[1]["support"])
        / total
        for k in ("precision", "recall", "f1")
    }
    return ClassReport(
        accuracy=accuracy,
        per_class=per_class,
        macro=macro,
        weighted=weighted,
        confusion=confusion,
        median_forward_seconds=float(np.median(times)) if len(times) else 0.0,
        mean_forward_seconds=float(np.mean(times)) if len(times) else 0.0,
    )


def timed_report(predict: Callable[[str], int], testset: Corpus, timing_calls: int) -> ClassReport:
    """Confusion-matrix metrics of `predict` on a test set plus its timing.

    Timing is the median and mean wall-clock seconds per call over at
    least ``timing_calls`` calls, cycling the test set if it is smaller.
    """
    if len(testset) == 0:
        raise ValueError("test set is empty")
    pairs = [(s.label, predict(s.text)) for s in testset]
    texts = [s.text for s in testset]
    times = []
    for i in range(max(timing_calls, 1)):
        text = texts[i % len(texts)]
        t0 = time.perf_counter()
        predict(text)
        times.append(time.perf_counter() - t0)
    return build_report(pairs, times)


def classification_report(
    model: ClassifierModel, testset: Corpus, timing_calls: int = 1000
) -> ClassReport:
    """Confusion-matrix metrics at the model threshold plus forward timing."""
    return timed_report(lambda text: forward(model, text).label, testset, timing_calls)


def save_model(model: ClassifierModel, path: str | Path) -> None:
    """Write the binary model blob (float32 tensors, little-endian).

    The blob goes to a new file in the target directory that then replaces
    `path`, so a model loaded (mapped) from `path` keeps reading the old
    file's pages.
    """
    h = model.hyper
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(MAGIC + bytes([FORMAT_VERSION]))
            fh.write(
                _HYPER_STRUCT.pack(
                    h.dim, h.buckets, h.minn, h.maxn, h.word_n, h.epochs, h.seed,
                    h.alpha, h.lr, h.threshold, 0.0,
                )
            )
            for tensor in (model.embeddings, model.weights, model.bias):
                fh.write(np.ascontiguousarray(tensor, dtype="<f4"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_model(path: str | Path) -> ClassifierModel:
    """The model saved at `path`, for inference only, with an empty memo.

    W and b are read into float64 arrays. The embedding table is not
    read: it is a float32 view of the file mapped into memory, so only the
    pages of the rows `forward` gathers become resident. None of the three
    can be written (ValueError), so the memo cannot go stale. ValueError
    too if the file is not a model file or its size is not the one its
    header implies.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_SIZE)
        if head[: len(MAGIC)] != MAGIC:
            raise ValueError(f"not a classifier model file: {path}")
        if len(head) != _HEADER_SIZE:
            raise ValueError(f"model file {path} ends inside its header")
        if head[len(MAGIC)] != FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {head[len(MAGIC)]}")
        fields = _HYPER_STRUCT.unpack_from(head, len(MAGIC) + 1)
        dim, buckets, minn, maxn, word_n, epochs, seed = fields[:7]
        alpha, lr, threshold = fields[7:10]
        hyper = Hyper(
            dim=dim, buckets=buckets, minn=minn, maxn=maxn, word_n=word_n,
            epochs=epochs, seed=seed, alpha=alpha, lr=lr, threshold=threshold,
        )
        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER_SIZE + 4 * (buckets * dim + 2 * dim + 2)  # E, W and b as float32
        if size != expected:
            raise ValueError(
                f"model file {path} is {size} bytes; its header ({buckets} x {dim}) "
                f"needs {expected}"
            )
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    offset = _HEADER_SIZE

    def take(shape: tuple[int, ...]) -> np.ndarray:
        nonlocal offset
        count = int(np.prod(shape))
        arr = np.frombuffer(mapped, dtype="<f4", count=count, offset=offset)
        offset += count * 4
        return arr.reshape(shape)

    embeddings = take((buckets, dim))
    weights = take((2, dim)).astype(np.float64)
    bias = take((2,)).astype(np.float64)
    weights.flags.writeable = bias.flags.writeable = False
    return ClassifierModel(embeddings=embeddings, weights=weights, bias=bias, hyper=hyper, memo=WordMemo())
