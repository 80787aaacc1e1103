"""Text representations for the classifier stack.

Two featurizers live here:

* a hashed subword / word-n-gram embedding-bag representation used by the
  lightweight request classifier, and
* a unigram+bigram TF-IDF vectorizer used by the logistic-regression
  baseline harness.

Words are decomposed into boundary-marked character n-grams whose embeddings
are averaged into word vectors; the message vector is the mean over word
vectors and word-n-gram embeddings. All units are mapped into a fixed bucket
space by a process-stable hash, so no explicit vocabulary is materialized.

`message_features` only hashes: it returns the words, each word's subword
bucket ids and the word n-grams' bucket ids. Layer-1 inference turns those
into logits one word at a time (`layer1.forward`); the pooled form, unique
rows and their weights, is derived on first use, for training and
`embed_message`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .corpus import Corpus

# Word characters: letters, digits, marks, underscore, plus "+" and "-" so
# blood groups ("O-", "AB+") and separator-joined phone digits survive as
# single tokens. Any other non-space character stands alone.
_TOKEN = re.compile(r"[\w+\-]+|[^\w\s]", re.UNICODE)

# Joins the words of a word-n-gram into one hashable unit. U+241F is not
# produced by the tokenizer, so joined units cannot collide with real text.
NGRAM_SEP = "␟"

BOW, EOW = "<", ">"

_DIGIT_RUN = re.compile(r"\d[\d+\-Xx]{6,}")
_NUM_SENTINEL = "<num>"


def tokenize(text: str) -> list[str]:
    """Split on whitespace and detach punctuation into standalone tokens.

    "+" and "-" count as word characters, keeping blood-group suffixes and
    phone-number-like digit runs intact.
    """
    return _TOKEN.findall(text)


def mask_digit_runs(text: str) -> str:
    """Replace long digit runs (phone numbers) with a sentinel token.

    Classifier-side normalization only; the parser always sees raw text.
    """
    return _DIGIT_RUN.sub(_NUM_SENTINEL, text)


def subword_units(word: str, minn: int, maxn: int) -> tuple[str, ...]:
    """Boundary-marked character n-grams of lengths minn..maxn plus the
    whole marked word, first occurrence kept on duplicates."""
    if not 1 <= minn <= maxn:
        raise ValueError(f"need 1 <= minn <= maxn, got ({minn}, {maxn})")
    marked = BOW + word + EOW
    units: dict[str, None] = {}
    for n in range(minn, maxn + 1):
        if n > len(marked):
            break
        for i in range(len(marked) - n + 1):
            units.setdefault(marked[i : i + n], None)
    units.setdefault(marked, None)
    return tuple(units)


def word_ngrams(words: list[str], n: int) -> list[str]:
    """Contiguous word n-grams of orders 2..n, separator-joined.

    Order 1 is excluded: unigrams are already covered by subword units.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    grams: list[str] = []
    for k in range(2, n + 1):
        grams.extend(NGRAM_SEP.join(words[i : i + k]) for i in range(len(words) - k + 1))
    return grams


_FNV_PRIME = 0x01000193
_UNMASKED_BYTES = 64


def fnv1a_32(data: str) -> int:
    """32-bit FNV-1a over the UTF-8 bytes; stable across runs and platforms."""
    return _fnv1a_feed(0x811C9DC5, data.encode("utf-8"))


def _fnv1a_feed(h: int, data: bytes) -> int:
    """The FNV-1a state `h` after it reads on through `data`.

    The low 32 bits of a product and of an XOR with a byte depend only on
    the low 32 bits of their operands, so up to `_UNMASKED_BYTES` bytes are
    read with one 32-bit mask at the end. The unmasked state grows about 24
    bits a byte, so longer data is masked after every byte and its cost
    stays linear in its length."""
    if len(data) > _UNMASKED_BYTES:
        for byte in data:
            h = ((h ^ byte) * _FNV_PRIME) & 0xFFFFFFFF
        return h
    for byte in data:
        h = (h ^ byte) * _FNV_PRIME
    return h & 0xFFFFFFFF


def hash_features(units: list[str] | tuple[str, ...], buckets: int) -> list[int]:
    """Map each unit string to a bucket id in [0, buckets)."""
    if buckets <= 0:
        raise ValueError(f"buckets must be positive, got {buckets}")
    return [fnv1a_32(u) % buckets for u in units]


@lru_cache(maxsize=65536)
def _word_parts(word: str, minn: int, maxn: int, buckets: int) -> tuple[tuple[int, ...], int, bytes]:
    """A word's subword bucket ids, its FNV-1a state as a unigram, and the
    bytes it adds to a word n-gram that it ends."""
    ids = tuple(hash_features(subword_units(word, minn, maxn), buckets))
    return ids, fnv1a_32(word), (NGRAM_SEP + word).encode("utf-8")


def _ngram_states(parts: list[tuple[tuple[int, ...], int, bytes]], n: int) -> list[int]:
    """The FNV-1a hashes of the word n-grams of orders 2..n, in the order
    of `word_ngrams`, from the `_word_parts` of the words. FNV-1a reads
    bytes left to right, so the k-gram at i hashes on from the state of
    the (k-1)-gram at i by the separator and word i+k-1 alone."""
    states = [state for _, state, _ in parts]
    out: list[int] = []
    for k in range(2, n + 1):
        states = [_fnv1a_feed(h, tail) for h, (_, _, tail) in zip(states, parts[k - 1 :])]
        out += states
    return out


@dataclass(frozen=True)
class MessageFeatures:
    """Hashed features of one message: its words, each word's subword
    bucket ids, and the bucket ids of its word n-grams.

    The message vector is the mean over units, a unit being a word vector
    (the mean of its subword rows) or a word-n-gram row. As rows and
    weights it is ``sum(coeffs[i] * E[rows[i]])``: `rows` are unique and
    `coeffs` encode the two-level averaging. Both are derived on first use.
    """

    words: list[str]
    subwords: list[tuple[int, ...]]  # per word, its subword bucket ids
    grams: np.ndarray  # int64 bucket ids of the word n-grams, orders 2..n

    @property
    def word_count(self) -> int:
        return len(self.words)

    @property
    def units(self) -> int:
        """How many vectors the message vector is the mean of."""
        return len(self.words) + len(self.grams)

    @property
    def empty(self) -> bool:
        return self.units == 0

    @cached_property
    def _row_coeffs(self) -> tuple[np.ndarray, np.ndarray]:
        if self.empty:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        weights: dict[int, float] = {}
        outer = 1.0 / self.units
        for ids in self.subwords:
            inner = outer / len(ids)
            for bucket in ids:
                weights[bucket] = weights.get(bucket, 0.0) + inner
        for bucket in self.grams.tolist():
            weights[bucket] = weights.get(bucket, 0.0) + outer
        rows = np.fromiter(weights.keys(), dtype=np.int64, count=len(weights))
        coeffs = np.fromiter(weights.values(), dtype=np.float64, count=len(weights))
        return rows, coeffs

    @property
    def rows(self) -> np.ndarray:
        """int64, unique bucket ids."""
        return self._row_coeffs[0]

    @property
    def coeffs(self) -> np.ndarray:
        """float64, the weight of each of `rows`."""
        return self._row_coeffs[1]

    def pool(self, table: np.ndarray) -> np.ndarray:
        """The float64 message vector over embedding table `table`; zero
        when empty. Only the message's rows are gathered and cast, and the
        cast from float32 is exact, so a float32 table (a mapped model
        file) pools as its float64 copy would."""
        if self.empty:
            return np.zeros(table.shape[1])
        # Fancy indexing, not `np.take`: a mapped table starts at file
        # offset 94, unaligned, and `take` copies unaligned rows very slowly.
        return self.coeffs @ table[self.rows].astype(np.float64, copy=False)


def message_features(
    words: list[str], minn: int, maxn: int, word_n: int, buckets: int
) -> MessageFeatures:
    """The subword bucket ids of each word and the word n-grams' bucket ids."""
    parts = [_word_parts(word, minn, maxn, buckets) for word in words]
    states = _ngram_states(parts, word_n)
    grams = np.fromiter(states, dtype=np.int64, count=len(states)) % buckets
    return MessageFeatures(words=words, subwords=[ids for ids, _, _ in parts], grams=grams)


def embed_message(
    words: list[str], table: np.ndarray, minn: int, maxn: int, word_n: int
) -> np.ndarray:
    """Mean-pooled message vector over word vectors and word-n-gram rows.

    Each word vector is the mean of its subword-unit embeddings; the empty
    message embeds to the zero vector.
    """
    return message_features(words, minn, maxn, word_n, buckets=table.shape[0]).pool(table)


# --------------------------------------------------------------------------
# TF-IDF baseline featurizer


@dataclass
class TfidfVocabulary:
    term_index: dict[str, int]
    idf: np.ndarray

    def __len__(self) -> int:
        return len(self.term_index)


def _tfidf_terms(text: str) -> list[str]:
    words = tokenize(mask_digit_runs(text).casefold())
    return words + [NGRAM_SEP.join(p) for p in zip(words, words[1:])]


def tfidf_fit(corpus: Corpus) -> TfidfVocabulary:
    """Fit unigram+bigram document frequencies; idf = ln((1+N)/(1+df)) + 1."""
    if len(corpus) == 0:
        raise ValueError("cannot fit TF-IDF on an empty corpus")
    df: dict[str, int] = {}
    for sample in corpus:
        for term in set(_tfidf_terms(sample.text)):
            df[term] = df.get(term, 0) + 1
    terms = sorted(df)
    n_docs = len(corpus)
    idf = np.array([math.log((1 + n_docs) / (1 + df[t])) + 1.0 for t in terms])
    return TfidfVocabulary(term_index={t: i for i, t in enumerate(terms)}, idf=idf)


def tfidf_transform(vocab: TfidfVocabulary, text: str) -> dict[int, float]:
    """L2-normalized sparse tf-idf vector; unseen terms are ignored."""
    counts: dict[int, int] = {}
    for term in _tfidf_terms(text):
        idx = vocab.term_index.get(term)
        if idx is not None:
            counts[idx] = counts.get(idx, 0) + 1
    if not counts:
        return {}
    vec = {i: c * vocab.idf[i] for i, c in counts.items()}
    norm = math.sqrt(sum(v * v for v in vec.values()))
    return {i: v / norm for i, v in vec.items()}
