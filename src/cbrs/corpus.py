"""Corpus ingestion: load, deduplicate, language-tag, and split labeled messages.

The on-disk corpus format is line-delimited JSON, one object per line, with
required keys ``text`` (string) and ``label`` (0 or 1) and optional keys
``language`` and ``source``. Files must be UTF-8.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import re
import unicodedata
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

log = logging.getLogger(__name__)

LANGUAGES = ("bn", "en", "tbn", "unknown")

# Bengali Unicode block.
_BENGALI_LO = 0x0980
_BENGALI_HI = 0x09FF

_WS_RUN = re.compile(r"\s+")


class CorpusError(Exception):
    """Fatal corpus-level problem (missing file, bad split ratios, ...)."""


@dataclass(frozen=True)
class LabeledSample:
    text: str
    label: int
    language: str = "unknown"
    source: str = ""

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("sample text is empty after whitespace trim")
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")
        if self.language not in LANGUAGES:
            raise ValueError(f"language must be one of {LANGUAGES}, got {self.language!r}")


@dataclass(frozen=True)
class Corpus:
    samples: tuple[LabeledSample, ...]
    provenance: str = ""
    skipped_lines: int = 0

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def label_counts(self) -> dict[int, int]:
        counts = {0: 0, 1: 0}
        for s in self.samples:
            counts[s.label] += 1
        return counts


def normalize_text(text: str) -> str:
    """NFC-normalize, casefold, and collapse whitespace runs to single spaces."""
    folded = unicodedata.normalize("NFC", text).casefold()
    return _WS_RUN.sub(" ", folded).strip()


def text_hash(text: str) -> int:
    """64-bit content hash of the normalized text, stable across processes."""
    digest = hashlib.blake2b(normalize_text(text).encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


def load_corpus(path: str | Path) -> Corpus:
    """Load a line-delimited JSON corpus file.

    Malformed lines (bad JSON, missing/empty text, label outside {0, 1},
    unknown language tag) are skipped with a diagnostic and counted in
    ``Corpus.skipped_lines``. A missing file raises :class:`CorpusError`.
    """
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"corpus file not found: {path}")
    samples: list[LabeledSample] = []
    skipped = 0
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                sample = LabeledSample(
                    text=str(obj["text"]),
                    label=obj["label"],
                    language=obj.get("language", "unknown"),
                    source=str(obj.get("source", "")),
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                log.warning("%s:%d skipped: %s", path, lineno, exc)
                skipped += 1
                continue
            samples.append(sample)
    return Corpus(samples=tuple(samples), provenance=str(path), skipped_lines=skipped)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for s in corpus.samples:
            fh.write(
                json.dumps(
                    {"text": s.text, "label": s.label, "language": s.language, "source": s.source},
                    ensure_ascii=False,
                )
                + "\n"
            )


def deduplicate(corpus: Corpus) -> Corpus:
    """Keep the first occurrence per normalized-text hash, preserving order."""
    seen: set[int] = set()
    kept: list[LabeledSample] = []
    for s in corpus.samples:
        h = text_hash(s.text)
        if h in seen:
            continue
        seen.add(h)
        kept.append(s)
    return replace(corpus, samples=tuple(kept))


@functools.cache
def romanized_lexicon() -> frozenset[str]:
    data = resources.files("cbrs.data").joinpath("romanized_bn.txt").read_text("utf-8")
    words = {w.strip().casefold() for w in data.splitlines()}
    return frozenset(w for w in words if w and not w.startswith("#"))


def tag_language(text: str) -> str:
    """Heuristic language tag over {bn, en, tbn, unknown}.

    ``bn`` when at least 30% of alphabetic codepoints fall in the Bengali
    block; ``tbn`` when Latin-script text hits the bundled romanized-Bengali
    lexicon at least twice; ``unknown`` when there is nothing alphabetic;
    ``en`` otherwise. Total and deterministic for arbitrary input.
    """
    alpha = [ch for ch in text if ch.isalpha()]
    if not alpha:
        return "unknown"
    bengali = sum(1 for ch in alpha if _BENGALI_LO <= ord(ch) <= _BENGALI_HI)
    if bengali / len(alpha) >= 0.30:
        return "bn"
    lexicon = romanized_lexicon()
    hits = sum(1 for w in re.findall(r"[A-Za-z]+", text) if w.casefold() in lexicon)
    if hits >= 2:
        return "tbn"
    return "en"


def tag_corpus_languages(corpus: Corpus) -> Corpus:
    """Fill in the language field of every sample from :func:`tag_language`."""
    tagged = tuple(replace(s, language=tag_language(s.text)) for s in corpus.samples)
    return replace(corpus, samples=tagged)


def _allocate(n: int, ratios: Sequence[float]) -> list[int]:
    """Largest-remainder allocation of n items across the given ratios."""
    exact = [n * r for r in ratios]
    counts = [int(x) for x in exact]
    remainder = n - sum(counts)
    order = sorted(range(len(ratios)), key=lambda i: exact[i] - counts[i], reverse=True)
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def split(
    corpus: Corpus, ratios: tuple[float, float, float], seed: int
) -> tuple[Corpus, Corpus, Corpus]:
    """Stratified-by-label train/val/test split, reproducible given the seed.

    The ratios must sum to 1 (within 1e-9). The result is a partition:
    disjoint, exhaustive, and stable for identical inputs.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise CorpusError(f"split ratios must sum to 1, got {ratios}")
    rng = np.random.default_rng(seed)
    parts: tuple[list[LabeledSample], ...] = ([], [], [])
    for label in (0, 1):
        group = [s for s in corpus.samples if s.label == label]
        if not group:
            continue
        perm = rng.permutation(len(group))
        counts = _allocate(len(group), ratios)
        offset = 0
        for part, count in zip(parts, counts):
            part.extend(group[i] for i in perm[offset : offset + count])
            offset += count
    names = ("train", "val", "test")
    return tuple(
        Corpus(samples=tuple(p), provenance=f"{corpus.provenance}#{name}")
        for p, name in zip(parts, names)
    )  # type: ignore[return-value]

