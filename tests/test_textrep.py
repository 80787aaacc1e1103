import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbrs import textrep as tr
from cbrs.corpus import Corpus, LabeledSample, normalize_text
from cbrs.synth import imbalanced_bilingual_corpus


# -- tokenize ---------------------------------------------------------------


def test_tokenize_detaches_punctuation_keeps_blood_group():
    # Hand application of the stated rules: whitespace split, punctuation
    # standalone, but +/- stay inside tokens.
    assert tr.tokenize("need O- blood!") == ["need", "O-", "blood", "!"]


def test_tokenize_empty():
    assert tr.tokenize("") == []


def test_tokenize_masked_phone_single_token():
    assert tr.tokenize("017XXXXXXX") == ["017XXXXXXX"]
    assert tr.tokenize("call 017XXXXXXX now.") == ["call", "017XXXXXXX", "now", "."]


def test_tokenize_digit_run_with_separators():
    assert tr.tokenize("018-123456") == ["018-123456"]


# -- subword units ------------------------------------------------------------


def brute_ngrams(word, minn, maxn):
    marked = "<" + word + ">"
    grams = []
    for n in range(minn, maxn + 1):
        for i in range(len(marked) - n + 1):
            grams.append(marked[i : i + n])
    grams.append(marked)
    out = []
    for g in grams:
        if g not in out:
            out.append(g)
    return out


def test_subword_units_two_char_word_enumerated_by_hand():
    # "<ab>" has length 4; grams of length 3: "<ab", "ab>"; length 4: "<ab>";
    # whole word duplicates the length-4 gram.
    assert tr.subword_units("ab", 3, 6) == ("<ab", "ab>", "<ab>")


def test_subword_units_one_char_word_whole_only():
    assert tr.subword_units("w", 3, 3) == ("<w>",)


def test_subword_units_blood_count_15():
    units = tr.subword_units("blood", 3, 6)
    # Enumeration oracle: lengths 3..6 of "<blood>" give 5+4+3+2 = 14 grams,
    # plus the whole marked word.
    assert len(units) == 15
    assert "<blood>" in units
    assert list(units) == brute_ngrams("blood", 3, 6)


def test_subword_units_match_brute_enumeration():
    rng = np.random.default_rng(3)
    alphabet = "abcdefgh"
    for _ in range(100):
        word = "".join(rng.choice(list(alphabet), size=rng.integers(1, 9)))
        assert list(tr.subword_units(word, 3, 6)) == brute_ngrams(word, 3, 6)


def test_subword_units_bad_bounds():
    with pytest.raises(ValueError):
        tr.subword_units("abc", 0, 3)
    with pytest.raises(ValueError):
        tr.subword_units("abc", 4, 3)


# -- word n-grams -------------------------------------------------------------


def test_word_ngrams_enumeration():
    sep = tr.NGRAM_SEP
    assert tr.word_ngrams(["a", "b", "c"], 3) == [f"a{sep}b", f"b{sep}c", f"a{sep}b{sep}c"]


def test_word_ngrams_single_word_empty():
    assert tr.word_ngrams(["alone"], 3) == []


def test_word_ngrams_four_words_count():
    # 3 bigrams + 2 trigrams.
    assert len(tr.word_ngrams(["a", "b", "c", "d"], 3)) == 5


# -- feature hashing ----------------------------------------------------------


def test_fnv1a_published_vectors():
    # Standard FNV-1a 32-bit test vectors.
    assert tr.fnv1a_32("") == 0x811C9DC5
    assert tr.fnv1a_32("a") == 0xE40C292C
    assert tr.fnv1a_32("foobar") == 0xBF9CF968


def test_hash_features_deterministic_and_in_range():
    rng = np.random.default_rng(8)
    units = ["u%d" % rng.integers(0, 10**9) for _ in range(10_000)]
    buckets = 1 << 16
    first = tr.hash_features(units, buckets)
    second = tr.hash_features(units, buckets)
    assert first == second
    assert all(0 <= h < buckets for h in first)


def test_hash_features_max_load():
    # Balls-in-bins: 1e5 distinct strings over 2^21 buckets should never
    # pile more than 8 into one bucket with a sane hash.
    units = [f"unit-{i}" for i in range(100_000)]
    counts = np.bincount(tr.hash_features(units, 1 << 21), minlength=1 << 21)
    assert counts.max() <= 8


def test_hash_features_needs_positive_buckets():
    with pytest.raises(ValueError):
        tr.hash_features(["x"], 0)


def test_hash_features_pure_across_processes():
    import subprocess
    import sys

    units = ["rokto", "urgent", "O-", "রক্ত", "blood␟needed"]
    code = (
        "from cbrs.textrep import hash_features; "
        f"print(hash_features({units!r}, 1 << 21))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == str(tr.hash_features(units, 1 << 21))


# -- word n-grams hashed from their prefixes ---------------------------------------

# Bengali script, with its vowel signs and virama, next to any other
# character UTF-8 can encode.
WORDS = st.lists(
    st.text(
        st.one_of(st.characters(min_codepoint=0x980, max_codepoint=0x9FF), st.characters(codec="utf-8")),
        max_size=8,
    ),
    max_size=7,
)


@given(words=WORDS, n=st.integers(1, 4), buckets=st.sampled_from([1, 97, 1 << 18, 1 << 21]))
def test_ngram_states_hash_each_gram_as_fnv1a_of_its_joined_text(words, n, buckets):
    parts = [tr._word_parts(w, 3, 6, buckets) for w in words]
    states = tr._ngram_states(parts, n)
    grams = [words[i : i + k] for k in range(2, n + 1) for i in range(len(words) - k + 1)]
    assert [h % buckets for h in states] == [
        tr.fnv1a_32(tr.NGRAM_SEP.join(gram)) % buckets for gram in grams
    ]
    assert states == [tr.fnv1a_32(g) for g in tr.word_ngrams(words, n)]


def byte_by_byte_message_features(words, minn, maxn, word_n, buckets):
    """`message_features` as it was before word n-grams were hashed from
    their prefixes: every gram joined and hashed byte by byte."""
    grams = tr.word_ngrams(words, word_n) if word_n > 1 else []
    total = len(words) + len(grams)
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    weights = {}
    outer = 1.0 / total
    for word in words:
        ids = tr.hash_features(tr.subword_units(word, minn, maxn), buckets)
        inner = outer / len(ids)
        for bucket in ids:
            weights[bucket] = weights.get(bucket, 0.0) + inner
    for gram in grams:
        bucket = tr.fnv1a_32(gram) % buckets
        weights[bucket] = weights.get(bucket, 0.0) + outer
    return np.array(list(weights), dtype=np.int64), np.array(list(weights.values()))


def _same_features(words, minn, maxn, word_n, buckets):
    feats = tr.message_features(words, minn, maxn, word_n, buckets)
    rows, coeffs = byte_by_byte_message_features(words, minn, maxn, word_n, buckets)
    assert np.array_equal(feats.rows, rows) and np.array_equal(feats.coeffs, coeffs)
    assert feats.word_count == len(words)


@given(words=WORDS, word_n=st.integers(0, 4))
def test_message_features_equal_the_byte_by_byte_loop(words, word_n):
    _same_features(words, 3, 6, word_n, 1 << 18)


def test_message_features_of_bilingual_messages_equal_the_byte_by_byte_loop():
    for sample in imbalanced_bilingual_corpus(300, seed=17):
        words = tr.tokenize(tr.mask_digit_runs(normalize_text(sample.text)))
        _same_features(words, 3, 6, 3, 1 << 18)
        _same_features(words, 2, 4, 4, 1 << 21)


# -- embedding bag ------------------------------------------------------------


def test_embed_zero_table_gives_zero_vector():
    table = np.zeros((64, 5))
    vec = tr.embed_message(["urgent", "blood"], table, 3, 6, 3)
    assert np.allclose(vec, 0.0)


def test_embed_single_word_single_unit_identity():
    buckets, dim = 128, 4
    table = np.zeros((buckets, dim))
    # "aa" -> "<aa>"; with minn=maxn=4 the only unit is the whole word.
    row = tr.hash_features(tr.subword_units("aa", 4, 4), buckets)[0]
    table[row] = [1.0, 2.0, 3.0, 4.0]
    vec = tr.embed_message(["aa"], table, 4, 4, 1)
    assert np.allclose(vec, table[row])


def test_embed_two_words_mean():
    buckets, dim = 256, 3
    rng = np.random.default_rng(4)
    table = rng.normal(size=(buckets, dim))
    rows = [tr.hash_features(tr.subword_units(w, 4, 4), buckets)[0] for w in ("aa", "bb")]
    expect = (table[rows[0]] + table[rows[1]]) / 2
    vec = tr.embed_message(["aa", "bb"], table, 4, 4, 1)
    assert np.allclose(vec, expect)


def test_embed_permutation_invariant_without_ngrams():
    buckets, dim = 512, 8
    rng = np.random.default_rng(9)
    table = rng.normal(size=(buckets, dim))
    words = ["rokto", "dorkar", "dhaka", "urgent", "blood"]
    v1 = tr.embed_message(words, table, 3, 6, 1)
    v2 = tr.embed_message(list(reversed(words)), table, 3, 6, 1)
    assert np.allclose(v1, v2, atol=1e-12)


def test_embed_scaling_linearity():
    buckets, dim = 512, 6
    rng = np.random.default_rng(10)
    table = rng.normal(size=(buckets, dim))
    words = ["urgent", "O-", "blood"]
    base = tr.embed_message(words, table, 3, 6, 3)
    scaled = tr.embed_message(words, 2.5 * table, 3, 6, 3)
    assert np.allclose(scaled, 2.5 * base)


# -- tf-idf --------------------------------------------------------------------


def _corpus(texts):
    return Corpus(samples=tuple(LabeledSample(text=t, label=0) for t in texts))


def test_tfidf_idf_everywhere_term_is_one():
    vocab = tr.tfidf_fit(_corpus(["apple pie", "apple cake", "apple tart"]))
    idx = vocab.term_index["apple"]
    assert vocab.idf[idx] == pytest.approx(1.0)  # ln(4/4) + 1


def test_tfidf_rare_term_idf():
    # 3 docs, term in exactly 1: idf = ln((1+3)/(1+1)) + 1 = ln 2 + 1.
    vocab = tr.tfidf_fit(_corpus(["unique word here", "other text", "more text"]))
    idx = vocab.term_index["unique"]
    assert vocab.idf[idx] == pytest.approx(np.log(2.0) + 1.0, abs=1e-12)


def test_tfidf_single_term_doc_is_unit_vector():
    vocab = tr.tfidf_fit(_corpus(["apple", "banana split", "cherry pie"]))
    vec = tr.tfidf_transform(vocab, "apple")
    assert len(vec) == 1
    assert sum(v * v for v in vec.values()) == pytest.approx(1.0)


def test_tfidf_norm_zero_or_one():
    vocab = tr.tfidf_fit(_corpus(["one two three", "four five", "six"]))
    for text in ("one four six", "totally unseen words", "", "five five five"):
        vec = tr.tfidf_transform(vocab, text)
        norm_sq = sum(v * v for v in vec.values())
        assert norm_sq == pytest.approx(0.0) or norm_sq == pytest.approx(1.0)


def test_tfidf_unseen_terms_ignored():
    vocab = tr.tfidf_fit(_corpus(["alpha beta", "gamma delta"]))
    assert tr.tfidf_transform(vocab, "epsilon zeta") == {}


def test_tfidf_fit_empty_corpus_fatal():
    with pytest.raises(ValueError):
        tr.tfidf_fit(Corpus(samples=()))
