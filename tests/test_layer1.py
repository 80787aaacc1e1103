import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cbrs import layer1 as l1
from cbrs.corpus import Corpus, LabeledSample
from cbrs.synth import separable_corpus

TINY = l1.Hyper(dim=6, buckets=1 << 10, epochs=3, lr=0.3, seed=5)


def test_softmax_symmetry():
    probs = l1.softmax(np.array([0.0, 0.0]))
    assert np.allclose(probs, [0.5, 0.5])


def test_softmax_extreme_logits_no_overflow():
    probs = l1.softmax(np.array([1000.0, 0.0]))
    assert np.isfinite(probs).all()
    assert probs[0] == pytest.approx(1.0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_untrained_model_predicts_half():
    model = l1.init_model(TINY)
    pred = l1.forward(model, "any text at all")
    assert pred.p_positive == pytest.approx(0.5)
    assert pred.label == 1  # tie at the threshold goes positive


def test_loss_values():
    assert l1.loss(1.0, 1, 12.0) == pytest.approx(0.0, abs=1e-9)
    assert l1.loss(0.5, 0, 12.0) == pytest.approx(np.log(2.0))
    assert l1.loss(0.5, 1, 12.0) == pytest.approx(12 * np.log(2.0))
    assert l1.loss(0.5, 1, 12.0) == pytest.approx(8.3178, abs=5e-5)


def test_loss_nonnegative_and_clamped():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = float(rng.uniform(0, 1))
        y = int(rng.integers(0, 2))
        alpha = float(rng.uniform(0.5, 20))
        assert l1.loss(p, y, alpha) >= 0.0
    assert np.isfinite(l1.loss(0.0, 1, 12.0))
    assert np.isfinite(l1.loss(1.0, 0, 12.0))


def _random_model(rng, dim=5, buckets=512):
    hyper = l1.Hyper(dim=dim, buckets=buckets, seed=int(rng.integers(0, 10**6)))
    model = l1.init_model(hyper)
    model.weights = rng.normal(scale=0.5, size=(2, dim))
    model.bias = rng.normal(scale=0.5, size=2)
    return model


def test_gradient_check_random_draws():
    rng = np.random.default_rng(77)
    words = ["rokto", "urgent", "blood", "dhaka", "need", "O-", "bag"]
    for _ in range(20):
        model = _random_model(rng)
        text = " ".join(rng.choice(words, size=rng.integers(1, 5)))
        y = int(rng.integers(0, 2))
        assert l1.gradient_check(model, text, y) < 1e-4


def test_gradient_near_stationary_point():
    # Saturate p(y=1) -> 1 with a huge positive logit; the clamped loss for
    # y=1 is then ~0 and so is its gradient.
    rng = np.random.default_rng(3)
    model = _random_model(rng)
    model.bias = np.array([-200.0, 200.0])
    feats = model.features("urgent blood")
    d_w, d_b, d_rows, _ = l1._sample_gradients(model, feats, 1)
    assert np.abs(d_w).max() < 1e-8
    assert np.abs(d_b).max() < 1e-8
    assert np.abs(d_rows).max() < 1e-8


def test_gradient_alpha_scaling():
    rng = np.random.default_rng(4)
    model = _random_model(rng)
    feats = model.features("rokto dorkar dhaka")
    g1 = l1._sample_gradients(
        l1.ClassifierModel(model.embeddings, model.weights, model.bias, l1.Hyper(dim=5, buckets=512, alpha=1.0)),
        feats,
        1,
    )
    g12 = l1._sample_gradients(
        l1.ClassifierModel(model.embeddings, model.weights, model.bias, l1.Hyper(dim=5, buckets=512, alpha=12.0)),
        feats,
        1,
    )
    for a, b in zip(g1[:3], g12[:3]):
        assert np.allclose(12.0 * a, b)


def test_train_rejects_single_class():
    c = Corpus(samples=tuple(LabeledSample(text=f"t {i}", label=1) for i in range(10)))
    with pytest.raises(l1.TrainingError):
        l1.train(c, TINY)


def test_train_loss_decreases_on_separable_corpus():
    corpus = separable_corpus(200, seed=21)
    hyper = l1.Hyper(dim=16, buckets=1 << 14, epochs=10, lr=0.5, seed=11)
    snapshots = []

    def snap(epoch, model, epoch_loss):
        snapshots.append(
            (model.embeddings.copy(), model.weights.copy(), model.bias.copy())
        )

    l1.train(corpus, hyper, on_epoch=snap)

    # Oracle: recompute the corpus mean loss from each parameter snapshot.
    def corpus_loss(params):
        E, W, b = params
        m = l1.ClassifierModel(E, W, b, hyper)
        return float(
            np.mean([l1.loss(l1.forward(m, s.text).p_positive, s.label, hyper.alpha) for s in corpus])
        )

    losses = [corpus_loss(p) for p in snapshots]
    assert len(losses) == 10
    for earlier, later in zip(losses, losses[1:]):
        assert later < earlier


def test_train_deterministic_model_files(tmp_path):
    corpus = separable_corpus(80, seed=2)
    hyper = l1.Hyper(dim=8, buckets=1 << 12, epochs=3, lr=0.4, seed=9)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    l1.save_model(l1.train(corpus, hyper), a)
    l1.save_model(l1.train(corpus, hyper), b)
    assert a.read_bytes() == b.read_bytes()


def test_alpha_reduces_false_negatives():
    from cbrs.corpus import split
    from cbrs.synth import imbalanced_bilingual_corpus

    corpus = imbalanced_bilingual_corpus(600, seed=29)
    train_set, _, test_set = split(corpus, (0.8, 0.1, 0.1), seed=1)
    fns = {}
    for alpha in (1.0, 12.0):
        hyper = l1.Hyper(dim=16, buckets=1 << 14, epochs=3, lr=0.5, seed=3, alpha=alpha)
        model = l1.train(train_set, hyper)
        fns[alpha] = sum(
            1 for s in test_set if s.label == 1 and l1.forward(model, s.text).label == 0
        )
    assert fns[12.0] <= fns[1.0]


def test_model_file_roundtrip(tmp_path):
    corpus = separable_corpus(60, seed=6)
    hyper = l1.Hyper(dim=7, buckets=1 << 11, epochs=2, lr=0.3, seed=13, alpha=12.0)
    model = l1.train(corpus, hyper)
    path = tmp_path / "model.bin"
    l1.save_model(model, path)
    assert path.read_bytes()[:5] == b"CBRS1"
    loaded = l1.load_model(path)
    assert loaded.hyper == hyper
    # float32 storage: loading then saving again is byte-stable.
    path2 = tmp_path / "model2.bin"
    l1.save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    # And predictions agree with the in-memory model.
    for s in corpus.samples[:20]:
        a = l1.forward(model, s.text)
        b = l1.forward(loaded, s.text)
        assert a.label == b.label
        assert a.p_positive == pytest.approx(b.p_positive, abs=1e-5)


def test_load_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTAMODEL")
    with pytest.raises(ValueError):
        l1.load_model(bad)


def test_prediction_is_pure():
    model = l1.init_model(TINY)
    rng = np.random.default_rng(15)
    model.weights = rng.normal(size=model.weights.shape)
    for text in ("urgent blood needed", "lunch at 2?", ""):
        first = l1.forward(model, text)
        for _ in range(3):
            again = l1.forward(model, text)
            assert again.label == first.label
            assert again.p_positive == first.p_positive


def test_classification_report_all_correct():
    corpus = separable_corpus(120, seed=33)
    hyper = l1.Hyper(dim=16, buckets=1 << 14, epochs=8, lr=0.5, seed=7)
    model = l1.train(corpus, hyper)
    report = l1.classification_report(model, corpus, timing_calls=50)
    assert report.accuracy > 0.97
    assert sum(report.confusion.values()) == len(corpus)


def test_classification_report_constant_positive_model():
    # Force label 1 always via a huge positive bias.
    model = l1.init_model(TINY)
    model.bias = np.array([-50.0, 50.0])
    samples = tuple(
        LabeledSample(text=f"text number {i}", label=i % 2) for i in range(40)
    )
    report = l1.classification_report(model, Corpus(samples=samples), timing_calls=10)
    assert report.per_class[1]["recall"] == pytest.approx(1.0)
    assert report.per_class[1]["precision"] == pytest.approx(0.5)


# -- model files: a mapped, read-only float32 table ------------------------------------

TEXTS = ("rokto dorkar dhaka", "urgent O- blood needed today", "lunch at 2?", "", "রক্ত লাগবে ঢাকা")


def _trained(seed):
    hyper = l1.Hyper(dim=8, buckets=1 << 12, epochs=2, lr=0.4, seed=seed)
    return l1.train(separable_corpus(60, seed=seed), hyper)


def test_loaded_table_is_a_read_only_float32_mapping(tmp_path):
    path = tmp_path / "model.bin"
    l1.save_model(_trained(3), path)
    loaded = l1.load_model(path)
    assert loaded.embeddings.dtype == np.float32 and loaded.embeddings.shape == (1 << 12, 8)
    assert loaded.weights.dtype == np.float64 and loaded.bias.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        loaded.embeddings[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        l1.gradient_check(loaded, "rokto dorkar", 1)


def test_mapped_forward_equals_the_float64_table_exactly(tmp_path):
    path = tmp_path / "model.bin"
    l1.save_model(_trained(4), path)
    mapped = l1.load_model(path)
    in_ram = l1.ClassifierModel(
        mapped.embeddings.astype(np.float64), mapped.weights, mapped.bias, mapped.hyper
    )
    corpus = separable_corpus(40, seed=8)
    for text in TEXTS + tuple(s.text for s in corpus):
        assert l1.forward(mapped, text) == l1.forward(in_ram, text)


def test_saving_over_a_loaded_model_leaves_it_unchanged(tmp_path):
    path = tmp_path / "model.bin"
    l1.save_model(_trained(5), path)
    a = l1.load_model(path)
    before = [l1.forward(a, t) for t in TEXTS]
    b = _trained(6)
    l1.save_model(b, path)
    assert [l1.forward(a, t) for t in TEXTS] == before
    fresh = l1.load_model(path)
    assert np.array_equal(fresh.embeddings, b.embeddings.astype(np.float32))
    assert np.array_equal(fresh.weights, b.weights.astype(np.float32))
    assert [l1.forward(fresh, t) for t in TEXTS] != before
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]  # no temp file left


@pytest.mark.parametrize("change", [-1, 1], ids=["one-byte-short", "one-byte-long"])
def test_load_refuses_a_file_whose_size_the_header_does_not_give(tmp_path, change):
    path = tmp_path / "model.bin"
    l1.save_model(_trained(7), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-1] if change < 0 else raw + b"\0")
    with pytest.raises(ValueError, match=f"{len(raw) + change} bytes.*needs {len(raw)}"):
        l1.load_model(path)


DEPLOYED_RSS_CODE = """
import resource, sys
from cbrs import layer1
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
model = layer1.load_model(sys.argv[1])
for text in ("rokto dorkar dhaka", "urgent O- blood needed today", "lunch at 2?"):
    layer1.forward(model, text)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_a_deployed_shape_model_loads_and_runs_in_little_memory(tmp_path):
    """A `Hyper()`-shape file (2^21 x 100, 0.84 GB) whose table is a hole:
    only the pages of the rows a few messages touch may become resident."""
    hyper = l1.Hyper()
    path = tmp_path / "deployed.bin"
    rng = np.random.default_rng(2)
    with open(path, "wb") as fh:
        fh.write(l1.MAGIC + bytes([l1.FORMAT_VERSION]))
        fh.write(
            l1._HYPER_STRUCT.pack(
                hyper.dim, hyper.buckets, hyper.minn, hyper.maxn, hyper.word_n, hyper.epochs,
                hyper.seed, hyper.alpha, hyper.lr, hyper.threshold, 0.0,
            )
        )
        fh.seek(4 * hyper.buckets * hyper.dim, os.SEEK_CUR)  # the table: never written
        fh.write(rng.normal(size=2 * hyper.dim + 2).astype("<f4").tobytes())
    src = str(Path(l1.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", DEPLOYED_RSS_CODE, str(path)],
        capture_output=True, text=True, check=True, env=env,
    )
    grew_kb = int(out.stdout.strip())  # ru_maxrss is in KB on Linux
    assert grew_kb < 100 * 1024
