"""Command-line surface: train/classify/report, parser eval, cost, serve, simulate.

Exit codes: 0 on success, 2 on data errors (missing/malformed inputs).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import evalkit, layer1, layer2
from .corpus import CorpusError, load_corpus
from .dispatch import DispatchEngine
from .gateway import Gateway, bundled_scenarios, ScenarioError, simulate
from .journal import SnapshotError
from .layer1 import Hyper, TrainingError
from .layer2 import BackendConfig, make_backend
from .service import ServiceConfig, serve
from .synth import separable_corpus

DATA_ERROR = 2


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    """One flag per `Hyper` field, stored under the field's name, its default read from `Hyper`."""
    d = Hyper()
    p.add_argument("--dim", type=int, default=d.dim, help="embedding dimension")
    p.add_argument("--buckets", type=int, default=d.buckets, help="hashed feature buckets")
    p.add_argument("--minn", type=int, default=d.minn, help="min subword n-gram length")
    p.add_argument("--maxn", type=int, default=d.maxn, help="max subword n-gram length")
    p.add_argument("--word-ngrams", type=int, default=d.word_n, dest="word_n", metavar="WORD_NGRAMS",
                   help="max word n-gram order")
    p.add_argument("--epochs", type=int, default=d.epochs)
    p.add_argument("--lr", type=float, default=d.lr, help="initial learning rate (decays to 0)")
    p.add_argument("--alpha", type=float, default=d.alpha, help="positive-class loss weight")
    p.add_argument("--threshold", type=float, default=d.threshold, help="decision threshold")
    p.add_argument("--seed", type=int, default=d.seed)


def _hyper_from(args: argparse.Namespace) -> Hyper:
    return Hyper(**{f.name: getattr(args, f.name) for f in fields(Hyper)})


def _backend_from(args: argparse.Namespace) -> layer2.Backend:
    cfg = BackendConfig(
        kind=args.backend,
        endpoint=args.endpoint,
        model=args.backend_model,
        mode=getattr(args, "prompt_mode", BackendConfig.mode),
    )
    return make_backend(cfg)


def _model_or_default(path: str | None) -> layer1.ClassifierModel:
    """The model saved at `path`, or a small one trained on the synthetic corpus."""
    if path:
        return layer1.load_model(path)
    return layer1.train(
        separable_corpus(400, seed=13), Hyper(dim=16, buckets=2**14, epochs=8, lr=0.5, seed=7)
    )


def cmd_train(args) -> int:
    corpus = load_corpus(args.corpus)
    model = layer1.train(corpus, _hyper_from(args))
    layer1.save_model(model, args.output)
    print(f"trained on {len(corpus)} samples -> {args.output}")
    return 0


def cmd_classify(args) -> int:
    model = layer1.load_model(args.model)
    if args.threshold is not None:
        model.hyper = replace(model.hyper, threshold=args.threshold)
    texts = [args.text] if args.text else [line.rstrip("\n") for line in sys.stdin]
    for text in texts:
        pred = layer1.forward(model, text)
        print(json.dumps({"label": pred.label, "p_positive": round(pred.p_positive, 6), "text": text}, ensure_ascii=False))
    return 0


def cmd_report(args) -> int:
    model = layer1.load_model(args.model)
    corpus = load_corpus(args.corpus)
    rep = layer1.classification_report(model, corpus, timing_calls=args.timing_calls)
    print(f"accuracy {rep.accuracy:.4f}")
    for cls in (0, 1):
        m = rep.per_class[cls]
        print(
            f"class {cls}: precision {m['precision']:.4f} recall {m['recall']:.4f} "
            f"f1 {m['f1']:.4f} support {int(m['support'])}"
        )
    print(f"macro f1 {rep.macro['f1']:.4f} weighted f1 {rep.weighted['f1']:.4f}")
    print(
        f"forward median {rep.median_forward_seconds:.3e}s mean {rep.mean_forward_seconds:.3e}s"
    )
    return 0


def cmd_eval_parse(args) -> int:
    goldset = evalkit.load_goldset(args.goldset)
    backend = _backend_from(args)
    report = evalkit.evaluate_parser(backend, goldset)
    print(report.table())
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(report.to_dict(), indent=2), encoding="utf-8")
        print(f"report written to {args.json_out}")
    return 0


def cmd_eval_classify(args) -> int:
    corpus = load_corpus(args.corpus)
    hyper = _hyper_from(args)
    reports = evalkit.compare_classifiers(corpus, dlf_hyper=hyper, seed=args.seed)
    print(evalkit.comparison_table(reports))
    return 0


def cmd_cost(args) -> int:
    rep = evalkit.cost_report(args.volume, args.blood, args.price)
    print(rep.formatted())
    return 0


def cmd_serve(args) -> int:
    cfg = ServiceConfig.from_file(args.config)
    if not cfg.model_path:
        print("no model_path in config; training a default on a small synthetic corpus", file=sys.stderr)
    model = _model_or_default(cfg.model_path)
    backend = make_backend(
        BackendConfig(kind=cfg.backend, endpoint=cfg.endpoint, model=cfg.backend_model, mode=cfg.prompt_mode)
    )
    engine = DispatchEngine(
        stage_size=cfg.stage_size,
        stage_timeout=cfg.stage_timeout_seconds,
        eligibility_days=cfg.eligibility_days,
    )
    if cfg.snapshot_path and Path(cfg.snapshot_path).exists():
        engine.restore(cfg.snapshot_path)
    gateway = Gateway(
        model=model,
        backend=backend,
        engine=engine,
        snapshot_path=cfg.snapshot_path or None,
        threshold=cfg.threshold,
    )
    running = serve(gateway, port=cfg.port)
    print(f"listening on port {running.port}; Ctrl+C to stop")
    try:
        running.thread.join()
    except KeyboardInterrupt:
        running.shutdown()
    return 0


def _resolve_scenario(name: str) -> Path:
    path = Path(name)
    if path.exists():
        return path
    for candidate in bundled_scenarios():
        if candidate.stem == name:
            return candidate
    raise FileNotFoundError(
        f"scenario {name!r} not found; bundled: {', '.join(p.stem for p in bundled_scenarios())}"
    )


def cmd_simulate(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    model = _model_or_default(args.model)
    backend = _backend_from(args)
    result = simulate(scenario, model, backend, threshold=args.threshold)
    if args.transcript_out:
        Path(args.transcript_out).write_text(result.transcript_text() + "\n", encoding="utf-8")
    else:
        print(result.transcript_text())
    print(json.dumps(result.summary, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cbrs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the request classifier")
    p.add_argument("corpus", help="line-delimited JSON corpus file")
    p.add_argument("-o", "--output", required=True, help="model file to write")
    _add_hyper_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="classify text with a trained model")
    p.add_argument("model", help="model file")
    p.add_argument("--text", help="single message (default: read lines from stdin)")
    p.add_argument("--threshold", type=float, default=None, help="override decision threshold")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("report", help="classification report on a labeled corpus")
    p.add_argument("model")
    p.add_argument("corpus")
    p.add_argument("--timing-calls", type=int, default=1000)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("eval-parse", help="score a parser backend against a gold set")
    p.add_argument("goldset", help="line-delimited {text, language, gold} file")
    p.add_argument("--backend", choices=("rules", "remote"), default=BackendConfig.kind)
    p.add_argument("--endpoint", default=BackendConfig.endpoint, help="remote chat-completion URL")
    p.add_argument("--backend-model", default=BackendConfig.model, help="remote model name")
    p.add_argument("--prompt-mode", choices=("few_shot", "zero_shot"), default=BackendConfig.mode)
    p.add_argument("--json-out", default="", help="also write the report as JSON")
    p.set_defaults(func=cmd_eval_parse)

    p = sub.add_parser("eval-classify", help="compare DLF against the TF-IDF baseline")
    p.add_argument("corpus")
    _add_hyper_flags(p)
    p.set_defaults(func=cmd_eval_classify)

    p = sub.add_parser("cost", help="single-layer vs dual-layer daily cost")
    p.add_argument("volume", type=int, help="daily message volume")
    p.add_argument("blood", type=int, help="daily blood-request count")
    p.add_argument("--price", default="0.0003", help="dollars per parsed message")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("serve", help="run the HTTP service")
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("simulate", help="replay a scenario under a logical clock")
    p.add_argument("--scenario", required=True, help="scenario path or bundled name")
    p.add_argument("--model", default="", help="trained model file (default: quick synthetic model)")
    p.add_argument("--backend", choices=("rules", "remote"), default=BackendConfig.kind)
    p.add_argument("--endpoint", default=BackendConfig.endpoint)
    p.add_argument("--backend-model", default=BackendConfig.model)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--transcript-out", default="", help="write transcript to a file")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CorpusError, TrainingError, SnapshotError, ScenarioError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
