"""cbrs benchmark: three workloads, end-to-end metrics, and a traced run.

    python3 benchmarks/run.py --workload dispatch_100k --seed 1 --seconds 34 --trace 0

Run from the repository root. Inputs are generated from the seed in a
separate process. The workload's script then runs in rounds, each from a
fresh program state, until the time is used; the workload is also set up
at five points spread over the run (the median is `setup_s`). Every
round's outputs are checked. With `--trace 0` the last line of standard
output is a JSON object with every end-to-end metric; with `--trace 1`
untraced and traced rounds alternate, and the object holds every
per-layer metric, including the tracing overhead. Metric definitions are
in benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import WORKLOADS, median, percentile, tail_percentile  # noqa: E402

# The workload is set up at this many points of a run, spread between its
# rounds, and at each point again while the repeats there take under
# SETUP_BURST_S, so that a cheap set-up is measured more than once.
SETUP_POINTS = 5
SETUP_BURST_S = 0.3
DEFAULT_SEED = 1  # the seed whose outbound and score digests are recorded in expected.json


def run_interleaved(workload, tracer, seconds: float) -> tuple[list, list]:
    """Untraced and traced rounds in alternation, in pairs, until `seconds`
    have passed (at least one pair); which of a pair runs first alternates."""
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for with_trace in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if with_trace:
                workload.trace(tracer)
                try:
                    traced.append(workload.round())
                finally:
                    workload.trace(None)
            else:
                untraced.append(workload.round())
    return untraced, traced


def measure(workload, seconds: float) -> tuple[list[float], list]:
    """Set-up times and rounds: rounds until `seconds` have passed (at least
    one per set-up point), with the set-ups at the start and after each
    further share of the time. The first set-up is followed by an untimed
    warm-up, which does not count towards `seconds`."""
    setups, rounds = [], []
    start = time.perf_counter()
    for point in range(1, SETUP_POINTS + 1):
        burst = len(setups)
        while len(setups) == burst or (sum(setups[burst:]) < SETUP_BURST_S and len(setups) - burst < 30):
            setups.append(workload.set_up())
        if point == 1:
            workload.warm_up()
            start = time.perf_counter()
        first = len(rounds)
        while len(rounds) == first or time.perf_counter() - start < seconds * point / SETUP_POINTS:
            rounds.append(workload.round())
    return setups, rounds


def usual(values) -> float:
    """The upper quartile of repeated measurements of one thing.

    The machine these figures come from is shared and runs at two speeds:
    for stretches of seconds to minutes it runs up to a third faster than
    its usual speed. A median over all samples then jumps between the two
    speeds with the share of the run the fast stretches covered, and a
    minimum with whether any fast stretch came at all. The upper quartile
    is the usual speed unless three in four repeats ran fast, and not a
    stall of one repeat.
    """
    values = list(values)
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def timings(rounds: list, pct: float) -> tuple[float, float, float, float]:
    """Median event latency, median and tail case-opening latency (seconds),
    and events per second of a run.

    Where every round replayed the same events (the in-process workloads,
    whose outputs `verify` checks to be identical from round to round),
    each event's latency is the `usual` of its times over the rounds, the
    statistics are taken over those, and the rate is the event count over
    their sum. Otherwise (`durable_http`, whose two clients interleave
    differently in every round) each figure is the `usual` of its
    per-round values, the rate from the rounds' seconds per event.
    """
    if all(r.digest for r in rounds):
        events = [usual(times) for times in zip(*(r.events for r in rounds))]
        alerts = [usual(times) for times in zip(*(r.alerts for r in rounds))]
        return median(events), median(alerts), percentile(alerts, pct), len(events) / sum(events)
    return (
        usual(median(r.events) for r in rounds),
        usual(median(r.alerts) for r in rounds),
        usual(percentile(r.alerts, pct) for r in rounds),
        1 / usual(r.wall / max(len(r.events), 1) for r in rounds),
    )


def end_to_end(rounds: list, setups: list[float], peak_rss_mb: float) -> tuple[dict, list[str]]:
    """Every end-to-end metric."""
    events = sum(len(r.events) for r in rounds)
    alerts = sum(len(r.alerts) for r in rounds)
    pct = tail_percentile(len(rounds[0].alerts))
    messages = sum(r.messages for r in rounds)
    event_p50, alert_p50, alert_tail, rate = timings(rounds, pct)

    metrics = {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "events_per_s": (rate, "1/s"),
        "event_p50_ms": (event_p50 * 1e3, "ms"),
        "alert_p50_ms": (alert_p50 * 1e3, "ms"),
        "alert_tail_ms": (alert_tail * 1e3, "ms"),
        "l2_calls_per_1k_msgs": (1000 * sum(r.layer2_calls for r in rounds) / messages, "count"),
        "request_recall": (statistics.mean(r.recall for r in rounds), "ratio"),
    }
    notes = [
        f"rounds={len(rounds)} events={events} alerts={alerts} messages={messages}",
        f"alert_tail_ms is p{pct:g} ({len(rounds[0].alerts)} case-opening events per round)",
        f"setup_s over {len(setups)} set-ups: min {min(setups):.4f} median {median(setups):.4f} max {max(setups):.4f}",
    ]
    if any(r.lost_mutations for r in rounds):
        lost = statistics.mean(r.lost_mutations for r in rounds)
        notes.append(f"{lost:.1f} ledger changes per round missing from the final snapshot (service.lost_mutations)")
    return metrics, notes


def per_layer(tracer, traced: list, untraced: list) -> dict:
    """Per-layer metrics: spans and counts from the traced rounds, client-side
    figures from the untraced ones, and the tracing overhead as the median
    over pairs of adjacent rounds of untraced over traced events per second."""
    spans: dict[str, list] = {}
    for _, name, duration, self_time in tracer.spans:
        spans.setdefault(name, []).append((duration, self_time))
    counts = tracer.counts
    n = len(traced)

    def timed(name: str, scale: float, use_self: bool = False, mean: bool = False) -> float:
        values = [s[1] if use_self else s[0] for s in spans.get(name, [])]
        if not values:
            return 0.0
        return (statistics.mean(values) if mean else statistics.median(values)) * scale

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts.get(den) else 0.0

    def rate(r) -> float:
        return len(r.events) / r.wall

    reads = [x for r in untraced for x in r.reads]
    scores = [x for r in untraced for x in r.scores]
    pair_seconds = sum(r.pair_seconds for r in untraced)
    return {
        "corpus.normalize_us": (timed("corpus.normalize", 1e6), "us"),
        "textrep.tokenize_us": (timed("textrep.tokenize", 1e6), "us"),
        "textrep.featurize_us": (timed("textrep.featurize", 1e6), "us"),
        "layer1.forward_us": (timed("layer1.forward", 1e6, use_self=True), "us"),
        "gateway.handle_event_self_us": (timed("gateway.handle_event", 1e6, use_self=True), "us"),
        "layer1.calls": (counts["layer1.calls"] / n, "count"),
        "layer1.pass_ratio": (ratio("layer1.passed", "layer1.calls"), "ratio"),
        "layer2.parse_us": (timed("layer2.parse", 1e6), "us"),
        "layer2.build_prompt_us": (timed("layer2.build_prompt", 1e6), "us"),
        "layer2.remote_ms": (timed("layer2.remote", 1e3, use_self=True), "ms"),
        "layer2.calls": (counts["layer2.calls"] / n, "count"),
        "layer2.errors": (counts["layer2.errors"] / n, "count"),
        "layer2.repairs": (counts["layer2.repairs"] / n, "count"),
        "layer2.request_ratio": (ratio("layer2.requests", "layer2.calls"), "ratio"),
        "layer2.input_tokens_per_call": (ratio("layer2.input_tokens", "layer2.calls"), "count"),
        "schema.validate_us": (timed("schema.validate", 1e6), "us"),
        "schema.canonicalize_us": (timed("schema.canonicalize", 1e6), "us"),
        "dispatch.open_case_ms": (timed("dispatch.open_case", 1e3), "ms"),
        "dispatch.eligible_donors_ms": (timed("dispatch.eligible_donors", 1e3), "ms"),
        "dispatch.ranked_per_alert": (ratio("dispatch.ranked", "dispatch.alerts"), "ratio"),
        "dispatch.advance_to_ms": (timed("dispatch.advance_to", 1e3, mean=True), "ms"),
        "dispatch.notify_stage_ms": (timed("dispatch.notify_stage", 1e3), "ms"),
        "dispatch.handle_response_us": (timed("dispatch.handle_response", 1e6), "us"),
        "dispatch.handle_edit_us": (timed("dispatch.handle_edit", 1e6), "us"),
        "dispatch.stages_fired": (counts["dispatch.stages_fired"] / n, "count"),
        "dispatch.alerts": (counts["dispatch.alerts"] / n, "count"),
        "dispatch.ledger_entries": (statistics.mean(r.ledger_entries for r in traced), "count"),
        "dispatch.persist_ms": (timed("dispatch.persist", 1e3), "ms"),
        "dispatch.persist_bytes": (ratio("dispatch.persist_bytes", "dispatch.persist_calls"), "bytes"),
        "dispatch.persist_calls": (counts["dispatch.persist_calls"] / n, "count"),
        "dispatch.restore_s": (timed("dispatch.restore", 1.0), "s"),
        "service.lock_wait_ms": (timed("service.lock_wait", 1e3, mean=True), "ms"),
        "service.lock_hold_ms": (timed("service.lock_hold", 1e3, mean=True), "ms"),
        "service.get_request_ms": (timed("service.get_request", 1e3), "ms"),
        "evalkit.parsing_score_ms": (timed("evalkit.parsing_score", 1e3), "ms"),
        "ted.distance_ms": (timed("ted.distance", 1e3), "ms"),
        "ted.nodes_per_pair": (ratio("ted.nodes", "ted.pairs"), "count"),
        "read_p50_ms": (median(reads) * 1e3, "ms"),
        "pairs_per_s": (sum(r.pairs for r in untraced) / pair_seconds if pair_seconds else 0.0, "1/s"),
        "parse_score_mean": (statistics.mean(scores) if scores else 0.0, "ratio"),
        "service.lost_mutations": (statistics.mean(r.lost_mutations for r in untraced + traced), "count"),
        "trace.overhead_pct": (100 * median([rate(u) / rate(t) - 1 for u, t in zip(untraced, traced)]), "%"),
    }


def make_workload(name: str, manifest: dict, workdir: Path):
    import httpbench
    import inproc

    if name == "durable_http":
        return httpbench.DurableHttp(manifest, workdir)
    classes = {"dispatch_100k": inproc.Dispatch100k, "parse_eval": inproc.ParseEval}
    return classes[name](manifest)


def verify(name: str, seed: int, size: str, rounds: list) -> list[str]:
    """Failures of the run: failed events, failed checks, and digest mismatches."""
    problems = [p for r in rounds for p in r.failures]
    digests = {r.digest for r in rounds if r.digest}
    if len(digests) > 1:
        problems.append(f"rounds of one script produced {len(digests)} different outputs")
    expected = json.loads((HERE / "expected.json").read_text("utf-8"))[size].get(name)
    if expected and seed == DEFAULT_SEED and digests and digests != {expected}:
        problems.append(f"output digest {digests.pop()} != recorded {expected}")
    return problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="cbrs benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the self-test's sizes")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cbrs" / "__init__.py").is_file():
        print(f"no cbrs sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import Tracer

    cache = ROOT / ".bench_build" / "benchmarks"
    workdir = cache / "runs" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--size", args.size, "--out", str(workdir), "--cache", str(cache)],
        check=True, timeout=900,
    )
    manifest = json.loads((workdir / "manifest.json").read_text("utf-8"))
    workload = make_workload(args.workload, manifest, workdir)
    tracer = Tracer()
    try:
        workload.open()
        if args.trace:
            setups = [workload.set_up()]
            workload.warm_up()
            untraced, traced = run_interleaved(workload, tracer, args.seconds)
            rounds = untraced + traced
        else:
            setups, rounds = measure(workload, args.seconds)
        peak = workload.peak_rss_mb()
    finally:
        workload.close()

    problems = verify(args.workload, args.seed, args.size, rounds)
    metrics, notes = end_to_end(rounds, setups, peak)
    if args.trace:
        metrics = per_layer(tracer, traced, untraced)
        tracer.write_events(workdir / "events.jsonl")
        notes.append(f"per-event layer self times in {workdir / 'events.jsonl'}")
    for note in notes + [f"digest {rounds[0].digest}"] + [f"FAILED {p}" for p in problems[:20]]:
        print(f"# {args.workload}: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.4f} {unit}")
    attempted = sum(r.attempted for r in rounds)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
