"""Seeded inputs for the benchmark workloads.

Everything a workload feeds the program is made here, before any timing:
donor registries inside the gazetteer's bounding box, scripted event
streams (messages, donor replies, managed-marker edits, clock advances,
donor updates), registry snapshots, gold sets, perturbed parse pairs, and
the classifier model files. The same seed gives the same inputs; the
models do not depend on it and are trained once per checkout.

Run as a script it writes one workload's inputs into a directory, in its
own process so that generating them does not count towards the peak
memory of the process under test:

    python3 benchmarks/gen.py --workload dispatch_100k --seed 1 --out DIR --cache DIR
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from cbrs import layer1, synth  # noqa: E402
from cbrs.dispatch import DispatchEngine, gazetteer, geocode_markers  # noqa: E402
from cbrs.layer1 import Hyper  # noqa: E402
from cbrs.layer2 import parse_rules  # noqa: E402
from cbrs.schema import ParseOutcome, to_dict  # noqa: E402
from common import WORKLOADS  # noqa: E402

# Sizes per workload. "full" is what the benchmark measures; "tiny" is the
# self-test. A round is one pass over a workload's script from a fresh
# program state; a run repeats rounds until its time is used. parse_eval
# has three gold items per pair: its event costs form plateaus (a gold
# request ~6 ms, pairs at four levels by their edits), and with more pairs
# the median event fell on the step between two of them.
SIZES = {
    "full": {
        "dispatch_100k": {"donors": 100_000, "messages": 160},
        "durable_http": {"donors": 10_000, "messages_per_client": 100},
        "parse_eval": {"gold": 450, "pairs": 150},
    },
    "tiny": {
        "dispatch_100k": {"donors": 400, "messages": 60},
        "durable_http": {"donors": 300, "messages_per_client": 12},
        "parse_eval": {"gold": 12, "pairs": 24},
    },
}

# Layer 1 is a small share of the serving workloads' time; training epochs
# are kept low: the shape, not the training length, sets the serving cost.
MODELS = {
    "small": Hyper(dim=32, buckets=2**18, epochs=5, lr=0.5, seed=7),
    "tiny": Hyper(dim=16, buckets=2**14, epochs=5, lr=0.5, seed=7),
}
TRAIN_CORPUS = {"n": 2000, "seed": 29}

# Client threads of durable_http, one per CPU of the reference machine.
HTTP_CLIENTS = 2
GROUPS_PER_CLIENT = 3

MANAGED_SUFFIX = " -- update: managed, thanks everyone"
EPOCH = date(2025, 1, 1)


def ensure_model(name: str, cache: Path) -> Path:
    """Train and write a model once per checkout; later runs reuse it."""
    path = cache / "models" / f"{name}.bin"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        corpus = synth.imbalanced_bilingual_corpus(**TRAIN_CORPUS)
        layer1.save_model(layer1.train(corpus, MODELS[name]), path)
    return path


def _bounding_box() -> tuple[float, float, float, float]:
    points = gazetteer().values()
    lats = [p[0] for p in points]
    lons = [p[1] for p in points]
    return min(lats), max(lats), min(lons), max(lons)


def donors(n: int, rng: np.random.Generator) -> list[dict]:
    """Donors spread uniformly over the gazetteer's bounding box.

    A third donated within the last year, so the 90-day eligibility window
    excludes some of them.
    """
    lat0, lat1, lon0, lon1 = _bounding_box()
    lats = rng.uniform(lat0, lat1, n)
    lons = rng.uniform(lon0, lon1, n)
    groups = rng.integers(0, len(synth.GROUPS), n)
    donated = rng.random(n) < 1 / 3
    days_ago = rng.integers(1, 365, n)
    return [
        {
            "platform_id": f"p{i:06d}",
            "blood_group": synth.GROUPS[groups[i]],
            "latitude": float(lats[i]),
            "longitude": float(lons[i]),
            "last_donation_date": (EPOCH - timedelta(days=int(days_ago[i]))).isoformat()
            if donated[i]
            else None,
        }
        for i in range(n)
    ]


def register(engine: DispatchEngine, registry: list[dict]) -> None:
    for d in registry:
        last = d["last_donation_date"]
        engine.register_donor(
            platform_id=d["platform_id"],
            blood_group=d["blood_group"],
            latitude=d["latitude"],
            longitude=d["longitude"],
            last_donation_date=date.fromisoformat(last) if last else None,
        )


def write_snapshot(registry: list[dict], path: Path) -> dict[str, str]:
    """Snapshot of a registry, written by the engine; returns donor_id -> platform_id."""
    engine = DispatchEngine()
    register(engine, registry)
    engine.persist(path)
    return {d.donor_id: d.platform_id for d in engine.donors.values()}


def _messages(
    n: int, positive_rate: float, rng: np.random.Generator, groups: list[str], prefix: str = "m", subtle_rate: float = 0.5
) -> list[dict]:
    corpus = synth.imbalanced_bilingual_corpus(
        n=n, positive_rate=positive_rate, subtle_rate=subtle_rate, seed=int(rng.integers(0, 2**31))
    )
    picks = rng.integers(0, len(groups), n)
    senders = rng.integers(0, 5000, n)
    return [
        {
            "op": "message",
            "group": groups[picks[i]],
            "message_id": f"{prefix}{i:06d}",
            "sender": f"u{senders[i]:04d}",
            "text": s.text,
            "label": s.label,
        }
        for i, s in enumerate(corpus.samples)
    ]


# The mix of each script (which steps are replies, edits, advances; which
# perturbation a pair gets) is fixed by position; the seed picks the
# content (texts, groups, donors, values). Seeds then vary what the program
# sees without varying how much of each kind of work a round holds.


# The requests of dispatch_100k, by what the dispatch engine does with them:
# ranked by distance ("anchored": a place the gazetteer resolves) or by
# recency, and how many stages their probable day allows (none: 1,
# tomorrow: 2, today: 3). Every eight requests take this mix, in this order.
REQUEST_CYCLE = (
    "anchored/-", "unanchored/today", "anchored/-", "anchored/today",
    "anchored/-", "anchored/tomorrow", "anchored/-", "unanchored/today",
)


def _request_kind(text: str) -> str | None:
    """The REQUEST_CYCLE kind of a request's text, from the rules parser."""
    outcome = parse_rules(text).outcome
    if outcome is None or outcome.is_negative:
        return None
    request = outcome.request
    anchored = "anchored" if geocode_markers(request.location_markers) is not None else "unanchored"
    return f"{anchored}/{request.probable_day or '-'}"


def dispatch_script(n: int, stage_timeout: int, rng: np.random.Generator) -> list[dict]:
    """Request-heavy stream (30% requests) that keeps the dispatch engine busy.

    Messages 2, 5 and 8 of every ten are requests, of the kinds in
    REQUEST_CYCLE; the rest are Layer-1 negatives. Both are drawn, in
    order, from a corpus four times as long. Taken as the corpus came, the
    positions and urgency of the requests set how many stages each sweep
    fired, and a round's time outside case openings varied twofold from
    seed to seed; the share of recency-ranked requests (about 60% of the
    cost of a distance ranking) varied as well.

    After every second message the oldest unanswered alert gets a reply,
    one in twenty a "yes" and the rest "no", so whole stages decline and
    fire the next one. Replies are the cheapest events; at one per two
    messages they are a third of the events, so the median event is a
    Layer-1 negative, not the edge between the two populations. Every
    25th message is followed by a managed-marker edit of an earlier case.
    Every 40 messages the clock jumps past the stage timeout, sweeping
    every open case, and once in a round it jumps a day, expiring the
    cases due that day.
    """
    pools: dict[str | None, list[dict]] = {}
    for msg in _messages(4 * n, 0.3, rng, [f"g{k}" for k in range(8)], subtle_rate=0.0):
        pools.setdefault(_request_kind(msg["text"]) if msg["label"] else "other", []).append(msg)
    draw = {kind: iter(msgs) for kind, msgs in pools.items()}
    messages = []
    for i in range(n):
        kind = "other"
        if i % 10 in (2, 5, 8):
            kind = REQUEST_CYCLE[sum(m["label"] for m in messages) % len(REQUEST_CYCLE)]
        messages.append({**next(draw[kind]), "message_id": f"m{i:06d}"})
    steps = []
    tick = replies = 0
    for i, msg in enumerate(messages):
        tick += 2
        steps.append({**msg, "tick": tick})
        for _ in range(i % 2):
            tick += 1
            replies += 1
            steps.append({"op": "reply", "tick": tick, "answer": "yes" if replies % 20 == 0 else "no"})
        if i % 25 == 24:
            tick += 1
            steps.append({"op": "edit", "tick": tick, "pick": int(rng.integers(0, 1 << 30))})
        if i % 40 == 39:
            tick += stage_timeout + 1
            steps.append({"op": "advance", "tick": tick})
        if i == (3 * n) // 4:
            tick += 86400
            steps.append({"op": "advance", "tick": tick})
    return steps


def http_scripts(n_per_client: int, platform_ids: list[str], rng: np.random.Generator) -> list[list[dict]]:
    """One closed-loop script per client thread; each client owns its groups.

    20% of messages are requests. For each case a message opens, the
    client reads it back and replies for its alerted donors: seven cases in
    ten a whole stage of "no" (which fires the next stage), two a "no" and
    a "yes", one no reply. Every fifth message is followed by a donor
    profile update. The no-reply case comes first in each ten, so the last
    case of a client with a multiple of ten cases gets replies: the
    service writes its snapshot only when a case opens, and replies after
    the last one are what `service.lost_mutations` counts.
    """
    patterns = [[]] + [["no"] * 5] * 7 + [["no", "yes"]] * 2
    scripts = []
    for c in range(HTTP_CLIENTS):
        groups = [f"c{c}g{k}" for k in range(GROUPS_PER_CLIENT)]
        steps = []
        cases = 0
        for i, msg in enumerate(_messages(n_per_client, 0.2, rng, groups, prefix=f"c{c}m")):
            steps.append({**msg, "tick": i + 1, "replies": patterns[cases % len(patterns)] if msg["label"] else []})
            cases += msg["label"]
            if i % 5 == 4:
                donor = platform_ids[int(rng.integers(0, len(platform_ids)))]
                last = (EPOCH - timedelta(days=int(rng.integers(1, 400)))).isoformat()
                steps.append({"op": "donor_update", "platform_id": donor, "patch": {"last_donation_date": last}})
        scripts.append(steps)
    return scripts


def _perturb(outcome: ParseOutcome, i: int, rng: np.random.Generator) -> ParseOutcome:
    """A plausible parser mistake for pair `i`: a wrong, dropped or extra
    field, or a flipped flag. Pair `i` gets `i % 3 + 1` edits."""
    if outcome.is_negative:
        if i % 2:
            return outcome
        return synth.goldset(n=1, seed=int(rng.integers(0, 2**31)))[0][1]
    req = outcome.request
    for k in range(i % 3 + 1):
        kind = (i + k) % 6
        if kind == 0:
            req = dataclasses.replace(req, blood_group=synth.GROUPS[int(rng.integers(0, 8))])
        elif kind == 1:
            req = dataclasses.replace(req, contacts=())
        elif kind == 2:
            req = dataclasses.replace(req, location_markers=req.location_markers + ("Sylhet",))
        elif kind == 3:
            req = dataclasses.replace(req, probable_day="tomorrow", probable_time="before 18:00")
        elif kind == 4:
            req = dataclasses.replace(req, bags_needed=str(int(rng.integers(1, 6))), hospital_name="")
        else:
            return ParseOutcome.negative()
    return ParseOutcome.positive(req)


def parse_pairs(n: int, rng: np.random.Generator) -> list[tuple[ParseOutcome, ParseOutcome]]:
    gold = synth.goldset(n=n, seed=int(rng.integers(0, 2**31)))
    return [(g, _perturb(g, i, rng)) for i, (_, g, _) in enumerate(gold)]


def write_goldset(items: list, path: Path) -> None:
    """The `cbrs eval-parse` gold-set file format."""
    with path.open("w", encoding="utf-8") as fh:
        for text, gold, language in items:
            fh.write(json.dumps({"text": text, "language": language, "gold": to_dict(gold)}, ensure_ascii=False) + "\n")


def write_inputs(workload: str, seed: int, size: str, out: Path, cache: Path) -> dict:
    """Write one workload's inputs into `out`; returns the manifest."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sizes = SIZES[size][workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"workload": workload, "seed": seed, "size": size}
    if workload != "parse_eval":
        manifest["model"] = str(ensure_model("tiny" if size == "tiny" else "small", cache))
    if workload == "dispatch_100k":
        manifest["stage_timeout"] = 600
        manifest["donor_map"] = write_snapshot(donors(sizes["donors"], rng), out / "registry.snapshot")
        manifest["snapshot"] = str(out / "registry.snapshot")
        manifest["script"] = dispatch_script(sizes["messages"], manifest["stage_timeout"], rng)
    elif workload == "durable_http":
        registry = donors(sizes["donors"], rng)
        manifest["donor_map"] = write_snapshot(registry, out / "registry.snapshot")
        manifest["snapshot"] = str(out / "registry.snapshot")
        platform_ids = [d["platform_id"] for d in registry]
        manifest["scripts"] = http_scripts(sizes["messages_per_client"], platform_ids, rng)
        manifest["stub_seed"] = int(rng.integers(0, 2**31))
    else:
        gold = synth.goldset(n=sizes["gold"], seed=int(rng.integers(0, 2**31)))
        write_goldset(gold, out / "gold.jsonl")
        manifest["goldset"] = str(out / "gold.jsonl")
        manifest["pairs"] = [
            [to_dict(g), to_dict(p)] for g, p in parse_pairs(sizes["pairs"], rng)
        ]
    (out / "manifest.json").write_text(json.dumps(manifest, ensure_ascii=False), "utf-8")
    return manifest


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=tuple(SIZES))
    ap.add_argument("--out", required=True)
    ap.add_argument("--cache", required=True)
    args = ap.parse_args(argv)
    write_inputs(args.workload, args.seed, args.size, Path(args.out), Path(args.cache))
    return 0


if __name__ == "__main__":
    sys.exit(main())
