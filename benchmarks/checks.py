"""Output checks run on every benchmark run.

A failed check counts as a failure of the run, never as a skip.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter, defaultdict

from cbrs.dispatch import RESOLVED_EXTERNALLY, urgency_depth


def ledger_invariants(outbound: list[dict], cases: dict, ledger_size: int, epoch) -> list[str]:
    """Problems in a captured outbound stream; an empty list means it holds.

    * no donor is alerted twice for one request;
    * no alert for a request follows its fulfilment ("yes");
    * no alert's stage exceeds the request's urgency depth;
    * every donor alerted for a request resolved by a managed-marker edit
      gets exactly one resolution notice, and nobody gets two;
    * the ledger holds exactly one entry per alert sent.

    `cases` maps request_id -> the engine's `RequestCase` at the end.
    """
    problems = []
    alerted: dict[str, Counter] = defaultdict(Counter)
    notices: dict[str, Counter] = defaultdict(Counter)
    fulfilled: set[str] = set()
    for ev in outbound:
        rid = ev["request_id"]
        kind = ev["kind"]
        if kind == "donor_alert":
            donor = ev["donor_id"]
            if alerted[rid][donor]:
                problems.append(f"{rid}: donor {donor} alerted twice")
            if rid in fulfilled:
                problems.append(f"{rid}: donor {donor} alerted after a yes")
            depth = urgency_depth(cases[rid], epoch)
            if ev["stage"] > depth:
                problems.append(f"{rid}: stage {ev['stage']} beyond urgency depth {depth}")
            alerted[rid][donor] += 1
        elif kind == "seeker_update":
            fulfilled.add(rid)
        elif kind == "resolution_notice":
            notices[rid][ev["donor_id"]] += 1
    for rid, counts in notices.items():
        for donor, n in counts.items():
            if n > 1:
                problems.append(f"{rid}: {n} resolution notices to {donor}")
            if not alerted[rid][donor]:
                problems.append(f"{rid}: resolution notice to never-alerted {donor}")
    for rid, case in cases.items():
        if case.status == RESOLVED_EXTERNALLY and set(notices[rid]) != set(alerted[rid]):
            problems.append(f"{rid}: resolved but notices {sorted(notices[rid])} != alerted {sorted(alerted[rid])}")
    sent = sum(sum(c.values()) for c in alerted.values())
    if sent != ledger_size:
        problems.append(f"{sent} alerts sent but the ledger has {ledger_size} entries")
    return problems


def digest(records: list) -> str:
    text = "\n".join(json.dumps(r, sort_keys=True, ensure_ascii=False) for r in records)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def snapshot_consistent(served, restored) -> list[str]:
    """Problems between a served engine and a restore of its last snapshot.

    The service writes the snapshot when a case opens, so the restored
    state must hold every case and be an earlier state of the served one:
    the same donors, cases and requests; every alert of the stages a case
    had fired by then; and per ledger entry the same stage and alert time,
    with a response or resolution flag either equal or not yet recorded.
    Mutations after the last case opened (donor replies, later stages) are
    not in the snapshot; `lost_mutations` counts them.
    """
    problems = []
    if set(served.cases) != set(restored.cases):
        problems.append(f"cases differ: served {len(served.cases)}, restored {len(restored.cases)}")
    for rid, case in restored.cases.items():
        live = served.cases.get(rid)
        if live is None:
            continue
        for field in ("message_id", "request", "created_at", "deadline", "anchor"):
            if getattr(case, field) != getattr(live, field):
                problems.append(f"{rid}: {field} differs")
        if case.status != live.status and case.status != "open":
            problems.append(f"{rid}: status {case.status} restored, {live.status} served")
        if case.stages_fired > live.stages_fired:
            problems.append(f"{rid}: more stages restored than served")
    if {d.donor_id for d in served.donors.values()} != {d.donor_id for d in restored.donors.values()}:
        problems.append("registered donors differ")
    for rid, case in restored.cases.items():
        want = {k for k, e in served.ledger.items() if k[0] == rid and e.stage <= case.stages_fired}
        have = {k for k in restored.ledger if k[0] == rid}
        if want != have:
            problems.append(f"{rid}: {len(have)} ledger entries restored for its {case.stages_fired} stages, {len(want)} served")
    for key, entry in restored.ledger.items():
        live = served.ledger.get(key)
        if live is None:
            problems.append(f"{key}: restored ledger entry not served")
            continue
        if (entry.stage, entry.notified_at) != (live.stage, live.notified_at):
            problems.append(f"{key}: stage or alert time differs")
        if entry.response not in ("none", live.response):
            problems.append(f"{key}: response {entry.response} restored, {live.response} served")
        if entry.resolution_notified and not live.resolution_notified:
            problems.append(f"{key}: resolution flag restored but not served")
    return problems


def lost_mutations(served, restored) -> int:
    """Ledger entries and responses the served engine holds beyond its snapshot."""
    lost = 0
    for key, live in served.ledger.items():
        entry = restored.ledger.get(key)
        if entry is None or entry.response != live.response:
            lost += 1
    return lost
