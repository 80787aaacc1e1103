"""Self-test of the benchmark: every workload at tiny sizes, both modes.

    python3 benchmarks/selftest.py

Asserts that each run exits 0, that every metric named in BENCHMARK.json
is printed with its unit, that the end-to-end metrics and the per-layer
ones a workload exercises are non-zero, and that all output checks pass
with no failed operation (seed 1 also matches the digests in
expected.json).
Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


# Per-layer metrics each workload must exercise (non-zero in its traced run).
EXERCISED = {
    "dispatch_100k": ("corpus.normalize_us", "textrep.tokenize_us", "textrep.featurize_us", "layer1.forward_us",
                      "gateway.handle_event_self_us", "layer1.pass_ratio", "layer2.parse_us", "dispatch.open_case_ms",
                      "dispatch.eligible_donors_ms", "dispatch.ranked_per_alert", "dispatch.advance_to_ms",
                      "dispatch.notify_stage_ms", "dispatch.handle_response_us", "dispatch.handle_edit_us",
                      "dispatch.stages_fired", "dispatch.ledger_entries", "dispatch.restore_s"),
    "durable_http": ("layer2.build_prompt_us", "layer2.remote_ms", "schema.validate_us", "dispatch.persist_ms",
                     "dispatch.persist_bytes", "dispatch.persist_calls", "service.lock_hold_ms",
                     "service.get_request_ms", "read_p50_ms", "dispatch.restore_s"),
    "parse_eval": ("evalkit.parsing_score_ms", "ted.distance_ms", "ted.nodes_per_pair", "pairs_per_s",
                   "parse_score_mean"),
}


def run(workload: str, trace: int, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr[-3000:]}"
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            for seed in (1, 2):
                result = run(w["name"], trace, seed)
                label = f"{w['name']} trace={trace} seed={seed}"
                assert result["correct"] and result["failed"] == 0, f"{label}: checks failed"
                assert result["attempted"] >= 1, label
                for metric in spec[kind]:
                    got = result["metrics"].get(metric["name"])
                    assert got is not None, f"{label}: {metric['name']} not printed"
                    assert got["unit"] == metric["unit"], f"{label}: {metric['name']} unit {got['unit']}"
                    if kind == "end_to_end" or metric["name"] in EXERCISED[w["name"]]:
                        assert got["value"] > 0, f"{label}: {metric['name']} is {got['value']}"
                print(f"ok {label}: {len(result['metrics'])} metrics, {result['attempted']} operations")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
