"""The benchmark still runs and checks its outputs, at its tiny sizes.

`benchmarks/run.py` replays `dispatch_100k` at the self-test's sizes, once
untraced and once with the tracer's wrappers installed, and verifies the
outbound digest recorded in `benchmarks/expected.json`. `durable_http`
runs traced: the service process, its snapshot file, and a restore of that
file that must hold every acknowledged change. `parse_eval` runs traced
and must reproduce its recorded score digest through the scoring path.
Scratch files go to the ignored `.bench_build/` directory of the checkout.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_benchmark(*args: str) -> dict:
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--size", "tiny", "--seed", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stdout[-2000:]
    return result


# Spans the tracer records only while the program still calls the names it
# patches; a refactor that routes around one reads zero here.
DISPATCH_SPANS = (
    "corpus.normalize_us",
    "textrep.tokenize_us",
    "textrep.featurize_us",
    "layer1.forward_us",
    "layer2.parse_us",
    "dispatch.handle_edit_us",
    "schema.canonicalize_us",
    "dispatch.eligible_donors_ms",
    "dispatch.open_case_ms",
    "dispatch.restore_s",
)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_dispatch_benchmark_tiny_is_correct(trace):
    result = run_benchmark("--workload", "dispatch_100k", "--seconds", "0.5", "--trace", trace)
    if trace == "1":
        for name in DISPATCH_SPANS:
            assert result["metrics"][name]["value"] > 0, name


def test_durable_http_tiny_loses_no_mutation():
    result = run_benchmark("--workload", "durable_http", "--seconds", "0.5", "--trace", "1")
    assert result["metrics"]["service.lost_mutations"]["value"] == 0
    assert result["metrics"]["schema.validate_us"]["value"] > 0


def test_parse_eval_tiny_scores_through_the_schema():
    result = run_benchmark("--workload", "parse_eval", "--seconds", "0.5", "--trace", "1")
    assert result["metrics"]["evalkit.parsing_score_ms"]["value"] > 0
    assert result["metrics"]["ted.distance_ms"]["value"] > 0
    assert result["metrics"]["ted.nodes_per_pair"]["value"] > 0
