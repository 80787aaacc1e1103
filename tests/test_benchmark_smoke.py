"""The benchmark still runs and checks its outputs, at its tiny sizes.

`benchmarks/run.py` replays `dispatch_100k` at the self-test's sizes, once
untraced and once with the tracer's wrappers installed, and verifies the
outbound digest recorded in `benchmarks/expected.json`. Its scratch files
go to the ignored `.bench_build/` directory of the checkout.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_dispatch_benchmark_tiny_is_correct(trace):
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "dispatch_100k", "--size", "tiny",
         "--seed", "1", "--seconds", "0.5", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stdout[-2000:]
