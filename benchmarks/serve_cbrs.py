"""The cbrs HTTP service as its own process, for the `durable_http` workload.

It restores the registry snapshot, serves with `snapshot_path` set and a
`RemoteBackend` pointed at the stub endpoint, prints `READY <port>`, and
serves until stdin closes. On the way out it checks the run and writes a
JSON result: ledger invariants on the outbound stream the engine queued,
a restore of the final snapshot against the served engine, Layer-2 call
count, peak RSS, and (with `--trace 1`) the spans.

    python3 benchmarks/serve_cbrs.py --model M --snapshot S --stub-url U --trace 0 --result R
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from checks import ledger_invariants, lost_mutations, snapshot_consistent  # noqa: E402
from tracer import Tracer, TimedLock  # noqa: E402

from cbrs import layer1  # noqa: E402
from cbrs.dispatch import DispatchEngine  # noqa: E402
from cbrs.gateway import Gateway  # noqa: E402
from cbrs.layer2 import BackendConfig, RemoteBackend  # noqa: E402
from cbrs.service import serve  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description="cbrs service process for the durable_http workload")
    ap.add_argument("--model", required=True)
    ap.add_argument("--snapshot", required=True)
    ap.add_argument("--stub-url", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    tracer = Tracer()
    if args.trace:
        tracer.install()
    model = layer1.load_model(args.model)
    engine = DispatchEngine()
    engine.restore(args.snapshot)
    backend = RemoteBackend(BackendConfig(kind="remote", endpoint=args.stub_url, model="stub"))
    gateway = Gateway(model, backend, engine=engine, snapshot_path=args.snapshot)
    running = serve(gateway, port=0)
    if args.trace:
        running.server.RequestHandlerClass.lock = TimedLock(tracer)
    print(f"READY {running.port}", flush=True)
    sys.stdin.read()
    running.shutdown()
    tracer.uninstall()

    restored = DispatchEngine()
    restored.restore(args.snapshot)
    problems = ledger_invariants(engine.outbound, engine.cases, len(engine.ledger), engine.clock.epoch_date)
    problems += snapshot_consistent(engine, restored)
    result = {
        "problems": problems,
        "lost_mutations": lost_mutations(engine, restored),
        "layer2_calls": gateway.layer2_calls,
        "ledger_entries": len(engine.ledger),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": tracer.spans,
        "counts": tracer.counts,
    }
    Path(args.result).write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
