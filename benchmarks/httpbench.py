"""The `durable_http` workload: the cbrs service in its own process.

Two closed-loop client threads, one per CPU of the reference machine, each
own a few chat groups. A client posts a message; for each case it opens,
it reads the case back with GET /requests/{id} and posts the scripted
replies of the alerted donors; every fifth message it posts a donor
profile update. Layer 2 is `RemoteBackend` against the stub endpoint.
Each round starts a fresh service from the generated snapshot.
"""

from __future__ import annotations

import http.client
import json
import select
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import Round, Workload
from gen import HTTP_CLIENTS

HERE = Path(__file__).resolve().parent
# The stub's reply delay. A placeholder: no Layer-2 model latency has been
# measured or cited yet, so lock-scope changes are not resolvable here.
STUB_DELAY_MS = 5.0
START_TIMEOUT = 60.0


class Process:
    """A child that prints `READY <port>` and runs until its stdin closes."""

    def __init__(self, argv: list[str], log: Path) -> None:
        self._log = log.open("ab")
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log)
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("READY "):
            self.stop()
            raise RuntimeError(f"{argv[1]} did not start; see {log}")
        self.port = int(line.split()[1])

    def stop(self, timeout: float = 60.0) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"{self.proc.args[1]} exited with {self.proc.returncode}")


def call(port: int, method: str, path: str, body: dict | None = None) -> tuple[int, dict, float]:
    data = json.dumps(body).encode() if body is not None else None
    t0 = time.perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=data, headers={"Content-Type": "application/json"} if data else {})
        resp = conn.getresponse()
        payload = json.loads(resp.read())
    finally:
        conn.close()
    return resp.status, payload, time.perf_counter() - t0


class DurableHttp(Workload):
    def __init__(self, manifest: dict, workdir: Path) -> None:
        super().__init__(manifest)
        self.workdir = workdir
        self.stub: Process | None = None
        self.peak_rss = 0.0
        self.requests = sum(1 for s in self._steps() if s["op"] == "message" and s["label"] == 1)

    def _steps(self):
        for script in self.manifest["scripts"]:
            yield from script

    def open(self) -> None:
        self.stub = Process(
            [sys.executable, str(HERE / "stub_llm.py"), "--seed", str(self.manifest["stub_seed"]),
             "--delay-ms", str(STUB_DELAY_MS)],
            self.workdir / "stub.log",
        )

    def close(self) -> None:
        if self.stub is not None:
            self.stub.stop()
            self.stub = None

    def _start_service(self, trace: bool) -> tuple[Process, Path]:
        snapshot = self.workdir / "served.snapshot"
        shutil.copyfile(self.manifest["snapshot"], snapshot)
        result = self.workdir / "service-result.json"
        result.unlink(missing_ok=True)
        service = Process(
            [sys.executable, str(HERE / "serve_cbrs.py"), "--model", self.manifest["model"],
             "--snapshot", str(snapshot), "--stub-url", f"http://127.0.0.1:{self.stub.port}/v1/chat",
             "--trace", str(int(trace)), "--result", str(result)],
            self.workdir / "service.log",
        )
        while call(service.port, "GET", "/health")[0] != 200:
            time.sleep(0.01)
        return service, result

    def _finish(self, service: Process, result: Path) -> dict:
        service.stop()
        out = json.loads(result.read_text("utf-8"))
        self.peak_rss = max(self.peak_rss, out["peak_rss_mb"])
        return out

    def set_up(self) -> float:
        """Seconds from starting the service process to a healthy /health."""
        t0 = time.perf_counter()
        service, result = self._start_service(trace=False)
        elapsed = time.perf_counter() - t0
        self._finish(service, result)
        return elapsed

    def peak_rss_mb(self) -> float:
        return self.peak_rss

    def trace(self, tracer) -> None:
        """Start the services of the following rounds traced while a tracer is set."""
        self.tracer = tracer

    def round(self) -> Round:
        service, result = self._start_service(self.tracer is not None)
        records: list[list] = [[] for _ in range(HTTP_CLIENTS)]
        threads = [
            threading.Thread(target=self._client, args=(service.port, script, records[i]))
            for i, script in enumerate(self.manifest["scripts"])
        ]
        wall = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rnd = Round(wall=time.perf_counter() - wall)
        out = self._finish(service, result)
        found = 0
        for kind, status, seconds, label, detail in (r for rec in records for r in rec):
            rnd.attempted += 1
            if status != 200:
                rnd.fail(f"{kind}: HTTP {status} {detail}")
                continue
            rnd.events.append(seconds)
            if kind == "message":
                rnd.messages += 1
                if detail:
                    rnd.alerts.append(seconds)
                    found += label
            elif kind == "read":
                rnd.reads.append(seconds)
        rnd.layer2_calls = out["layer2_calls"]
        rnd.ledger_entries = out["ledger_entries"]
        rnd.recall = found / self.requests if self.requests else 1.0
        for problem in out["problems"]:
            rnd.fail(problem)
        rnd.lost_mutations = out["lost_mutations"]
        if self.tracer is not None:
            self.tracer.spans.extend(tuple(s) for s in out["spans"])
            for name, value in out["counts"].items():
                self.tracer.counts[name] += value
        return rnd

    def _client(self, port: int, script: list[dict], out: list) -> None:
        try:
            self._run_script(port, script, out)
        except Exception as exc:  # a broken client thread fails the round, never hangs it
            out.append(("client", 0, 0.0, 0, repr(exc)))

    def _run_script(self, port: int, script: list[dict], out: list) -> None:
        donor_map = self.manifest["donor_map"]

        def record(kind: str, method: str, path: str, body: dict | None, label: int = 0):
            try:
                status, payload, seconds = call(port, method, path, body)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                out.append((kind, 0, 0.0, label, repr(exc)))
                return None
            detail = payload.get("trace", {}).get("request_id") if kind == "message" else payload
            out.append((kind, status, seconds, label, detail))
            return payload if status == 200 else None

        for step in script:
            if step["op"] == "donor_update":
                record("donor", "POST", "/donors", {"platform_id": step["platform_id"], **step["patch"]})
                continue
            body = {key: step[key] for key in ("message_id", "text", "sender", "tick")}
            body["group_id"] = step["group"]
            action = record("message", "POST", "/messages", body, step["label"])
            request_id = action and action["trace"]["request_id"]
            if not request_id:
                continue
            case = record("read", "GET", f"/requests/{request_id}", None)
            if case is None:
                continue
            alerted = [e["donor_id"] for e in case["ledger"] if e["stage"] == 1]
            for answer, donor_id in zip(step["replies"], alerted):
                record("reply", "POST", "/responses",
                       {"sender": donor_map[donor_id], "message_id": step["message_id"], "text": answer})
