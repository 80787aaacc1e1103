"""HTTP/JSON service wrapping a gateway: ingestion, registry, lookups.

Endpoints: POST /messages, POST /donors, POST /responses,
GET /requests/{id}, GET /health. Bodies are JSON both ways; malformed or
wrong-typed input gets a 400 with field diagnostics before any state
changes, a body over `MAX_BODY_BYTES` a 413 before it is read, unknown
ids a 404. POST /donors writes through `Gateway.put_donor`, as a scenario
`donor` line does. Donors, cases, ledger entries and traces are
answered in the JSON form `records.encode` gives them; a case's trace is
derived from the case and its ledger entries (`gateway.case_trace`), so
it is answered the same after a restart. Handlers share one
lock so case/ledger mutations stay serialized. With a snapshot path set,
every POST persists what it changed, under the lock, before it replies.
A POST whose Layer-2 call or persist failed gets a 503 with `Retry-After`:
nothing changed, and the client's redelivery is the retry.
"""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass, fields
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from .dispatch import DONOR_FIELDS, check_staging
from .gateway import Gateway, case_trace, decode_event
from .layer2 import BackendConfig
from .records import DonorRecord, FieldError, RequestCase, encode, read_fields

log = logging.getLogger(__name__)

# A POST whose Content-Length exceeds this is answered 413 and not read.
MAX_BODY_BYTES = 1 << 20

# Config file value parsers, by field annotation.
_CONFIG_TYPES = {"float": float, "int": int, "str": str, "float | None": float}


@dataclass
class ServiceConfig:
    """The service's settings, read from a flat key=value config file."""

    threshold: float | None = None  # None: the model's own threshold
    stage_size: int = 5
    stage_timeout_seconds: int = 600
    eligibility_days: int = 90
    backend: str = BackendConfig.kind
    endpoint: str = BackendConfig.endpoint
    backend_model: str = BackendConfig.model
    prompt_mode: str = BackendConfig.mode
    model_path: str = ""
    snapshot_path: str = ""
    port: int = 8377

    @classmethod
    def from_file(cls, path: str | Path) -> "ServiceConfig":
        values: dict[str, str] = {}
        for lineno, line in enumerate(Path(path).read_text("utf-8").splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            values[key.strip()] = value.strip()
        converters = {f.name: _CONFIG_TYPES[f.type] for f in fields(cls)}
        unknown = set(values) - set(converters)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        config = cls(**{name: converters[name](raw) for name, raw in values.items()})
        knobs = ("stage_size", "stage_timeout_seconds", "eligibility_days")  # check_staging's order
        try:
            check_staging({name: getattr(config, name) for name in knobs})
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        return config


def _case_payload(gateway: Gateway, case: RequestCase) -> dict:
    """The case's JSON form, its trace, and its ledger entries' forms by donor id."""
    return {
        **encode(case),
        "trace": encode(case_trace(gateway.engine, case)),
        "ledger": [encode(e) for e in gateway.engine.case_entries(case.request_id)],
    }


class _Handler(BaseHTTPRequestHandler):
    gateway: Gateway
    lock: threading.Lock

    def log_message(self, fmt: str, *args) -> None:  # route through logging
        log.info("%s %s", self.address_string(), fmt % args)

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        if status == 503:  # nothing changed: send the POST again in a second
            self.send_header("Retry-After", "1")
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict | None:
        header = self.headers.get("Content-Length", "0").strip()
        if not (header.isascii() and header.isdigit()):
            self._send(400, {"error": "invalid Content-Length", "fields": ["Content-Length"]})
            return None
        length = int(header)
        if length > MAX_BODY_BYTES:
            self._send(413, {"error": f"body over {MAX_BODY_BYTES} bytes", "fields": ["Content-Length"]})
            return None
        raw = self.rfile.read(length)
        try:
            obj = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._send(400, {"error": f"invalid JSON body: {exc}"})
            return None
        if not isinstance(obj, dict):
            self._send(400, {"error": "body must be a JSON object"})
            return None
        return obj

    def do_GET(self) -> None:
        if self.path == "/health":
            self._send(200, {"status": "ok"})
            return
        if self.path.startswith("/requests/"):
            request_id = self.path[len("/requests/") :]
            with self.lock:
                case = self.gateway.engine.cases.get(request_id)
                if case is None:
                    self._send(404, {"error": f"unknown request id {request_id!r}"})
                    return
                self._send(200, _case_payload(self.gateway, case))
            return
        self._send(404, {"error": f"unknown path {self.path}"})

    def do_POST(self) -> None:
        body = self._read_json()
        if body is None:
            return
        try:
            if self.path == "/messages":
                self._post_message(body)
            elif self.path == "/donors":
                self._post_donor(body)
            elif self.path == "/responses":
                self._post_response(body)
            else:
                self._send(404, {"error": f"unknown path {self.path}"})
        except FieldError as exc:
            self._send(400, {"error": exc.error, "fields": exc.fields})
        except ValueError as exc:  # a DispatchError too
            self._send(400, {"error": str(exc)})
        except Exception as exc:  # a failed persist (the gateway put back its file's state), or a fault
            log.exception("POST %s failed", self.path)
            self._send(503, {"error": f"{type(exc).__name__}: {exc}"})

    def _post_message(self, body: dict) -> None:
        ev = decode_event(body, ("message_id", "text"), kind="message")
        with self.lock:
            action = self.gateway.handle_event(ev)
        if action.get("status") == "parse-error" or action.get("trace", {}).get("layer2_outcome") == "error":
            self._send(503, {"error": "the layer-2 backend failed; nothing changed"})
            return
        self._send(200, action)

    def _post_donor(self, body: dict) -> None:
        donor = read_fields(DonorRecord, body, ("platform_id", *DONOR_FIELDS), required=("platform_id",))
        platform_id = donor.pop("platform_id")
        with self.lock:
            record = self.gateway.put_donor(platform_id, donor)
        self._send(200, encode(record))

    def _post_response(self, body: dict) -> None:
        ev = decode_event({**body, "kind": "donor_response"}, ("sender", "message_id", "text"))
        with self.lock:
            action = self.gateway.handle_event(ev)
        self._send(200, {"status": action["status"]})


@dataclass
class RunningService:
    server: ThreadingHTTPServer
    thread: threading.Thread

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    def shutdown(self) -> None:
        self.server.shutdown()
        self.thread.join(timeout=5)
        self.server.server_close()


def serve(gateway: Gateway, host: str = "127.0.0.1", port: int = 0) -> RunningService:
    """Start the HTTP service on a background thread; port 0 picks a free one."""
    handler = type("BoundHandler", (_Handler,), {"gateway": gateway, "lock": threading.Lock()})
    server = ThreadingHTTPServer((host, port), handler)
    thread = threading.Thread(target=server.serve_forever, name="cbrs-service", daemon=True)
    thread.start()
    log.info("service listening on %s:%d", host, server.server_address[1])
    return RunningService(server=server, thread=thread)
