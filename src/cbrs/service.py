"""HTTP/JSON service wrapping a gateway: ingestion, registry, lookups.

Endpoints: POST /messages, POST /donors, POST /responses,
GET /requests/{id}, GET /health. Bodies are JSON both ways; malformed or
wrong-typed input gets a 400 with field diagnostics before any state
changes, unknown ids a 404. Handlers share one
lock so case/ledger mutations stay serialized. With a snapshot path set,
every POST persists what it changed, under the lock, before it replies.
"""

from __future__ import annotations

import json
import logging
import threading
from dataclasses import dataclass, fields
from datetime import date
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from .dispatch import DispatchError, RequestCase
from .gateway import Gateway, InboundEvent
from .schema import ParseOutcome, to_dict

log = logging.getLogger(__name__)


@dataclass
class ServiceConfig:
    """Flat key=value config file; every tunable constant lives here."""

    threshold: float = 0.5
    stage_size: int = 5
    stage_timeout_seconds: int = 600
    eligibility_days: int = 90
    backend: str = "rules"
    endpoint: str = ""
    backend_model: str = ""
    prompt_mode: str = "few_shot"
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
        converters = {f.name: type(getattr(cls, f.name)) for f in fields(cls)}
        unknown = set(values) - set(converters)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {name: converters[name](raw) for name, raw in values.items()}
        return cls(**kwargs)


def _case_payload(gateway: Gateway, case: RequestCase) -> dict:
    ledger = [
        {
            "donor_id": e.donor_id,
            "stage": e.stage,
            "notified_at": e.notified_at,
            "response": e.response,
            "resolution_notified": e.resolution_notified,
        }
        for e in gateway.engine.case_entries(case.request_id)
    ]
    trace = gateway.traces.get(case.message_id)
    return {
        "request_id": case.request_id,
        "message_id": case.message_id,
        "status": case.status,
        "created_at": case.created_at,
        "needs_attention": case.needs_attention,
        "request": to_dict(ParseOutcome.positive(case.request)),
        "trace": trace.to_dict() if trace else None,
        "ledger": ledger,
    }


def _text(value: object) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected string, got {type(value).__name__}")
    return value


# The fields of each POST body that are read, with their conversions from
# JSON; a value that does not convert is answered with a 400.
_MESSAGE_FIELDS = {
    **dict.fromkeys(("kind", "platform", "group_id", "sender", "message_id", "text"), _text),
    "tick": int,
}
_RESPONSE_FIELDS = {"sender": _text, "message_id": _text, "text": _text, "tick": int}
_DONOR_FIELDS = {
    "platform_id": _text,
    "blood_group": _text,
    "latitude": float,
    "longitude": float,
    "last_donation_date": lambda v: date.fromisoformat(v) if v else None,
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
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict | None:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0:
            self._send(400, {"error": "invalid Content-Length", "fields": ["Content-Length"]})
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
        except (DispatchError, ValueError) as exc:
            self._send(400, {"error": str(exc)})

    def _converted(self, body: dict, converters: dict) -> dict | None:
        """The body's fields that `converters` names, converted; None, with a
        400 sent, when one does not convert."""
        values, wrong = {}, []
        for key, convert in converters.items():
            if key in body:
                try:
                    values[key] = convert(body[key])
                except (TypeError, ValueError, OverflowError):
                    wrong.append(key)
        if wrong:
            self._send(400, {"error": "wrong-typed fields", "fields": wrong})
            return None
        return values

    def _post_message(self, body: dict) -> None:
        missing = [k for k in ("message_id", "text") if k not in body]
        if missing:
            self._send(400, {"error": "missing fields", "fields": missing})
            return
        values = self._converted(body, _MESSAGE_FIELDS)
        if values is None:
            return
        ev = InboundEvent(**{"kind": "message", "platform": "api", "group_id": "api", **values})
        with self.lock:
            action = self.gateway.handle_event(ev)
        self._send(200, action)

    def _post_donor(self, body: dict) -> None:
        if "platform_id" not in body:
            self._send(400, {"error": "missing fields", "fields": ["platform_id"]})
            return
        patch = self._converted(body, _DONOR_FIELDS)
        if patch is None:
            return
        platform_id = patch.pop("platform_id")
        with self.lock:
            if all(k in patch for k in ("blood_group", "latitude", "longitude")):
                record = self.gateway.engine.register_donor(platform_id, **patch)
            else:
                record = self.gateway.engine.update_donor(platform_id, patch)
            self.gateway.persist()
        self._send(
            200,
            {
                "donor_id": record.donor_id,
                "platform_id": record.platform_id,
                "blood_group": record.blood_group,
                "latitude": record.latitude,
                "longitude": record.longitude,
                "last_donation_date": record.last_donation_date.isoformat()
                if record.last_donation_date
                else None,
            },
        )

    def _post_response(self, body: dict) -> None:
        missing = [k for k in ("sender", "message_id", "text") if k not in body]
        if missing:
            self._send(400, {"error": "missing fields", "fields": missing})
            return
        values = self._converted(body, _RESPONSE_FIELDS)
        if values is None:
            return
        ev = InboundEvent(kind="donor_response", **values)
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
