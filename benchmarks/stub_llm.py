"""Local stand-in for a chat-completion endpoint, run as its own process.

It answers each prompt with the rule parser's outcome for the prompt's
query, `schema.serialize(parse_rules(query).outcome)`, after a fixed delay.
A seeded share of replies come wrapped in a code fence, and another share
carry a key outside the schema, so the client's fence stripping and its
`schema.repair` pass both run. Which replies are altered depends only on
the seed and the query text, not on arrival order.

    python3 benchmarks/stub_llm.py --seed 7 --delay-ms 5

It prints `READY <port>` once listening and serves until stdin closes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cbrs.layer2 import parse_rules  # noqa: E402
from cbrs.schema import serialize  # noqa: E402

FENCED_SHARE = 0.04
MALFORMED_SHARE = 0.04


def query_of(prompt: str) -> str:
    """The message text: the last `Text Message:` part of a rendered prompt."""
    tail = prompt.rpartition("Text Message: ")[2]
    return tail.partition("\n\nInstruction: ")[0]


def reply_for(query: str, seed: int) -> str:
    reply = serialize(parse_rules(query).outcome)
    draw = int.from_bytes(hashlib.blake2b(f"{seed}:{query}".encode(), digest_size=8).digest(), "big") / 2**64
    if draw < FENCED_SHARE:
        return f"```json\n{reply}\n```"
    if draw < FENCED_SHARE + MALFORMED_SHARE:
        obj = json.loads(reply)
        obj["confidence"] = "high"  # not a schema key; repair drops it
        return json.dumps(obj, ensure_ascii=False)
    return reply


def make_server(seed: int, delay: float) -> ThreadingHTTPServer:
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self) -> None:
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            content = reply_for(query_of(body["messages"][-1]["content"]), seed)
            time.sleep(delay)
            payload = json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args) -> None:
            pass

    return ThreadingHTTPServer(("127.0.0.1", 0), Handler)


def main() -> int:
    ap = argparse.ArgumentParser(description="stub chat-completion server")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--delay-ms", type=float, required=True)
    args = ap.parse_args()
    server = make_server(args.seed, args.delay_ms / 1000)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"READY {server.server_address[1]}", flush=True)
    sys.stdin.read()
    server.shutdown()
    server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
