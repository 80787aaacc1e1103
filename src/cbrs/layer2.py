"""Layer-2: prompt construction and the pluggable parser backends.

The second layer does double duty in a single call: it filters out messages
the first layer wrongly let through (by emitting the negative flag) and
parses true requests into the fixed schema. Two backends share one
interface: a remote chat-completion endpoint, and a deterministic
rule-based extractor so the full pipeline runs offline.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import re
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from importlib import resources
from typing import Any

from . import schema
from .schema import Contact, Compensation, ParsedRequest, ParseOutcome, Patient

log = logging.getLogger(__name__)

API_KEY_ENV = "CBRS_LLM_API_KEY"

CLOSING_INSTRUCTION = "Output only the valid JSON response. No explanations."

# The sampling values sent with every remote parse.
_SAMPLING = {"temperature": 0.7, "top_p": 0.8, "top_k": 35}
# The remote policy: seconds a request may take, attempts per parse, and
# parses in flight at once per backend.
_TIMEOUT_SECONDS = 30.0
_ATTEMPTS = 3
_MAX_IN_FLIGHT = 4

_TOKEN_UNIT = re.compile(r"\w+|[^\w\s]", re.UNICODE)


class PromptError(Exception):
    """Prompt construction failed (e.g. not enough exemplars)."""


class BackendError(Exception):
    """Remote backend failed after exhausting its retry budget."""


@dataclass(frozen=True)
class Exemplar:
    text: str
    parsed_json: str  # serialized outcome, embedded verbatim in the prompt


@dataclass(frozen=True)
class PromptBundle:
    system_text: str
    exemplars: tuple[Exemplar, ...]
    query_text: str
    token_estimate: int

    def render(self) -> str:
        parts = [self.system_text]
        if self.exemplars:
            parts.append("Examples:")
            for ex in self.exemplars:
                parts.append(f"Text Message: {ex.text}\nOutput: {ex.parsed_json}")
        parts.append(f"Text Message: {self.query_text}")
        parts.append(f"Instruction: {CLOSING_INSTRUCTION}")
        return "\n\n".join(parts)


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "rules"  # "remote" | "rules"
    endpoint: str = ""
    model: str = ""
    mode: str = "few_shot"  # "few_shot" | "zero_shot"
    audit_path: str = ""  # set only in code: no config key or flag reaches it


@dataclass(frozen=True)
class ParseRecord:
    outcome: ParseOutcome | None  # None on unrepairable backend failure
    input_tokens: int
    output_tokens: int
    latency_seconds: float
    backend: str
    repair_applied: bool = False
    error: str = ""
    raw_reply: str = ""

    @property
    def failed(self) -> bool:
        return self.outcome is None


def estimate_tokens(text: str) -> int:
    """Whitespace+punctuation token count; a documented approximation used
    when the remote API omits usage data."""
    return len(_TOKEN_UNIT.findall(text))


_SCHEMA_TEXT = """Schema:
- blood_group: one of [A+, A-, B+, B-, O+, O-, AB+, AB-] or ""
- bags_needed: string (e.g., "3" or "3-4")
- patient: {name, gender [M/F/""], age_group [child/teenager/young/adult/""]}
- condition: comma-separated medical conditions or status
- location, hospital_name: as stated
- location_markers: list of city/region tokens
- probable_day: one of [DD/MM, DD/MM/YYYY, today, tomorrow, n days later]
- probable_time: one of [HH:MM, before HH:MM, after HH:MM, HH:MM-HH:MM, in n hours] (24-hr format)
- contacts: list of {name, contact_numbers [...], relation_with_patient}
- compensation: {transportation: [Y/N/""], allowance: [Y/N/""]}"""

_SYSTEM_TEXT = f"""You will be provided with a message, typically sent by an individual or organization, which may pertain to a request for blood donation. Your task is to determine whether the message is a blood donation request, and if yes, then to extract the necessary information.

Instructions:
- If the message is not a blood donation request, respond with: {{"is_blood_donation_request": false}}. No other fields are required.
- If it is a request, extract relevant information into a well-structured JSON object strictly conforming to the schema.
- Set fields to "" if not stated explicitly in the message.

{_SCHEMA_TEXT}"""


@functools.cache
def _bundled_exemplars() -> tuple[tuple[Exemplar, ...], tuple[Exemplar, ...]]:
    raw = resources.files("cbrs.data").joinpath("exemplars.json").read_text("utf-8")
    data = json.loads(raw)
    def load(items: list[dict]) -> tuple[Exemplar, ...]:
        return tuple(
            Exemplar(
                text=item["text"],
                parsed_json=json.dumps(item["parsed"], ensure_ascii=False, separators=(",", ":")),
            )
            for item in items
        )
    return load(data["positive"]), load(data["negative"])


def default_exemplars() -> tuple[list[Exemplar], list[Exemplar]]:
    """The bundled exemplar fixture: (positives, negatives).

    The file is read once; each call returns new lists of the frozen
    exemplars, so no caller can change what the next one gets.
    """
    positives, negatives = _bundled_exemplars()
    return list(positives), list(negatives)


def build_prompt(
    text: str,
    mode: str = "few_shot",
    exemplar_set: tuple[list[Exemplar], list[Exemplar]] | None = None,
) -> PromptBundle:
    """Deterministic prompt: instructions, schema, exemplars, final query.

    Few-shot mode embeds exactly 3 positive and 2 negative worked examples,
    in fixed order; zero-shot keeps the schema but omits the examples.
    """
    if mode not in ("few_shot", "zero_shot"):
        raise PromptError(f"unknown prompt mode {mode!r}")
    exemplars: tuple[Exemplar, ...] = ()
    if mode == "few_shot":
        positives, negatives = exemplar_set if exemplar_set is not None else default_exemplars()
        if len(positives) < 3 or len(negatives) < 2:
            raise PromptError(
                f"few-shot mode needs >= 3 positive and >= 2 negative exemplars, "
                f"got {len(positives)} and {len(negatives)}"
            )
        exemplars = (*positives[:3], *negatives[:2])
    return PromptBundle(
        system_text=_SYSTEM_TEXT,
        exemplars=exemplars,
        query_text=text,
        token_estimate=_frame_tokens(exemplars) + estimate_tokens(text),
    )


@functools.lru_cache(maxsize=16)
def _frame_tokens(exemplars: tuple[Exemplar, ...]) -> int:
    """Tokens of a rendered prompt other than its query text's.

    Whitespace separates the query from the text around it and no token
    spans whitespace, so a prompt's count is this plus the query's.
    """
    return estimate_tokens(PromptBundle(_SYSTEM_TEXT, exemplars, "", 0).render())


def strip_code_fences(reply: str) -> str:
    text = reply.strip()
    if text.startswith("```"):
        text = re.sub(r"^```[a-zA-Z0-9_-]*\n?", "", text)
        if text.endswith("```"):
            text = text[: -3]
    return text.strip()


def _interpret_reply(reply: str) -> tuple[ParseOutcome | None, bool, str]:
    """Load the reply's JSON once, validate it, then repair once. Returns
    (outcome, repair_applied, error). A reply whose JSON is not an object (a
    string holding one too) is unrepairable, and so is an outcome holding a
    string that is not text (a lone surrogate, which no UTF-8 snapshot can
    hold)."""
    try:
        obj = json.loads(strip_code_fences(reply))
    except json.JSONDecodeError as exc:
        return None, False, f"$: invalid JSON: {exc.msg}"
    if not isinstance(obj, dict):
        obj = None  # validate refuses it as no object; a string it would load again
    result = schema.validate(obj)
    outcome = result if isinstance(result, ParseOutcome) else schema.repair(obj)
    if outcome is None:
        return None, False, "; ".join(str(e) for e in result)
    try:
        schema.serialize(outcome).encode("utf-8")
    except UnicodeEncodeError:
        return None, False, "reply holds a string that is not text"
    return outcome, outcome is not result, ""


# Held while a line is appended to an audit log, so that concurrent parses
# never interleave their lines.
_AUDIT_LOCK = threading.Lock()


def _extract_reply_text(payload: dict[str, Any]) -> str:
    try:
        return payload["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        pass
    for key in ("content", "text"):
        value = payload.get(key)
        if isinstance(value, str):
            return value
    raise BackendError("reply contains no model text in a known field")


def parse_remote(cfg: BackendConfig, bundle: PromptBundle) -> ParseRecord:
    """POST the prompt to a chat-completion endpoint and interpret the reply.

    Makes up to `_ATTEMPTS` attempts of `_TIMEOUT_SECONDS` each. Schema
    violations get one repair pass; an unrepairable reply produces an error
    record with the raw reply preserved for audit.
    """
    if cfg.kind != "remote":
        raise ValueError("parse_remote requires a remote backend config")
    body = json.dumps(
        {
            "model": cfg.model,
            "messages": [
                {"role": "system", "content": bundle.system_text},
                {"role": "user", "content": bundle.render()},
            ],
            **_SAMPLING,
        }
    ).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(API_KEY_ENV, "")
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"

    started = time.perf_counter()
    last_error: Exception | None = None
    for attempt in range(_ATTEMPTS):
        try:
            req = urllib.request.Request(cfg.endpoint, data=body, headers=headers, method="POST")
            with urllib.request.urlopen(req, timeout=_TIMEOUT_SECONDS) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
            break
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            last_error = exc
            log.warning("remote parse attempt %d failed: %s", attempt + 1, exc)
    else:
        raise BackendError(f"remote backend unreachable after {_ATTEMPTS} attempts: {last_error}")

    latency = time.perf_counter() - started
    reply_text = _extract_reply_text(payload)
    usage = payload.get("usage", {})
    input_tokens = int(usage.get("prompt_tokens", bundle.token_estimate))
    output_tokens = int(usage.get("completion_tokens", estimate_tokens(reply_text)))

    outcome, repaired, error = _interpret_reply(reply_text)
    # Line-delimited JSON, escaped to ASCII so that `json.loads` gives back
    # any raw reply verbatim, one holding a lone surrogate too.
    if cfg.audit_path:
        entry = {
            "backend": cfg.model or "remote",
            "query": bundle.query_text,
            "raw_reply": reply_text,
            "repair_applied": repaired,
            "error": error,
        }
        line = json.dumps(entry) + "\n"
        with _AUDIT_LOCK, open(cfg.audit_path, "a", encoding="utf-8") as fh:
            fh.write(line)
    return ParseRecord(
        outcome=outcome,
        input_tokens=input_tokens,
        output_tokens=output_tokens,
        latency_seconds=latency,
        backend=cfg.model or "remote",
        repair_applied=repaired,
        error=error,
        raw_reply=reply_text,
    )


# --------------------------------------------------------------------------
# Rule-based backend

_REQUEST_KEYWORDS = (
    "dorkar", "lagbe", "proyojon", "needed", "need", "urgent", "urgently",
    "joruri", "emergency", "দরকার", "লাগবে", "প্রয়োজন", "জরুরি",
)

# Appreciation posts and donor self-offers mention blood groups without
# being requests; without an explicit need keyword they stay negative.
_NON_REQUEST_MARKERS = (
    "grateful", "thank", "dhonnobad", "ধন্যবাদ", "donated", "for donating",
    "dite ichchhuk", "donate korte raji", "i can donate", "donation camp",
    "donation completed", "peye gechi", "peye gesi",
)

_BN_GROUP_LETTER = {"এ": "A", "বি": "B", "ও": "O", "এবি": "AB"}
_BN_SIGN = {"পজিটিভ": "+", "পজেটিভ": "+", "নেগেটিভ": "-", "নেগেটিব": "-"}

_GROUP_CORE = r"(AB|A|B|O)"
_BLOOD_PATTERNS = (
    # "O-", "AB+", "(B-)", "O+ve", "AB-ve"
    re.compile(rf"\b{_GROUP_CORE}\s?([+-])(?:ve\b)?(?!\w)", re.IGNORECASE),
    # "O negative", "AB positive"
    re.compile(rf"\b{_GROUP_CORE}\s+(positive|negative)\b", re.IGNORECASE),
    # Bengali script: "ও নেগেটিভ", "এবি পজিটিভ"
    re.compile(r"(এবি|এ|বি|ও)\s*(পজিটিভ|পজেটিভ|নেগেটিভ|নেগেটিব)"),
)

_BAGS = re.compile(r"\b(\d+(?:\s*-\s*\d+)?)\s*(?:bags?|units?|ব্যাগ)", re.IGNORECASE)
_PHONE = re.compile(r"\+?[\d০-৯][\d০-৯Xx\-]{8,}")
# Slash dates may omit the year; dash dates must carry one, otherwise bag
# ranges like "2-3" would read as dates. A year has 4 digits or 2.
_DATE_SLASH = re.compile(r"\b(\d{1,2})/(\d{1,2})(?:/(\d{4}|\d{2}))?\b")
_DATE_DASH = re.compile(r"\b(\d{1,2})-(\d{1,2})-(\d{4}|\d{2})\b")
_TIME = re.compile(r"\b([01]?\d|2[0-3])[:.]([0-5]\d)\b")
_TIME_AMPM = re.compile(r"\b(\d{1,2})\s*(am|pm)\b", re.IGNORECASE)

_TODAY_WORDS = ("today", "tonight", "aj", "ajke", "ajkei", "আজ", "আজকে", "আজই")
_TOMORROW_WORDS = ("tomorrow", "agamikal", "আগামীকাল")
_BEFORE_WORDS = ("before", "by", "moddhe", "মধ্যে", "age", "আগে")
_AFTER_WORDS = ("after", "pore", "পরে")

_HOSPITAL = re.compile(
    r"((?:[A-Z][\w&.()'-]*\s+){0,4}(?:Medical\s+College(?:\s+Hospital)?|Hospital|Clinic|"
    r"Foundation(?:\s+&?\s*\w+)*\s+Institute|Institute|Health\s+Complex|Medical))",
)


def _find_blood_group(text: str) -> str:
    m = _BLOOD_PATTERNS[0].search(text)
    if m:
        return m.group(1).upper() + m.group(2)
    m = _BLOOD_PATTERNS[1].search(text)
    if m:
        sign = "+" if m.group(2).lower() == "positive" else "-"
        return m.group(1).upper() + sign
    m = _BLOOD_PATTERNS[2].search(text)
    if m:
        return _BN_GROUP_LETTER[m.group(1)] + _BN_SIGN[m.group(2)]
    return ""


_BN_DIGITS = str.maketrans("০১২৩৪৫৬৭৮৯", "0123456789")


def _find_bags(text: str) -> str:
    m = _BAGS.search(text.translate(_BN_DIGITS))
    if not m:
        return ""
    return re.sub(r"\s*-\s*", "-", m.group(1))


def _find_phones(text: str) -> list[str]:
    numbers = []
    for m in _PHONE.finditer(text):
        token = m.group(0)
        significant = sum(1 for ch in token if ch.isdigit() or ch in "Xx")
        if significant >= 10:
            numbers.append(token)
    return numbers


def _find_day(text: str) -> str:
    lowered = text.translate(_BN_DIGITS).casefold()
    words = set(re.findall(r"[\wঀ-৿]+", lowered))
    if words & {w.casefold() for w in _TODAY_WORDS}:
        return "today"
    if words & {w.casefold() for w in _TOMORROW_WORDS}:
        return "tomorrow"
    m = _DATE_SLASH.search(lowered) or _DATE_DASH.search(lowered)
    if m:
        day, month, year = m.group(1), m.group(2), m.group(3)
        if year is None:
            return f"{int(day):02d}/{int(month):02d}"
        if len(year) == 2:
            year = "20" + year
        return f"{int(day):02d}/{int(month):02d}/{year}"
    m = re.search(r"\b(\d+)\s+days?\s+later\b", lowered)
    if m:
        return f"{m.group(1)} days later"
    return ""


def _find_time(text: str) -> str:
    lowered = text.translate(_BN_DIGITS).casefold()
    m = _TIME.search(lowered)
    if m:
        clock = f"{int(m.group(1)):02d}:{m.group(2)}"
    else:
        m = _TIME_AMPM.search(lowered)
        if m is None:
            return ""
        hour = int(m.group(1)) % 12
        if m.group(2) == "pm":
            hour += 12
        clock = f"{hour:02d}:00"
    context = lowered[max(0, m.start() - 24) : m.end() + 24]
    context_words = set(re.findall(r"[\wঀ-৿]+", context))
    if context_words & set(_BEFORE_WORDS):
        return f"before {clock}"
    if context_words & set(_AFTER_WORDS):
        return f"after {clock}"
    return clock


def _find_hospital(text: str) -> str:
    m = _HOSPITAL.search(text)
    if m:
        return m.group(1).strip()
    return ""


def _gazetteer_markers(text: str) -> list[str]:
    from .dispatch import gazetteer  # local import; dispatch depends on schema only

    lowered = text.casefold()
    words = set(re.findall(r"[\wঀ-৿]+", lowered))
    markers = []
    for name in gazetteer():
        if name in words:
            markers.append(name.title())
    return markers


def parse_rules(text: str) -> ParseRecord:
    """Deterministic regex/lexicon extraction; total over arbitrary input.

    Emits the negative flag when neither a blood group nor a request keyword
    is found, and for appreciation/self-offer posts that carry no need
    keyword. Patient name/gender/age are deliberately left empty: those
    fields are too noisy for rules, and empty is schema-legal.
    """
    started = time.perf_counter()
    lowered = text.casefold()
    group = _find_blood_group(text)
    has_keyword = any(k.casefold() in lowered for k in _REQUEST_KEYWORDS)
    non_request = any(m in lowered for m in _NON_REQUEST_MARKERS)
    if (not group and not has_keyword) or (non_request and not has_keyword):
        outcome = ParseOutcome.negative()
    else:
        phones = _find_phones(text)
        contacts = (
            (Contact(name="", contact_numbers=tuple(phones), relation_with_patient=""),)
            if phones
            else ()
        )
        hospital = _find_hospital(text)
        markers = _gazetteer_markers(text)
        request = ParsedRequest(
            blood_group=group,
            bags_needed=_find_bags(text),
            patient=Patient(),
            condition="",
            location=hospital or (markers[0] if markers else ""),
            hospital_name=hospital,
            location_markers=tuple(markers),
            probable_day=_find_day(text),
            probable_time=_find_time(text),
            contacts=contacts,
            compensation=Compensation(),
        )
        outcome = ParseOutcome.positive(schema.canonicalize(request))
    latency = time.perf_counter() - started
    serialized = schema.serialize(outcome)
    return ParseRecord(
        outcome=outcome,
        input_tokens=estimate_tokens(text),
        output_tokens=estimate_tokens(serialized),
        latency_seconds=latency,
        backend="rules",
    )


# --------------------------------------------------------------------------
# Uniform backend interface


class Backend:
    """A parser backend: text in, ParseRecord out."""

    name = "backend"

    def parse(self, text: str) -> ParseRecord:
        raise NotImplementedError


class RulesBackend(Backend):
    name = "rules"

    def parse(self, text: str) -> ParseRecord:
        return parse_rules(text)


class RemoteBackend(Backend):
    def __init__(self, cfg: BackendConfig):
        if cfg.kind != "remote":
            raise ValueError("RemoteBackend needs a remote backend config")
        self.cfg = cfg
        self.name = cfg.model or "remote"
        self._slots = threading.Semaphore(_MAX_IN_FLIGHT)

    def parse(self, text: str) -> ParseRecord:
        bundle = build_prompt(text, mode=self.cfg.mode)
        with self._slots:
            return parse_remote(self.cfg, bundle)


def make_backend(cfg: BackendConfig) -> Backend:
    if cfg.kind == "rules":
        return RulesBackend()
    if cfg.kind == "remote":
        return RemoteBackend(cfg)
    raise ValueError(f"unknown backend kind {cfg.kind!r}")
