"""Donor registry and the staged notification protocol.

Donors are matched to a request by exact blood group and an eligibility
window since their last donation, ranked by great-circle distance to the
request's gazetteer anchor. Ranking reads per-blood-group numpy columns
(coordinates in radians, the cosine of the latitude, last-donation day)
and two orders of their rows, by recency and by latitude. With an anchor,
only a band of the latitude order around it is read: the band grows until
no row outside it, being at least its latitude gap away, can come within
the k-th nearest eligible row inside it. A vectorized distance term and
`np.partition` pick the band's top-k candidates, and only those are
re-sorted with the exact scalar key, so the order equals a full sort of
every match. Without an anchor, growing prefixes of the recency order are
read until they hold k eligible rows. Restore fills every group's columns
and orders; from then on they are updated in place (a registration
appends a row, an update rewrites one, a change of group moves it), so no
ranking rescans the registry.
A donor comes in by the HTTP service, a scenario line or a snapshot, and
the same rules hold for all three: `put_donor` is the one write rule
(an unknown id registers, a known one changes the fields given) and
`check_donor` the one check of a record's values, so every row holds a
group of `schema.BLOOD_GROUPS` and coordinates in range.
Notifications go out in stages bounded by an urgency-derived depth; a
per-request ledger guarantees nobody is notified twice, alerts stop at the
first affirmative, and a managed/resolved edit fans out exactly one
resolution notice per previously notified donor. Every outbound event is
queued by one emitter, stamped with the clock's tick.

All time comes from an injected clock (logical in simulation, wall clock
in service mode), so scenario runs are deterministic.

The donors, cases and ledger entries are three tables of a
`journal.Journal`, which saves them to a snapshot file.
"""

from __future__ import annotations

import bisect
import functools
import gc
import logging
import math
from dataclasses import dataclass, replace
from datetime import date, timedelta
from importlib import resources
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import schema
from .journal import SNAPSHOT_VERSION, Journal, SnapshotError
from .records import (
    EXPIRED, FULFILLED, OPEN, RESOLVED_EXTERNALLY, DonorRecord, FieldError, LedgerEntry, RequestCase,
)
from .schema import ParsedRequest, ParseOutcome

log = logging.getLogger(__name__)

EARTH_RADIUS_KM = 6371.0

_TERMINAL = (FULFILLED, RESOLVED_EXTERNALLY, EXPIRED)
# What a ledger entry records of the donor's answer.
_RESPONSES = ("none", "affirmative", "negative")

# Markers that an edited message announces the request is already handled.
MANAGED_MARKERS = (
    "managed",
    "collected",
    "resolved",
    "solved",
    "no longer needed",
    "lagbe na",
    "hoye geche",
    "hoye gese",
    "peye gechi",
    "peye gesi",
    "সংগৃহীত",
    "সংগ্রহ হয়েছে",
    "ম্যানেজ",
    "হয়ে গেছে",
    "লাগবে না",
)


class DispatchError(ValueError):
    """Invalid dispatch operation (bad coordinates, unknown ledger pair, ...)."""


@dataclass
class Clock:
    """Logical clock counting seconds; date anchored to epoch_date."""

    now: int = 0
    epoch_date: date = date(2025, 1, 1)

    def advance(self, seconds: int) -> int:
        if seconds < 0:
            raise ValueError("cannot advance backwards")
        self.now += seconds
        return self.now

    def advance_to(self, tick: int) -> int:
        if tick < self.now:
            raise ValueError(f"cannot rewind clock from {self.now} to {tick}")
        self.now = tick
        return self.now

    def today(self) -> date:
        return self.epoch_date + timedelta(seconds=self.now)


_NEVER_DONATED = np.iinfo(np.int64).min  # last-donation day of a donor who never gave

# Rows whose vectorized haversine term lies within this margin of the k-th
# smallest stay candidates for the exact re-sort. numpy and `math` may
# disagree in the last ulps of each sin/cos and of the radian conversion
# (longitudes are differenced in radians here, in degrees by
# `haversine_km`): about 1e-15 relative to the term and 1e-15 * sqrt(term)
# absolute. The margin exceeds both by three orders of magnitude; its
# floor covers rows a few ulps from the anchor, where the term is ~0.
_REL_MARGIN = 1e-9
_SQRT_MARGIN = 1e-12
_ABS_MARGIN = 1e-24


def _margin(term: float) -> float:
    return _REL_MARGIN * term + _SQRT_MARGIN * math.sqrt(term) + _ABS_MARGIN


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in km on a sphere of radius 6371.0 km."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


@functools.cache
def gazetteer() -> dict[str, tuple[float, float]]:
    """Bundled marker -> (lat, lon) table; keys are casefolded."""
    table: dict[str, tuple[float, float]] = {}
    text = resources.files("cbrs.data").joinpath("gazetteer.tsv").read_text("utf-8")
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        name, lat, lon = line.split("\t")
        table[name.casefold()] = (float(lat), float(lon))
    return table


def geocode_markers(markers: Iterable[str]) -> tuple[float, float] | None:
    """Anchor = coordinates of the first marker the gazetteer resolves."""
    table = gazetteer()
    for marker in markers:
        hit = table.get(marker.strip().casefold())
        if hit is not None:
            return hit
    return None


def resolve_deadline(request: ParsedRequest, created_at: int, epoch_date: date) -> int | None:
    """Absolute tick the request must be satisfied by, or None.

    "in n hours" counts from creation; "before HH:MM", plain times and
    ranges (from their start) bind to the stated (or creation) date; a bare
    date means end of that day. "after HH:MM" opens a window rather than
    closing one, so it carries no deadline of its own.
    """
    relation, amount = schema.read_time(request.probable_time) or ("", 0)
    if relation == "in":
        return created_at + amount * 3600
    created_date = epoch_date + timedelta(seconds=created_at)
    the_date = schema.read_day(request.probable_day, created_date)
    if relation in ("before", "at"):
        minutes = amount
    elif the_date is not None:
        minutes = 23 * 60 + 59
    else:
        return None
    return ((the_date or created_date) - epoch_date).days * 86400 + minutes * 60


def urgency_depth(case: RequestCase, epoch_date: date = Clock.epoch_date) -> int:
    """Stage depth from the parsed urgency signals.

    "today" or a hard "before HH:MM" deadline scales to 3 stages; "tomorrow"
    or a date within 48 hours of case creation to 2; anything else to 1.
    """
    day = case.request.probable_day
    relation, _ = schema.read_time(case.request.probable_time) or ("", 0)
    if day == "today" or relation == "before":
        return 3
    created = epoch_date + timedelta(seconds=case.created_at)
    resolved = schema.read_day(day, created)
    if resolved is not None and resolved - created <= timedelta(hours=48):
        return 2
    return 1


def check_donor(blood_group: str, latitude: float, longitude: float) -> None:
    """DispatchError naming every value a donor record may not hold."""
    problems = []
    if not -90.0 <= latitude <= 90.0:
        problems.append(f"latitude {latitude} outside [-90, 90]")
    if not -180.0 <= longitude <= 180.0:
        problems.append(f"longitude {longitude} outside [-180, 180]")
    if blood_group not in schema.BLOOD_GROUPS:
        problems.append(f"blood_group {blood_group!r} not one of {schema.BLOOD_GROUPS}")
    if problems:
        raise DispatchError("; ".join(problems))


def _check_one_of(name: str, value: str, allowed: tuple[str, ...]) -> None:
    if value not in allowed:
        raise DispatchError(f"{name} {value!r} not one of {allowed}")


def check_staging(knobs: dict[str, int]) -> None:
    """ValueError naming every staging knob below its least value. `knobs`
    maps the names the caller reads them by to the stage size, the stage
    timeout and the eligibility window in days, in that order: a stage
    alerts at least one donor and waits at least one second before the
    next, and the eligibility window is not negative."""
    low = [
        f"{name} must be at least {least}, got {value}"
        for (name, value), least in zip(knobs.items(), (1, 1, 0))
        if value < least
    ]
    if low:
        raise ValueError("; ".join(low))


def detect_managed_marker(text: str) -> bool:
    lowered = text.casefold()
    return any(marker in lowered for marker in MANAGED_MARKERS)


class _GroupIndex:
    """Columns of one blood group's donors, kept current in place.

    Row i of `_lat` and `_lon` (radians), `_cos` (the cosine of `_lat`)
    and `_last` (last-donation day) describes `members[i]`, the record
    object the engine's registry holds; rows from `len(members)` on are
    spare. Row order carries no meaning: `nearest` re-sorts its
    candidates by the exact scalar key and `newest` follows `recency`, a
    total order. A registration appends a row, an update rewrites one, and
    a removal moves the last row into the hole. The arrays grow
    geometrically, so n appends cost O(n).

    Two orders of the rows are kept as well. `recency` orders them newest
    registration first, then by donor id; `_by_lat` orders them by
    latitude, with `_lat_sorted` the latitudes in that order (ties in any
    order). Appended rows wait past `_placed` until the next ranking
    places them in both (`_settle`), and a removal drops its row from
    both. An update keeps a donor's registration time and id, so it keeps
    the recency order; an update that changes the latitude of a placed row
    moves it in the latitude order. Every record passed `check_donor` on
    its way in, so its latitude equals itself and `_row` finds it among
    the rows of that latitude.
    """

    def __init__(self, members: list[DonorRecord]):
        self.members = members
        self._lat = np.radians([d.latitude for d in members])
        self._lon = np.radians([d.longitude for d in members])
        self._cos = np.cos(self._lat)
        self._last = np.array(
            [
                d.last_donation_date.toordinal() if d.last_donation_date else _NEVER_DONATED
                for d in members
            ],
            dtype=np.int64,
        )
        self._recency = self._order()
        self._by_lat = np.argsort(self._lat)
        self._lat_sorted = self._lat[self._by_lat]
        self._placed = len(members)  # rows below this are in both orders; the rest wait

    @property
    def recency(self) -> np.ndarray:
        """The rows in recency order."""
        self._settle()
        return self._recency

    def _settle(self) -> None:
        """Place the rows appended since the last call in both orders. In
        recency they are sorted among themselves and bisected into the
        previous order, about log n key reads each; past n / log n of
        them, one full sort is cheaper. In latitude order they are sorted
        and placed by `np.searchsorted`."""
        n = len(self.members)
        if self._placed == n:
            return
        fresh = range(self._placed, n)
        if len(fresh) * len(self._recency).bit_length() > n:
            self._recency = self._order()
        else:
            rows = sorted(fresh, key=self._key)
            at = [bisect.bisect_left(self._recency, self._key(row), key=self._key) for row in rows]
            self._recency = np.insert(self._recency, at, rows)
        self._place_lat(np.arange(self._placed, n))
        self._placed = n

    def _key(self, row: int) -> tuple[int, str]:
        donor = self.members[row]
        return -donor.registered_at, donor.donor_id

    def _order(self) -> np.ndarray:
        # lexsort's last key is the primary one.
        return np.lexsort(
            (
                np.array([d.donor_id for d in self.members], dtype=str),
                -np.array([d.registered_at for d in self.members], dtype=np.int64),
            )
        )

    def _row(self, donor: DonorRecord) -> int:
        """The row holding this very record object."""
        for row in np.flatnonzero(self._lat[: len(self.members)] == np.radians(donor.latitude)):
            if self.members[row] is donor:
                return int(row)
        raise DispatchError(f"donor {donor.donor_id} is not in this group's columns")

    def _place_lat(self, rows: np.ndarray) -> None:
        """Insert rows missing from the latitude order, at their `_lat`."""
        lats = self._lat[rows]
        order = np.argsort(lats)
        at = self._lat_sorted.searchsorted(lats[order])
        self._by_lat = np.insert(self._by_lat, at, rows[order])
        self._lat_sorted = np.insert(self._lat_sorted, at, lats[order])

    def _unplace_lat(self, row: int) -> None:
        """Drop a placed row from the latitude order."""
        lo = int(self._lat_sorted.searchsorted(self._lat[row], side="left"))
        hi = int(self._lat_sorted.searchsorted(self._lat[row], side="right"))
        at = lo + int(np.flatnonzero(self._by_lat[lo:hi] == row)[0])
        self._by_lat = np.delete(self._by_lat, at)
        self._lat_sorted = np.delete(self._lat_sorted, at)

    def put(self, donor: DonorRecord, old: DonorRecord | None = None) -> None:
        """Write `donor` into the row of `old`, the record it replaces, or
        into a new row."""
        lat = np.radians(donor.latitude)
        moved = False  # a placed row whose latitude changes
        if old is None:
            row = len(self.members)
            self.members.append(donor)
            if row == len(self._lat):  # full: rows past len(members) are never read
                size = 2 * row + 16
                self._lat, self._lon, self._cos, self._last = (
                    np.resize(column, size) for column in (self._lat, self._lon, self._cos, self._last)
                )
        else:
            row = self._row(old)
            self.members[row] = donor
            moved = row < self._placed and lat != self._lat[row]
            if moved:
                self._unplace_lat(row)
        self._lat[row] = lat
        self._lon[row] = np.radians(donor.longitude)
        self._cos[row] = np.cos(lat)
        last = donor.last_donation_date
        self._last[row] = last.toordinal() if last else _NEVER_DONATED
        if moved:
            self._place_lat(np.array([row]))

    def remove(self, donor: DonorRecord) -> None:
        """Drop the row of this record object; the last row moves into the hole."""
        row = self._row(donor)
        self._settle()  # every row placed, so the renaming below reaches all
        self._unplace_lat(row)
        recency = self._recency[self._recency != row]
        moved = self.members.pop()
        end = len(self.members)
        if row != end:
            self.members[row] = moved
            for column in (self._lat, self._lon, self._cos, self._last):
                column[row] = column[end]
            recency[recency == end] = row
            self._by_lat[self._by_lat == end] = row
        self._recency = recency
        self._placed = end

    def _term(self, rows: np.ndarray, p: float, q: float) -> np.ndarray:
        """The haversine term of `rows` to the point at radians (p, q)."""
        return (
            np.sin((self._lat[rows] - p) / 2) ** 2
            + math.cos(p) * self._cos[rows] * np.sin((self._lon[rows] - q) / 2) ** 2
        )

    def nearest(self, cutoff: int, anchor: tuple[float, float], k: int) -> list[DonorRecord]:
        """The k (at least 1) rows last donating on or before day `cutoff`
        nearest `anchor`, ordered by the exact scalar key (distance,
        registration, donor id).

        Only a band of the latitude order around the anchor is read, at
        first the k rows either side of its latitude. No row outside the
        band has a term below sin²(gap / 2), gap being the latitude
        distance to the nearest of them. Once the band holds k eligible
        rows whose k-th smallest term, plus its margin, lies below that
        bound less the same margin, every row outside lies past the k-th
        term's margin, so the candidates are the ones a scan of the whole
        group keeps. Until then the band's half-width grows to twice the
        gap, or further: the k-th term also gives a reach, the latitude
        distance past which no row can be a candidate, and when the reach
        is wider than twice the gap, the half-width is the geometric mean
        of the two. A band that grows to the whole group is that scan.
        """
        self._settle()
        lat, lon = anchor
        p, q = math.radians(lat), math.radians(lon)
        lats = self._lat_sorted
        n = len(lats)
        mid = int(lats.searchsorted(p))
        lo, hi = max(mid - k, 0), min(mid + k, n)
        while True:
            rows = self._by_lat[lo:hi]
            rows = rows[self._last[rows] <= cutoff]
            gap = min(p - lats[lo - 1] if lo else math.inf, lats[hi] - p if hi < n else math.inf)
            if len(rows) >= k:
                term = self._term(rows, p, q)
                kth = np.partition(term, k - 1)[k - 1]
                limit = kth + _margin(kth)
                floor = math.sin(min(gap, math.pi) / 2) ** 2
                if gap == math.inf or limit < floor - _margin(floor):
                    rows = rows[term <= limit]
                    break
                reach = 2 * math.asin(math.sqrt(min(limit, 1.0)))
                width = max(2 * gap, math.sqrt(2 * gap * reach))
            elif gap == math.inf:
                break
            else:
                width = 2 * gap
            lo = int(lats.searchsorted(p - width))
            hi = int(lats.searchsorted(p + width, side="right"))
        candidates = [self.members[i] for i in rows]
        candidates.sort(
            key=lambda d: (
                haversine_km(d.latitude, d.longitude, lat, lon),
                d.registered_at,
                d.donor_id,
            )
        )
        return candidates[:k]

    def newest(self, cutoff: int, k: int) -> list[DonorRecord]:
        """The first k rows in recency order last donating on or before day
        `cutoff`, read from prefixes of the order that double until they
        hold k of them."""
        recency = self.recency
        end = k
        while True:
            head = recency[:end]
            head = head[self._last[head] <= cutoff]
            if len(head) >= k or end >= len(recency):
                return [self.members[i] for i in head[:k]]
            end *= 2


def _group_columns(donors: Iterable[DonorRecord]) -> dict[str, _GroupIndex]:
    """The columns of every group of `schema.BLOOD_GROUPS`, empty or not,
    their rows in the order of `donors`."""
    members: dict[str, list[DonorRecord]] = {group: [] for group in schema.BLOOD_GROUPS}
    for donor in donors:
        members[donor.blood_group].append(donor)
    return {group: _GroupIndex(rows) for group, rows in members.items()}


class DispatchEngine:
    """Owns the donor registry, open cases, and the notification ledger.

    Mutations for one request are serialized by construction (single
    thread per engine instance); outbound notification events accumulate
    on a queue consumed by the gateway. Change records only through these
    methods: they mark what `persist` must write.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        stage_size: int = 5,
        stage_timeout: int = 600,
        eligibility_days: int = 90,
    ):
        check_staging(
            {"stage_size": stage_size, "stage_timeout": stage_timeout, "eligibility_days": eligibility_days}
        )
        self.clock = clock or Clock()
        self.stage_size = stage_size
        self.stage_timeout = stage_timeout
        self.eligibility_days = eligibility_days
        self.journal = Journal(_Meta)
        for table in _TABLES:
            self.journal.register(*table)
        self.case_by_message: dict[str, str] = {}
        # request_id -> donor_id -> the entry also held in `ledger`
        self._entries: dict[str, dict[str, LedgerEntry]] = {}
        # blood group -> columns of its donors: filled by restore, then kept
        # current by every registration and update (`_store`)
        self._groups: dict[str, _GroupIndex] = _group_columns(())
        self.outbound: list[dict] = []
        self.outbound_saved = 0  # the first events of `outbound` whose changes the file holds
        self._donor_seq = 0
        self._case_seq = 0

    donors = property(lambda self: self.journal.tables["donor"], doc="platform_id -> DonorRecord")
    cases = property(lambda self: self.journal.tables["case"], doc="request_id -> RequestCase")
    ledger = property(lambda self: self.journal.tables["ledger"], doc="(request_id, donor_id) -> LedgerEntry")

    # -- registry ---------------------------------------------------------

    def register_donor(self, platform_id: str, blood_group: str, latitude: float, longitude: float,
                       last_donation_date: date | None = None) -> DonorRecord:
        """Upsert keyed by platform identity; re-registering keeps the id
        and registration time and replaces every other field."""
        values = (blood_group, latitude, longitude, last_donation_date)
        return self.put_donor(platform_id, dict(zip(DONOR_FIELDS, values)))

    def update_donor(self, platform_id: str, patch: dict) -> DonorRecord:
        """Partial update; unspecified fields keep their values."""
        existing = self.donors.get(platform_id)
        if existing is None:
            raise DispatchError(f"no donor registered for platform id {platform_id!r}")
        unknown = patch.keys() - DONOR_FIELDS
        if unknown:
            raise DispatchError(f"unknown donor fields: {sorted(unknown)}")
        merged = replace(existing, **patch)
        check_donor(merged.blood_group, merged.latitude, merged.longitude)
        self._store(merged)
        return merged

    def put_donor(self, platform_id: str, fields: dict) -> DonorRecord:
        """The one write rule for donors, however they come in: an unknown
        `platform_id` registers, and FieldError names what it lacks of
        group and coordinates; a known one changes only the fields given."""
        if platform_id in self.donors:
            return self.update_donor(platform_id, fields)
        missing = [name for name in DONOR_FIELDS[:3] if name not in fields]
        if missing:
            raise FieldError("DonorRecord", "missing fields", missing)
        check_donor(fields["blood_group"], fields["latitude"], fields["longitude"])
        self._donor_seq += 1
        record = DonorRecord(f"d{self._donor_seq:05d}", platform_id, registered_at=self.clock.now, **fields)
        self._store(record)
        return record

    def _store(self, donor: DonorRecord) -> None:
        """Put `donor` in the registry and in its group's columns, moving
        its row when its blood group changed. The group's stalled cases
        (open, below their depth, nothing due) fall due again (`_plan`)."""
        old = self.donors.get(donor.platform_id)
        if old is not None and old.blood_group != donor.blood_group:
            self._groups[old.blood_group].remove(old)
            old = None
        self._groups[donor.blood_group].put(donor, old)
        self.donors[donor.platform_id] = donor
        self.journal.touch(donor)
        for case in self.cases.values():
            if case.status == OPEN and case.next_stage_due is None and case.request.blood_group == donor.blood_group:
                if case.stages_fired < urgency_depth(case, self.clock.epoch_date):
                    self._plan(case)

    def donor_by_platform(self, platform_id: str) -> DonorRecord | None:
        return self.donors.get(platform_id)

    # -- matching ---------------------------------------------------------

    def eligible_donors(self, case: RequestCase) -> list[DonorRecord]:
        """The ranked prefix the case's next stage draws from.

        Donors of the exact blood group outside the eligibility window,
        ranked by distance to the request anchor. Without a resolvable
        anchor the ranking falls back to registration recency (newest
        first). Ties always break toward the earlier registration, then
        the donor id, so the order is total. Only the top k are returned,
        k = stage_size + the donors already notified for the case: enough
        for a full stage after the notified ones are skipped.
        """
        group = case.request.blood_group
        if not group:
            log.warning("case %s has no blood group; nobody can be matched", case.request_id)
            return []
        index = self._groups[group]
        cutoff = self.clock.today().toordinal() - self.eligibility_days
        k = self.stage_size + len(self._entries.get(case.request_id, ()))
        if case.anchor is None:
            return index.newest(cutoff, k)
        return index.nearest(cutoff, case.anchor, k)

    # -- case lifecycle ----------------------------------------------------

    def open_case(self, message_id: str, request: ParsedRequest) -> RequestCase:
        """Create a case for a parsed request and fire its first stage."""
        self._case_seq += 1
        case = RequestCase(
            request_id=f"r{self._case_seq:05d}",
            message_id=message_id,
            request=_stored(request),
            created_at=self.clock.now,
            anchor=geocode_markers(request.location_markers),
        )
        if case.anchor is None and request.location_markers:
            case.needs_attention = True
            log.warning(
                "case %s: no gazetteer entry for markers %s; falling back to "
                "registration recency",
                case.request_id,
                list(request.location_markers),
            )
        self.cases[case.request_id] = case
        self.case_by_message[message_id] = case.request_id
        self.notify_stage(case)
        return case

    def notify_stage(self, case: RequestCase) -> list[LedgerEntry]:
        """Send the next stage of alerts: up to stage_size fresh donors.

        Never re-notifies a donor, never exceeds the urgency depth, and
        flags the case for operator attention when no donor is available.
        """
        if case.status != OPEN:
            return []
        if case.stages_fired >= urgency_depth(case, self.clock.epoch_date):
            self._plan(case)  # clears a due time restored from a snapshot the rule did not write
            return []
        already = self._entries.setdefault(case.request_id, {})
        fresh = [d for d in self.eligible_donors(case) if d.donor_id not in already]
        batch = fresh[: self.stage_size]
        if not batch:
            case.needs_attention = True
            self._plan(case, stalled=True)
            self._emit("operator_attention", case.request_id, detail="no eligible donors to notify")
            return []
        stage = case.stages_fired + 1
        entries = []
        for donor in batch:
            entry = LedgerEntry(
                request_id=case.request_id,
                donor_id=donor.donor_id,
                stage=stage,
                notified_at=self.clock.now,
            )
            self.ledger[(case.request_id, donor.donor_id)] = entry
            self.journal.touch(entry)
            already[donor.donor_id] = entry
            entries.append(entry)
            self._emit("donor_alert", case.request_id, donor_id=donor.donor_id, stage=stage)
        case.stages_fired = stage
        self._plan(case)
        return entries

    def case_entries(self, request_id: str) -> list[LedgerEntry]:
        """Ledger entries of one request, ordered by donor id."""
        entries = self._entries.get(request_id, {})
        return [entries[donor_id] for donor_id in sorted(entries)]

    def _stage_entries(self, request_id: str, stage: int) -> list[LedgerEntry]:
        return [e for e in self._entries.get(request_id, {}).values() if e.stage == stage]

    def handle_response(self, request_id: str, donor_id: str, affirmative: bool) -> str:
        """Record a donor response; the first affirmative closes the case."""
        entry = self.ledger.get((request_id, donor_id))
        if entry is None:
            raise DispatchError(f"no notification on record for ({request_id}, {donor_id})")
        case = self.cases[request_id]
        if entry.response != "none":
            return case.status  # the first answer is final
        entry.response = "affirmative" if affirmative else "negative"
        self.journal.touch(entry)
        if case.status != OPEN:
            return case.status
        if affirmative:
            case.status = FULFILLED
            self._plan(case)
            self._emit("seeker_update", request_id, donor_id=donor_id, detail="donor affirmative; request fulfilled")
        else:
            current = self._stage_entries(request_id, case.stages_fired)
            if current and all(e.response == "negative" for e in current):
                self.notify_stage(case)
        return case.status

    def handle_edit(
        self,
        message_id: str,
        new_text: str,
        classify: Callable[[str], ParseOutcome | None],
    ) -> str:
        """Re-process an edited message for the case it produced.

        A managed/resolved marker ends the case and sends each previously
        notified donor exactly one resolution notice; other edits update the
        stored request in place and its anchor, and re-plan the case
        (`_plan`): the deadline counts from its creation as at opening, and
        a next stage the new request's depth allows falls due again, a
        stalled case's too, so an overdue one fires at the next
        `advance_to`. `classify` returns
        None when it could not decide, which leaves the case untouched and
        answers "parse-error".
        Unknown message ids are ignored with a diagnostic status.
        """
        request_id = self.case_by_message.get(message_id)
        if request_id is None:
            return "ignored-unknown-message"
        case = self.cases[request_id]
        if detect_managed_marker(new_text):
            if case.status == OPEN:
                case.status = RESOLVED_EXTERNALLY
                self._plan(case)
            self._fan_out_resolution(case)
            return case.status
        outcome = classify(new_text)
        if outcome is None:
            return "parse-error"
        if not outcome.is_negative:
            case.request = _stored(outcome.request)
            case.anchor = geocode_markers(case.request.location_markers)
            self._plan(case)
            return "updated"
        return "unchanged"

    def _plan(self, case: RequestCase, stalled: bool = False) -> None:
        """Set the case's deadline and next-stage time, the one rule for both:
        a stage falls due `stage_timeout` after the last (or the creation) while
        the case is open, below its depth and not `stalled` (its last stage found nobody)."""
        epoch = self.clock.epoch_date
        case.deadline = resolve_deadline(case.request, case.created_at, epoch)
        entries = self._entries.get(case.request_id, {}).values()
        last = max((e.notified_at for e in entries), default=case.created_at)
        due = case.status == OPEN and not stalled and case.stages_fired < urgency_depth(case, epoch)
        case.next_stage_due = last + self.stage_timeout if due else None
        self.journal.touch(case)

    def _fan_out_resolution(self, case: RequestCase) -> None:
        """Exactly-once resolution notice per notified donor; idempotent."""
        if case.status not in _TERMINAL:
            return
        for entry in self.case_entries(case.request_id):
            if not entry.resolution_notified:
                entry.resolution_notified = True
                self.journal.touch(entry)
                self._emit("resolution_notice", entry.request_id, donor_id=entry.donor_id)

    def advance_to(self, tick: int) -> None:
        """Move the clock forward, firing due stages and expiring past-deadline
        cases in time order (expiry beats a stage due at the same moment)."""
        while True:
            pending: list[tuple[int, int, str, str]] = []
            for c in self.cases.values():
                if c.status != OPEN:
                    continue
                if c.deadline is not None and c.deadline <= tick:
                    pending.append((c.deadline, 0, c.request_id, "expire"))
                if c.next_stage_due is not None and c.next_stage_due <= tick:
                    if c.deadline is None or c.next_stage_due < c.deadline:
                        pending.append((c.next_stage_due, 1, c.request_id, "stage"))
            if not pending:
                break
            when, _, request_id, kind = min(pending)
            case = self.cases[request_id]
            self.clock.advance_to(max(self.clock.now, when))
            if kind == "expire":
                case.status = EXPIRED
                self._plan(case)
                self._emit("case_expired", request_id)
            else:
                self.notify_stage(case)
        self.clock.advance_to(max(self.clock.now, tick))

    def _emit(self, kind: str, request_id: str, **detail) -> None:
        """Queue one outbound event, stamped with the current tick."""
        self.outbound.append({"kind": kind, "request_id": request_id, "tick": self.clock.now, **detail})

    def drain_outbound(self) -> list[dict]:
        events, self.outbound, self.outbound_saved = self.outbound, [], 0
        return events

    # -- persistence --------------------------------------------------------

    def _meta(self) -> _Meta:
        return _Meta(SNAPSHOT_VERSION, self._donor_seq, self._case_seq, self.clock.now)

    def persist(self, path: str | Path) -> None:
        """Save the engine's state to `path` before a change is acknowledged:
        the donors, cases and ledger entries changed since the last write
        are appended, or the whole state is rewritten (`Journal.persist`).
        Then `outbound_saved` counts the queued events: the file holds their
        changes."""
        self.journal.persist(Path(path), self._meta())
        self.outbound_saved = len(self.outbound)

    def restore(self, path: str | Path) -> None:
        """Load a snapshot and its complete appended batches, or nothing
        (`Journal.restore`): on a SnapshotError the engine keeps its state.
        A ledger line is malformed also if no batch up to the end of its
        own holds its case, or if the restored registry holds no donor with
        its `donor_id`. The cyclic garbage collector is paused while the
        records are built: they hold no reference cycles, so its passes
        over a large registry's new objects would free nothing.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._restore(Path(path))
        finally:
            if enabled:
                gc.enable()

    def _restore(self, path: Path) -> None:
        named: dict[str, int] = {}  # donor id -> the first complete ledger line naming it

        def cases_named(tables: dict[str, dict], lines: list[tuple[int, LedgerEntry]]) -> None:
            for n, entry in lines:
                if entry.request_id not in tables["case"]:
                    raise SnapshotError(
                        f"corrupt snapshot {path}: line {n}: ledger entry's "
                        f"request_id {entry.request_id!r} names no case"
                    )
                named.setdefault(entry.donor_id, n)

        def donors_named(tables: dict[str, dict]) -> None:
            for donor in tables["donor"].values():
                named.pop(donor.donor_id, None)
            if named:
                donor_id, n = min(named.items(), key=itemgetter(1))
                raise SnapshotError(
                    f"corrupt snapshot {path}: line {n}: ledger entry's donor_id {donor_id!r} names no donor"
                )

        meta = self.journal.restore(path, {"ledger": cases_named}, donors_named)
        self._groups = _group_columns(self.donors.values())
        self._entries = {}
        for entry in self.ledger.values():
            self._entries.setdefault(entry.request_id, {})[entry.donor_id] = entry
        self.case_by_message = {c.message_id: c.request_id for c in self.cases.values()}
        self._donor_seq, self._case_seq, self.clock.now = meta.donor_seq, meta.case_seq, meta.clock


@dataclass(frozen=True)
class _Meta:
    """The first line of a snapshot batch: the format version, then the
    engine's id counters and clock."""

    version: int
    donor_seq: int
    case_seq: int
    clock: int


# The engine's journalled tables: section, record type, key, and the check
# of a restored record's values beyond their JSON types, as the engine writes them.
_TABLES = (
    ("donor", DonorRecord, attrgetter("platform_id"), lambda d: check_donor(d.blood_group, d.latitude, d.longitude)),
    ("case", RequestCase, attrgetter("request_id"), lambda c: _check_one_of("status", c.status, (OPEN, *_TERMINAL))),
    ("ledger", LedgerEntry, attrgetter("request_id", "donor_id"),
     lambda e: _check_one_of("response", e.response, _RESPONSES)),
)


def _stored(request: ParsedRequest) -> ParsedRequest:
    """The request as a case stores it: canonical, with a `probable_day` or
    `probable_time` the schema refuses left empty. No other field of a
    canonical request can fail the schema, so `records.decode` reads back
    every case `persist` writes."""
    canonical = schema.canonicalize(request)
    day, time = canonical.probable_day, canonical.probable_time
    return replace(canonical, probable_day=day if schema.day_pattern_ok(day) else "",
                   probable_time=time if schema.time_pattern_ok(time) else "")


# What a donor write may change: the fields the engine does not assign.
DONOR_FIELDS = ("blood_group", "latitude", "longitude", "last_donation_date")
