"""`schema` owns the grammar of `probable_day`/`probable_time`; dispatch's
deadline and urgency rules read values through `schema.read_day` and
`schema.read_time`. The references below are the validators and the
deadline/urgency code as they were written before, each field parsed by
its own regexes, but for the year of a DD/MM without one: the reference
finds that day by scanning the days around the creation day. On every
value the validators accept, the readers must give the same deadline and
the same depth."""

import re
from datetime import date, timedelta

from hypothesis import given, settings
from hypothesis import strategies as st

from cbrs import dispatch as dp
from cbrs import schema
from cbrs.schema import ParsedRequest

# -- the references ------------------------------------------------------------

_REF_DAY_PATTERNS = (
    re.compile(r"^\d{2}/\d{2}$"),
    re.compile(r"^\d{2}/\d{2}/\d{4}$"),
    re.compile(r"^\d+ days? later$"),
)
_REF_DAY_WORDS = ("today", "tomorrow")
_REF_HHMM = r"(?:[01]\d|2[0-3]):[0-5]\d"
_REF_TIME_PATTERNS = (
    re.compile(rf"^{_REF_HHMM}$"),
    re.compile(rf"^before {_REF_HHMM}$"),
    re.compile(rf"^after {_REF_HHMM}$"),
    re.compile(rf"^{_REF_HHMM}-{_REF_HHMM}$"),
    re.compile(r"^in \d+ hours?$"),
)


def _ref_day_ok(value):
    if value == "" or value in _REF_DAY_WORDS:
        return True
    return any(p.match(value) for p in _REF_DAY_PATTERNS)


def _ref_time_ok(value):
    if value == "":
        return True
    return any(p.match(value) for p in _REF_TIME_PATTERNS)


_REF_DAY_FULL = re.compile(r"^(\d{2})/(\d{2})(?:/(\d{4}))?$")
_REF_DAYS_LATER = re.compile(r"^(\d+) days? later$")


def _ref_resolve_day(probable_day, created):
    m = _REF_DAY_FULL.match(probable_day)
    if m:
        day, month, year = int(m.group(1)), int(m.group(2)), m.group(3)
        if year:
            try:
                return date(int(year), month, day)
            except ValueError:
                return None
        # Without a year: walk outward from the creation day, the later
        # side first, to the first day within 183 days that matches.
        for offset in range(184):
            for step in (offset, -offset):
                try:
                    the_date = created + timedelta(days=step)
                except OverflowError:
                    continue
                if (the_date.day, the_date.month) == (day, month):
                    return the_date
        return None
    m = _REF_DAYS_LATER.match(probable_day)
    if m:
        return created + timedelta(days=int(m.group(1)))
    return None


_REF_IN_HOURS = re.compile(r"^in (\d+) hours?$")
_REF_CLOCK_PART = re.compile(r"^(?:before )?([01]\d|2[0-3]):([0-5]\d)")


def _ref_resolve_deadline(request, created_at, epoch_date):
    created_date = epoch_date + timedelta(seconds=created_at)
    time_field = request.probable_time
    m = _REF_IN_HOURS.match(time_field)
    if m:
        return created_at + int(m.group(1)) * 3600
    day = request.probable_day
    if day == "today":
        the_date = created_date
    elif day == "tomorrow":
        the_date = created_date + timedelta(days=1)
    else:
        the_date = _ref_resolve_day(day, created_date)
    clock = _REF_CLOCK_PART.match(time_field)
    if the_date is None and clock is None:
        return None
    if the_date is None:
        the_date = created_date
    if clock is not None:
        hh, mm = int(clock.group(1)), int(clock.group(2))
    else:
        hh, mm = 23, 59
    return (the_date - epoch_date).days * 86400 + hh * 3600 + mm * 60


def _ref_urgency_depth(case, epoch_date):
    created = epoch_date + timedelta(seconds=case.created_at)
    day = case.request.probable_day
    time_field = case.request.probable_time
    if day == "today" or time_field.startswith("before "):
        return 3
    if day == "tomorrow":
        return 2
    resolved = _ref_resolve_day(day, created)
    if resolved is not None and resolved - created <= timedelta(hours=48):
        return 2
    return 1


# -- the comparison --------------------------------------------------------------


def _reference(day, time_, created_at, epoch):
    request = ParsedRequest(blood_group="O+", probable_day=day, probable_time=time_)
    case = dp.RequestCase("r", "m", request, created_at=created_at)
    return _ref_resolve_deadline(request, created_at, epoch), _ref_urgency_depth(case, epoch)


def _derived(day, time_, created_at, epoch):
    request = ParsedRequest(blood_group="O+", probable_day=day, probable_time=time_)
    case = dp.RequestCase("r", "m", request, created_at=created_at)
    return dp.resolve_deadline(request, created_at, epoch), dp.urgency_depth(case, epoch)


def _agree(day, time_, created_at, epoch):
    """The validators accept what the references accept; on accepted values
    the deadline and the depth are the references'."""
    assert schema.day_pattern_ok(day) == _ref_day_ok(day), day
    assert schema.time_pattern_ok(time_) == _ref_time_ok(time_), time_
    if not (_ref_day_ok(day) and _ref_time_ok(time_)):
        return
    try:
        expected = _reference(day, time_, created_at, epoch)
    except OverflowError:
        # A day past year 9999: the references raised (and so did
        # `open_case`); the reader names no date, as for an empty day.
        assert schema.read_day(day, epoch + timedelta(seconds=created_at)) is None
        expected = _reference("", time_, created_at, epoch)
    assert _derived(day, time_, created_at, epoch) == expected, (day, time_, created_at, epoch)


_EPOCHS = (date(2025, 1, 1), date(2024, 2, 27))
# Creation at the epoch, at the last second of its day, two days in, and
# late on the 364th day (the last of 2025 for the first epoch).
_TICKS = (0, 86399, 2 * 86400 + 3600, 364 * 86400 + 82800)

_DAYS = (
    "", "today", "tomorrow", "01/01", "31/12", "28/02", "29/02", "01/03", "29/02/2024", "29/02/2025",
    "31/02", "31/04/2025", "00/00", "00/01", "01/13", "01/01/0000", "31/12/9999", "01/01/2026",
    "0 days later", "1 day later", "1 days later", "2 days later", "3 days later", "2 day later",
    "9999999 days later", "৩ days later", "০১/০২", "১৫/০৬/২০২৫", "১৫/06",
    "Jun_21", "21-06", "yesterday", "06/2021/14", "1/2", "01/02/25", "Today", "today ", " tomorrow",
    "days later", "-1 days later", "2 days  later",
)
_TIMES = (
    "", "00:00", "23:59", "09:30", "19:00", "24:00", "25:00", "9:00", "1৫:30", "১০:০০", "0৯:3০",
    "before 00:00", "before 23:59", "before 10:00", "before 24:00", "before 9:00", "before  10:00",
    "after 00:00", "after 09:00", "after 24:00", "after 23:59",
    "09:00-17:00", "23:00-01:00", "00:00-00:00", "09:00-25:00", "24:00-09:00", "09:00 - 17:00",
    "before 09:00-17:00", "after 09:00-17:00",
    "in 0 hours", "in 1 hour", "in 1 hours", "in 3 hours", "in 48 hours", "in ৩ hours", "in 2 hour",
    "in hours", "in -1 hours", "in as soon as possible", "7 pm", "09:00 tomorrow", "before", "Before 10:00",
)


def test_enumerated_days_and_times_agree_with_the_references():
    for epoch in _EPOCHS:
        for created_at in _TICKS:
            for day in _DAYS:
                for time_ in _TIMES:
                    _agree(day, time_, created_at, epoch)


def test_readers_on_the_grammar_s_forms():
    created = date(2025, 2, 27)
    assert schema.read_day("", created) is None
    assert schema.read_day("today", created) == created
    assert schema.read_day("tomorrow", created) == date(2025, 2, 28)
    assert schema.read_day("01/03", created) == date(2025, 3, 1)
    assert schema.read_day("29/02", created) is None  # not in 2025
    assert schema.read_day("29/02/2024", created) == date(2024, 2, 29)
    assert schema.read_day("2 days later", created) == date(2025, 3, 1)
    assert schema.read_day("০১/০৩", created) == date(2025, 3, 1)
    assert schema.read_day("9999999 days later", created) is None
    assert schema.read_day("9" * 5000 + " days later", created) is None  # more digits than `int` reads
    assert schema.read_day("yesterday", created) is None
    assert schema.read_time("") is None
    assert schema.read_time("in 3 hours") == ("in", 3)
    assert schema.read_time("in 1 hour") == ("in", 1)
    assert schema.read_time("09:30") == ("at", 570)
    assert schema.read_time("before 00:00") == ("before", 0)
    assert schema.read_time("after 23:59") == ("after", 1439)
    assert schema.read_time("09:00-17:00") == ("at", 540)  # a range counts from its start
    assert schema.read_time("1৫:30") == ("at", 930)
    assert schema.read_time("in " + "9" * 5000 + " hours") is None
    # Values the schema refuses read as nothing, though a prefix looks like a time.
    for refused in ("before 24:00", "09:00-25:00", "09:00 tomorrow", "7 pm"):
        assert schema.read_time(refused) is None, refused


def test_a_day_without_a_year_reads_as_its_nearest_occurrence():
    assert schema.read_day("02/01", date(2025, 12, 31)) == date(2026, 1, 2)
    assert schema.read_day("30/12", date(2025, 12, 31)) == date(2025, 12, 30)
    assert schema.read_day("02/01/2025", date(2025, 12, 31)) == date(2025, 1, 2)  # a year reads as written
    assert schema.read_day("29/02", date(2023, 12, 31)) == date(2024, 2, 29)
    assert schema.read_day("29/02", date(2025, 2, 27)) is None  # 364 days back
    # 183 days each way: the later.
    assert schema.read_day("02/07", date(2024, 1, 1)) == date(2024, 7, 2)
    # The calendar's ends: no year 0 or 10000 to look into.
    assert schema.read_day("01/01", date(1, 1, 1)) == date(1, 1, 1)
    assert schema.read_day("30/12", date(1, 1, 1)) is None
    assert schema.read_day("02/01", date(9999, 12, 31)) is None
    assert schema.read_day("31/12", date(9999, 12, 31)) == date(9999, 12, 31)


@settings(max_examples=300, deadline=None)
@given(st.dates(), st.integers(0, 32), st.integers(0, 13))
def test_a_day_without_a_year_agrees_with_a_scan_of_the_days_around_its_creation(created, day, month):
    value = f"{day:02d}/{month:02d}"
    assert schema.read_day(value, created) == _ref_resolve_day(value, created), (value, created)


def test_a_day_or_an_hour_count_past_what_can_be_read_opens_a_case_without_a_deadline():
    # The references raised here, and so `open_case` did with them.
    engine = dp.DispatchEngine()
    far = engine.open_case("m1", ParsedRequest(blood_group="O+", probable_day="9999999 days later"))
    assert far.deadline is None and dp.urgency_depth(far) == 1
    huge = engine.open_case("m2", ParsedRequest(blood_group="O+", probable_time="in " + "9" * 5000 + " hours"))
    assert huge.deadline is None and dp.urgency_depth(huge) == 1


def test_refused_times_read_nothing_where_the_references_read_a_prefix():
    # The one place the derived rules differ: values no validator accepts,
    # so no case holds them (see `schema.validate` and `records._request`).
    epoch = date(2025, 1, 1)
    assert _reference("", "before 24:00", 0, epoch) == (None, 3)
    assert _derived("", "before 24:00", 0, epoch) == (None, 1)
    assert _reference("", "09:00-25:00", 0, epoch) == (9 * 3600, 1)
    assert _derived("", "09:00-25:00", 0, epoch) == (None, 1)


_digits = st.text(alphabet="0123456789০১২৩৪৫৬৭৮৯", min_size=1, max_size=3)
_ascii_pair = st.text(alphabet="0123456789", min_size=2, max_size=2)
_pair = st.one_of(_ascii_pair, st.text(alphabet="0123৩৫৯", min_size=2, max_size=2), _digits)
_clock = st.builds(lambda h, m: f"{h}:{m}", _pair, _pair)
_day = st.one_of(
    st.sampled_from(("", "today", "tomorrow", "yesterday", "Today")),
    st.builds(lambda d, m: f"{d}/{m}", _pair, _pair),
    st.builds(lambda d, m, y: f"{d}/{m}/{y}", _pair, _pair, st.text(alphabet="0129২", min_size=2, max_size=5)),
    st.builds(lambda n, s: f"{n} {s} later", _digits, st.sampled_from(("day", "days", "dayss"))),
)
_time = st.one_of(
    st.just(""),
    _clock,
    st.builds(lambda w, c: f"{w} {c}", st.sampled_from(("before", "after", "Before", "by")), _clock),
    st.builds(lambda a, b, sep: f"{a}{sep}{b}", _clock, _clock, st.sampled_from(("-", " - ", "–"))),
    st.builds(lambda n, s: f"in {n} {s}", _digits, st.sampled_from(("hour", "hours", "hrs"))),
    st.builds(lambda c, tail: c + tail, _clock, st.sampled_from((" tomorrow", "pm", "-", ":00"))),
)


@settings(max_examples=400, deadline=None)
@given(_day, _time, st.sampled_from(_TICKS), st.sampled_from(_EPOCHS))
def test_strings_built_from_the_grammar_s_pieces_agree_with_the_references(day, time_, created_at, epoch):
    _agree(day, time_, created_at, epoch)


def test_validate_accepts_and_refuses_the_same_day_and_time_values():
    # `validate` checks a value with its whitespace collapsed, so the forms
    # with stray spaces count too.
    for day in _DAYS:
        for time_ in ("", "before 10:00", " 09:00 ", "before  24:00", "in 3  hours", "09:00\n"):
            clean = " ".join(time_.split())
            expected = _ref_day_ok(" ".join(day.split())) and _ref_time_ok(clean)
            outcome = schema.validate(schema.to_dict(schema.ParseOutcome.positive(
                ParsedRequest(blood_group="O+", probable_day=day, probable_time=time_))))
            assert isinstance(outcome, schema.ParseOutcome) == expected, (day, time_)
