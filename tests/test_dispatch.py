import gc
import json
import math
import os
import shutil
from dataclasses import asdict, replace
from datetime import date

import numpy as np
import pytest

from cbrs import dispatch as dp
from cbrs import journal, records
from cbrs.dispatch import Clock, DispatchEngine, DispatchError, SnapshotError, haversine_km
from cbrs.gateway import ScenarioError, load_scenario
from cbrs.schema import Contact, ParsedRequest, ParseOutcome


def law_of_cosines_km(lat1, lon1, lat2, lon2):
    """Independent spherical-law-of-cosines oracle."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    arg = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return 6371.0 * math.acos(max(-1.0, min(1.0, arg)))


# -- haversine -----------------------------------------------------------------


def test_haversine_zero_at_identical_points():
    assert haversine_km(23.8103, 90.4125, 23.8103, 90.4125) == 0.0


def test_haversine_equatorial_degree():
    # Analytic: 2*pi*R/360 = 111.1949... km per degree of longitude.
    assert haversine_km(0.0, 0.0, 0.0, 1.0) == pytest.approx(111.19, abs=0.05)


def test_haversine_dhaka_chittagong_vs_oracle():
    h = haversine_km(23.8103, 90.4125, 22.3569, 91.7832)
    c = law_of_cosines_km(23.8103, 90.4125, 22.3569, 91.7832)
    assert abs(h - c) / c < 0.005


def test_haversine_oracle_agreement_random_pairs():
    rng = np.random.default_rng(88)
    for _ in range(1000):
        lat1, lat2 = rng.uniform(-89, 89, size=2)
        lon1, lon2 = rng.uniform(-180, 180, size=2)
        h = haversine_km(lat1, lon1, lat2, lon2)
        c = law_of_cosines_km(lat1, lon1, lat2, lon2)
        assert abs(h - c) <= 0.005 * max(h, c, 1e-9)


def test_haversine_symmetry_and_triangle():
    rng = np.random.default_rng(89)
    pts = [(float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179))) for _ in range(30)]
    for _ in range(100):
        a, b, c = (pts[int(i)] for i in rng.integers(0, len(pts), size=3))
        dab = haversine_km(*a, *b)
        assert abs(dab - haversine_km(*b, *a)) < 1e-9
        assert dab <= haversine_km(*a, *c) + haversine_km(*c, *b) + 1e-9


def test_clock_guards():
    clock = Clock()
    clock.advance(100)
    assert clock.now == 100
    with pytest.raises(ValueError):
        clock.advance(-1)
    with pytest.raises(ValueError):
        clock.advance_to(50)
    assert clock.today() == date(2025, 1, 1)
    clock.advance(86400)
    assert clock.today() == date(2025, 1, 2)


# -- registry -------------------------------------------------------------------


def _engine(**kw):
    return DispatchEngine(clock=Clock(), **kw)


def test_register_roundtrip_and_upsert():
    eng = _engine()
    rec = eng.register_donor("u1", "O-", 23.8, 90.4, date(2024, 10, 1))
    assert rec.donor_id == "d00001"
    again = eng.register_donor("u1", "O+", 23.9, 90.5)
    assert again.donor_id == "d00001"  # idempotent upsert by platform_id
    assert eng.donor_by_platform("u1").blood_group == "O+"


def test_update_preserves_unspecified_fields():
    eng = _engine()
    eng.register_donor("u1", "B+", 23.8, 90.4, date(2024, 1, 1))
    updated = eng.update_donor("u1", {"last_donation_date": date(2024, 12, 1)})
    assert updated.blood_group == "B+"
    assert updated.latitude == 23.8
    assert updated.last_donation_date == date(2024, 12, 1)


def test_register_rejects_bad_coordinates_and_group():
    eng = _engine()
    with pytest.raises(DispatchError):
        eng.register_donor("u1", "O+", 91.0, 0.0)
    with pytest.raises(DispatchError):
        eng.register_donor("u1", "O+", 0.0, 181.0)
    with pytest.raises(DispatchError):
        eng.register_donor("u1", "", 0.0, 0.0)


@pytest.mark.parametrize("field,value", [("latitude", 91.0), ("longitude", -181.0), ("blood_group", "Z+")])
def test_register_and_update_reject_a_value_with_one_message(field, value):
    eng = _engine()
    eng.register_donor("u1", "O+", 23.8, 90.4)
    good = {"blood_group": "O+", "latitude": 23.8, "longitude": 90.4}
    with pytest.raises(DispatchError) as registered:
        eng.register_donor("u2", **{**good, field: value})
    with pytest.raises(DispatchError) as updated:
        eng.update_donor("u1", {field: value})
    assert str(registered.value) == str(updated.value)
    assert field in str(updated.value)


# -- matching --------------------------------------------------------------------


def _request(group="O+", markers=("Dhaka",), day="", time_=""):
    return ParsedRequest(
        blood_group=group,
        location_markers=tuple(markers),
        probable_day=day,
        probable_time=time_,
    )


def test_eligible_donors_empty_without_group():
    eng = _engine()
    eng.register_donor("u1", "O+", 23.8, 90.4)
    case = eng.open_case("m0", _request(group="O+"))
    no_group = dp.RequestCase(request_id="x", message_id="mx", request=ParsedRequest())
    assert eng.eligible_donors(no_group) == []


def test_eligible_donors_distance_order():
    eng = _engine()
    eng.register_donor("far", "O+", 24.37, 88.60)  # Rajshahi, ~250 km from Dhaka
    eng.register_donor("near", "O+", 23.75, 90.39)  # central Dhaka
    case = dp.RequestCase(
        request_id="r1", message_id="m1", request=_request(), anchor=dp.geocode_markers(["Dhaka"])
    )
    ranked = eng.eligible_donors(case)
    assert [d.platform_id for d in ranked] == ["near", "far"]


def test_eligible_donors_window_excludes_recent():
    eng = _engine()
    today = eng.clock.today()
    eng.register_donor("recent", "O+", 23.8, 90.4, today - dp.timedelta(days=30))
    eng.register_donor("ready", "O+", 23.8, 90.4, today - dp.timedelta(days=120))
    eng.register_donor("never", "O+", 23.8, 90.4, None)
    case = dp.RequestCase(request_id="r1", message_id="m1", request=_request(), anchor=None)
    ids = {d.platform_id for d in eng.eligible_donors(case)}
    assert ids == {"ready", "never"}


def test_eligible_donors_exact_group_only():
    eng = _engine()
    eng.register_donor("a", "O-", 23.8, 90.4)
    eng.register_donor("b", "O+", 23.8, 90.4)
    case = dp.RequestCase(request_id="r1", message_id="m1", request=_request(group="O-"))
    assert [d.platform_id for d in eng.eligible_donors(case)] == ["a"]


def test_eligible_ordering_total_and_stable():
    eng = _engine()
    for i in range(8):
        eng.register_donor(f"u{i}", "O+", 23.8, 90.4)  # identical coordinates
    case = dp.RequestCase(
        request_id="r1", message_id="m1", request=_request(), anchor=(23.8103, 90.4125)
    )
    once = [d.donor_id for d in eng.eligible_donors(case)]
    twice = [d.donor_id for d in eng.eligible_donors(case)]
    assert once == twice
    assert once == sorted(once)  # tie-break by registration then id


# -- urgency ----------------------------------------------------------------------


def test_urgency_depth_rules():
    mk = lambda day, t: dp.RequestCase(
        request_id="r", message_id="m", request=_request(day=day, time_=t)
    )
    assert dp.urgency_depth(mk("today", "")) == 3
    assert dp.urgency_depth(mk("", "before 17:00")) == 3
    assert dp.urgency_depth(mk("tomorrow", "")) == 2
    assert dp.urgency_depth(mk("", "")) == 1
    assert dp.urgency_depth(mk("", "after 09:00")) == 1


def test_urgency_depth_dated_within_48h():
    case = dp.RequestCase(
        request_id="r", message_id="m", request=_request(day="02/01/2025"), created_at=0
    )
    assert dp.urgency_depth(case, epoch_date=date(2025, 1, 1)) == 2
    case_far = dp.RequestCase(
        request_id="r", message_id="m", request=_request(day="20/01/2025"), created_at=0
    )
    assert dp.urgency_depth(case_far, epoch_date=date(2025, 1, 1)) == 1
    case_later = dp.RequestCase(
        request_id="r", message_id="m", request=_request(day="2 days later"), created_at=0
    )
    assert dp.urgency_depth(case_later, epoch_date=date(2025, 1, 1)) == 2


# -- staged notification -------------------------------------------------------------


def _populate(eng, n, group="O+"):
    for i in range(n):
        eng.register_donor(f"u{i}", group, 23.8 + i * 0.01, 90.4)


@pytest.mark.parametrize(
    "knob,value",
    [("stage_size", -3), ("stage_size", 0), ("stage_timeout", 0), ("eligibility_days", -1)],
)
def test_engine_refuses_staging_knobs_below_their_least(knob, value):
    # stage_size=-3 once alerted 14 of 20 donors in one stage (the slice
    # [:k] took all but the last three), and stage_size=0 alerted nobody.
    with pytest.raises(ValueError, match=f"^{knob} must be at least"):
        _engine(**{knob: value})
    eng = _engine(**{knob: value + 1 if knob == "eligibility_days" else 1})
    _populate(eng, 20)
    eng.open_case("m1", _request(day="today"))
    assert len([e for e in eng.outbound if e["kind"] == "donor_alert"]) == eng.stage_size


def test_stages_five_five_two():
    eng = _engine(stage_size=5, stage_timeout=600)
    _populate(eng, 12)
    case = eng.open_case("m1", _request(day="today"))  # depth 3
    sizes = [len(eng._stage_entries(case.request_id, s)) for s in (1, 2, 3)]
    assert sizes == [5, 0, 0]
    eng.advance_to(600)
    eng.advance_to(1200)
    sizes = [len(eng._stage_entries(case.request_id, s)) for s in (1, 2, 3)]
    assert sizes == [5, 5, 2]
    assert case.stages_fired == 3


def test_stage_count_never_exceeds_depth():
    eng = _engine(stage_size=2, stage_timeout=100)
    _populate(eng, 10)
    case = eng.open_case("m1", _request(day="tomorrow"))  # depth 2
    eng.advance_to(10_000)
    assert case.stages_fired == 2
    assert len([k for k in eng.ledger if k[0] == case.request_id]) == 4


def test_no_duplicate_notifications():
    eng = _engine(stage_size=5, stage_timeout=100)
    _populate(eng, 7)
    case = eng.open_case("m1", _request(day="today"))
    eng.advance_to(1_000)
    donors = [k[1] for k in eng.ledger if k[0] == case.request_id]
    assert len(donors) == len(set(donors)) == 7


def test_zero_eligible_flags_case():
    eng = _engine()
    case = eng.open_case("m1", _request(group="AB-"))
    assert case.needs_attention
    assert [e for e in eng.outbound if e["kind"] == "operator_attention"]
    assert not [k for k in eng.ledger if k[0] == case.request_id]


def test_affirmative_fulfills_and_suppresses():
    eng = _engine(stage_size=2, stage_timeout=100)
    _populate(eng, 8)
    case = eng.open_case("m1", _request(day="today"))
    first_donor = next(k[1] for k in eng.ledger if k[0] == case.request_id)
    status = eng.handle_response(case.request_id, first_donor, affirmative=True)
    assert status == dp.FULFILLED
    before = len(eng.ledger)
    eng.advance_to(10_000)
    assert len(eng.ledger) == before  # zero notifications after affirmative
    assert [e for e in eng.outbound if e["kind"] == "seeker_update"]


def test_all_negative_fires_next_stage_immediately():
    eng = _engine(stage_size=2, stage_timeout=10_000)
    _populate(eng, 6)
    case = eng.open_case("m1", _request(day="today"))
    stage1 = [k[1] for k in eng.ledger if k[0] == case.request_id]
    for donor_id in stage1:
        eng.handle_response(case.request_id, donor_id, affirmative=False)
    # No time has passed, yet stage 2 exists.
    assert case.stages_fired == 2


def test_response_unknown_pair_rejected():
    eng = _engine()
    _populate(eng, 3)
    case = eng.open_case("m1", _request(day="today"))
    with pytest.raises(DispatchError):
        eng.handle_response(case.request_id, "d99999", affirmative=True)


def test_affirmative_after_fulfilled_idempotent():
    eng = _engine(stage_size=3)
    _populate(eng, 3)
    case = eng.open_case("m1", _request(day="today"))
    donors = [k[1] for k in eng.ledger if k[0] == case.request_id]
    eng.handle_response(case.request_id, donors[0], affirmative=True)
    outbound_before = len(eng.outbound)
    status = eng.handle_response(case.request_id, donors[1], affirmative=True)
    assert status == dp.FULFILLED
    assert eng.ledger[(case.request_id, donors[1])].response == "affirmative"
    seeker_updates = [e for e in eng.outbound if e["kind"] == "seeker_update"]
    assert len(seeker_updates) == 1


# -- edits ------------------------------------------------------------------------


def _classify_stub(outcome):
    return lambda text: outcome


def test_managed_edit_resolves_and_fans_out_once():
    eng = _engine(stage_size=4)
    _populate(eng, 4)
    case = eng.open_case("m1", _request(day="today"))
    notified = [k[1] for k in eng.ledger if k[0] == case.request_id]
    status = eng.handle_edit(
        "m1", "Update: Managed, Emergency blood needed", _classify_stub(ParseOutcome.negative())
    )
    assert status == dp.RESOLVED_EXTERNALLY
    notices = [e for e in eng.outbound if e["kind"] == "resolution_notice"]
    assert sorted(e["donor_id"] for e in notices) == sorted(notified)
    # Exactly once: a second identical edit adds nothing.
    eng.handle_edit(
        "m1", "Update: Managed, Emergency blood needed", _classify_stub(ParseOutcome.negative())
    )
    notices = [e for e in eng.outbound if e["kind"] == "resolution_notice"]
    assert len(notices) == len(notified)
    for e in eng.ledger.values():
        assert e.resolution_notified


def test_non_terminal_edit_updates_in_place():
    eng = _engine(stage_size=2)
    _populate(eng, 2)
    case = eng.open_case("m1", _request(day="today"))
    new_request = _request(day="today")
    new_request = dp.replace(new_request, contacts=(Contact(contact_numbers=("017X",)),))
    status = eng.handle_edit(
        "m1", "Urgent O+ blood needed today, call 017X", _classify_stub(ParseOutcome.positive(new_request))
    )
    assert status == "updated"
    assert case.request.contacts[0].contact_numbers == ("017X",)
    assert not [e for e in eng.outbound if e["kind"] == "resolution_notice"]


def test_edit_re_derives_the_deadline_from_the_case_s_creation():
    eng = _engine(stage_size=1)
    _populate(eng, 3)
    eng.clock.advance_to(600)
    case = eng.open_case("m1", _request(day="tomorrow"))
    assert case.deadline == 86400 + 23 * 3600 + 59 * 60
    sooner = _request(day="today", time_="before 10:00")
    assert eng.handle_edit("m1", "O+ needed today before 10am", _classify_stub(ParseOutcome.positive(sooner))) == "updated"
    assert case.deadline == 10 * 3600
    assert dp.urgency_depth(case, eng.clock.epoch_date) == 3
    eng.advance_to(11 * 3600)
    assert case.status == dp.EXPIRED
    assert [e["tick"] for e in eng.outbound if e["kind"] == "case_expired"] == [10 * 3600]
    # "in n hours" counts from the case's creation, not from the edit.
    eng.open_case("m2", _request(day="tomorrow"))
    later = eng.cases["r00002"]
    eng.handle_edit("m2", "O+ needed in 2 hours", _classify_stub(ParseOutcome.positive(_request(time_="in 2 hours"))))
    assert later.deadline == later.created_at + 2 * 3600


def test_an_edit_that_deepens_a_case_fires_the_new_stages():
    eng = _engine(stage_size=1, stage_timeout=600)
    _populate(eng, 5, group="A+")
    case = eng.open_case("m1", _request(group="A+"))  # no day: depth 1
    assert (case.stages_fired, case.next_stage_due) == (1, None)
    eng.advance_to(1000)
    deeper = _request(group="A+", day="today")
    assert eng.handle_edit("m1", "A+ needed today", _classify_stub(ParseOutcome.positive(deeper))) == "updated"
    assert case.next_stage_due == 600  # overdue: it fires at the next advance
    eng.advance_to(3 * 3600)
    assert case.stages_fired == 3 and case.next_stage_due is None
    assert [(e["stage"], e["tick"]) for e in eng.outbound if e["kind"] == "donor_alert"] == [(1, 0), (2, 1000), (3, 1600)]


def test_an_edit_that_shallows_a_case_stops_its_stages():
    eng = _engine(stage_size=1, stage_timeout=600)
    _populate(eng, 5)
    case = eng.open_case("m1", _request(day="today"))  # depth 3
    assert case.next_stage_due == 600
    assert eng.handle_edit("m1", "O+ needed", _classify_stub(ParseOutcome.positive(_request()))) == "updated"
    assert case.next_stage_due is None
    eng.advance_to(3 * 3600)
    assert case.stages_fired == 1


def _stalled_case(eng):
    """A case whose first stage found nobody: AB- with no AB- donor."""
    _populate(eng, 3)
    eng.clock.advance_to(100)
    case = eng.open_case("m1", _request(group="AB-", day="today"))
    assert case.stages_fired == 0 and case.next_stage_due is None and case.needs_attention
    assert [e["kind"] for e in eng.drain_outbound()] == ["operator_attention"]
    return case


def test_advance_returns_on_a_stalled_case():
    eng = _engine(stage_size=1, stage_timeout=600)
    case = _stalled_case(eng)
    eng.advance_to(5000)  # nothing falls due: no retry, no loop
    assert eng.drain_outbound() == [] and case.next_stage_due is None
    # A later stage that finds nobody stalls the same way.
    eng.register_donor("ab", "AB-", 23.8, 90.4)
    other = eng.open_case("m2", _request(group="AB-", day="today"))
    eng.advance_to(eng.clock.now + 600)
    assert other.stages_fired == 1 and other.next_stage_due is None
    # The registration made the first case fall due again: it alerts "ab" too.
    assert [e["kind"] for e in eng.drain_outbound()] == [
        "donor_alert", "donor_alert", "operator_attention", "operator_attention"]
    eng.advance_to(eng.clock.now + 86400)
    assert other.status == dp.EXPIRED


def test_a_donor_write_retries_its_groups_stalled_cases_at_the_next_advance():
    eng = _engine(stage_size=1, stage_timeout=600)
    case = _stalled_case(eng)
    eng.advance_to(1000)
    eng.register_donor("b", "B-", 23.8, 90.4)  # another group: nothing falls due
    assert case.next_stage_due is None
    ab = eng.register_donor("ab", "AB-", 23.8, 90.4)
    assert case.next_stage_due == 700  # counted from the creation: overdue
    eng.advance_to(1001)
    assert [(e["kind"], e.get("donor_id"), e["tick"]) for e in eng.drain_outbound()] == [
        ("donor_alert", ab.donor_id, 1000)]
    assert case.stages_fired == 1 and case.next_stage_due == 1600


def test_an_edit_retries_a_stalled_case_at_the_next_advance():
    eng = _engine(stage_size=1, stage_timeout=600)
    case = _stalled_case(eng)
    eng.advance_to(1000)
    same = _request(group="AB-", day="today")
    assert eng.handle_edit("m1", "AB- needed today", _classify_stub(ParseOutcome.positive(same))) == "updated"
    assert case.next_stage_due == 700  # counted from the creation: no stage fired
    eng.advance_to(1001)
    assert [(e["kind"], e["tick"]) for e in eng.drain_outbound()] == [("operator_attention", 1000)]
    assert case.next_stage_due is None
    # An edit to a blood group that has donors reaches them.
    o_pos = _request(group="O+", day="today")
    assert eng.handle_edit("m1", "O+ needed today", _classify_stub(ParseOutcome.positive(o_pos))) == "updated"
    eng.advance_to(1002)
    assert [(e["kind"], e["stage"], e["tick"]) for e in eng.drain_outbound()] == [("donor_alert", 1, 1001)]
    assert case.next_stage_due == 1601


def test_a_due_time_at_full_depth_from_a_snapshot_is_cleared(tmp_path):
    # A snapshot can hold a due time past its case's depth (an engine whose
    # edits did not re-plan wrote one when an edit lowered the depth);
    # advancing clears it rather than spinning.
    _, path, _ = _edited_snapshot(tmp_path, "case", "stages_fired", 3)
    eng = _restored(path)
    [case] = eng.cases.values()
    assert case.next_stage_due == 600
    eng.advance_to(1000)
    assert case.next_stage_due is None and eng.drain_outbound() == []


def test_edit_unknown_message_ignored():
    eng = _engine()
    status = eng.handle_edit("never-seen", "whatever", _classify_stub(ParseOutcome.negative()))
    assert status == "ignored-unknown-message"


def test_donors_never_notified_get_no_resolution_notice():
    eng = _engine(stage_size=1)
    _populate(eng, 5)
    case = eng.open_case("m1", _request(day=""))
    # depth 1, stage_size 1: exactly one donor notified
    eng.handle_edit("m1", "collected, thanks all", _classify_stub(ParseOutcome.negative()))
    notices = [e for e in eng.outbound if e["kind"] == "resolution_notice"]
    assert len(notices) == 1


# -- deadlines ------------------------------------------------------------------


def test_resolve_deadline_forms():
    epoch = date(2025, 1, 1)
    mk = lambda day, t: ParsedRequest(blood_group="O+", probable_day=day, probable_time=t)
    # "today" alone -> end of the creation day.
    assert dp.resolve_deadline(mk("today", ""), 0, epoch) == 23 * 3600 + 59 * 60
    # "before HH:MM" binds to the stated clock on the creation day.
    assert dp.resolve_deadline(mk("", "before 17:00"), 0, epoch) == 17 * 3600
    # "tomorrow" with a plain time.
    assert dp.resolve_deadline(mk("tomorrow", "09:30"), 0, epoch) == 86400 + 9 * 3600 + 30 * 60
    # "in n hours" counts from creation.
    assert dp.resolve_deadline(mk("", "in 3 hours"), 100, epoch) == 100 + 3 * 3600
    # Dated day.
    assert dp.resolve_deadline(mk("03/01/2025", ""), 0, epoch) == 2 * 86400 + 23 * 3600 + 59 * 60
    # "after HH:MM" opens a window rather than closing one: without a date
    # there is no deadline; with one, the day still bounds it.
    assert dp.resolve_deadline(mk("", "after 09:00"), 0, epoch) is None
    assert dp.resolve_deadline(mk("today", "after 09:00"), 0, epoch) == 23 * 3600 + 59 * 60
    # Nothing stated -> no deadline.
    assert dp.resolve_deadline(mk("", ""), 0, epoch) is None


def test_case_expires_past_deadline():
    eng = _engine(stage_size=1, stage_timeout=600)
    _populate(eng, 3)
    case = eng.open_case("m1", _request(day="", time_="before 17:00"))
    assert case.deadline == 17 * 3600
    eng.advance_to(62_000)
    assert case.status == dp.EXPIRED
    assert case.next_stage_due is None
    expired_events = [e for e in eng.outbound if e["kind"] == "case_expired"]
    assert len(expired_events) == 1
    # No alert carries a tick past the deadline.
    alerts = [e for e in eng.outbound if e["kind"] == "donor_alert"]
    assert all(e["tick"] <= case.deadline for e in alerts)


def test_expiry_beats_stage_due_at_same_or_later_time():
    eng = _engine(stage_size=1, stage_timeout=600)
    _populate(eng, 5)
    case = eng.open_case("m1", _request(day="", time_="before 00:15"))  # deadline at 900
    eng.advance_to(5_000)
    assert case.status == dp.EXPIRED
    # Stage 2 fired at 600 (before the 900 deadline), stage 3 would be due
    # at 1200 and must not fire.
    assert case.stages_fired == 2


def test_a_day_without_a_year_opened_on_31_12_falls_in_the_next_year():
    eng = _engine(stage_size=1, stage_timeout=600)
    _populate(eng, 3)
    eng.clock.advance_to(364 * 86400 + 72000)  # 31/12/2025, 20:00
    case = eng.open_case("m1", _request(day="02/01"))
    assert case.deadline == 366 * 86400 + 23 * 3600 + 59 * 60  # 02/01/2026, 23:59
    eng.advance_to(eng.clock.now + 1)
    assert case.status == dp.OPEN
    assert [e["kind"] for e in eng.outbound] == ["donor_alert"]
    assert case.next_stage_due == case.created_at + 600  # two days away or less: depth 2
    yesterday = eng.open_case("m2", _request(day="30/12"))
    eng.advance_to(eng.clock.now + 1)
    assert yesterday.status == dp.EXPIRED


def test_fulfilled_before_deadline_never_expires():
    eng = _engine(stage_size=2)
    _populate(eng, 2)
    case = eng.open_case("m1", _request(day="today"))
    donor = next(k[1] for k in eng.ledger)
    eng.handle_response(case.request_id, donor, affirmative=True)
    eng.advance_to(200_000)
    assert case.status == dp.FULFILLED


# -- persistence --------------------------------------------------------------------


def _snapshot_state(eng):
    return (
        {p: (d.donor_id, d.blood_group, d.latitude) for p, d in eng.donors.items()},
        {r: (c.status, c.stages_fired, c.request.blood_group) for r, c in eng.cases.items()},
        {k: (e.stage, e.response, e.resolution_notified) for k, e in eng.ledger.items()},
    )


def test_persist_restore_roundtrip(tmp_path):
    eng = _engine(stage_size=3)
    _populate(eng, 5)
    case = eng.open_case("m1", _request(day="today"))
    donors = [k[1] for k in eng.ledger if k[0] == case.request_id]
    eng.handle_response(case.request_id, donors[0], affirmative=False)
    path = tmp_path / "state.snap"
    eng.persist(path)

    fresh = DispatchEngine(clock=Clock())
    fresh.restore(path)
    assert _snapshot_state(fresh) == _snapshot_state(eng)
    assert fresh.case_by_message == eng.case_by_message
    # Sequence counters restored: new ids do not collide.
    rec = fresh.register_donor("new-user", "AB+", 22.0, 91.0)
    assert rec.donor_id == "d00006"


def test_restore_empty_engine(tmp_path):
    eng = _engine()
    path = tmp_path / "empty.snap"
    eng.persist(path)
    fresh = DispatchEngine(clock=Clock())
    fresh.restore(path)
    assert not fresh.donors and not fresh.cases and not fresh.ledger


def test_restore_truncated_fails_loudly(tmp_path):
    eng = _engine()
    _populate(eng, 3)
    path = tmp_path / "state.snap"
    eng.persist(path)
    full = path.read_text()
    path.write_text(full[: len(full) // 2])
    fresh = DispatchEngine(clock=Clock())
    with pytest.raises(SnapshotError):
        fresh.restore(path)
    assert not fresh.donors  # nothing partially loaded


def test_crash_between_writes_keeps_last_complete(tmp_path):
    eng = _engine()
    eng.register_donor("u1", "O+", 23.8, 90.4)
    path = tmp_path / "state.snap"
    eng.persist(path)
    # Simulated crash mid-second-write: a partial temp file appears next to
    # the snapshot but the rename never happened.
    (tmp_path / "state.snap.partial.tmp").write_text('{"section": "meta", "vers')
    fresh = DispatchEngine(clock=Clock())
    fresh.restore(path)
    assert fresh.donor_by_platform("u1").blood_group == "O+"


def test_restore_missing_file(tmp_path):
    with pytest.raises(SnapshotError):
        DispatchEngine(clock=Clock()).restore(tmp_path / "absent.snap")


def _one_donor_one_case(tmp_path):
    eng = _engine()
    eng.register_donor("u1", "O+", 23.8, 90.4)
    eng.open_case("m1", _request(day="today"))
    assert eng.ledger  # the donor was alerted
    path = tmp_path / "state.snap"
    eng.persist(path)
    return path


_MISSING = object()


def _edited_snapshot(tmp_path, section, field, value):
    """A good snapshot, and a copy whose one `section` line holds `value`
    for `field` (no `field`, for _MISSING), with that line's number."""
    path = _one_donor_one_case(tmp_path)
    lines = path.read_text("utf-8").splitlines()
    [lineno] = [i for i, line in enumerate(lines, 1) if json.loads(line)["section"] == section]
    obj = json.loads(lines[lineno - 1])
    if value is _MISSING:
        del obj[field]
    else:
        obj[field] = value
    lines[lineno - 1] = json.dumps(obj, ensure_ascii=False)
    bad = tmp_path / "bad.snap"
    bad.write_text("\n".join(lines) + "\n", "utf-8")
    return path, bad, lineno


def _refuses_and_keeps_state(good, bad, match):
    """Restoring `bad` over an engine restored from `good` raises a
    SnapshotError matching `match` and leaves the engine's tables as they were."""
    served = _engine()
    served.restore(good)
    before = _state(served)
    tables = served.donors, served.cases, served.ledger, served._groups
    with pytest.raises(SnapshotError, match=match):
        served.restore(bad)
    assert all(a is b for a, b in zip((served.donors, served.cases, served.ledger, served._groups), tables))
    assert _state(served) == before


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("donor", "registered_at", "x"),
        ("donor", "registered_at", True),
        ("case", "created_at", "x"),
        ("case", "created_at", 0.0),
        ("case", "stages_fired", 1.5),
        ("case", "deadline", "x"),
        ("case", "next_stage_due", False),
        ("case", "needs_attention", 0),
        ("ledger", "stage", True),
        ("ledger", "notified_at", None),
        ("ledger", "resolution_notified", "no"),
        ("meta", "clock", "x"),
        ("meta", "donor_seq", True),
        ("meta", "case_seq", 1.0),
        ("end", "records", True),
    ],
)
def test_restore_refuses_wrong_typed_integer_and_boolean_fields(tmp_path, section, field, value):
    path, bad, lineno = _edited_snapshot(tmp_path, section, field, value)
    _refuses_and_keeps_state(path, bad, f"line {lineno}: .*{field}")
    with pytest.raises(SnapshotError, match=f"line {lineno}: "):
        _engine().restore(bad)


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("donor", "platform_id", 5),
        ("donor", "donor_id", ["x"]),
        ("donor", "latitude", True),
        ("donor", "longitude", None),
        ("donor", "last_donation_date", "2025-13-01"),
        ("case", "message_id", 5),
        ("case", "status", None),
        ("case", "anchor", ["a", "b"]),
        ("case", "anchor", [23.8]),
        ("case", "anchor", [23.8, 90.4, 0.0]),
        ("case", "anchor", [True, 90.4]),
        ("case", "anchor", []),
        ("case", "anchor", "23.8,90.4"),
        ("case", "request", "O+"),
        ("ledger", "response", 1),
        ("meta", "clock", _MISSING),
        ("donor", "registered_at", _MISSING),
    ],
    ids=lambda v: "missing" if v is _MISSING else None,
)
def test_restore_refuses_a_field_of_a_json_type_it_does_not_hold(tmp_path, section, field, value):
    # Every field of every line is checked, not only integers and booleans,
    # and the refusal names the line and the field, missing ones included.
    path, bad, lineno = _edited_snapshot(tmp_path, section, field, value)
    _refuses_and_keeps_state(path, bad, f"line {lineno}: FieldError.*'{field}'")


@pytest.mark.parametrize(
    "section, field, value",
    [("case", "status", "bogus"), ("case", "status", "Open"), ("ledger", "response", "maybe"),
     ("ledger", "response", "")],
)
def test_restore_refuses_a_status_or_response_the_engine_never_writes(tmp_path, section, field, value):
    # A case status outside open and the three terminal ones would never
    # expire nor resolve; a ledger response outside none/affirmative/negative
    # would be neither an answer nor its absence.
    path, bad, lineno = _edited_snapshot(tmp_path, section, field, value)
    _refuses_and_keeps_state(path, bad, f"line {lineno}: DispatchError.*{field} {value!r} not one of")


def test_restore_refuses_a_ledger_entry_whose_case_is_in_no_batch(tmp_path):
    path, bad, lineno = _edited_snapshot(tmp_path, "ledger", "request_id", "r99999")
    _refuses_and_keeps_state(path, bad, f"line {lineno}: .*request_id 'r99999' names no case")
    # The case of an entry may come in an earlier batch.
    meta, _, _, entry, _ = path.read_text("utf-8").splitlines()
    with path.open("a", encoding="utf-8") as fh:
        fh.write("\n".join([meta, _edit_line(entry, response="negative"), '{"section": "end", "records": 2}']) + "\n")
    eng = _engine()
    eng.restore(path)
    assert [e.response for e in eng.ledger.values()] == ["negative"]


def test_restore_refuses_a_ledger_entry_whose_donor_is_not_in_the_registry(tmp_path):
    path, bad, lineno = _edited_snapshot(tmp_path, "ledger", "donor_id", "d99999")
    _refuses_and_keeps_state(path, bad, f"line {lineno}: ledger entry's donor_id 'd99999' names no donor")
    # The registry is checked as restored, after the last batch: a donor
    # line of a later batch that gives the platform another id orphans
    # the entries naming the old one.
    meta, donor, *_ = path.read_text("utf-8").splitlines()
    with path.open("a", encoding="utf-8") as fh:
        moved = json.dumps({**json.loads(donor), "donor_id": "d00002"})
        fh.write("\n".join([meta, moved, '{"section": "end", "records": 2}']) + "\n")
    with pytest.raises(SnapshotError, match="line 4: ledger entry's donor_id 'd00001' names no donor"):
        _engine().restore(path)


def test_restore_holds_a_case_s_request_canonical(tmp_path):
    # The engine stores every request canonical; a snapshot line with stray
    # whitespace restores as the request the engine would have stored.
    path = _one_donor_one_case(tmp_path)
    text = path.read_text("utf-8").replace('"probable_day": "today"', '"probable_day": " today\\n"', 1)
    assert '" today\\n"' in text
    path.write_text(text, "utf-8")
    eng = _engine()
    eng.restore(path)
    assert eng.cases["r00001"].request.probable_day == "today"


def test_restore_reads_integer_coordinates_as_floats(tmp_path):
    path = _one_donor_one_case(tmp_path)
    text = path.read_text("utf-8").replace('"latitude": 23.8,', '"latitude": 23,', 1)
    assert '"latitude": 23,' in text
    path.write_text(text, "utf-8")
    eng = _engine()
    eng.restore(path)
    assert type(eng.donors["u1"].latitude) is float and eng.donors["u1"].latitude == 23.0


@pytest.mark.parametrize(
    "obj, error, names",
    [
        ({"version": 1, "donor_seq": 0, "case_seq": 0}, "missing fields", ["clock"]),
        ({"version": 1, "donor_seq": 0, "case_seq": 0, "clock": 0, "extra": 1}, "unknown fields", ["extra"]),
        ({"version": 1, "donor_seq": 0, "case_seq": 0, "clok": 0}, "missing fields", ["clock"]),
        ({"version": 1, "donor_seq": "0", "case_seq": 0.0, "clock": 0}, "wrong-typed fields", ["donor_seq", "case_seq"]),
    ],
    ids=["missing", "unknown", "renamed", "wrong-typed"],
)
def test_decode_names_the_record_type_and_the_fields(obj, error, names):
    with pytest.raises(dp.FieldError) as err:
        records.decode(dp._Meta, obj)
    assert (err.value.error, err.value.fields) == (error, names)
    assert str(err.value).startswith("_Meta ")


def test_decode_inverts_encode_for_every_record_type():
    eng = _engine()
    eng.register_donor("u1", "O+", 23.8, 90.4, date(2024, 12, 1))
    eng.register_donor("u2", "O+", 23.9, 90.5)
    case = eng.open_case("m1", _request(day="today"))
    trace = records.PipelineTrace("m1", t_arrival=0, layer1_prob=0.5, layer2_outcome="request", request_id="r00001")
    for record in (*eng.donors.values(), case, *eng.ledger.values(), trace, eng._meta(), journal._End(3)):
        assert records.decode(type(record), json.loads(json.dumps(records.encode(record)))) == record


@pytest.mark.parametrize("value", ["20250101", "2025-W01-3", "2025-01-1", " 2025-01-01"])
def test_a_date_reads_only_in_the_form_encode_writes(tmp_path, value):
    # Python 3.11's `date.fromisoformat` reads more ISO 8601 forms than 3.10;
    # snapshot lines, POST /donors bodies and scenario donor lines all
    # refuse every form but YYYY-MM-DD, on either version.
    good = {"donor_id": "d00001", "platform_id": "u1", "blood_group": "O+", "latitude": 23.8,
            "longitude": 90.4, "last_donation_date": "2025-01-01", "registered_at": 0}
    assert records.decode(dp.DonorRecord, good).last_donation_date == date(2025, 1, 1)
    with pytest.raises(dp.FieldError, match="last_donation_date"):
        records.decode(dp.DonorRecord, {**good, "last_donation_date": value})
    body = {"platform_id": "u1", "last_donation_date": value}
    with pytest.raises(dp.FieldError, match="last_donation_date"):
        records.read_fields(dp.DonorRecord, body, ("platform_id", *dp.DONOR_FIELDS), required=("platform_id",))
    line = {"tick": 0, "kind": "donor", "sender": "u1", "blood_group": "O+", "latitude": 23.8,
            "longitude": 90.4, "last_donation_date": value}
    scenario = tmp_path / "donor.jsonl"
    scenario.write_text(json.dumps(line, ensure_ascii=False) + "\n", "utf-8")
    with pytest.raises(ScenarioError, match=":1: .*last_donation_date"):
        load_scenario(scenario)
    assert records.decode(dp.DonorRecord, {**good, "last_donation_date": ""}).last_donation_date is None


def _edit_line(line: str, **changes) -> str:
    """The JSON line with `changes` made; a change to None drops the key."""
    obj = json.loads(line)
    obj.update(changes)
    return json.dumps({k: v for k, v in obj.items() if v is not None}, ensure_ascii=False)


# Each edit of the one-batch file (meta, donor, case, ledger, end) leaves its
# bad line before the file's last `end` line, so restore must refuse it rather
# than drop it as a torn tail: lines -> (bad lines, number of the bad line,
# what the message names).
STRUCTURAL_EDITS = {
    "unknown-section": (lambda ls: ls[:4] + ['{"section": "trace", "message_id": "m1"}'] + ls[4:], 5,
                        "unknown section 'trace'"),
    "donor-before-meta": (lambda ls: [ls[1]] + ls, 1, "outside a batch"),
    "case-before-meta": (lambda ls: [ls[2]] + ls, 1, "outside a batch"),
    "ledger-before-meta": (lambda ls: [ls[3]] + ls, 1, "outside a batch"),
    "end-before-meta": (lambda ls: ['{"section": "end", "records": 1}'] + ls, 1, "outside a batch"),
    "meta-inside-batch": (lambda ls: ls[:2] + [ls[0]] + ls[2:], 3, "inside a batch"),
    "meta-without-clock": (lambda ls: [_edit_line(ls[0], clock=None)] + ls[1:], 1, "[Mm]eta"),
    "meta-extra-key": (lambda ls: [_edit_line(ls[0], extra=1)] + ls[1:], 1, "extra"),
    "version-2": (lambda ls: [_edit_line(ls[0], version=2)] + ls[1:], 1, "version"),
    "end-extra-key": (lambda ls: ls[:4] + [_edit_line(ls[4], extra=1)] + [ls[0], '{"section": "end", "records": 1}'],
                      5, "extra"),
}


@pytest.mark.parametrize("edit", STRUCTURAL_EDITS, ids=list(STRUCTURAL_EDITS))
def test_restore_refuses_lines_out_of_place_or_of_unknown_shape(tmp_path, edit):
    path = _one_donor_one_case(tmp_path)
    lines = path.read_text("utf-8").splitlines()
    assert [json.loads(line)["section"] for line in lines] == ["meta", "donor", "case", "ledger", "end"]
    change, lineno, named = STRUCTURAL_EDITS[edit]
    bad = tmp_path / "bad.snap"
    bad.write_text("\n".join(change(lines)) + "\n", "utf-8")
    served = _engine()
    served.restore(path)
    before = _state(served)
    donors, cases, ledger = served.donors, served.cases, served.ledger
    with pytest.raises(SnapshotError, match=f"line {lineno}: .*{named}"):
        served.restore(bad)
    assert served.donors is donors and served.cases is cases and served.ledger is ledger
    assert _state(served) == before  # nothing loaded
    with pytest.raises(SnapshotError, match=f"line {lineno}: "):
        _engine().restore(bad)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("good", [True, False], ids=["restores", "raises"])
def test_restore_pauses_the_gc_and_leaves_it_as_it_found_it(tmp_path, monkeypatch, enabled, good):
    path = _one_donor_one_case(tmp_path)
    if not good:
        path.write_text(path.read_text("utf-8")[:-20], "utf-8")  # the end line cut short
    seen = []
    decode = journal.decode
    monkeypatch.setattr(journal, "decode", lambda cls, obj: seen.append(gc.isenabled()) or decode(cls, obj))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        if good:
            _engine().restore(path)
        else:
            with pytest.raises(SnapshotError):
                _engine().restore(path)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen and not any(seen)  # every record was built with the collector paused


# -- the appended journal --------------------------------------------------------------


def _state(eng):
    """Every field of every record, the id counters and the clock."""
    return (
        {k: asdict(v) for k, v in eng.donors.items()},
        {k: asdict(v) for k, v in eng.cases.items()},
        {k: asdict(v) for k, v in eng.ledger.items()},
        (eng._donor_seq, eng._case_seq, eng.clock.now),
    )


def _restored(path):
    fresh = _engine()
    fresh.restore(path)
    return fresh


def _sections(path):
    return [json.loads(line)["section"] for line in path.read_text("utf-8").splitlines()]


def _journaled(tmp_path):
    """A snapshot of twenty donors, then a batch opening a case (Bengali text,
    so a cut can split a character), then a batch with one "no"."""
    eng = _engine(stage_size=2)
    _populate(eng, 20)
    path = tmp_path / "state.snap"
    eng.persist(path)
    case = eng.open_case("m1", replace(_request(day="today"), hospital_name="ঢাকা মেডিকেল"))
    eng.persist(path)
    donor = eng.case_entries(case.request_id)[0].donor_id
    eng.handle_response(case.request_id, donor, affirmative=False)
    eng.persist(path)
    return eng, path


def test_persist_appends_only_what_changed(tmp_path):
    eng, path = _journaled(tmp_path)
    sections = _sections(path)
    assert sections.count("meta") == 3
    assert sections[-3:] == ["meta", "ledger", "end"]  # the answered entry alone
    assert json.loads(path.read_text("utf-8").splitlines()[-1]) == {"section": "end", "records": 2}
    assert _state(_restored(path)) == _state(eng)
    before = path.stat()
    eng.persist(path)  # nothing changed: nothing written
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    eng.advance_to(5)  # the clock alone: a batch of just the meta line
    eng.persist(path)
    assert _sections(path)[-2:] == ["meta", "end"]
    assert _restored(path).clock.now == 5
    other = tmp_path / "other.snap"
    eng.persist(other)  # not the file this engine wrote: a full snapshot
    assert _sections(other).count("meta") == 1
    assert _state(_restored(other)) == _state(eng)


def test_undecided_edit_appends_nothing(tmp_path):
    eng, path = _journaled(tmp_path)
    case = eng.cases[eng.case_by_message["m1"]]
    request = case.request
    assert eng.handle_edit("m1", "Urgent O- blood needed", lambda text: None) == "parse-error"
    assert case.request == request
    before = path.stat()
    eng.persist(path)
    after = path.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)


def test_torn_final_batch_is_dropped(tmp_path):
    eng, path = _journaled(tmp_path)
    data = path.read_bytes()
    last = data.rindex(b'{"section": "meta"')
    path.write_bytes(data[:last])
    before_reply = _state(_restored(path))
    assert before_reply != _state(eng)
    torn = tmp_path / "torn.snap"
    for cut in range(last, len(data) - 1):  # up to the end line's closing brace
        torn.write_bytes(data[:cut])
        assert _state(_restored(torn)) == before_reply, cut
    torn.write_bytes(data[:-1])  # only the final newline missing: the batch is whole
    assert _state(_restored(torn)) == _state(eng)

    # After a dropped tail the next persist rewrites the file rather than
    # appending behind the torn bytes.
    torn.write_bytes(data[: last + 40])
    fresh = _restored(torn)
    fresh.register_donor("late", "A-", 22.0, 91.0)
    fresh.persist(torn)
    assert _sections(torn).count("meta") == 1
    assert _state(_restored(torn)) == _state(fresh)


def _field_variants(line):
    """The line with its last field dropped, and with a field added."""
    obj = json.loads(line)
    dropped = dict(list(obj.items())[:-1])
    return [json.dumps(dropped, ensure_ascii=False) + "\n", json.dumps({**obj, "extra": 1}) + "\n"]


def test_malformed_line_before_last_end_raises(tmp_path):
    eng, path = _journaled(tmp_path)
    lines = path.read_text("utf-8").splitlines(keepends=True)
    broken = tmp_path / "broken.snap"
    for i in range(len(lines) - 1):  # every line but the final end
        truncated = lines[i][: len(lines[i]) // 2] + "\n"
        for bad in (truncated, "not json\n", '{"section": "donor"}\n', "", *_field_variants(lines[i])):
            broken.write_text("".join(lines[:i] + [bad] + lines[i + 1 :]), "utf-8")
            with pytest.raises(SnapshotError):
                _restored(broken)


@pytest.mark.parametrize("written", [0, 25])
def test_failed_append_forces_full_rewrite(tmp_path, monkeypatch, written):
    eng, path = _journaled(tmp_path)
    eng.register_donor("late", "A-", 22.0, 91.0)
    real_write = os.write

    def torn_write(fd, data):
        real_write(fd, bytes(data)[:written])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "write", torn_write)
    with pytest.raises(OSError):
        eng.persist(path)
    monkeypatch.undo()
    assert "late" not in _restored(path).donors  # never acknowledged
    inode = path.stat().st_ino
    eng.persist(path)
    assert path.stat().st_ino != inode  # a new file renamed into place
    assert _sections(path).count("meta") == 1
    assert _state(_restored(path)) == _state(eng)


def test_compaction_when_tail_outgrows_base(tmp_path):
    eng = _engine()
    _populate(eng, 10)
    path = tmp_path / "state.snap"
    eng.persist(path)
    base = path.stat().st_size
    for i in range(1, 40):
        eng.update_donor(f"u{i % 10}", {"latitude": 20.0 + i / 100})
        batches = _sections(path).count("meta")
        eng.persist(path)
        if _sections(path).count("meta") == 1:
            break
        assert path.stat().st_size <= 2 * base  # the tail never outgrows the base
    else:
        pytest.fail("the journal was never compacted")
    assert batches > 2
    assert path.stat().st_size < base + 100  # one full snapshot of ten donors again
    assert _state(_restored(path)) == _state(eng)
    eng.update_donor("u0", {"blood_group": "B-"})
    eng.persist(path)  # appends behind the compacted snapshot
    assert _sections(path).count("meta") == 2
    assert _state(_restored(path)) == _state(eng)


def test_expiry_alone_reaches_the_journal(tmp_path):
    eng = _engine(stage_size=1, stage_timeout=600)
    _populate(eng, 20)
    case = eng.open_case("m1", _request(day="today"))  # three stages, deadline 23:59
    eng.advance_to(1200)
    path = tmp_path / "state.snap"
    eng.persist(path)
    eng.advance_to(86400)
    eng.persist(path)
    assert _sections(path)[-3:] == ["meta", "case", "end"]
    assert _restored(path).cases[case.request_id].status == dp.EXPIRED
    assert _state(_restored(path)) == _state(eng)


@pytest.mark.parametrize("how", ["copy", "rename", "touch"])
def test_replaced_file_gets_full_rewrite(tmp_path, how):
    eng, path = _journaled(tmp_path)
    other = _engine()
    other.register_donor("stranger", "AB+", 10.0, 10.0)
    other.persist(tmp_path / "other.snap")
    if how == "copy":  # same inode, new content
        shutil.copyfile(tmp_path / "other.snap", path)
    elif how == "rename":  # a new inode
        os.replace(tmp_path / "other.snap", path)
    else:  # same inode and size, a later mtime
        st = path.stat()
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    eng.register_donor("late", "A-", 22.0, 91.0)
    eng.persist(path)
    assert _sections(path).count("meta") == 1
    assert _state(_restored(path)) == _state(eng)
