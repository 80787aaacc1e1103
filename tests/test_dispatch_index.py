"""The indexed donor ranking against a scalar full-scan oracle, and the
ledger laws under random sequences of engine operations and restarts from
the snapshot file.

The oracle is the ranking the engine's columns replace: scan every donor,
keep the exact group outside the eligibility window, sort all matches by
(`haversine_km`, registration, donor id), or by recency without an anchor.
A stage is the first `stage_size` of those not yet notified for the case.

The columns are filled by restore and then updated in place; they must
always hold what a fresh build from the registry gives, in any row order.
A ranking with an anchor reads only a latitude band around it; the band
cases below put rows where the band's stopping rule is tightest.
"""

import dataclasses
import json
import math
import shutil
import tempfile
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from cbrs import dispatch as dp
from cbrs import journal
from cbrs.dispatch import Clock, DispatchEngine, haversine_km
from cbrs.schema import BLOOD_GROUPS, ParsedRequest, ParseOutcome

# -- the oracle --------------------------------------------------------------------


def oracle_is_eligible(engine, donor):
    if donor.last_donation_date is None:
        return True
    gap = engine.clock.today() - donor.last_donation_date
    return gap >= timedelta(days=engine.eligibility_days)


def oracle_ranking(engine, case):
    group = case.request.blood_group
    if not group:
        return []
    matches = [d for d in engine.donors.values() if d.blood_group == group]
    matches = [d for d in matches if oracle_is_eligible(engine, d)]
    if case.anchor is not None:
        lat, lon = case.anchor
        matches.sort(
            key=lambda d: (
                haversine_km(d.latitude, d.longitude, lat, lon),
                d.registered_at,
                d.donor_id,
            )
        )
    else:
        matches.sort(key=lambda d: (-d.registered_at, d.donor_id))
    return matches


def oracle_batch(engine, case):
    already = {d for (rid, d) in engine.ledger if rid == case.request_id}
    fresh = [d for d in oracle_ranking(engine, case) if d.donor_id not in already]
    return [d.donor_id for d in fresh[: engine.stage_size]]


def column_view(groups):
    """Each non-empty group's columns as a set of rows (the record's fields
    and its lat, lon, cos and last values), with its recency order as donor
    ids and its latitude order as the sorted latitudes (rows of one
    latitude may come in any order)."""
    view = {}
    for group, index in groups.items():
        rows = set()
        for i, donor in enumerate(index.members):
            rows.add((*dataclasses.astuple(donor), index._lat[i], index._lon[i], index._cos[i], index._last[i]))
        if rows:
            recency = [index.members[i].donor_id for i in index.recency]
            view[group] = (rows, recency, index._lat_sorted.tolist())
    return view


def assert_columns_fresh(engine):
    """The engine's columns hold exactly what a fresh build gives, and each
    row the very record object the registry holds; the latitude order holds
    every row once, at its latitude."""
    assert column_view(engine._groups) == column_view(dp._group_columns(engine.donors.values()))
    for index in engine._groups.values():
        assert all(engine.donors[d.platform_id] is d for d in index.members)
        assert sorted(index._by_lat.tolist()) == list(range(len(index.members)))
        assert np.array_equal(index._lat_sorted, index._lat[index._by_lat])
    assert sum(len(index.members) for index in engine._groups.values()) == len(engine.donors)


def assert_rankings(engine, cases):
    """Every case's ranked prefix, with its anchor and without, is the oracle's."""
    for case in cases:
        notified = sum(1 for (rid, _) in engine.ledger if rid == case.request_id)
        for anchor in (case.anchor, None):
            probe = dp.replace(case, anchor=anchor)
            want = [d.donor_id for d in oracle_ranking(engine, probe)][: engine.stage_size + notified]
            assert [d.donor_id for d in engine.eligible_donors(probe)] == want


class CheckedEngine(DispatchEngine):
    """Compares every ranking and every stage it fires with the oracle."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stages_checked = 0

    def notify_stage(self, case):
        expected = None
        depth = dp.urgency_depth(case, self.clock.epoch_date)
        if case.status == dp.OPEN and case.stages_fired < depth:
            notified = sum(1 for (rid, _) in self.ledger if rid == case.request_id)
            prefix = [d.donor_id for d in oracle_ranking(self, case)][: self.stage_size + notified]
            assert [d.donor_id for d in self.eligible_donors(case)] == prefix
            expected = oracle_batch(self, case)
        entries = super().notify_stage(case)
        if expected is not None:
            assert [e.donor_id for e in entries] == expected
            self.stages_checked += 1
        return entries


# -- randomized registries ---------------------------------------------------------

ANCHORS = [(23.8103, 90.4125), (22.3569, 91.7832), (24.3745, 88.6042), (-33.8688, 151.2093)]


def _ulps(x, n):
    """x moved n representable doubles up (n > 0) or down."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.inf if n > 0 else -math.inf)
    return x


def _coordinate(rng, anchor):
    """Exact ties on the anchor and a few shared points, near-ties a few
    ulps apart, and scattered points."""
    kind = rng.integers(0, 4)
    if kind == 0:
        return anchor
    if kind == 1:
        return ANCHORS[int(rng.integers(0, len(ANCHORS)))]
    if kind == 2:
        lat, lon = anchor
        return _ulps(lat, int(rng.integers(-3, 4))), _ulps(lon, int(rng.integers(-3, 4)))
    lat, lon = anchor
    return float(np.clip(lat + rng.normal(0, 0.05), -90, 90)), float(lon + rng.normal(0, 0.05))


def _last_donation(rng, engine):
    """None, or a day near the eligibility boundary so that advancing the
    clock by a day or two flips it."""
    if rng.random() < 0.3:
        return None
    return engine.clock.today() - timedelta(days=int(rng.integers(85, 95)))


def _request(group, day, markers):
    return ParsedRequest(blood_group=group, location_markers=tuple(markers), probable_day=day)


def _run_random_registry(seed):
    rng = np.random.default_rng(seed)
    eng = CheckedEngine(clock=Clock(), stage_size=int(rng.integers(1, 5)), stage_timeout=600)
    groups = ("O+", "A-")
    anchor = ANCHORS[int(rng.integers(0, len(ANCHORS)))]
    platforms = [f"u{i}" for i in range(int(rng.integers(5, 40)))]
    for platform in platforms:
        lat, lon = _coordinate(rng, anchor)
        eng.register_donor(platform, str(rng.choice(groups)), lat, lon, _last_donation(rng, eng))
        if rng.random() < 0.2:
            eng.clock.advance(int(rng.integers(1, 5)))  # registration recency differs
    cases = []
    for step in range(25):
        op = rng.integers(0, 6)
        if op == 0:
            markers = ("Dhaka",) if rng.random() < 0.6 else ("Nowhere-ville",)
            day = str(rng.choice(["today", "tomorrow", ""]))
            case = eng.open_case(f"m{step}", _request(str(rng.choice(groups)), day, markers))
            if rng.random() < 0.5:
                case.anchor = _coordinate(rng, anchor) if rng.random() < 0.7 else None
            cases.append(case)
        elif op == 1:
            eng.advance_to(eng.clock.now + int(rng.choice([300, 600, 86400, 2 * 86400])))
        elif op == 2:
            platform = str(rng.choice(platforms))
            lat, lon = _coordinate(rng, anchor)
            patch = {"latitude": lat, "longitude": lon}
            if rng.random() < 0.5:
                patch["blood_group"] = str(rng.choice(groups))
            eng.update_donor(platform, patch)
        elif op == 3:
            platform = str(rng.choice(platforms + ["newcomer"]))
            lat, lon = _coordinate(rng, anchor)
            last = _last_donation(rng, eng)
            eng.register_donor(platform, str(rng.choice(groups)), lat, lon, last)
        elif op == 4 and cases:
            case = cases[int(rng.integers(0, len(cases)))]
            for entry in eng._stage_entries(case.request_id, case.stages_fired):
                eng.handle_response(case.request_id, entry.donor_id, affirmative=False)
        elif op == 5 and cases:
            case = cases[int(rng.integers(0, len(cases)))]
            notified = sum(1 for (rid, _) in eng.ledger if rid == case.request_id)
            for anchor_ in (case.anchor, None):
                probe = dp.replace(case, anchor=anchor_)
                want = [d.donor_id for d in oracle_ranking(eng, probe)][: eng.stage_size + notified]
                assert [d.donor_id for d in eng.eligible_donors(probe)] == want
    return eng.stages_checked


def test_ranking_and_stages_match_scalar_oracle():
    checked = sum(_run_random_registry(seed) for seed in range(60))
    assert checked > 300  # the registries really fired stages


def test_ulp_near_ties_keep_exact_order():
    # Donors a few ulps apart around the anchor, and many exact ties on it:
    # the top k must be exactly the scalar sort's top k.
    eng = CheckedEngine(clock=Clock(), stage_size=3)
    lat, lon = ANCHORS[0]
    for i in range(40):
        eng.register_donor(f"u{i}", "O+", _ulps(lat, (i % 7) - 3), _ulps(lon, (i % 5) - 2))
    case = eng.open_case("m1", _request("O+", "today", ("Dhaka",)))
    case.anchor = (lat, lon)
    eng.advance_to(600)
    eng.advance_to(1200)
    assert eng.stages_checked == 3


def test_eligibility_boundary_crossed_by_advance():
    eng = CheckedEngine(clock=Clock(), stage_size=2, stage_timeout=86400)
    today = eng.clock.today()
    eng.register_donor("ready", "O+", 23.8, 90.4, today - timedelta(days=90))
    eng.register_donor("tomorrow", "O+", 23.8, 90.4, today - timedelta(days=89))
    eng.register_donor("later", "O+", 23.8, 90.4, today - timedelta(days=80))
    case = eng.open_case("m1", _request("O+", "tomorrow", ("Dhaka",)))
    assert [e.donor_id for e in eng._stage_entries(case.request_id, 1)] == ["d00001"]
    eng.advance_to(86400)  # a day later the next donor is outside the window
    assert [e.donor_id for e in eng._stage_entries(case.request_id, 2)] == ["d00002"]


def test_group_change_between_stages_moves_donor():
    eng = CheckedEngine(clock=Clock(), stage_size=1, stage_timeout=600)
    for i in range(4):
        eng.register_donor(f"u{i}", "O+", 23.8 + i * 0.01, 90.4)
    eng.register_donor("switch", "A-", 23.8103, 90.4125)  # on the anchor
    case = eng.open_case("m1", _request("O+", "today", ("Dhaka",)))
    eng.update_donor("switch", {"blood_group": "O+"})
    eng.advance_to(600)
    assert [e.donor_id for e in eng._stage_entries(case.request_id, 2)] == ["d00005"]
    eng.register_donor("u2", "A-", 23.82, 90.4)  # the next nearest leaves the group
    eng.advance_to(1200)
    assert [e.donor_id for e in eng._stage_entries(case.request_id, 3)] == ["d00001"]
    assert eng.stages_checked == 3


def test_restore_rebuilds_ledger_index(tmp_path):
    eng = CheckedEngine(clock=Clock(), stage_size=2, stage_timeout=600)
    for i in range(6):
        eng.register_donor(f"u{i}", "O+", 23.8 + i * 0.01, 90.4)
    case = eng.open_case("m1", _request("O+", "today", ("Dhaka",)))
    eng.persist(tmp_path / "state.snap")
    fresh = CheckedEngine(clock=Clock(), stage_size=2, stage_timeout=600)
    fresh.restore(tmp_path / "state.snap")
    fresh.advance_to(600)  # stage 2 must skip the donors of stage 1
    assert fresh.stages_checked == 1
    fresh.handle_edit("m1", "managed", lambda text: ParseOutcome.negative())
    noticed = [e["donor_id"] for e in fresh.outbound if e["kind"] == "resolution_notice"]
    assert noticed == sorted(d for (rid, d) in fresh.ledger if rid == case.request_id)
    assert len(noticed) == 4


def test_changes_after_restore_update_columns_without_a_rebuild(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    eng = DispatchEngine(clock=Clock(), stage_size=3)
    for i in range(160):
        lat, lon = _coordinate(rng, ANCHORS[0])
        eng.register_donor(f"u{i}", BLOOD_GROUPS[i % 8], lat, lon, _last_donation(rng, eng))
        eng.clock.advance(int(rng.integers(0, 3)))
    eng.persist(tmp_path / "state.snap")
    fresh = DispatchEngine(clock=Clock(), stage_size=3)
    fresh.restore(tmp_path / "state.snap")
    builds = []
    build = dp._GroupIndex.__init__

    def counted(self, *args):
        builds.append(self)
        build(self, *args)

    monkeypatch.setattr(dp._GroupIndex, "__init__", counted)
    cases = [fresh.open_case(f"m{g}", _request(g, "today", ("Dhaka",))) for g in BLOOD_GROUPS]
    assert_rankings(fresh, cases)
    before = fresh.donors["u4"]  # BLOOD_GROUPS[4] == "O+"
    changes = [
        lambda: fresh.register_donor("newcomer", "O+", *ANCHORS[0]),
        lambda: fresh.update_donor("u4", {"latitude": 23.81, "longitude": 90.41}),
        lambda: fresh.update_donor("u12", {"blood_group": "B-"}),
        lambda: fresh.register_donor("u20", "AB+", *ANCHORS[0], None),
    ]
    for change in changes:
        fresh.clock.advance(60)
        change()
        assert_rankings(fresh, cases)
        assert builds == []
    monkeypatch.undo()
    assert_columns_fresh(fresh)
    assert fresh.donors["u4"].donor_id == before.donor_id
    assert fresh.donors["u12"].blood_group == "B-" and fresh.donors["u20"].blood_group == "AB+"


def test_registrations_and_moves_place_rows_in_recency_without_a_full_sort(tmp_path, monkeypatch):
    # Many donors share each registration tick, and the ids pass d99999,
    # where string order stops being sequence order: v1, v2 and v3 register
    # at one tick as d99999, d100000 and d100001.
    rng = np.random.default_rng(11)
    eng = DispatchEngine(clock=Clock(), stage_size=3)
    eng._donor_seq = 99_917
    for i in range(80):
        lat, lon = _coordinate(rng, ANCHORS[0])
        eng.register_donor(f"u{i}", BLOOD_GROUPS[i % 2], lat, lon, _last_donation(rng, eng))
        eng.clock.advance(int(rng.integers(0, 2)) * 60)
    eng.persist(tmp_path / "state.snap")
    fresh = DispatchEngine(clock=Clock(), stage_size=3)
    fresh.restore(tmp_path / "state.snap")
    cases = [fresh.open_case(f"m{g}", _request(g, "today", ("Dhaka",))) for g in BLOOD_GROUPS[:2]]
    sorts = []
    order = dp._GroupIndex._order
    monkeypatch.setattr(dp._GroupIndex, "_order", lambda self: sorts.append(self) or order(self))
    changes = [
        lambda: fresh.register_donor("v0", BLOOD_GROUPS[0], *ANCHORS[0]),  # at the newest rows' tick
        lambda: [fresh.register_donor(f"v{i}", BLOOD_GROUPS[i % 2], *ANCHORS[0]) for i in range(1, 4)],
        lambda: fresh.update_donor("u1", {"blood_group": BLOOD_GROUPS[0]}),  # moves a row
        lambda: fresh.register_donor("u2", BLOOD_GROUPS[1], *ANCHORS[0], None),  # moves one back
        lambda: fresh.update_donor("v0", {"latitude": 23.9}),
    ]
    for change in changes:
        change()
        assert_rankings(fresh, cases)
        assert sorts == []
        fresh.clock.advance(int(rng.integers(0, 2)) * 60)
    for i in range(60):  # more new rows than bisecting pays for: one full sort
        fresh.register_donor(f"w{i}", BLOOD_GROUPS[0], *ANCHORS[0])
    assert_rankings(fresh, cases)
    assert sorts == [fresh._groups[BLOOD_GROUPS[0]]]
    monkeypatch.undo()
    assert_columns_fresh(fresh)


def test_row_order_does_not_change_rankings():
    rng = np.random.default_rng(5)
    eng = DispatchEngine(clock=Clock(), stage_size=4)
    for i in range(300):
        lat, lon = _coordinate(rng, ANCHORS[0])
        eng.register_donor(f"u{i}", "O+", lat, lon, _last_donation(rng, eng))
        eng.clock.advance(int(rng.integers(0, 2)))  # many registration ties
    index = eng._groups["O+"]
    members = [index.members[i] for i in rng.permutation(len(index.members))]
    shuffled = dp._GroupIndex(members)
    cutoff = eng.clock.today().toordinal() - eng.eligibility_days
    for k in (1, 4, 25, 300):
        for anchor in (ANCHORS[0], ANCHORS[1], (23.81, 90.41)):
            assert shuffled.nearest(cutoff, anchor, k) == index.nearest(
                cutoff, anchor, k)
        assert shuffled.newest(cutoff, k) == index.newest(cutoff, k)


# -- the latitude band against the oracle ----------------------------------------------


def _registry(points, days=None, group="O+", ticks=None):
    """An engine holding one donor per point, restored from its snapshot
    so the columns and both orders are built by restore."""
    eng = DispatchEngine(clock=Clock())
    for i, (lat, lon) in enumerate(points):
        if ticks is not None:
            eng.clock.now = ticks[i]
        last = None if days is None or days[i] is None else eng.clock.today() - timedelta(days=days[i])
        eng.register_donor(f"u{i}", group, lat, lon, last)
    path = Path(tempfile.mkdtemp(prefix="band-")) / "state.snap"
    try:
        eng.persist(path)
        fresh = DispatchEngine(clock=Clock())
        fresh.restore(path)
    finally:
        shutil.rmtree(path.parent)
    return fresh


def assert_band_rankings(engine, anchors, ks=(1, 2, 3, 5, 10, 40, 10_000), group="O+"):
    """Each k-prefix of the ranking at each anchor is the oracle's."""
    for anchor in anchors:
        case = dp.RequestCase("r-probe", "m-probe", _request(group, "", ()), anchor=anchor)
        want = [d.donor_id for d in oracle_ranking(engine, case)]
        for k in ks:
            engine.stage_size = k
            assert [d.donor_id for d in engine.eligible_donors(case)] == want[:k], (anchor, k)


def test_band_on_a_clustered_registry():
    # Every donor within 0.05 degrees of Dhaka: the band soon holds all rows.
    rng = np.random.default_rng(21)
    lat, lon = ANCHORS[0]
    points = [(lat + float(dy), lon + float(dx)) for dy, dx in rng.uniform(-0.05, 0.05, (400, 2))]
    days = [None if rng.random() < 0.3 else int(rng.integers(0, 200)) for _ in points]
    eng = _registry(points, days)
    assert_band_rankings(eng, [ANCHORS[0], points[7], (lat + 0.05, lon), (lat, lon - 0.2), ANCHORS[1]])


def test_band_on_one_parallel_degenerates_to_the_whole_group():
    # The band's gap to the next row stays 0, so it widens to every row.
    lat = 23.8
    points = [(lat, 88.0 + i * 0.01) for i in range(200)]
    eng = _registry(points, [int(d) for d in np.arange(200) % 120])
    assert_band_rankings(eng, [(lat, 89.0), (lat, 87.5), (lat + 0.3, 89.0), (lat - 1e-9, 88.0)])


def test_band_with_the_anchor_north_or_south_of_every_row():
    rng = np.random.default_rng(22)
    points = [(float(a), float(b)) for a, b in zip(rng.uniform(22, 26, 300), rng.uniform(88, 92, 300))]
    eng = _registry(points)
    assert_band_rankings(eng, [(40.0, 90.0), (26.0001, 90.0), (-10.0, 90.0), (21.9999, 88.5), (90.0, 0.0)])


def test_band_keeps_rows_exactly_at_its_stopping_latitude():
    # Due north and due east of the anchor at the same angle, the distance
    # term is the same, sin^2(d/2), and so is the lower bound the band puts
    # on rows a latitude gap d away. The north donor registered first and
    # wins the tie, so a band that stops with it outside ranks wrong.
    points = [(0.5, 0.0), (0.0, 0.5), (-0.5, 0.0), (0.0, -0.5)]
    points += [(0.0, 3.0 + i * 0.01) for i in range(40)]  # on the anchor's parallel, far east
    points += [(sign * (0.6 + i * 0.02), 0.0) for i in range(40) for sign in (1, -1)]  # farther north and south
    ticks = [0, 5, 1, 6] + [10] * (len(points) - 4)
    eng = _registry(points, ticks=ticks)
    assert [d.platform_id for d in oracle_ranking(eng, dp.RequestCase(
        "r-probe", "m-probe", _request("O+", "", ()), anchor=(0.0, 0.0)))][:4] == ["u0", "u2", "u1", "u3"]
    assert_band_rankings(eng, [(0.0, 0.0)], ks=(1, 2, 3, 4, 5))


def test_band_ties_on_identical_coordinates_break_on_registration_then_id(tmp_path):
    # Ids pass d99999, where string order stops being sequence order.
    eng = DispatchEngine(clock=Clock())
    eng._donor_seq = 99_990
    for i in range(30):
        eng.clock.now = (i * 7) % 4  # registration ties too
        eng.register_donor(f"u{i}", "O+", *ANCHORS[0])
        eng.register_donor(f"v{i}", "O+", ANCHORS[0][0] + 0.5, ANCHORS[0][1])
    anchors = [ANCHORS[0], (ANCHORS[0][0] + 0.25, ANCHORS[0][1])]
    assert_band_rankings(eng, anchors)  # rows placed by `_settle`
    eng.persist(tmp_path / "state.snap")
    fresh = DispatchEngine(clock=Clock())
    fresh.restore(tmp_path / "state.snap")
    assert_band_rankings(fresh, anchors)  # rows placed by restore


def test_band_near_the_antimeridian():
    rng = np.random.default_rng(23)
    lons = np.concatenate([rng.uniform(179.9, 180.0, 100), rng.uniform(-180.0, -179.9, 100), [180.0, -180.0]])
    lats = np.concatenate([rng.uniform(-0.1, 0.1, 200), [0.0, 0.0]])
    eng = _registry([(float(a), float(b)) for a, b in zip(lats, lons)])
    assert_band_rankings(eng, [(0.0, 180.0), (0.0, -180.0), (0.05, 179.99), (-0.02, -179.95), (0.0, 0.0)])


def test_band_when_k_reaches_the_eligible_count():
    days = [None, 10, 200, 95, 89, 300, None, 90, 1, 120]
    eng = _registry([(23.8 + i * 0.1, 90.4 - i * 0.1) for i in range(10)], days)
    eligible = sum(1 for d in eng.donors.values() if oracle_is_eligible(eng, d))
    assert eligible == 7
    assert_band_rankings(eng, [ANCHORS[0], (30.0, 90.0)], ks=(6, 7, 8, 100))


def test_band_on_an_empty_group_and_a_group_nobody_may_give_in():
    eng = _registry([(23.8, 90.4), (23.9, 90.5)], days=[10, 20])
    assert_band_rankings(eng, [ANCHORS[0]], group="AB-")  # no donor of the group
    assert_band_rankings(eng, [ANCHORS[0]])  # none eligible
    assert eng._groups["AB-"].nearest(0, ANCHORS[0], 3) == []


def test_band_on_random_registries_of_every_spread():
    rng = np.random.default_rng(24)
    for trial in range(24):
        n = int(rng.integers(1, 400))
        spread = [0.001, 0.5, 5.0, 90.0][trial % 4]
        lats = np.clip(rng.normal(23.8, spread, n), -90, 90)
        lons = (rng.normal(90.4, spread * 2, n) + 180) % 360 - 180
        points = [(float(a), float(b)) for a, b in zip(lats, lons)]
        days = [None if rng.random() < 0.2 else int(rng.integers(0, 180)) for _ in points]
        eng = _registry(points, days)
        anchors = [points[int(rng.integers(0, n))], ANCHORS[int(rng.integers(0, len(ANCHORS)))],
                   (float(rng.uniform(-90, 90)), float(rng.uniform(-180, 180)))]
        assert_band_rankings(eng, anchors, ks=(1, int(rng.integers(1, 60)), n))


def test_band_follows_registrations_moves_regroups_and_removals():
    rng = np.random.default_rng(25)
    points = [(float(a), float(b)) for a, b in zip(rng.uniform(22, 26, 200), rng.uniform(88, 92, 200))]
    eng = _registry(points)
    anchors = [ANCHORS[0], ANCHORS[1], (24.0, 90.0)]
    steps = [
        lambda: eng.register_donor("n0", "O+", 23.81, 90.41),  # waits to be placed
        lambda: eng.register_donor("n1", "O+", 23.0, 89.0),
        lambda: eng.update_donor("n1", {"latitude": 25.5}),  # moved before it is placed
        lambda: eng.update_donor("u3", {"latitude": 23.8103, "longitude": 90.4125}),  # a placed row moves
        lambda: eng.update_donor("u4", {"longitude": 90.0}),  # same latitude: stays put
        lambda: eng.update_donor("u5", {"blood_group": "A+"}),  # removed from O+
        lambda: eng.update_donor("u5", {"blood_group": "O+", "latitude": 23.9}),  # and back, elsewhere
        lambda: [eng.register_donor(f"m{i}", "O+", 23.8 + i * 1e-4, 90.4) for i in range(50)],
        lambda: eng.update_donor("u199", {"blood_group": "B-"}),  # the last row leaves
        lambda: eng.update_donor("m0", {"latitude": 26.5}),
    ]
    for step in steps:
        step()
        assert_band_rankings(eng, anchors, ks=(1, 5, 30))
        assert_columns_fresh(eng)


@pytest.mark.parametrize(
    "edit",
    ['"latitude": "23.8"', '"latitude": null', '"blood_group": ["O+"]', '"latitude": NaN',
     '"blood_group": "ZZ"', '"latitude": 95.0'],
    ids=["string-latitude", "null-latitude", "list-group", "nan-latitude", "unknown-group",
         "latitude-out-of-range"],
)
def test_restore_rejects_donor_values_no_column_holds(tmp_path, edit):
    eng = DispatchEngine(clock=Clock())
    eng.register_donor("u0", "O+", 23.8, 90.4)
    eng.persist(tmp_path / "state.snap")
    text = (tmp_path / "state.snap").read_text("utf-8")
    field = edit.split(":")[0]
    start = text.index(field)
    end = text.index(",", start)
    (tmp_path / "bad.snap").write_text(text[:start] + edit + text[end:], "utf-8")
    served = DispatchEngine(clock=Clock())
    served.restore(tmp_path / "state.snap")
    donors, groups = served.donors, served._groups
    with pytest.raises(dp.SnapshotError, match="line 2: "):  # the donor line, after the meta line
        served.restore(tmp_path / "bad.snap")
    assert served.donors is donors and served._groups is groups  # nothing half-restored
    served.update_donor("u0", {"latitude": 23.9})
    assert_columns_fresh(served)


def test_registrations_grow_the_columns_geometrically():
    eng = DispatchEngine(clock=Clock())
    index = eng._groups["O+"]
    arrays = set()
    for i in range(2000):
        eng.register_donor(f"u{i}", "O+", 23.8, 90.4)
        arrays.add(id(index._lat))
    assert len(index.members) == 2000 and len(index._lat) < 2 * 2000 + 16
    assert len(arrays) <= 8  # reallocations: O(log n), so n appends cost O(n)
    assert_columns_fresh(eng)


# -- restore reads what json.loads reads ------------------------------------------------

LINE_VARIANTS = [
    '{"a": 1}\n', '{"a": 1}', ' {"a": 1}\n', '{"a": 1} \n', '{"a": 1}\r\n', '{"a": 1}\t\n',
    '{"a": 1} {}\n', '{"a": 1}x\n', '{"a": 1}\n\n', '\n', '', ' \n', '\ufeff{"a": 1}\n',
    '{"a": }\n', '{"a": 1\n', '[1]\n', '"s"\n', '7 \n', 'NaN\n', 'ঢাকা\n', '{"ঢাকা": "\\u09a2"}\n',
]


def _outcome(read, raw):
    try:
        return "value", repr(read(raw))
    except ValueError as exc:
        return type(exc), str(exc)


def test_snapshot_lines_read_as_json_loads_reads_them():
    for text in LINE_VARIANTS:
        raw = text.encode("utf-8")
        assert _outcome(journal._loads, raw) == _outcome(lambda r: json.loads(r.decode("utf-8")), raw)


def test_restore_accepts_padded_lines_and_any_key_order(tmp_path):
    eng = DispatchEngine(clock=Clock(), stage_size=2)
    for i in range(6):
        eng.register_donor(f"u{i}", "O+", 23.8 + i * 0.01, 90.4)
    eng.open_case("m1", _request("O+", "today", ("Dhaka",)))
    eng.persist(tmp_path / "state.snap")
    lines = (tmp_path / "state.snap").read_text("utf-8").splitlines()
    reordered = [json.dumps(dict(reversed(json.loads(line).items()))) for line in lines]
    (tmp_path / "odd.snap").write_text("".join(f" {line} \r\n" for line in reordered), "utf-8")
    fresh = DispatchEngine()
    fresh.restore(tmp_path / "odd.snap")
    for table in ("donors", "cases", "ledger"):
        assert getattr(fresh, table) == getattr(eng, table)
    assert column_view(fresh._groups) == column_view(eng._groups)
    (tmp_path / "extra.snap").write_text("\n".join(lines[:2] + [lines[2] + " {}"] + lines[3:]) + "\n")
    with pytest.raises(dp.SnapshotError):
        DispatchEngine().restore(tmp_path / "extra.snap")


# -- ledger laws under random operations ------------------------------------------------

PLATFORMS = [f"p{i}" for i in range(8)]
GROUPS = ("O+", "B-")
POINTS = (ANCHORS[0], ANCHORS[1], (23.8, 90.4), (23.8103, 90.4126))


class LedgerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engine = CheckedEngine(clock=Clock(), stage_size=1, stage_timeout=600)
        self.first_answer: dict[tuple[str, str], str] = {}
        self.managed: set[str] = set()
        self.outbound: list[dict] = []
        self.messages: list[str] = []
        self.dir = Path(tempfile.mkdtemp(prefix="ledger-machine-"))

    def teardown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    @rule(platform=st.sampled_from(PLATFORMS), group=st.sampled_from(GROUPS),
          point=st.sampled_from(POINTS), days=st.none() | st.integers(80, 100))
    def register(self, platform, group, point, days):
        last = None if days is None else self.engine.clock.today() - timedelta(days=days)
        self.engine.register_donor(platform, group, *point, last)

    @precondition(lambda self: self.engine.donors)
    @rule(data=st.data(), group=st.none() | st.sampled_from(GROUPS),
          point=st.none() | st.sampled_from(POINTS))
    def update(self, data, group, point):
        platform = data.draw(st.sampled_from(sorted(self.engine.donors)))
        patch = {}
        if group is not None:
            patch["blood_group"] = group
        if point is not None:
            patch["latitude"], patch["longitude"] = point
        self.engine.update_donor(platform, patch)
        if point is not None:  # the row may have moved in the latitude order
            assert_rankings(self.engine, self.engine.cases.values())

    @rule(group=st.sampled_from(GROUPS), day=st.sampled_from(["today", "tomorrow", ""]),
          markers=st.sampled_from([("Dhaka",), ("Nowhere-ville",), ()]))
    def open_case(self, group, day, markers):
        message_id = f"m{len(self.messages)}"
        self.messages.append(message_id)
        self.engine.open_case(message_id, _request(group, day, markers))

    @precondition(lambda self: self.engine.ledger)
    @rule(data=st.data(), affirmative=st.booleans())
    def respond(self, data, affirmative):
        self.respond_as(*data.draw(st.sampled_from(sorted(self.engine.ledger))), affirmative)

    def respond_as(self, request_id, donor_id, affirmative):
        answer = "affirmative" if affirmative else "negative"
        self.first_answer.setdefault((request_id, donor_id), answer)
        self.engine.handle_response(request_id, donor_id, affirmative)

    @precondition(lambda self: self.engine.cases)
    @rule(data=st.data())
    def decline_stage(self, data):
        """Every donor of the case's latest stage says no: the next fires now."""
        case = self.engine.cases[data.draw(st.sampled_from(sorted(self.engine.cases)))]
        for entry in self.engine._stage_entries(case.request_id, case.stages_fired):
            self.respond_as(entry.request_id, entry.donor_id, False)

    @precondition(lambda self: self.messages)
    @rule(data=st.data())
    def edit_managed(self, data):
        message_id = data.draw(st.sampled_from(self.messages))
        self.engine.handle_edit(message_id, "Update: managed, thanks all",
                                lambda text: ParseOutcome.negative())
        request_id = self.engine.case_by_message[message_id]
        if self.engine.cases[request_id].status in dp._TERMINAL:
            self.managed.add(request_id)

    @rule(seconds=st.sampled_from([0, 300, 600, 86400]))
    def advance(self, seconds):
        self.engine.advance_to(self.engine.clock.now + seconds)

    @rule()
    def checkpoint(self):
        self.engine.persist(self.dir / "state.snap")

    @rule()
    def restart(self):
        """Persist, restore into a fresh engine and carry on with that one.
        Queued outbound events are delivered first; they are not state."""
        self._drained()
        self.engine.persist(self.dir / "state.snap")
        fresh = CheckedEngine(clock=Clock(), stage_size=1, stage_timeout=600)
        fresh.restore(self.dir / "state.snap")
        for table in ("donors", "cases", "ledger", "case_by_message"):
            assert getattr(fresh, table) == getattr(self.engine, table)
        assert fresh.clock.now == self.engine.clock.now
        assert column_view(fresh._groups) == column_view(self.engine._groups)
        self.engine = fresh

    def _drained(self):
        self.outbound.extend(self.engine.drain_outbound())
        return self.outbound

    @invariant()
    def no_donor_notified_twice(self):
        alerts = [
            (e["request_id"], e["donor_id"]) for e in self._drained() if e["kind"] == "donor_alert"
        ]
        assert len(alerts) == len(set(alerts))
        assert set(alerts) == set(self.engine.ledger)

    @invariant()
    def stages_within_urgency_depth(self):
        for case in self.engine.cases.values():
            assert case.stages_fired <= dp.urgency_depth(case, self.engine.clock.epoch_date)

    @invariant()
    def first_answer_is_final(self):
        for key, answer in self.first_answer.items():
            assert self.engine.ledger[key].response == answer

    @invariant()
    def columns_match_a_fresh_build(self):
        assert_columns_fresh(self.engine)

    @invariant()
    def one_resolution_notice_per_notified_donor(self):
        notices = [(e["request_id"], e["donor_id"]) for e in self._drained()
                   if e["kind"] == "resolution_notice"]
        assert len(notices) == len(set(notices))
        notified = {key for key in self.engine.ledger if key[0] in self.managed}
        assert set(notices) == notified


LedgerMachine.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_ledger_laws = LedgerMachine.TestCase
