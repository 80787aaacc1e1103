"""The plan rule of a case, under random sequences of engine operations.

A case's deadline and next-stage time are derived by one rule from what
the records hold, whatever write came last: opening, a stage sent or
stalled, a reply, a managed or field edit, an expiry, a restart. The
reference below derives both from the request, the creation tick, the
status and the ledger, plus the one input no record holds: whether the
case's last stage attempt found nobody (a stall), read from the drained
`operator_attention` and `donor_alert` events. A field edit re-plans its
case, a stalled one included; a donor write clears the stall of its
group's open cases below their depth.

Unlike `LedgerMachine` (tests/test_dispatch_index.py), requests change
here: a field edit sets a new blood group, day or time.
"""

import shutil
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from cbrs import dispatch as dp
from cbrs.dispatch import Clock, DispatchEngine
from cbrs.schema import ParsedRequest, ParseOutcome

STAGE_TIMEOUT = 600
# O+ has three donors, B- one, AB- none: cases exhaust their group or stall.
DONORS = (("o1", "O+"), ("o2", "O+"), ("o3", "O+"), ("b1", "B-"))
GROUPS = ("O+", "B-", "AB-")
TIMES = ("", "before 10:00", "in 3 hours", "after 09:00", "18:00")


def _engine():
    return DispatchEngine(clock=Clock(), stage_size=1, stage_timeout=STAGE_TIMEOUT)


def _request(group, day, time_):
    return ParsedRequest(blood_group=group, location_markers=("Dhaka",), probable_day=day, probable_time=time_)


def _entries(engine, case):
    return [e for (request_id, _), e in engine.ledger.items() if request_id == case.request_id]


def _below_depth(engine, case):
    fired = max((e.stage for e in _entries(engine, case)), default=0)
    return case.status == dp.OPEN and fired < dp.urgency_depth(case, engine.clock.epoch_date)


def expected_plan(engine, case, stalled):
    """(deadline, next_stage_due) the plan rule gives `case`."""
    epoch = engine.clock.epoch_date
    deadline = dp.resolve_deadline(case.request, case.created_at, epoch)
    entries = _entries(engine, case)
    if stalled or not _below_depth(engine, case):
        return deadline, None
    return deadline, max((e.notified_at for e in entries), default=case.created_at) + STAGE_TIMEOUT


class PlanMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engine = _engine()
        self.engine.clock.advance_to(360 * 86400)  # 27/12: DD/MM days cross the year
        for platform, group in DONORS:
            self.engine.register_donor(platform, group, 23.8, 90.4)
        self.messages: list[str] = []
        self.stalled: set[str] = set()
        self.dir = Path(tempfile.mkdtemp(prefix="plan-machine-"))

    def teardown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _drain(self):
        """Read the stalls off the events emitted since the last call."""
        for event in self.engine.drain_outbound():
            if event["kind"] == "operator_attention":
                self.stalled.add(event["request_id"])
            elif event["kind"] == "donor_alert":
                self.stalled.discard(event["request_id"])

    def _day(self, data):
        day = data.draw(st.sampled_from(["today", "tomorrow", "", "dd/mm"]))
        if day != "dd/mm":
            return day
        shifted = self.engine.clock.today() + timedelta(days=data.draw(st.integers(-2, 5)))
        return f"{shifted.day:02d}/{shifted.month:02d}"

    @rule(data=st.data(), group=st.sampled_from(GROUPS), time_=st.sampled_from(TIMES))
    def open_case(self, data, group, time_):
        message_id = f"m{len(self.messages)}"
        self.messages.append(message_id)
        self.engine.open_case(message_id, _request(group, self._day(data), time_))

    @precondition(lambda self: self.engine.ledger)
    @rule(data=st.data(), affirmative=st.booleans())
    def reply(self, data, affirmative):
        request_id, donor_id = data.draw(st.sampled_from(sorted(self.engine.ledger)))
        self.engine.handle_response(request_id, donor_id, affirmative)

    @precondition(lambda self: self.engine.cases)
    @rule(data=st.data())
    def decline_stage(self, data):
        """Every donor of the case's latest stage says no."""
        case = self.engine.cases[data.draw(st.sampled_from(sorted(self.engine.cases)))]
        for entry in self.engine._stage_entries(case.request_id, case.stages_fired):
            self.engine.handle_response(entry.request_id, entry.donor_id, False)

    @rule(seconds=st.sampled_from([0, 300, 600, 3600, 86400]))
    def advance(self, seconds):
        self.engine.advance_to(self.engine.clock.now + seconds)

    @rule()
    def restart(self):
        path = self.dir / "state.snap"
        self.engine.persist(path)
        fresh = _engine()
        fresh.restore(path)
        assert fresh.cases == self.engine.cases
        self.engine = fresh

    @precondition(lambda self: self.messages)
    @rule(data=st.data())
    def managed_edit(self, data):
        message_id = data.draw(st.sampled_from(self.messages))
        self.engine.handle_edit(message_id, "Update: managed, thanks all", lambda text: ParseOutcome.negative())

    @precondition(lambda self: self.messages)
    @rule(data=st.data(), group=st.sampled_from(GROUPS), time_=st.sampled_from(TIMES))
    def field_edit(self, data, group, time_):
        message_id = data.draw(st.sampled_from(self.messages))
        outcome = ParseOutcome.positive(_request(group, self._day(data), time_))
        if self.engine.handle_edit(message_id, "edited request", lambda text: outcome) == "updated":
            self.stalled.discard(self.engine.case_by_message[message_id])  # re-planned: it retries

    @rule(platform=st.sampled_from(["o1", "b1", "n1", "n2"]), group=st.sampled_from(GROUPS))
    def donor_write(self, platform, group):
        """A registration or an update, by `put_donor`."""
        self.engine.put_donor(platform, {"blood_group": group, "latitude": 23.8, "longitude": 90.4})
        for case in self.engine.cases.values():
            if case.request.blood_group == group and _below_depth(self.engine, case):
                self.stalled.discard(case.request_id)

    @invariant()
    def every_case_holds_its_plan(self):
        self._drain()
        for case in self.engine.cases.values():
            stalled = case.request_id in self.stalled
            assert (case.deadline, case.next_stage_due) == expected_plan(self.engine, case, stalled), case


PlanMachine.TestCase.settings = settings(
    max_examples=200,
    stateful_step_count=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_plan_rule = PlanMachine.TestCase
