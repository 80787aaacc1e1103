"""Every bundled scenario replays to its recorded transcript, byte for byte.

`tests/golden/<scenario>.txt` holds
`simulate(path, scenario_model, RulesBackend()).transcript_text()` plus a
final newline. Run-to-run determinism alone would let a reordered alert
pass; these files pin the order itself. A deliberate behaviour change
rewrites them with that same call.
"""

from pathlib import Path

import pytest

from cbrs.gateway import bundled_scenarios, simulate
from cbrs.layer2 import RulesBackend

GOLDEN = Path(__file__).parent / "golden"


def test_every_scenario_has_a_golden_transcript():
    assert {p.stem for p in bundled_scenarios()} == {p.stem for p in GOLDEN.glob("*.txt")}


@pytest.mark.parametrize("path", bundled_scenarios(), ids=lambda p: p.stem)
def test_transcript_matches_golden(path, scenario_model):
    text = simulate(path, scenario_model, RulesBackend()).transcript_text() + "\n"
    assert text == (GOLDEN / f"{path.stem}.txt").read_text(encoding="utf-8")
