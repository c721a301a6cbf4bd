"""The fault layer against its golden pins (``tests/golden/faults.json``).

Every fault timeline must stay bit-identical across refactors: the same
records in the same order with the same kind, target and detail, every
callback run as often as before and on the same side of its record, and
every validation failing with the same error. ``tests/test_faults.py``
only checks that a run matches itself; these tests check it matches the
committed file. A deliberate behaviour change regenerates the file with
``make golden`` so the diff is reviewed with the code.
"""

from __future__ import annotations

import json

import pytest

from repro.faults import FaultKind

from .golden.faults_pins import (
    GOLDEN_PATH,
    SEEDS,
    campaign_pin,
    scenario_names,
    scenario_pin,
    validation_pins,
    versions,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _context() -> str:
    """Both version sets, printed with every mismatch."""
    return (
        f"golden generated with {GOLDEN['generated_with']}, running {versions()}; "
        "if the change is deliberate, run `make golden` and review the diff"
    )


def test_golden_covers_every_kind_scenario_and_seed():
    assert GOLDEN["seeds"] == list(SEEDS)
    assert sorted(GOLDEN["campaigns"]) == sorted(kind.value for kind in FaultKind)
    assert sorted(GOLDEN["scenarios"]) == scenario_names()


@pytest.mark.parametrize("kind", sorted(FaultKind, key=lambda kind: kind.value),
                         ids=lambda kind: kind.value)
def test_campaign_matches_golden(kind):
    for seed in SEEDS:
        expected = GOLDEN["campaigns"][kind.value][str(seed)]
        assert campaign_pin(kind, seed) == expected, f"{kind.value} seed {seed}: {_context()}"


def test_validations_match_golden():
    assert validation_pins() == GOLDEN["validation"], _context()


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_output_matches_golden(name):
    for seed in SEEDS:
        assert scenario_pin(name, seed) == GOLDEN["scenarios"][name][str(seed)], (
            f"faults scenario {name} seed {seed}: {_context()}"
        )
