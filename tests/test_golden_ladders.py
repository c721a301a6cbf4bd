"""The ladder experiments against their golden pins (``tests/golden/ladders.json``).

The naive-vs-robust experiments run the control bus, the dead-man
lease, the reconciler, the machine-check stream, the health, power,
rollout and emergency ladders and the thermal plant, so a change to any
of them that moves one event, one draw or one float moves these pins.
Every field is held as an exact ``repr``: a refactor of those paths
must reproduce it bit for bit. The rendered text of every seeded
comparison, ``overload`` and a shrunk ``recovery`` included, is pinned
by hash. A deliberate behaviour change regenerates the file with
``make golden`` so the diff is reviewed with the code.
"""

from __future__ import annotations

import json

import pytest

from .golden.ladders_pins import (
    EXPERIMENTS,
    GOLDEN_PATH,
    REPORTS,
    SEEDS,
    experiment_pin,
    report_pin,
    versions,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _context() -> str:
    """Both version sets, printed with every mismatch."""
    return (
        f"golden generated with {GOLDEN['generated_with']}, running {versions()}; "
        "if the change is deliberate, run `make golden` and review the diff"
    )


def test_golden_covers_every_experiment_and_seed():
    assert GOLDEN["seeds"] == list(SEEDS)
    assert sorted(GOLDEN["experiments"]) == sorted(EXPERIMENTS)
    assert sorted(GOLDEN["reports"]) == sorted(REPORTS)
    for section in (*GOLDEN["experiments"].values(), *GOLDEN["reports"].values()):
        assert sorted(section) == sorted(str(seed) for seed in SEEDS)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_ladder_experiment_matches_golden(name):
    for seed in SEEDS:
        expected = GOLDEN["experiments"][name][str(seed)]
        assert experiment_pin(name, seed) == expected, f"{name} seed {seed}: {_context()}"


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_rendered_report_matches_golden(name):
    for seed in SEEDS:
        expected = GOLDEN["reports"][name][str(seed)]
        assert report_pin(name, seed) == expected, f"{name} report seed {seed}: {_context()}"
