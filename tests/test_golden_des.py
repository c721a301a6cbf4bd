"""The per-request DES against its golden pins (``tests/golden/des.json``).

The auto-scaler experiments (Figs. 15-16, Table XI) and the live
service run on the processor-sharing DES, so a change to the kernel,
the RNG streams, the arrival source, the PS queue or the service's
admission, backlog and ladders that moves one event or one draw moves
these numbers. The pins hold every value as an exact
``repr``: a refactor of that path must reproduce them bit for bit. A
deliberate behaviour change regenerates the file with ``make golden`` so
the diff is reviewed with the code.
"""

from __future__ import annotations

import json

import pytest

from .golden.des_pins import (
    DISPATCH_CONFIGS,
    GOLDEN_PATH,
    MODES,
    SEEDS,
    SERVICE_MODES,
    dispatch_pin,
    fig15_pin,
    fig16_pin,
    ops_pin,
    service_pin,
    storm_pin,
    versions,
)

GOLDEN = json.loads(GOLDEN_PATH.read_text())


def _context() -> str:
    """Both version sets, printed with every mismatch."""
    return (
        f"golden generated with {GOLDEN['generated_with']}, running {versions()}; "
        "if the change is deliberate, run `make golden` and review the diff"
    )


def test_golden_covers_every_mode_and_seed():
    assert GOLDEN["seeds"] == list(SEEDS)
    assert sorted(GOLDEN["fig16"]) == sorted(mode.value for mode in MODES)
    assert sorted(GOLDEN["dispatch"]) == sorted(DISPATCH_CONFIGS)
    for pins in (GOLDEN["storm"], GOLDEN["ops"], *GOLDEN["dispatch"].values()):
        assert sorted(pins) == sorted(SERVICE_MODES)
    for section in (
        *GOLDEN["fig16"].values(),
        GOLDEN["fig15"],
        GOLDEN["service"],
        *GOLDEN["storm"].values(),
        *GOLDEN["ops"].values(),
        *(pins for config in GOLDEN["dispatch"].values() for pins in config.values()),
    ):
        assert sorted(section) == sorted(str(seed) for seed in SEEDS)


@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
def test_fig16_ramp_matches_golden(mode):
    for seed in SEEDS:
        expected = GOLDEN["fig16"][mode.value][str(seed)]
        assert fig16_pin(mode, seed) == expected, f"{mode.value} seed {seed}: {_context()}"


def test_fig15_phases_match_golden():
    for seed in SEEDS:
        assert fig15_pin(seed) == GOLDEN["fig15"][str(seed)], f"seed {seed}: {_context()}"


def test_service_chain_matches_golden():
    for seed in SEEDS:
        assert service_pin(seed) == GOLDEN["service"][str(seed)], f"seed {seed}: {_context()}"


@pytest.mark.parametrize("mode", SERVICE_MODES)
def test_overload_storm_matches_golden(mode):
    for seed in SEEDS:
        expected = GOLDEN["storm"][mode][str(seed)]
        assert storm_pin(mode, seed) == expected, f"{mode} seed {seed}: {_context()}"


@pytest.mark.parametrize("mode", SERVICE_MODES)
def test_audited_ops_chain_matches_golden(mode):
    for seed in SEEDS:
        expected = GOLDEN["ops"][mode][str(seed)]
        assert ops_pin(mode, seed) == expected, f"{mode} seed {seed}: {_context()}"


@pytest.mark.parametrize("mode", SERVICE_MODES)
@pytest.mark.parametrize("config", sorted(DISPATCH_CONFIGS))
def test_dispatch_edges_match_golden(config, mode):
    for seed in SEEDS:
        expected = GOLDEN["dispatch"][config][mode][str(seed)]
        assert dispatch_pin(config, mode, seed) == expected, (
            f"{config} {mode} seed {seed}: {_context()}"
        )
