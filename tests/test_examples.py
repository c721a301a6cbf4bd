"""Run the example scripts end to end, each as its own process.

``autoscaling_demo.py`` is not run here: it drives the full Fig. 16
auto-scaler DES and takes tens of seconds.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Output lines an example must print, beyond exiting 0. The row breaker
#: caps the low-priority host and leaves the high-priority one alone.
EXPECTED_LINES = {
    "provider_operations": [
        "  r0-h0: 4.1 -> 1.9 GHz (capped)",
        "  r1-h0: 4.1 -> 4.1 GHz (kept)",
    ],
}


@pytest.mark.parametrize(
    "name",
    [
        "fleet_scenarios",
        "lifetime_budgeting",
        "oversubscription_packing",
        "provider_operations",
        "quickstart",
    ],
)
def test_example_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.splitlines()
    for line in EXPECTED_LINES.get(name, []):
        assert line in lines
