"""Every package resolves its exports on first use, and every entry point
imports only the modules it runs.

Package exports are PEP 562 ``__getattr__`` tables, so a misspelt name
or a submodule that fails to import would otherwise surface only when a
caller first reached it: the first half resolves every exported name and
every CLI table reference. The second half imports each entry point in
a fresh interpreter and checks what it loaded.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import COMPARISONS, EXPERIMENTS, formatter

SRC = Path(__file__).resolve().parent.parent / "src"

PACKAGES = sorted(
    ["repro"]
    + [f"repro.{path.parent.name}" for path in (SRC / "repro").glob("*/__init__.py")]
)


def _is_its_defining_object(package, name: str, value: object) -> bool:
    """Whether ``value`` is what the module defining ``name`` binds."""
    if inspect.ismodule(value):
        return value.__name__ == f"{package.__name__}.{name}"
    defining = getattr(value, "__module__", None)
    if isinstance(defining, str) and getattr(value, "__name__", None) == name:
        # A class or function: the module its own metadata names.
        return vars(sys.modules[defining]).get(name) is value
    # A constant or instance: a submodule of the package binds it.
    return any(
        vars(module).get(name) is value
        for module_name, module in list(sys.modules.items())
        if module_name.startswith(f"{package.__name__}.")
    )


@pytest.mark.parametrize("package_name", PACKAGES)
def test_every_exported_name_resolves_to_its_defining_object(package_name):
    package = importlib.import_module(package_name)
    names = package.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    listed = dir(package)
    for name in names:
        value = getattr(package, name)
        # Stored on first use: later lookups never reach __getattr__.
        assert vars(package)[name] is value
        assert name in listed
        if name != "__version__":
            assert _is_its_defining_object(package, name, value), f"{package_name}.{name}"
    with pytest.raises(AttributeError):
        getattr(package, "no_such_export")


@pytest.mark.parametrize("package_name", PACKAGES)
def test_star_import_binds_every_name(package_name):
    namespace: dict = {}
    exec(f"from {package_name} import *", namespace)
    package = importlib.import_module(package_name)
    assert set(package.__all__) <= set(namespace)
    for name in package.__all__:
        assert namespace[name] is getattr(package, name)


def test_import_repro_then_reach_a_subpackage():
    import repro

    assert repro.sim.Simulator is importlib.import_module("repro.sim.kernel").Simulator
    assert repro.workloads.stream is importlib.import_module("repro.workloads.stream")


def test_every_cli_table_reference_is_a_callable():
    references = [entry[1] for entry in (*EXPERIMENTS.values(), *COMPARISONS.values())]
    assert references
    for reference in references:
        assert callable(formatter(reference)), reference


# ----------------------------------------------------------------------
# Import closures, each in a fresh interpreter
# ----------------------------------------------------------------------
#: The ``repro`` modules ``bench/workloads.py`` imports.
BENCH_IMPORTS = (
    "repro.autoscale.controller",
    "repro.autoscale.policy",
    "repro.experiments.autoscaling",
    "repro.experiments.degraded_telemetry",
    "repro.experiments.envelope_rollout",
    "repro.experiments.heatwave_ride_through",
    "repro.experiments.oversubscription_crisis",
    "repro.experiments.partition_recovery",
    "repro.experiments.sdc_hunt",
    "repro.service.checkpoint",
    "repro.service.core",
    "repro.sim.kernel",
)

#: Standard-library packages only a process pool or a cache warning
#: needs, and ``csv``, which nothing in ``src/`` needs.
HEAVY_STDLIB = ("concurrent.futures", "multiprocessing", "logging", "csv")


def _fresh(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def _loaded_after(modules: tuple[str, ...]) -> set[str]:
    """``sys.modules`` after a fresh interpreter imports ``modules``."""
    code = "\n".join(
        [
            "import json, sys",
            *(f"import {module}" for module in modules),
            "print(json.dumps(sorted(sys.modules)))",
        ]
    )
    completed = _fresh(["-c", code])
    assert completed.returncode == 0, completed.stderr
    return set(json.loads(completed.stdout))


def test_the_benchmark_imports_only_what_it_runs():
    loaded = _loaded_after(BENCH_IMPORTS)
    assert not loaded & set(HEAVY_STDLIB)
    assert not any(module == "repro.tco" or module.startswith("repro.tco.") for module in loaded)
    experiments = {module for module in loaded if module.startswith("repro.experiments.")}
    imported = {module for module in BENCH_IMPORTS if module.startswith("repro.experiments.")}
    assert experiments == imported | {"repro.experiments.tables"}


def test_the_service_wal_loads_no_experiment_scaler_or_sweep_engine():
    loaded = _loaded_after(("repro.service.checkpoint",))
    unwanted = sorted(
        module
        for module in loaded
        if module.startswith(("repro.experiments.", "repro.autoscale."))
        or module in ("repro.engine.core", "repro.engine.cache")
    )
    assert unwanted == []


def test_repro_list_loads_no_experiment_and_lists_every_entry():
    completed = _fresh(["-X", "importtime", "-m", "repro", "list"])
    assert completed.returncode == 0, completed.stderr
    imported = [
        line.rsplit("|", 1)[1].strip()
        for line in completed.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    ]
    assert "repro.cli" in imported
    assert [module for module in imported if module.startswith("repro.experiments")] == []
    for name in (*EXPERIMENTS, *COMPARISONS):
        assert f"  {name} " in completed.stdout
