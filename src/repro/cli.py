"""Command-line interface: regenerate any paper table/figure.

Usage::

    python -m repro list                 # what can be regenerated
    python -m repro table3              # one experiment to stdout
    python -m repro fig9 fig10          # several at once
    python -m repro all                 # everything fast (skips the
                                        # closed-loop simulations)
    python -m repro fig16               # the full auto-scaler (minutes)

    python -m repro sweep               # list the parallel sweeps
    python -m repro sweep all --workers 4
    python -m repro sweep autoscaler --workers 3 --no-cache

    python -m repro faults              # list the fault scenarios
    python -m repro faults --list       # every fault kind and scenario
    python -m repro faults host-failure --seed 7
    python -m repro faults all

    python -m repro partition --seed 7  # naive vs robust actuation under
                                        # a seeded network partition
    python -m repro heatwave --seed 7   # facility emergency: naive trip-out
                                        # vs the staged degradation ladder
    python -m repro oversubscribe --seed 7
                                        # power-oversubscription crisis:
                                        # naive breaker trips vs the arbiter
    python -m repro overload --seed 7   # live-service overload storm:
                                        # naive goodput collapse vs the
                                        # admission/brownout/emergency stack
    python -m repro healthscan --seed 7
                                        # drifting silicon: naive SDC leaks
                                        # vs the fleet-health ladder
    python -m repro rollout --seed 7    # bad envelope push: naive big-bang
                                        # vs the canary rollout pipeline
    python -m repro partition heatwave --seed 7
                                        # --seed reaches every comparison
    python -m repro serve --seed 7 --port 8642
                                        # run the live service: tick loop +
                                        # HTTP telemetry/ops endpoints

Modelling errors (:class:`~repro.errors.ReproError`) exit with status 2
and a one-line message; pass ``--debug`` to get the full traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from .errors import ReproError
from .experiments import (
    autoscaling,
    characterization,
    degraded_telemetry,
    envelope_rollout,
    environment,
    failure_recovery,
    heatwave_ride_through,
    highperf_vms,
    oversubscription,
    oversubscription_crisis,
    overload_storm,
    packing_churn,
    partition_recovery,
    sdc_hunt,
    tco_experiments,
    usecases,
)
from .faults.scenarios import list_fault_catalog, run_scenarios

#: Paper tables and figures: name -> (description, formatter, slow?).
EXPERIMENTS: dict[str, tuple[str, Callable[[], str], bool]] = {
    "table1": ("Cooling technology comparison", characterization.format_table1, False),
    "table2": ("Dielectric fluid properties", characterization.format_table2, False),
    "table3": ("Air vs 2PIC thermals and turbo", characterization.format_table3, False),
    "table5": ("Lifetime projections", characterization.format_table5, False),
    "table6": ("TCO analysis", tco_experiments.format_table6, False),
    "power": ("Per-server power savings (Section IV)", characterization.format_power_savings, False),
    "fig4": ("Operating frequency domains", characterization.format_fig4, False),
    "fig5": ("Frequency bands, SKUs, dense packing", usecases.format_fig5, False),
    "fig6": ("Static vs virtual failover buffers", usecases.format_fig6, False),
    "fig7": ("Capacity-crisis bridging", usecases.format_fig7, False),
    "fig8": ("Scale-up maneuvers (hide vs avoid)", usecases.format_fig8, True),
    "fig9": ("Overclocking cloud applications", highperf_vms.format_fig9, False),
    "fig10": ("STREAM bandwidth", highperf_vms.format_fig10, False),
    "fig11": ("GPU overclocking for VGG", highperf_vms.format_fig11, False),
    "fig12": ("SQL latency vs pcores", oversubscription.format_fig12, False),
    "fig13": ("Mixed oversubscription scenarios", oversubscription.format_fig13, False),
    "tco-oversub": ("Oversubscription TCO (Section VI-C)", tco_experiments.format_oversubscription_tco, False),
    "environment": ("WUE, vapor management, air ceiling", environment.format_environment, False),
    "churn": ("Packing density under VM churn", packing_churn.format_packing_churn, False),
    "fig15": ("Eq. 1 model validation (DES, ~1 min)", autoscaling.format_fig15, True),
    "fig16": ("Full auto-scaler + Table XI (DES, minutes)", autoscaling.format_table11, True),
}

#: The seeded naive-vs-robust comparisons: name -> (description,
#: formatter). :func:`run` calls each formatter with ``seed=``; all are
#: slow, so ``all`` leaves them out.
COMPARISONS: dict[str, tuple[str, Callable[..., str]]] = {
    "recovery": ("Failure recovery: BASELINE vs OC p95 (DES, ~1 min)", failure_recovery.format_failure_recovery),
    "degraded-telemetry": ("Guard behaviour under sensor faults: naive vs fail-safe (DES)", degraded_telemetry.format_degraded_telemetry),
    "partition": ("Actuation under a network partition: naive vs robust (DES, --seed)", partition_recovery.format_partition_recovery),
    "heatwave": ("Facility emergency ride-through: naive vs laddered (DES, --seed)", heatwave_ride_through.format_heatwave_ride_through),
    "oversubscribe": ("Power-oversubscription crisis: naive vs arbitrated (DES, --seed)", oversubscription_crisis.format_oversubscription_crisis),
    "overload": ("Live-service overload storm: naive vs robust (DES, --seed)", overload_storm.format_overload_storm),
    "healthscan": ("Silicon margin drift + SDC audit: naive vs health ladder (DES, --seed)", sdc_hunt.format_sdc_hunt),
    "rollout": ("Bad envelope push: naive big-bang vs canary rollout (DES, --seed)", envelope_rollout.format_envelope_rollout),
}


def list_experiments() -> str:
    """Human-readable registry listing."""
    lines = ["Available experiments:"]
    for name, (description, _, slow) in EXPERIMENTS.items():
        marker = "  [slow]" if slow else ""
        lines.append(f"  {name:12s} {description}{marker}")
    for name, (description, _) in COMPARISONS.items():
        lines.append(f"  {name:12s} {description}  [slow]")
    lines.append("  all          every fast experiment")
    return "\n".join(lines)


def run(names: list[str], stream=None, seed: int = 1) -> int:
    """Run the named experiments, printing each; returns an exit code.

    ``seed`` reaches every comparison among ``names``.
    """
    stream = stream if stream is not None else sys.stdout
    if not names or names == ["list"]:
        print(list_experiments(), file=stream)
        return 0
    if names == ["all"]:
        names = [name for name, (_, _, slow) in EXPERIMENTS.items() if not slow]
    unknown = [name for name in names if name not in EXPERIMENTS and name not in COMPARISONS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=stream)
        print(list_experiments(), file=stream)
        return 2
    for name in names:
        if name in COMPARISONS:
            print(COMPARISONS[name][1](seed=seed), file=stream)
        else:
            print(EXPERIMENTS[name][1](), file=stream)
        print(file=stream)
    return 0


def parse_seed(text: str) -> int:
    """Validate a user-supplied master seed.

    Seeds feed :func:`~repro.sim.random.split_seed`, whose derivation is
    defined over non-negative integers only — so reject anything else
    here, at the CLI boundary, with an actionable message instead of a
    stack trace from deep inside the seeding machinery.
    """
    try:
        seed = int(text, 10)
    except (TypeError, ValueError):
        raise ReproError(
            f"--seed must be a base-10 integer, got {text!r}"
        ) from None
    if seed < 0:
        raise ReproError(
            f"--seed must be non-negative (seeds are split via sha256 over "
            f"unsigned integers), got {seed}"
        )
    return seed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate tables and figures from 'Cost-Efficient Overclocking "
            "in Immersion-Cooled Datacenters' (ISCA 2021)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["list"],
        help=(
            "experiment names (see 'list'), 'all' for every fast one, "
            "'sweep [name ...]' to run parameter sweeps through the engine, "
            "or 'faults [scenario ...]' to run fault-injection scenarios"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool width for 'sweep' (1 = serial; default 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="for 'sweep': recompute every point instead of using .repro_cache/",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="for 'sweep': result-cache directory (default .repro_cache/)",
    )
    parser.add_argument(
        "--seed",
        default="1",
        help=(
            "master seed for 'faults', 'serve' and the comparisons "
            f"({', '.join(COMPARISONS)}) (default 1)"
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_faults",
        help="for 'faults': list every fault kind and scenario, then exit",
    )
    parser.add_argument(
        "--run",
        default=None,
        metavar="ID",
        help=(
            "for 'sweep': name this campaign and journal every completed "
            "point to <cache-dir>/journal/<ID>.wal (crash-safe, fsync'd)"
        ),
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="ID",
        help=(
            "for 'sweep': resume a journaled campaign — replay its "
            "completed points from the WAL and compute only the rest"
        ),
    )
    parser.add_argument(
        "--mode",
        choices=["robust", "naive"],
        default="robust",
        help="for 'serve': overload-control stack on (robust) or off (naive)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="for 'serve': listen address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8642,
        help="for 'serve': listen port (default 8642; 0 = ephemeral)",
    )
    parser.add_argument(
        "--tick-interval",
        type=float,
        default=0.25,
        metavar="S",
        help="for 'serve': wall seconds between ticks (default 0.25)",
    )
    parser.add_argument(
        "--ticks",
        type=int,
        default=0,
        help="for 'serve': stop after N ticks (default 0 = run until ^C)",
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="re-raise modelling errors with full tracebacks",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")
    if args.run is not None and args.resume is not None:
        parser.error("--run and --resume are mutually exclusive; pass one id")
    try:
        seed = parse_seed(args.seed)
        if args.experiments and args.experiments[0] == "sweep":
            # Imported lazily: the registry pulls in every experiment module.
            from .engine.cache import DEFAULT_CACHE_DIR
            from .engine.registry import run_sweeps

            return run_sweeps(
                args.experiments[1:],
                workers=args.workers,
                use_cache=not args.no_cache,
                cache_dir=args.cache_dir or DEFAULT_CACHE_DIR,
                run_id=args.resume or args.run,
                resume=args.resume is not None,
            )
        if args.experiments and args.experiments[0] == "faults":
            if args.list_faults:
                print(list_fault_catalog())
                return 0
            return run_scenarios(args.experiments[1:], seed=seed)
        if args.experiments and args.experiments[0] == "serve":
            # Imported lazily: the server pulls in asyncio plumbing no
            # batch experiment needs.
            from .engine.cache import DEFAULT_CACHE_DIR
            from .service.server import serve as serve_service

            return serve_service(
                cache_dir=args.cache_dir or DEFAULT_CACHE_DIR,
                run_id=args.run or f"serve-{seed}",
                seed=seed,
                mode=args.mode,
                host=args.host,
                port=args.port,
                tick_interval_s=args.tick_interval,
                max_ticks=args.ticks or None,
            )
        return run(args.experiments, seed=seed)
    except ReproError as error:
        if args.debug:
            raise
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
