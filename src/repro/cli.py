"""Command-line interface: ``windim <subcommand>``.

Subcommands
-----------
``solve`` (alias ``run``)
    Run the WINDIM dimensioning algorithm on a named example network.
    Supports the resilience runtime: ``--resilient`` (retry/escalation
    ladder), ``--deadline`` (graceful best-so-far on expiry) and
    ``--store PATH`` (persistent evaluation store, fingerprinted to the
    model: every fresh evaluation is appended as it completes, so a run
    cut off by Ctrl-C, a deadline or ``kill -9`` resumes by passing the
    same path again), and the reuse engine: ``--reuse`` (warm-started
    fixed points, shared exact lattices).  With
    ``--workers N`` evaluations run on a persistent shared-memory
    worker fleet (same evaluations and optimum as the serial run).
``evaluate``
    Solve a network at explicit window settings and print the power report.
``sweep``
    Run WINDIM over a list of arrival-rate vectors (Table 4.7-style).
``simulate``
    Run the discrete-event simulator and print measured statistics.
``buffers``
    Recommend per-queue buffer sizes for given windows (thesis §2.3).
``multistart``
    WINDIM from multiple starting points (global-gap mitigation).
``verify``
    Differential verification: fuzz random networks through every
    applicable solver pair and replay the golden thesis fixtures.
``chaos``
    Run the named fault-injection battery (worker crashes/hangs, store
    corruption, slow IO, clock skew — see
    :mod:`repro.chaos.battery`) against a small WINDIM instance and
    print a survival report.  ``--list`` shows the plans; ``--plans``
    selects a subset.

Exit codes
----------
The CLI distinguishes *how* a run ended, so supervisors can branch on
``$?`` instead of scraping the report:

====  ==========================================================
code  meaning
====  ==========================================================
0     success (``chaos``: every plan survived)
1     verification/battery failures (``verify``, ``chaos``)
2     usage or runtime error (:class:`~repro.errors.ReproError`)
3     completed, but degraded: the evaluation plane stepped down
      its ladder mid-search (result is still trajectory-exact)
4     budget exhausted: best-so-far windows under a deadline or
      evaluation cap
5     resilient ladder exhausted: no solver rung converged
130   interrupted (Ctrl-C; a ``--store`` run resumes from its store)
====  ==========================================================

Examples
--------
::

    windim solve --network canadian2 --rates 18 18
    windim run --network canadian2 --rates 18 18 --resilient \
        --store run.store --deadline 300
    windim run --network arpanet --rates 8 8 6 6 --reuse --store run.store
    windim evaluate --network canadian4 --rates 6 6 6 12 --windows 1 1 1 4
    windim sweep --network canadian2 --rates "12.5,12.5;25,25;50,50"
    windim simulate --network canadian2 --rates 18 18 --windows 4 4 --seed 3
    windim verify --seed 0 --cases 25
    windim verify --record-golden
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import render_table
from repro.core.power import power_report
from repro.core.windim import windim
from repro.errors import LadderExhaustedError, ReproError
from repro.netmodel.examples import (
    arpanet_fragment,
    canadian_four_class,
    canadian_two_class,
    four_class_traffic,
    tandem_network,
    two_class_traffic,
    canadian_topology,
)
from repro.queueing.network import ClosedNetwork
from repro.solvers import SOLVERS

__all__ = [
    "EXIT_BUDGET_EXHAUSTED",
    "EXIT_DEGRADED",
    "EXIT_ERROR",
    "EXIT_INTERRUPTED",
    "EXIT_LADDER_EXHAUSTED",
    "EXIT_OK",
    "build_parser",
    "main",
]

#: Documented process exit codes (see the module docstring).
EXIT_OK = 0
EXIT_ERROR = 2
EXIT_DEGRADED = 3
EXIT_BUDGET_EXHAUSTED = 4
EXIT_LADDER_EXHAUSTED = 5
EXIT_INTERRUPTED = 130

#: name -> (expected number of rates, factory)
NETWORKS: Dict[str, Tuple[int, Callable[..., ClosedNetwork]]] = {
    "canadian2": (2, canadian_two_class),
    "canadian4": (4, canadian_four_class),
    "arpanet": (4, lambda *rates: arpanet_fragment(rates)),
    "tandem4": (1, lambda rate: tandem_network(4, rate)),
}


def _network_from_args(args: argparse.Namespace) -> ClosedNetwork:
    if getattr(args, "spec", None):
        from repro.netmodel.spec import network_from_spec

        if args.rates:
            raise ReproError("give either --spec or --rates, not both")
        return network_from_spec(args.spec)
    if not args.rates:
        raise ReproError("--rates is required (or pass --spec <file.json>)")
    expected, factory = NETWORKS[args.network]
    if len(args.rates) != expected:
        raise ReproError(
            f"network {args.network!r} needs {expected} arrival rates, "
            f"got {len(args.rates)}"
        )
    return factory(*args.rates)


def _cmd_solve(args: argparse.Namespace) -> int:
    network = _network_from_args(args)
    result = windim(
        network,
        solver=args.solver,
        workers=args.workers,
        max_window=args.max_window,
        start=args.start,
        max_evaluations=args.max_evaluations,
        resilient=args.resilient,
        reuse=args.reuse,
        store_path=args.store,
        max_seconds=args.deadline,
    )
    print(result.summary())
    return _exit_code_for(result)


def _exit_code_for(result) -> int:
    """Map a finished run onto the documented degraded-completion codes."""
    if getattr(result, "status", "completed") == "budget_exhausted":
        return EXIT_BUDGET_EXHAUSTED
    if getattr(result, "degradations", ()):
        return EXIT_DEGRADED
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    network = _network_from_args(args)
    if len(args.windows) != network.num_chains:
        raise ReproError(
            f"need {network.num_chains} windows, got {len(args.windows)}"
        )
    solver = SOLVERS[args.solver]
    solution = solver(network.with_populations(args.windows))
    print(solution.summary())
    report = power_report(solution)
    print(report.summary())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    expected, factory = NETWORKS[args.network]
    rate_vectors: List[List[float]] = []
    for chunk in args.rates_list.split(";"):
        rates = [float(x) for x in chunk.split(",") if x.strip()]
        if len(rates) != expected:
            raise ReproError(
                f"rate vector {chunk!r} has {len(rates)} entries; "
                f"{args.network!r} needs {expected}"
            )
        rate_vectors.append(rates)
    from repro.analysis.sweeps import optimal_window_sweep

    rows = [
        point.rates
        + (point.total_rate, " ".join(map(str, point.windows)), point.power)
        for point in optimal_window_sweep(
            factory, rate_vectors, solver=args.solver, max_window=args.max_window
        )
    ]
    headers = [f"S{i + 1}" for i in range(expected)] + [
        "total",
        "optimal windows",
        "power",
    ]
    print(render_table(headers, rows, title=f"WINDIM sweep on {args.network}"))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim import FlowControlConfig, simulate

    if getattr(args, "spec", None):
        from repro.netmodel.spec import load_spec

        if args.rates:
            raise ReproError("give either --spec or --rates, not both")
        topology, classes = load_spec(args.spec)
    else:
        expected, _factory = NETWORKS.get(args.network, (0, None))
        if len(args.rates) != expected:
            raise ReproError(
                f"network {args.network!r} needs {expected} arrival rates"
            )
        if args.network == "canadian2":
            topology, classes = canadian_topology(), two_class_traffic(*args.rates)
        elif args.network == "canadian4":
            topology, classes = canadian_topology(), four_class_traffic(*args.rates)
        else:
            raise ReproError(
                "simulate supports --spec or the canadian2/canadian4 networks"
            )
    if len(args.windows) != len(classes):
        raise ReproError(f"need {len(classes)} windows, got {len(args.windows)}")
    result = simulate(
        topology,
        classes,
        FlowControlConfig.end_to_end(args.windows),
        duration=args.duration,
        warmup=args.warmup,
        source_model=args.source_model,
        seed=args.seed,
        ack_delay=args.ack_delay,
    )
    print(result.summary())
    return 0


def _cmd_buffers(args: argparse.Namespace) -> int:
    from repro.analysis.buffers import recommend_buffers

    network = _network_from_args(args)
    if len(args.windows) != network.num_chains:
        raise ReproError(
            f"need {network.num_chains} windows, got {len(args.windows)}"
        )
    network = network.with_populations(args.windows)
    recommendations = recommend_buffers(network, args.target)
    rows = [
        (
            rec.station,
            round(rec.mean_queue_length, 3),
            rec.buffer_size,
            rec.hard_bound,
            f"{rec.overflow_probability:.2e}",
        )
        for rec in sorted(recommendations.values(), key=lambda r: r.station)
    ]
    print(
        render_table(
            ["queue", "mean length", "buffer", "hard bound", "P(overflow)"],
            rows,
            title=f"buffer sizes for P(overflow) <= {args.target:g}",
        )
    )
    return 0


def _cmd_multistart(args: argparse.Namespace) -> int:
    from repro.core.multistart import windim_multistart

    network = _network_from_args(args)
    result = windim_multistart(
        network,
        solver=args.solver,
        workers=args.workers,
        max_window=args.max_window,
        reuse=args.reuse,
        store_path=args.store,
    )
    print(result.summary())
    return _exit_code_for(result)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos.battery import builtin_plans, run_battery

    if args.list:
        plans = builtin_plans()
        width = max(len(name) for name in plans)
        for name, plan in plans.items():
            runtime = plan.pool or "serial"
            print(f"{name:<{width}}  [{runtime}] {plan.description}")
        return 0
    network = _network_from_args(args)
    report = run_battery(
        network,
        plan_names=args.plans,
        max_window=args.max_window,
        network_label=args.network,
    )
    print(report.summary())
    if args.json:
        from pathlib import Path

        Path(args.json).write_text(report.to_json() + "\n")
        print(f"report written to {args.json}")
    return 0 if report.ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import (
        generate_cases,
        record_fixtures,
        run_differential,
        verify_fixtures,
    )

    if args.record_golden:
        for path in record_fixtures(args.golden_dir):
            print(f"recorded {path}")
        return 0

    if args.cases < 0:
        print(f"windim verify: --cases must be >= 0, got {args.cases}", file=sys.stderr)
        return 2
    if args.cases == 0 and not args.golden:
        print("nothing to do: --cases 0 and no --golden", file=sys.stderr)
        return 0

    ok = True
    if args.cases > 0:
        cases = generate_cases(args.seed, args.cases)
        report = run_differential(cases, include_simulation=args.sim)
        print(report.summary())
        if args.json:
            from pathlib import Path

            Path(args.json).write_text(report.to_json() + "\n")
            print(f"report written to {args.json}")
        ok = ok and report.ok

    if args.golden:
        results = verify_fixtures(args.golden_dir)
        failed = {name: issues for name, issues in results.items() if issues}
        print(
            f"golden fixtures: {len(results) - len(failed)}/{len(results)} match"
        )
        for name, issues in failed.items():
            for issue in issues:
                print(f"  !! {name}: {issue}")
        ok = ok and not failed

    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="windim",
        description="WINDIM window dimensioning (Chan, 1979 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--network",
            choices=sorted(NETWORKS),
            default="canadian2",
            help="example network to operate on",
        )
        p.add_argument(
            "--rates",
            type=float,
            nargs="+",
            default=[],
            help="per-class Poisson arrival rates (msg/s)",
        )
        p.add_argument(
            "--spec",
            default=None,
            help="JSON network-spec file (replaces --network/--rates)",
        )
        p.add_argument(
            "--solver",
            choices=sorted(SOLVERS),
            default="mva-heuristic",
            help="performance solver",
        )

    solve = sub.add_parser(
        "solve",
        aliases=["run"],
        help="run WINDIM (alias: run)",
    )
    add_common(solve)
    solve.add_argument("--max-window", type=int, default=32)
    solve.add_argument(
        "--start",
        type=int,
        nargs="+",
        default=None,
        help="initial windows (default: hop counts)",
    )
    solve.add_argument(
        "--max-evaluations",
        type=int,
        default=10_000,
        help="cap on fresh objective evaluations",
    )
    solve.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="evaluate objective points on a pool of N worker processes "
        "(default: in-process)",
    )
    solve.add_argument(
        "--resilient",
        action="store_true",
        help="wrap the solver in the retry/escalation ladder",
    )
    solve.add_argument(
        "--reuse",
        action="store_true",
        help="cross-evaluation reuse: warm-started fixed points and shared "
        "exact lattices (same optimum, fewer iterations)",
    )
    solve.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="persistent evaluation store: preload previous runs' "
        "evaluations, append this run's as they complete; passing the "
        "same path again resumes an interrupted run "
        "(fingerprinted to the network+solver)",
    )
    solve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget; on expiry the best-so-far windows are "
        "reported instead of hanging",
    )
    solve.set_defaults(handler=_cmd_solve)

    evaluate = sub.add_parser("evaluate", help="solve at fixed windows")
    add_common(evaluate)
    evaluate.add_argument("--windows", type=int, nargs="+", required=True)
    evaluate.set_defaults(handler=_cmd_evaluate)

    sweep = sub.add_parser("sweep", help="WINDIM over many load points")
    sweep.add_argument(
        "--network", choices=sorted(NETWORKS), default="canadian2"
    )
    sweep.add_argument(
        "--rates-list",
        required=True,
        help="semicolon-separated rate vectors, e.g. '12.5,12.5;25,25'",
    )
    sweep.add_argument(
        "--solver", choices=sorted(SOLVERS), default="mva-heuristic"
    )
    sweep.add_argument("--max-window", type=int, default=32)
    sweep.set_defaults(handler=_cmd_sweep)

    simulate_p = sub.add_parser("simulate", help="discrete-event simulation")
    simulate_p.add_argument(
        "--network", choices=("canadian2", "canadian4"), default="canadian2"
    )
    simulate_p.add_argument("--rates", type=float, nargs="+", default=[])
    simulate_p.add_argument(
        "--spec", default=None, help="JSON network-spec file"
    )
    simulate_p.add_argument("--windows", type=int, nargs="+", required=True)
    simulate_p.add_argument("--duration", type=float, default=2000.0)
    simulate_p.add_argument("--warmup", type=float, default=200.0)
    simulate_p.add_argument(
        "--source-model", choices=("closed", "poisson"), default="closed"
    )
    simulate_p.add_argument("--seed", type=int, default=0)
    simulate_p.add_argument(
        "--ack-delay",
        type=float,
        default=0.0,
        help="mean acknowledgement transit time (s); 0 = instantaneous",
    )
    simulate_p.set_defaults(handler=_cmd_simulate)

    buffers = sub.add_parser(
        "buffers", help="recommend buffer sizes for given windows"
    )
    add_common(buffers)
    buffers.add_argument("--windows", type=int, nargs="+", required=True)
    buffers.add_argument(
        "--target",
        type=float,
        default=1e-3,
        help="overflow probability target (default 1e-3)",
    )
    buffers.set_defaults(handler=_cmd_buffers)

    multistart = sub.add_parser(
        "multistart", help="WINDIM from several starting points"
    )
    add_common(multistart)
    multistart.add_argument("--max-window", type=int, default=32)
    multistart.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="batch-solve seeds and neighborhoods on N worker processes",
    )
    multistart.add_argument(
        "--reuse",
        action="store_true",
        help="cross-evaluation reuse across all starts (warm starts, "
        "shared lattices)",
    )
    multistart.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="persistent evaluation store shared across runs",
    )
    multistart.set_defaults(handler=_cmd_multistart)

    verify = sub.add_parser(
        "verify", help="cross-solver differential verification"
    )
    verify.add_argument(
        "--seed", type=int, default=0, help="master fuzz seed (default 0)"
    )
    verify.add_argument(
        "--cases",
        type=int,
        default=25,
        help="number of fuzzed networks to check (0 = skip fuzzing)",
    )
    verify.add_argument(
        "--sim",
        action="store_true",
        help="also validate the discrete-event simulator (slow)",
    )
    verify.add_argument(
        "--golden",
        action="store_true",
        help="also replay the golden thesis fixtures",
    )
    verify.add_argument(
        "--record-golden",
        action="store_true",
        help="(re)record the golden fixtures instead of verifying",
    )
    verify.add_argument(
        "--golden-dir",
        default=None,
        help="golden fixture directory (default: tests/golden)",
    )
    verify.add_argument(
        "--json", default=None, help="write the JSON report to this path"
    )
    verify.set_defaults(handler=_cmd_verify)

    chaos = sub.add_parser(
        "chaos",
        help="run the fault-injection battery and print a survival report",
    )
    chaos.add_argument(
        "--network",
        choices=sorted(NETWORKS),
        default="canadian2",
        help="example network the battery dimensions",
    )
    chaos.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[18.0, 18.0],
        help="per-class arrival rates (default: 18 18 for canadian2)",
    )
    chaos.add_argument(
        "--max-window",
        type=int,
        default=6,
        help="search-space bound (small keeps each scenario fast)",
    )
    chaos.add_argument(
        "--plans",
        nargs="+",
        default=None,
        metavar="NAME",
        help="run only these named plans (default: the full battery)",
    )
    chaos.add_argument(
        "--list",
        action="store_true",
        help="list the builtin fault plans and exit",
    )
    chaos.add_argument(
        "--json", default=None, help="write the JSON report to this path"
    )
    chaos.set_defaults(handler=_cmd_chaos, spec=None)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except LadderExhaustedError as exc:
        # Every rung of the resilient solver ladder failed: distinct from
        # a generic error so supervisors can park the instance instead of
        # retrying a hopeless configuration.
        print(f"error: resilient ladder exhausted: {exc}", file=sys.stderr)
        return EXIT_LADDER_EXHAUSTED
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except KeyboardInterrupt as exc:
        # A store-backed solve has already appended every completed
        # evaluation; tell the operator where to pick the run back up.
        detail = str(exc)
        message = "interrupted"
        if detail:
            message += f": {detail}"
        if getattr(args, "store", None):
            message += f" (resume with --store {args.store})"
        print(message, file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
