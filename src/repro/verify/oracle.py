"""Uniform solver registry for differential verification.

Every throughput/delay backend in the repository — the exact product-form
solvers (:mod:`repro.exact`), the approximate MVA family (:mod:`repro.mva`)
and the discrete-event simulator (:mod:`repro.sim`) — is exposed here as a
:class:`SolverSpec` with one uniform interface: it takes a
:class:`VerifyCase` and returns a :class:`SolverOutput` of per-chain
throughputs and delays.  Each spec also knows when it is *applicable*
(e.g. Gordon–Newell wants a single chain, the CTMC wants a tractable state
space), so the differential checker can run every meaningful pair on every
fuzzed instance without special-casing solver quirks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exact.states import exact_applicability
from repro.mva import reference
from repro.netmodel.topology import Topology
from repro.netmodel.traffic import TrafficClass
from repro.queueing.network import ClosedNetwork
from repro.solution import NetworkSolution
from repro.solvers import SOLVERS

__all__ = [
    "SolverKind",
    "VerifyCase",
    "SolverOutput",
    "SolverSpec",
    "ctmc_state_count",
    "registry",
    "solver_names",
    "get_solver",
    "applicable_solvers",
]

#: Largest CTMC state space the oracle will ask the global-balance solver
#: to enumerate (a dense linear system is solved, so keep this modest).
CTMC_STATE_LIMIT = 4_000


class SolverKind(Enum):
    """How a backend's output should be judged by the checker."""

    EXACT = "exact"
    APPROXIMATE = "approximate"
    SIMULATION = "simulation"


@dataclass(frozen=True)
class VerifyCase:
    """One network instance to be cross-checked.

    The analytic solvers need only the :class:`ClosedNetwork`; the
    simulator additionally needs the physical description it was built
    from (topology + traffic classes), so fuzzer-produced cases carry
    both.  Cases built directly from a :class:`ClosedNetwork` simply
    cannot be simulated and the simulator spec reports itself
    inapplicable.
    """

    label: str
    network: ClosedNetwork
    topology: Optional[Topology] = None
    classes: Optional[Tuple[TrafficClass, ...]] = None

    @property
    def can_simulate(self) -> bool:
        """True when the physical description needed by the simulator exists."""
        return self.topology is not None and self.classes is not None

    @classmethod
    def from_network(cls, label: str, network: ClosedNetwork) -> "VerifyCase":
        """An analytic-only case (no simulator backend)."""
        return cls(label=label, network=network)


@dataclass(frozen=True)
class SolverOutput:
    """Uniform result record: what every backend reports for a case.

    Attributes
    ----------
    throughputs / chain_delays:
        ``(R,)`` per-chain cycle throughput (msg/s) and mean network delay
        (seconds, excluding the source queue).
    mean_network_delay:
        Throughput-weighted mean network delay (the thesis ``T``).
    queue_lengths:
        ``(R, L)`` mean per-chain queue lengths, or ``None`` when the
        backend does not report them per chain (the simulator).
    delay_half_widths:
        ``(R,)`` 95% batch-means half-widths on the per-chain delays
        (simulation only; ``None`` for analytic backends).
    """

    solver: str
    kind: SolverKind
    throughputs: np.ndarray
    chain_delays: np.ndarray
    mean_network_delay: float
    queue_lengths: Optional[np.ndarray] = None
    delay_half_widths: Optional[np.ndarray] = None


@dataclass(frozen=True)
class SolverSpec:
    """One registered backend.

    ``applicability(case)`` returns ``None`` when the backend can handle
    the case, or a short human-readable reason when it cannot.
    """

    name: str
    kind: SolverKind
    solve: Callable[[VerifyCase], SolverOutput]
    applicability: Callable[[VerifyCase], Optional[str]]

    def is_applicable(self, case: VerifyCase) -> bool:
        """True when :attr:`applicability` raises no objection."""
        return self.applicability(case) is None


def ctmc_state_count(network: ClosedNetwork) -> int:
    """Size of the global-balance state space the CTMC solver enumerates.

    Each chain ``r`` with a route of ``m_r`` distinct stations and window
    ``E_r`` contributes ``C(E_r + m_r - 1, m_r - 1)`` placements; the state
    space is the product over chains.
    """
    total = 1
    for chain in network.chains:
        positions = len(set(chain.visits))
        total *= math.comb(int(chain.population) + positions - 1, positions - 1)
    return total


def _routes_revisit_stations(network: ClosedNetwork) -> bool:
    return any(
        len(set(chain.visits)) != len(chain.visits) for chain in network.chains
    )


def _output_from_solution(
    solution: NetworkSolution, name: str, kind: SolverKind
) -> SolverOutput:
    return SolverOutput(
        solver=name,
        kind=kind,
        throughputs=np.asarray(solution.throughputs, dtype=float),
        chain_delays=np.asarray(solution.chain_delays, dtype=float),
        mean_network_delay=float(solution.mean_network_delay),
        queue_lengths=np.asarray(solution.queue_lengths, dtype=float),
    )


def _network_solver(
    name: str,
    kind: SolverKind,
    solve_network: Callable[[ClosedNetwork], NetworkSolution],
    applicability: Callable[[VerifyCase], Optional[str]],
) -> SolverSpec:
    def solve(case: VerifyCase) -> SolverOutput:
        return _output_from_solution(solve_network(case.network), name, kind)

    return SolverSpec(name=name, kind=kind, solve=solve, applicability=applicability)


# ----------------------------------------------------------------------
# applicability predicates
# ----------------------------------------------------------------------
def _always(case: VerifyCase) -> Optional[str]:
    return None


def _fixed_rate_lattice(case: VerifyCase) -> Optional[str]:
    return exact_applicability(case.network)


def _single_chain(case: VerifyCase) -> Optional[str]:
    if case.network.num_chains != 1:
        return f"single-chain solver ({case.network.num_chains} chains)"
    return None


def _ctmc_applicable(case: VerifyCase) -> Optional[str]:
    if not case.network.is_fixed_rate():
        return "needs fixed-rate single-server / IS stations"
    if _routes_revisit_stations(case.network):
        return "routes revisit stations"
    states = ctmc_state_count(case.network)
    if states > CTMC_STATE_LIMIT:
        return f"state space too large ({states} > {CTMC_STATE_LIMIT})"
    return None


def _simulatable(case: VerifyCase) -> Optional[str]:
    if not case.can_simulate:
        return "case carries no topology/traffic description"
    return None


# ----------------------------------------------------------------------
# adapters of the solvers that are not named solvers
# ----------------------------------------------------------------------
def _solve_ctmc(network: ClosedNetwork) -> NetworkSolution:
    from repro.exact.ctmc import solve_ctmc

    return solve_ctmc(network)


def _solve_gordon_newell(network: ClosedNetwork) -> NetworkSolution:
    from repro.exact.gordon_newell import solve_gordon_newell

    return solve_gordon_newell(network)


def _solve_buzen(case: VerifyCase) -> SolverOutput:
    """Single-chain measures straight from the Buzen constants.

    Deliberately a *different* code path from the ``gordon-newell``
    wrapper: throughput and queue lengths are read off the
    :class:`~repro.exact.buzen.BuzenResult` closed forms, so the two
    single-chain backends cross-check each other.
    """
    from repro.exact.buzen import buzen_stations

    network = case.network
    population = int(network.populations[0])
    demands = network.demands[0]
    peak = demands.max()
    scale = peak if peak > 0 else 1.0
    result = buzen_stations(demands / scale, population, network.stations)
    throughput = result.throughput() / scale
    queue_lengths = np.zeros((1, network.num_stations))
    for n, station in enumerate(network.stations):
        if station.is_delay:
            queue_lengths[0, n] = demands[n] * throughput
        else:
            queue_lengths[0, n] = result.mean_queue_length(n)
    mask = network.delay_mask()[0]
    delay = (
        float(queue_lengths[0, mask].sum() / throughput)
        if throughput > 0
        else float("inf")
    )
    return SolverOutput(
        solver="buzen",
        kind=SolverKind.EXACT,
        throughputs=np.asarray([throughput]),
        chain_delays=np.asarray([delay]),
        mean_network_delay=delay,
        queue_lengths=queue_lengths,
    )


def _buzen_applicable(case: VerifyCase) -> Optional[str]:
    reason = _single_chain(case)
    if reason is not None:
        return reason
    station = next(
        (
            s
            for s in case.network.stations
            if not s.is_delay and (s.servers != 1 or s.rate_multipliers is not None)
        ),
        None,
    )
    if station is not None:
        return f"station {station.name!r} is not fixed-rate single-server"
    return None


def _asymptotic_regime(case: VerifyCase) -> Optional[str]:
    """The CLT/asymptotic solver's validity gate (chain-count floor).

    Outside the regime the mean-field fixed point has no accuracy claim
    (the arrival-theorem correction it drops is O(1) there, not
    O(1/chains)), so the oracle refuses to grade it — the solver is never
    silently held to bands that were calibrated elsewhere.
    """
    from repro.mva.asymptotic import ASYMPTOTIC_MIN_CHAINS

    if case.network.num_chains < ASYMPTOTIC_MIN_CHAINS:
        return (
            f"outside the CLT regime ({case.network.num_chains} chains "
            f"< {ASYMPTOTIC_MIN_CHAINS})"
        )
    return None


def simulation_spec(
    duration: float = 4_000.0,
    warmup: float = 400.0,
    seed: int = 0,
) -> SolverSpec:
    """A simulator backend with explicit run-length controls.

    The registry's default entry uses the defaults above; the deep fuzz
    sweep builds longer runs for tighter confidence intervals.
    """

    def solve(case: VerifyCase) -> SolverOutput:
        from repro.sim import FlowControlConfig, simulate

        assert case.topology is not None and case.classes is not None
        windows = [int(p) for p in case.network.populations]
        result = simulate(
            case.topology,
            case.classes,
            FlowControlConfig.end_to_end(windows),
            duration=duration,
            warmup=warmup,
            source_model="closed",
            seed=seed,
        )
        stats = [result.class_by_name(c.name) for c in case.classes]
        return SolverOutput(
            solver="simulation",
            kind=SolverKind.SIMULATION,
            throughputs=np.asarray([s.throughput for s in stats]),
            chain_delays=np.asarray([s.mean_network_delay for s in stats]),
            mean_network_delay=float(result.mean_network_delay),
            delay_half_widths=np.asarray([s.delay_half_width for s in stats]),
        )

    return SolverSpec(
        name="simulation",
        kind=SolverKind.SIMULATION,
        solve=solve,
        applicability=_simulatable,
    )


def _build_registry() -> Dict[str, SolverSpec]:
    exact, approximate = SolverKind.EXACT, SolverKind.APPROXIMATE
    # The named solvers run from their table entries.  ``mva-exact`` and
    # ``mva-heuristic`` are the scalar reference kernels
    # (:mod:`repro.mva.reference`), so each pair with its ``-vectorized``
    # twin, the table entry, is a differential check between the two.
    # ``resilient`` (the ladder over the heuristic) must stay inside the
    # heuristic's bands whichever rung produced the accepted solution.
    specs = [
        _network_solver(
            "convolution", exact, SOLVERS["convolution"], _fixed_rate_lattice
        ),
        _network_solver(
            "mva-exact", exact, reference.solve_mva_exact, _fixed_rate_lattice
        ),
        _network_solver(
            "mva-exact-vectorized", exact, SOLVERS["mva-exact"], _fixed_rate_lattice
        ),
        _network_solver("ctmc", exact, _solve_ctmc, _ctmc_applicable),
        _network_solver(
            "gordon-newell", exact, _solve_gordon_newell, _single_chain
        ),
        SolverSpec(
            name="buzen",
            kind=exact,
            solve=_solve_buzen,
            applicability=_buzen_applicable,
        ),
        _network_solver(
            "mva-heuristic", approximate, reference.solve_mva_heuristic, _always
        ),
        _network_solver(
            "mva-heuristic-vectorized", approximate, SOLVERS["mva-heuristic"], _always
        ),
        _network_solver("schweitzer", approximate, SOLVERS["schweitzer"], _always),
        _network_solver("linearizer", approximate, SOLVERS["linearizer"], _always),
        _network_solver("resilient", approximate, SOLVERS["resilient"], _always),
        _network_solver(
            "asymptotic", approximate, SOLVERS["asymptotic"], _asymptotic_regime
        ),
        simulation_spec(),
    ]
    return {spec.name: spec for spec in specs}


#: Every registered backend, keyed by name.  Exact solvers come first so
#: reference selection (first applicable exact solver) is deterministic.
REGISTRY: Dict[str, SolverSpec] = _build_registry()


def registry() -> Dict[str, SolverSpec]:
    """A copy of the full registry (name -> spec)."""
    return dict(REGISTRY)


def solver_names() -> Tuple[str, ...]:
    """All registered backend names, in precedence order."""
    return tuple(REGISTRY)


def get_solver(name: str) -> SolverSpec:
    """Look a backend up by name (raises ``KeyError``)."""
    return REGISTRY[name]


def applicable_solvers(
    case: VerifyCase,
    names: Optional[Sequence[str]] = None,
) -> Tuple[List[SolverSpec], List[Tuple[str, str]]]:
    """Partition backends into (applicable, skipped-with-reason) for a case.

    Parameters
    ----------
    case:
        The network instance.
    names:
        Restrict to these backends (default: the whole registry).
    """
    chosen = [REGISTRY[n] for n in names] if names is not None else list(
        REGISTRY.values()
    )
    applicable: List[SolverSpec] = []
    skipped: List[Tuple[str, str]] = []
    for spec in chosen:
        reason = spec.applicability(case)
        if reason is None:
            applicable.append(spec)
        else:
            skipped.append((spec.name, reason))
    return applicable, skipped
