"""The WINDIM algorithm (thesis Chapter 4).

WINDIM dimensions the end-to-end flow-control windows of a message-switched
network so as to maximise network power ``P = lambda/T``:

1. Build the closed multichain queueing model of the network (the windows
   are the chain populations).
2. Define ``F(E) = 1/P(E)``, evaluated through the §4.2 MVA heuristic.
3. Minimise ``F`` by integer Hooke–Jeeves pattern search, starting from
   the Kleinrock hop-count windows, with memoised evaluations.

:func:`windim` is the top-level entry point of the whole library.  For
long-running jobs it carries the resilience runtime end to end: the
``resilient`` flag wraps the solver in the
:class:`~repro.resilience.ladder.ResilientSolver` escalation ladder,
``budget``/``max_seconds`` bound the search (graceful best-so-far instead
of a hang), and ``store_path`` persists every fresh evaluation to an
:class:`~repro.search.store.EvaluationStore`, so a run that is cut off —
by Ctrl-C, a budget or ``kill -9`` — resumes from the same path and
pays only for the work the store does not hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.pool import PersistentEvalPool

from repro.core.initializers import initial_windows
from repro.core.objective import Solver, WindowObjective
from repro.core.power import PowerReport, power_report
from repro.errors import ModelError, SearchError
from repro.evalplane import build_plane
from repro.queueing.network import ClosedNetwork
from repro.resilience.budget import SearchBudget
from repro.resilience.health import DegradationEvent, PoolHealth, SolveHealth
from repro.resilience.ladder import ResilientSolver
from repro.search.cache import EvaluationCache, integral_key
from repro.search.pattern import pattern_search
from repro.search.result import SearchResult
from repro.search.space import IntegerBox
from repro.search.store import EvaluationStore, model_fingerprint
from repro.solution import NetworkSolution

__all__ = ["WindimResult", "windim"]


@dataclass(frozen=True)
class WindimResult:
    """Outcome of a WINDIM run.

    Attributes
    ----------
    windows:
        The optimal window vector ``E_opt``.
    power:
        Network power at ``E_opt``.
    report:
        Full power breakdown (throughput, delay, per-class figures).
    solution:
        The solver's :class:`~repro.solution.NetworkSolution` at ``E_opt``.
    search:
        The pattern-search trajectory and evaluation counts.
    initial_windows:
        The starting point that was used.
    converged:
        False when the solution at the optimum came from an iterative
        solver that stopped at its budget — the reported figures are then
        a last iterate, not a fixed point.
    status:
        The search status: ``"completed"`` or ``"budget_exhausted"``
        (best-so-far under a deadline/evaluation budget).
    health_log:
        Per-evaluation :class:`~repro.resilience.health.SolveHealth`
        records when the run used the resilient ladder (empty otherwise).
    store_seeded:
        Cache entries preloaded from the persistent evaluation store
        (``store_path=``; 0 for fresh runs).  They cost no fresh solves:
        ``search.evaluations`` counts only the work done on top of them.
    reuse_stats:
        :class:`~repro.core.reuse.ReuseEngine` counters (warm/cold solve
        and iteration totals, solves whose Aitken accelerator switched
        itself off, lattice-cache hits) when ``reuse=True``; ``None``
        otherwise.
    pool_health:
        :class:`~repro.resilience.health.PoolHealth` of the persistent
        evaluation pool (worker PIDs, respawns, requeues, payload bytes)
        when the run used one; ``None`` otherwise.
    degradations:
        :class:`~repro.resilience.health.DegradationEvent` records for
        the evaluation plane's step down mid-search (``persistent ->
        serial``).  Empty for healthy runs; non-empty means the optimum
        is still trajectory-exact but was computed in-process.
    store_quarantined:
        Corrupt record lines the persistent evaluation store skipped and
        quarantined to its ``.quarantine`` sidecar on load (0 when no
        store was used or the store was clean).
    solved_ahead / ahead_used:
        Points the pattern search solved ahead in cross packs, and how
        many of them it then demanded, summed over every start's search
        (see :mod:`repro.search.pattern`); both 0 on paths that never
        pack a cross.  Only the used ones count in
        ``search.evaluations``.
    """

    windows: Tuple[int, ...]
    power: float
    report: PowerReport
    solution: NetworkSolution
    search: SearchResult
    initial_windows: Tuple[int, ...]
    converged: bool = True
    status: str = "completed"
    health_log: Tuple[SolveHealth, ...] = ()
    store_seeded: int = 0
    reuse_stats: Optional[Dict[str, float]] = None
    pool_health: Optional[PoolHealth] = None
    degradations: Tuple[DegradationEvent, ...] = ()
    store_quarantined: int = 0
    solved_ahead: int = 0
    ahead_used: int = 0

    def summary(self) -> str:
        """Human-readable multi-line report (mirrors the APL output)."""
        lines = [f"WINDIM optimal windows = {list(self.windows)}"]
        lines.append(f"  started from         {list(self.initial_windows)}")
        lines.append(f"  network power        = {self.report.power:.2f}")
        lines.append(f"  network throughput   = {self.report.throughput:.3f} msg/s")
        lines.append(f"  avg network delay    = {self.report.delay * 1e3:.3f} ms")
        lines.append(
            "  class throughputs    = "
            + ", ".join(f"{x:.3f}" for x in self.report.class_throughputs)
        )
        lines.append(
            "  class delays (ms)    = "
            + ", ".join(f"{x * 1e3:.3f}" for x in self.report.class_delays)
        )
        lines.append(
            f"  objective evaluations = {self.search.evaluations} "
            f"({self.search.lookups} lookups)"
        )
        hits = self.search.lookups - self.search.evaluations
        lines.append(
            f"  evaluation cache      = {hits} hits, "
            f"{self.search.evaluations} misses"
        )
        if self.solved_ahead:
            lines.append(
                f"  cross packs           = {self.solved_ahead} points solved "
                f"ahead, {self.ahead_used} used by the search"
            )
        if self.store_seeded:
            lines.append(
                f"  persistent store      = {self.store_seeded} evaluations "
                "preloaded"
            )
        if self.reuse_stats is not None:
            warm = int(self.reuse_stats.get("warm_solves", 0))
            cold = int(self.reuse_stats.get("cold_solves", 0))
            off = int(self.reuse_stats.get("aitken_switched_off", 0))
            lines.append(
                f"  reuse engine          = {warm} warm / {cold} cold solves, "
                f"Aitken switched off in {off}"
            )
        if self.pool_health is not None:
            lines.append(f"  evaluation pool       = {self.pool_health.summary()}")
        if self.health_log:
            retried = sum(1 for h in self.health_log if h.retries > 0)
            escalated = sum(1 for h in self.health_log if h.escalated)
            lines.append(
                f"  resilient solves      = {len(self.health_log)} "
                f"({retried} retried, {escalated} escalated)"
            )
        if self.store_quarantined:
            lines.append(
                f"  WARNING: store quarantined {self.store_quarantined} "
                "corrupt record line(s); see the .quarantine sidecar"
            )
        for event in self.degradations:
            lines.append(
                f"  WARNING: plane degraded {event.from_mode} -> "
                f"{event.to_mode} after {event.evaluations} evaluations "
                f"({event.reason})"
            )
        if self.status != "completed":
            lines.append(
                f"  WARNING: search stopped early ({self.status}: "
                f"{self.search.stop_reason}); windows are best-so-far"
            )
        if not self.converged:
            lines.append(
                "  WARNING: solver did not converge at the optimum; "
                "figures are the last iterate"
            )
        return "\n".join(lines)


def windim(
    network: ClosedNetwork,
    solver: Union[str, Solver] = "mva-heuristic",
    workers: Optional[int] = None,
    pool_mode: Optional[str] = None,
    shared_pool: Optional["PersistentEvalPool"] = None,
    start: Optional[Sequence[int]] = None,
    initial_strategy: str = "hops",
    max_window: int = 64,
    initial_step: int = 2,
    max_halvings: int = 8,
    max_evaluations: int = 10_000,
    resilient: bool = False,
    reuse: bool = False,
    store_path: Optional[str] = None,
    budget: Optional[SearchBudget] = None,
    max_seconds: Optional[float] = None,
) -> WindimResult:
    """Dimension the end-to-end windows of ``network`` for maximum power.

    Parameters
    ----------
    network:
        Closed multichain model of the flow-controlled network; chain
        populations in it are ignored (they are the decision variables).
    solver:
        Performance solver used for objective evaluations — the thesis
        uses ``"mva-heuristic"``; ``"mva-exact"``/``"convolution"`` give
        the (expensive) exact variant for comparison.  Any
        ``ClosedNetwork -> NetworkSolution`` callable is accepted too,
        e.g. a scalar reference kernel of :mod:`repro.mva.reference`.
    workers:
        When > 1 (named solvers only), objective evaluations run on a
        persistent pool of this size: the workers are created once and
        receive the model through a shared-memory arena.  The search
        demands one point at a time, so it makes the serial run's
        evaluations and walks its trajectory; only a batch (a multistart
        seed list) runs on several workers at once.  If the pool fails
        mid-search the run steps down to in-process solving (see
        ``WindimResult.degradations``).  Incompatible with
        ``resilient=True`` (health records are in-process); use
        ``solver="resilient"`` to combine parallelism with the ladder.
    pool_mode:
        ``None`` or ``"persistent"``, the only pool there is; any other
        value raises :class:`~repro.errors.ModelError`.
    shared_pool:
        A campaign-owned :class:`~repro.parallel.pool.PersistentEvalPool`
        to borrow instead of creating one (see
        :func:`repro.analysis.sweeps.optimal_window_sweep`): the arena is
        re-targeted at this network and the pool is left running on
        return.  Requires ``workers`` to match the pool and a same-shape
        network.
    start:
        Explicit initial window vector; overrides ``initial_strategy``.
        Integer-valued: ``(2.0, 3.0)`` is accepted, ``(1.5, 2)`` raises
        :class:`~repro.errors.ModelError`.
    initial_strategy:
        Named initialiser (``"hops"`` default; thesis §4.4).
    max_window:
        Upper bound of every window (search space ``[1, max_window]^R``).
    initial_step / max_halvings / max_evaluations:
        Pattern-search knobs; see
        :func:`repro.search.pattern.pattern_search`.
    resilient:
        Wrap the solver in the retry/escalation ladder
        (:class:`~repro.resilience.ladder.ResilientSolver`); the result
        then carries per-evaluation health records.
    reuse:
        Enable the cross-evaluation reuse engine
        (:class:`~repro.core.reuse.ReuseEngine`): fixed points are
        warm-started from the nearest solved neighbour and exact solvers
        share a lattice cache.  Warm starts keep the solvers' stopping
        criteria, so values stay within the 1e-8 parity band.
    store_path:
        Persistent :class:`~repro.search.store.EvaluationStore` file,
        the one way a run persists and resumes.  Previously stored
        evaluations are preloaded before searching — counted in
        ``store_seeded``, paid for by no fresh solves — and every fresh
        evaluation of this run is appended as it completes, so an
        interrupted or killed run resumes from the same path.  Under
        ``reuse=True`` each record also carries the converged queue
        lengths as a warm-start seed.  The store is fingerprinted to
        the network + solver; reusing it on a different instance raises
        :class:`~repro.errors.SearchError`.  A custom solver is named
        by its ``__name__``: a lambda or an unnamed callable raises
        :class:`~repro.errors.ModelError` before the file is opened.
    budget / max_seconds:
        Search budget.  ``max_seconds`` is shorthand for
        ``SearchBudget(max_seconds=...)``; passing both is an error.  When
        the budget runs out the result is the best-so-far vector with
        ``status="budget_exhausted"`` — the run never hangs.

    Returns
    -------
    WindimResult
    """
    if pool_mode not in (None, "persistent"):
        raise ModelError(
            f"unknown pool mode {pool_mode!r}: the per-batch mode was "
            "removed; pass None or 'persistent'"
        )
    if start is None:
        start_point: Tuple[int, ...] = initial_windows(network, initial_strategy)
    else:
        start_point = start_windows(network, start)

    if budget is not None and max_seconds is not None:
        raise SearchError("pass either budget or max_seconds, not both")
    if max_seconds is not None:
        budget = SearchBudget(max_seconds=max_seconds)

    resilient_solver: Optional[ResilientSolver] = None
    if resilient:
        if workers is not None and workers > 1:
            raise SearchError(
                "resilient=True collects per-evaluation health records "
                "in-process and cannot be combined with workers > 1; pass "
                'solver="resilient" instead to parallelise ladder solves'
            )
        primary = "mva-heuristic" if solver == "resilient" else solver
        resilient_solver = ResilientSolver(primary)
        solver = resilient_solver

    objective = WindowObjective(
        network,
        solver,
        workers=workers,
        reuse=reuse,
    )
    if shared_pool is not None:
        if not objective.parallel:
            raise SearchError(
                "shared_pool requires workers > 1 and a named solver"
            )
        objective.attach_pool(shared_pool)
    return _run(
        objective,
        [start_point],
        solver=solver,
        space=IntegerBox.windows(network.num_chains, max_window),
        initial_step=initial_step,
        max_halvings=max_halvings,
        max_evaluations=max_evaluations,
        reuse=reuse,
        store_path=store_path,
        budget=budget,
        ladder=resilient_solver,
    )


def start_windows(network: ClosedNetwork, start: Sequence[int]) -> Tuple[int, ...]:
    """``start`` as a window vector of ``network``: one integer per chain.

    A fractional window is rejected, never truncated (the guard of
    :func:`~repro.search.cache.integral_key`).
    """
    try:
        key = integral_key(start)
    except ValueError as error:
        raise ModelError(str(error)) from None
    if len(key) != network.num_chains:
        raise ModelError(
            f"expected {network.num_chains} initial windows, got {len(key)}"
        )
    return key


def _run(
    objective: WindowObjective,
    starts: Sequence[Tuple[int, ...]],
    *,
    solver: Union[str, Solver],
    space: IntegerBox,
    initial_step: int,
    max_halvings: int,
    max_evaluations: int,
    reuse: bool,
    store_path: Optional[str],
    budget: Optional[SearchBudget] = None,
    ladder: Optional[ResilientSolver] = None,
) -> WindimResult:
    """Pattern-search ``objective`` from each start and build the result.

    The one run path of :func:`windim` (one start) and
    :func:`~repro.core.multistart.windim_multistart` (several): one
    store, one plane and one shared cache serve every start.  With one
    start, ``search`` is that run's own result.  With several, the seed
    list is first evaluated in one ``submit_many`` batch where the
    objective packs or pools batches, and ``search`` is the best run's
    trajectory with cache-wide counts and the status of the first run
    that stopped on the cap or budget.  ``solver`` names the store's
    fingerprint; ``ladder`` supplies the health log.
    """
    cache = EvaluationCache(objective)
    store: Optional[EvaluationStore] = None
    if store_path is not None:
        label = solver if isinstance(solver, str) else getattr(
            solver, "primary_name", getattr(solver, "__name__", "custom")
        )
        if label in ("<lambda>", "custom"):  # shared by many solvers
            raise ModelError(
                f"store label {label!r} does not identify the solver; "
                "pass a named function or a SOLVERS name"
            )
        store = EvaluationStore.open(
            store_path, model_fingerprint(objective.network, str(label))
        )
        # Stored values enter cache.values directly: neither hits nor
        # misses, so the run's evaluation count keeps measuring fresh
        # work only.
        for point, value in store.values.items():
            cache.values.setdefault(point, value)
        for point, seed in store.seeds.items():
            objective.prime_seed(point, seed)

    recorded_history = 0

    def note_evaluation(live_cache: EvaluationCache) -> None:
        """Per-fresh-evaluation hook: append the new points to the store.

        Warm-start seeds are harvested only under ``reuse=True``, the
        one configuration that reads them back (``prime_seed``).
        """
        nonlocal recorded_history
        history = live_cache.history
        while recorded_history < len(history):
            point, value = history[recorded_history]
            recorded_history += 1
            if point in store.values:
                continue
            seed = None
            if reuse:
                solution = objective.cached_solution(point)
                if solution is not None and solution.converged:
                    seed = solution.queue_lengths
            store.record(point, value, seed)

    # One plane per run: build_plane picks the execution path (persistent
    # fleet or serial) from the objective's configuration, and the
    # context manager closes it on every exit path — a budget-exhausted,
    # raising or interrupted run can no longer leave workers alive.
    distinct = list(dict.fromkeys(starts))
    runs: List[SearchResult] = []
    # The store appends each fresh evaluation as it completes, so an
    # interrupted run (KeyboardInterrupt included) has nothing left to
    # flush: close() only compacts, syncs and releases the file.
    try:
        plane = build_plane(
            objective,
            cache=cache,
            space=space,
            budget=budget,
            max_evaluations=max_evaluations,
            on_evaluation=note_evaluation if store is not None else None,
            seed_for=objective.seed_for if reuse else None,
        )
        with plane:
            if len(starts) > 1 and (objective.parallel or objective.soa_batchable):
                # Fanned over the pool, or one SoA pack (bit-identical to
                # per-key solves), trimmed to the cap and never raising.
                plane.submit_many(starts)
            for start in distinct:
                runs.append(
                    pattern_search(
                        objective,
                        start,
                        space,
                        initial_step=initial_step,
                        max_halvings=max_halvings,
                        plane=plane,
                    )
                )
    finally:
        if store is not None:
            store.close()

    winner = min(range(len(runs)), key=lambda i: runs[i].best_value)
    search = runs[winner]
    if len(starts) > 1:
        capped = next((run for run in runs if run.status != "completed"), search)
        search = SearchResult(
            best_point=search.best_point,
            best_value=search.best_value,
            evaluations=cache.evaluations,
            lookups=cache.lookups,
            base_points=search.base_points,
            method="pattern-search-multistart",
            status=capped.status,
            stop_reason=capped.stop_reason,
        )
    best = search.best_point
    solution = objective.solution(best)
    report = power_report(solution)
    return WindimResult(
        windows=best,
        power=report.power,
        report=report,
        solution=solution,
        search=search,
        initial_windows=distinct[winner],
        converged=solution.converged,
        status=search.status,
        health_log=tuple(ladder.health_log) if ladder is not None else (),
        store_seeded=store.loaded if store is not None else 0,
        reuse_stats=objective.reuse_stats,
        # PoolHealth is plain data; the plane snapshots it before close()
        # drops the pool so the result can still report fleet statistics.
        pool_health=plane.pool_health,
        degradations=plane.degradations,
        store_quarantined=store.quarantined if store is not None else 0,
        solved_ahead=sum(run.solved_ahead for run in runs),
        ahead_used=sum(run.ahead_used for run in runs),
    )
