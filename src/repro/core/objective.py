"""Window-setting objective function (the APL ``FCT`` role).

:class:`WindowObjective` turns a closed network plus a solver into a plain
``windows -> 1/power`` callable that the optimisers of :mod:`repro.search`
can minimise.  It also remembers the full :class:`~repro.solution.
NetworkSolution` of the best point seen, so WINDIM can report class
throughputs and delays without re-solving.

Beyond single evaluations, :meth:`WindowObjective.batch_solve` evaluates a
whole list of window vectors in one call — a pattern-search neighborhood
or a multistart seed list — either as one cross-network SoA pass
in-process or, with ``workers=N``, on the persistent shared-memory
worker fleet (:class:`~repro.parallel.pool.PersistentEvalPool`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backend import resolve_backend
from repro.core.power import inverse_power
from repro.core.reuse import ReuseEngine
from repro.errors import ModelError, SolverError
from repro.queueing.network import ClosedNetwork
from repro.solution import NetworkSolution

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.pool import PersistentEvalPool

__all__ = ["WindowObjective", "resolve_solver", "SOLVERS"]

#: Bound on retained full :class:`~repro.solution.NetworkSolution`\ s.
#: At thesis scale a solution is a few KB and the cap is invisible; on
#: the 1000-node / 500-chain fixtures each one carries ~13 MB of dense
#: matrices, so an unbounded dict turns a 10k-evaluation dimensioning
#: run into >100 GB of dead state.  Eviction is least-recently-*used*;
#: every consumer already tolerates a miss (``solution()`` re-solves,
#: ``cached_solution()`` returns None and the store harvest skips).
DEFAULT_MAX_SOLUTIONS = 256


Point = Tuple[int, ...]
Solver = Callable[..., NetworkSolution]


def _heuristic_solver(
    network: ClosedNetwork,
    backend: Optional[str] = None,
    warm_start=None,
) -> NetworkSolution:
    from repro.mva.heuristic import solve_mva_heuristic

    return solve_mva_heuristic(network, backend=backend, warm_start=warm_start)


def _exact_mva_solver(
    network: ClosedNetwork,
    backend: Optional[str] = None,
    lattice_cache=None,
) -> NetworkSolution:
    from repro.exact.mva_exact import solve_mva_exact

    return solve_mva_exact(network, backend=backend, lattice_cache=lattice_cache)


def _convolution_solver(
    network: ClosedNetwork, backend: Optional[str] = None
) -> NetworkSolution:
    # The convolution algorithm has a single kernel; the backend flag is
    # accepted (and validated) for interface uniformity.
    resolve_backend(backend)
    from repro.exact.convolution import solve_convolution

    return solve_convolution(network)


def _schweitzer_solver(
    network: ClosedNetwork,
    backend: Optional[str] = None,
    warm_start=None,
) -> NetworkSolution:
    from repro.mva.schweitzer import solve_schweitzer

    return solve_schweitzer(network, backend=backend, warm_start=warm_start)


def _linearizer_solver(
    network: ClosedNetwork,
    backend: Optional[str] = None,
    warm_start=None,
) -> NetworkSolution:
    from repro.mva.linearizer import solve_linearizer

    return solve_linearizer(network, backend=backend, warm_start=warm_start)


def _asymptotic_solver(
    network: ClosedNetwork,
    backend: Optional[str] = None,
    warm_start=None,
) -> NetworkSolution:
    from repro.mva.asymptotic import solve_asymptotic

    return solve_asymptotic(network, backend=backend, warm_start=warm_start)


def _resilient_solver(
    network: ClosedNetwork,
    backend: Optional[str] = None,
    warm_start=None,
    lattice_cache=None,
) -> NetworkSolution:
    from repro.resilience.ladder import solve_resilient

    return solve_resilient(
        network,
        "mva-heuristic",
        backend=backend,
        warm_start=warm_start,
        lattice_cache=lattice_cache,
    )


#: Named solvers accepted by :func:`resolve_solver` and the CLI.  Every
#: entry takes ``(network, backend=None)``; the backend selects the kernel
#: implementation (see :mod:`repro.backend`), never the algorithm.  Where
#: the underlying algorithm supports them, entries additionally accept the
#: reuse keywords ``warm_start=`` / ``lattice_cache=`` (discovered by
#: signature inspection in :class:`repro.core.reuse.ReuseEngine`).
SOLVERS: Dict[str, Solver] = {
    "mva-heuristic": _heuristic_solver,
    "mva-exact": _exact_mva_solver,
    "convolution": _convolution_solver,
    "schweitzer": _schweitzer_solver,
    "linearizer": _linearizer_solver,
    "asymptotic": _asymptotic_solver,
    "resilient": _resilient_solver,
}


def resolve_solver(solver: "str | Solver") -> Solver:
    """Map a solver name (or pass through a callable) to a solver."""
    if callable(solver):
        return solver
    try:
        return SOLVERS[solver]
    except KeyError:
        raise ModelError(
            f"unknown solver {solver!r}; expected one of {sorted(SOLVERS)} "
            "or a callable"
        ) from None


class WindowObjective:
    """Callable ``windows -> 1/power`` for a fixed network topology.

    Parameters
    ----------
    network:
        The closed network whose chain populations are the decision
        variables; its current populations are irrelevant.
    solver:
        Solver name from :data:`SOLVERS` or any
        ``ClosedNetwork -> NetworkSolution`` callable.
        Defaults to the thesis MVA heuristic.
    backend:
        Kernel backend forwarded to named solvers (``"scalar"`` /
        ``"vectorized"``; ``None`` = process default, see
        :mod:`repro.backend`).  Ignored for custom callables, which own
        their kernels.
    workers:
        When > 1 *and* the solver is a registry name,
        :meth:`batch_solve` fans its points out over a persistent
        shared-memory worker fleet of this size; single evaluations are
        unaffected.  ``None``/``0``/``1`` keeps everything in-process.
    reuse:
        Enable the cross-evaluation :class:`~repro.core.reuse.ReuseEngine`:
        in-process solves are warm-started from the nearest already-solved
        window vector and exact solvers share a lattice cache.  Converged
        values stay within the 1e-8 parity band (the stopping criteria are
        unchanged); only solve cost drops.  With workers, warm-start
        seeds also reach the pool — by shared-memory slot, not by
        pickle — and worker results feed the seed store back.
    max_solutions:
        Cap on retained full solutions (:data:`DEFAULT_MAX_SOLUTIONS`;
        least recently used evicted first).  Evicted points re-solve on
        demand in :meth:`solution` and simply skip the warm-seed harvest
        in :meth:`cached_solution` — values, trajectories and optima are
        unaffected, only peak memory is bounded.

    Notes
    -----
    A window vector that makes the solver fail (e.g. a lattice-size guard
    on an exact solver) evaluates to ``inf`` rather than raising, so a
    search simply avoids it; genuine model errors still propagate.
    """

    def __init__(
        self,
        network: ClosedNetwork,
        solver: "str | Solver" = "mva-heuristic",
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        reuse: bool = False,
        max_solutions: int = DEFAULT_MAX_SOLUTIONS,
    ):
        if backend is not None:
            resolve_backend(backend)  # validate eagerly
        self._network = network
        self._solver_name = solver if isinstance(solver, str) else None
        self._solver = resolve_solver(solver)
        self._backend = backend
        self._engine = ReuseEngine(self._solver) if reuse else None
        self._workers = int(workers) if workers else 0
        if self._workers < 0:
            raise ModelError(f"workers must be >= 0, got {workers}")
        if self._workers > 1 and self._solver_name is None:
            raise ModelError(
                "parallel batch evaluation (workers > 1) requires a named "
                f"solver from {sorted(SOLVERS)}; custom callables may not "
                "be picklable"
            )
        self._eval_pool: Optional["PersistentEvalPool"] = None
        self._eval_pool_owned = True
        if max_solutions < 1:
            raise ModelError(f"max_solutions must be >= 1, got {max_solutions}")
        self._max_solutions = int(max_solutions)
        self._solutions: "OrderedDict[Point, NetworkSolution]" = OrderedDict()
        self.evaluations = 0

    @property
    def network(self) -> ClosedNetwork:
        """The underlying network template."""
        return self._network

    @property
    def backend(self) -> Optional[str]:
        """Kernel backend forwarded to named solvers (None = default)."""
        return self._backend

    @property
    def parallel(self) -> bool:
        """True when :meth:`batch_solve` dispatches to a process pool."""
        return self._workers > 1 and self._solver_name is not None

    @property
    def workers(self) -> int:
        """Requested pool size (0/1 = in-process)."""
        return self._workers

    def ensure_pool(self) -> "PersistentEvalPool":
        """The lazily created persistent pool backing this objective.

        Only meaningful for a parallel objective; the pool is created
        on first use with the objective's network/solver/backend and is
        reused for every later batch, scheduler, and multistart phase of
        the run.
        """
        if not self.parallel:
            raise ModelError("ensure_pool() requires workers > 1")
        if self._eval_pool is None:
            from repro.parallel.pool import PersistentEvalPool

            self._eval_pool = PersistentEvalPool(
                self._network,
                self._solver_name,
                backend=self._backend,
                workers=self._workers,
            )
            self._eval_pool_owned = True
        return self._eval_pool

    def attach_pool(self, pool: "PersistentEvalPool") -> None:
        """Borrow a campaign-shared persistent pool for this objective.

        The pool is re-targeted at this objective's network (an in-place
        arena rewrite — the workers survive), and is *not* closed by
        :meth:`close`: its owner (e.g. a campaign sweep) outlives any
        single ``windim`` run.
        """
        pool.update_model(self._network, backend=self._backend)
        self._eval_pool = pool
        self._eval_pool_owned = False

    @property
    def pool_health(self):
        """The persistent pool's :class:`PoolHealth` (None when unused)."""
        return self._eval_pool.health if self._eval_pool is not None else None

    def absorb_remote(self, windows: Sequence[int], payload: Dict) -> None:
        """Merge a pool worker's solution payload into this objective.

        The parent-side half of a pool evaluation: the rebuilt solution
        is retained for :meth:`solution` and fed to the reuse engine, so
        remote results seed future warm starts exactly like in-process
        ones.  ``evaluations`` grows by one (a worker solved once).
        """
        from repro.parallel.pool import rebuild_solution

        key = self._key(windows)
        self.evaluations += 1
        if payload is None:
            return
        solution = rebuild_solution(self._network, key, payload)
        self._retain(key, solution)
        if self._engine is not None:
            self._engine.record(key, solution, bool(payload.get("warmed")))

    def seed_for(self, windows: Sequence[int]) -> Optional[np.ndarray]:
        """Warm-start seed for a pool task (None without a reuse engine).

        The nearest already-solved window vector's converged queue
        lengths — the same seed an in-process solve would use, except it
        travels to the worker by shared-memory slot.
        """
        if self._engine is None:
            return None
        return self._engine.nearest_seed(self._key(windows))

    def _retain(self, key: Point, solution: NetworkSolution) -> None:
        """Keep ``solution`` for :meth:`solution`, evicting LRU past the cap."""
        self._solutions[key] = solution
        self._solutions.move_to_end(key)
        while len(self._solutions) > self._max_solutions:
            self._solutions.popitem(last=False)

    def _key(self, windows: Sequence[int]) -> Point:
        key = tuple(int(w) for w in windows)
        if len(key) != self._network.num_chains:
            raise ModelError(
                f"expected {self._network.num_chains} windows, got {len(key)}"
            )
        if any(w < 0 for w in key):
            raise ModelError(f"window sizes must be >= 0, got {key}")
        return key

    @property
    def reuse_stats(self) -> Optional[Dict[str, float]]:
        """Reuse-engine counters (None when ``reuse=False``)."""
        return self._engine.stats() if self._engine is not None else None

    def cached_solution(self, windows: Sequence[int]) -> Optional[NetworkSolution]:
        """The retained solution at ``windows``, or None — never solves.

        The persistent :class:`~repro.search.store.EvaluationStore` uses
        this to harvest converged queue lengths as warm-start seeds
        without triggering extra work.  A cap-evicted point reads as
        None, exactly like a never-evaluated one.
        """
        key = self._key(windows)
        solution = self._solutions.get(key)
        if solution is not None:
            self._solutions.move_to_end(key)
        return solution

    def prime_seed(self, windows: Sequence[int], queue_lengths: np.ndarray) -> None:
        """Feed an externally stored warm-start seed to the reuse engine.

        No-op when ``reuse=False`` or the solver takes no ``warm_start=``;
        the seed is validated lazily at use time by the solver itself.
        """
        if self._engine is not None:
            self._engine.prime_seed(
                self._key(windows), np.asarray(queue_lengths, dtype=np.float64)
            )

    def __call__(self, windows: Sequence[int]) -> float:
        """Objective value ``F = 1/P`` at the given window vector."""
        key = self._key(windows)
        self.evaluations += 1
        candidate = self._network.with_populations(key)
        kwargs: Dict[str, object] = {}
        if self._solver_name is not None:
            kwargs["backend"] = self._backend
        warmed = False
        if self._engine is not None:
            extra = self._engine.solver_kwargs(key)
            warmed = "warm_start" in extra
            kwargs.update(extra)
        try:
            solution = self._solver(candidate, **kwargs)
        except SolverError:
            return float("inf")
        if self._engine is not None:
            self._engine.record(key, solution, warmed)
        self._retain(key, solution)
        return inverse_power(solution)

    def soa_assessment(self, batch_size: int = 2) -> Tuple[bool, str]:
        """The SoA engagement decision for a ``batch_size`` batch.

        Delegates to :func:`repro.mva.autobatch.assess`: a named solver
        with a batched fixed point, no reuse engine — warm starts are
        inherently per-key (each solve seeds from its nearest already-
        solved neighbour, which may be *in the same batch*), so the
        reuse path keeps the serial loop — the vectorized backend, and
        a per-network tensor under the fixed crossover.  Returns
        ``(engage, reason)``; callers log declines so caps are never
        silent.
        """
        from repro.mva import autobatch

        return autobatch.assess(
            self._solver_name,
            self._engine is not None,
            self._backend,
            self._network.num_chains * self._network.num_stations,
            batch_size,
        )

    @property
    def soa_batchable(self) -> bool:
        """True when serial batches can run as one cross-network SoA pass.

        The engagement decision of :meth:`soa_assessment` for a minimal
        (two-network) batch.  The SoA pass performs the same
        floating-point operations in the same order as per-key cold
        solves, so switching it on never changes a search trajectory.
        """
        return self.soa_assessment()[0]

    def _batch_solve_soa(self, keys: List[Point]) -> List[float]:
        """Serial-mode fast path: one packed tensor pass for the batch."""
        from repro.mva.soa import solve_windows_batched

        unique = list(dict.fromkeys(keys))
        solutions = solve_windows_batched(
            self._network,
            unique,
            solver=self._solver_name,
            backend=self._backend,
        )
        values: Dict[Point, float] = {}
        for key, solution in zip(unique, solutions):
            self.evaluations += 1
            self._retain(key, solution)
            values[key] = inverse_power(solution)
        return [values[k] for k in keys]

    def batch_solve_networks(
        self, networks: Sequence[ClosedNetwork]
    ) -> "List[Tuple[float, Optional[NetworkSolution]]]":
        """Evaluate a batch of arbitrary (mixed-topology) networks.

        The heterogeneous counterpart of :meth:`batch_solve`: the
        networks need not share this objective's topology, so results
        bypass the window-keyed solution cache and are returned directly
        as ``(1/power, solution)`` pairs in input order (``(inf, None)``
        where the solver failed).  When :func:`repro.mva.autobatch.
        assess` engages, the whole batch runs as heterogeneous SoA packs
        (:func:`repro.mva.soa.solve_networks_batched`), bit-identical to
        serial solves; declined batches are
        logged with the reason and solved serially.  ``evaluations``
        grows by ``len(networks)`` either way.
        """
        from repro.mva import autobatch

        networks = list(networks)
        if not networks:
            return []
        per_network = max(n.num_chains * n.num_stations for n in networks)
        engage, reason = autobatch.assess(
            self._solver_name,
            self._engine is not None,
            self._backend,
            per_network,
            len(networks),
        )
        solutions: List[Optional[NetworkSolution]]
        if engage:
            from repro.mva.soa import solve_networks_batched

            autobatch.record_engaged(len(networks))
            solutions = list(
                solve_networks_batched(
                    networks, solver=self._solver_name, backend=self._backend
                )
            )
        else:
            autobatch.record_declined(reason, len(networks))
            kwargs: Dict[str, object] = {}
            if self._solver_name is not None:
                kwargs["backend"] = self._backend
            solutions = []
            for network in networks:
                try:
                    solutions.append(self._solver(network, **kwargs))
                except SolverError:
                    solutions.append(None)
        results: "List[Tuple[float, Optional[NetworkSolution]]]" = []
        for solution in solutions:
            self.evaluations += 1
            value = inverse_power(solution) if solution is not None else float("inf")
            results.append((value, solution))
        return results

    def batch_solve(self, batch: Sequence[Sequence[int]]) -> List[float]:
        """Evaluate a whole batch of window vectors in one call.

        The batch is typically a pattern-search neighborhood or a
        multistart seed list.  With ``workers > 1`` (and a named solver)
        the solves run concurrently on the persistent worker fleet —
        created lazily on first use and reused across calls, with warm
        seeds shipped by arena slot.  In-process batches of a
        batchable named solver on the vectorized backend run as *one*
        cross-network SoA tensor pass (see :mod:`repro.mva.soa`),
        bit-identical to the per-key loop; everything else runs serially
        in-process.  Either way the full solutions are retained, so
        :meth:`solution` is free afterwards, and ``evaluations`` grows by
        ``len(batch)``.

        Returns the objective values in batch order (``inf`` where the
        solver failed).  Duplicate vectors in one batch are solved once.
        """
        keys = [self._key(w) for w in batch]
        if not keys:
            return []
        if not self.parallel:
            if len(keys) >= 2:
                from repro.mva import autobatch

                engage, reason = self.soa_assessment(len(keys))
                if engage:
                    autobatch.record_engaged(len(keys))
                    return self._batch_solve_soa(keys)
                autobatch.record_declined(reason, len(keys))
            return [self(k) for k in keys]

        unique = list(dict.fromkeys(keys))
        pool = self.ensure_pool()
        seeds = {}
        for key in unique:
            seed = self.seed_for(key)
            if seed is not None:
                seeds[key] = seed
        completed = pool.map(unique, seeds=seeds or None)
        values = {}
        for key in unique:
            done = completed[key]
            values[key] = done.value
            self.absorb_remote(key, done.payload)
        return [values[k] for k in keys]

    def demote_pool(self) -> None:
        """Abandon the worker fleet mid-run and evaluate in-process.

        The evaluation plane's side of the degradation ladder: the
        persistent pool is closed (if owned) and ``workers`` drops to 0,
        so :meth:`batch_solve` runs in-process from then on.
        """
        if self._eval_pool is not None:
            if self._eval_pool_owned:
                try:
                    self._eval_pool.close()
                except Exception:  # pragma: no cover - broken fleet
                    pass
            self._eval_pool = None
            self._eval_pool_owned = True
        self._workers = 0

    def close(self) -> None:
        """Shut down the owned pool (no-op when none was created).

        A pool borrowed via :meth:`attach_pool` is left running — its
        owner (the campaign) closes it once, after every scenario.
        """
        if self._eval_pool is not None:
            if self._eval_pool_owned:
                self._eval_pool.close()
            self._eval_pool = None
            self._eval_pool_owned = True

    def __getstate__(self) -> Dict[str, object]:
        """Spawn-safe pickling: live pools never cross a process boundary.

        A ``WindowObjective`` is shipped to workers (e.g. inside a
        campaign task under the ``spawn`` start method), so its state
        must stay picklable: the shared-memory pool with its queues is
        dropped and lazily recreated on first use in the new process.
        """
        state = self.__dict__.copy()
        state["_eval_pool"] = None
        state["_eval_pool_owned"] = True
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)

    def __enter__(self) -> "WindowObjective":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def solution(self, windows: Sequence[int]) -> NetworkSolution:
        """The full solution at ``windows`` (solving now if needed)."""
        key = tuple(int(w) for w in windows)
        if key not in self._solutions:
            self(key)
        if key not in self._solutions:
            raise SolverError(f"no solution obtainable at windows {key}")
        self._solutions.move_to_end(key)
        return self._solutions[key]
