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
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.power import inverse_pack_power, inverse_power
from repro.core.reuse import ReuseEngine
from repro.errors import ModelError, SolverError
from repro.mva.soa import PackedSolution, assess
from repro.queueing.network import ClosedNetwork
from repro.search.cache import integral_key
from repro.solution import NetworkSolution
from repro.solvers import SOLVERS, resolve_solver, solver_name

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
#: A packed evaluation is retained as a
#: :class:`~repro.mva.soa.PackedSolution` handle, under the same cap.
DEFAULT_MAX_SOLUTIONS = 256


Point = Tuple[int, ...]
Solver = Callable[..., NetworkSolution]
#: What the solution cache keeps per window vector.
Retained = Union[NetworkSolution, PackedSolution]


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

    Attributes
    ----------
    evaluations:
        Solves this objective ran, including points a pattern search
        solved ahead in cross packs and never used
        (:mod:`repro.search.pattern`).  A
        search's own count of fresh evaluations, the one caps and
        budgets charge, is ``SearchResult.evaluations``.

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
        workers: Optional[int] = None,
        reuse: bool = False,
        max_solutions: int = DEFAULT_MAX_SOLUTIONS,
    ):
        self._network = network
        self._solver_name = solver_name(solver)
        self._solver = resolve_solver(solver)
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
        self._solutions: "OrderedDict[Point, Retained]" = OrderedDict()
        self.evaluations = 0

    @property
    def network(self) -> ClosedNetwork:
        """The underlying network template."""
        return self._network

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
        on first use with the objective's network and solver and is
        reused for every later demand, batch and multistart phase of the
        run.
        """
        if not self.parallel:
            raise ModelError("ensure_pool() requires workers > 1")
        if self._eval_pool is None:
            from repro.parallel.pool import PersistentEvalPool

            self._eval_pool = PersistentEvalPool(
                self._network,
                self._solver_name,
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
        pool.update_model(self._network)
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

    def _retain(self, key: Point, solution: Retained) -> None:
        """Keep ``solution`` for :meth:`solution`, evicting LRU past the cap."""
        self._solutions[key] = solution
        self._solutions.move_to_end(key)
        while len(self._solutions) > self._max_solutions:
            self._solutions.popitem(last=False)

    def _key(self, windows: Sequence[int]) -> Point:
        """``windows`` as a key: integral, one per chain, none negative.

        A fractional window is rejected, never truncated: truncation
        would answer for a different window vector (the same guard as
        :func:`~repro.search.cache.integral_key`).
        """
        try:
            key = integral_key(windows)
        except ValueError as error:
            raise ModelError(str(error)) from None
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

    def retained(self, key: Point) -> Optional[Retained]:
        """What the solution cache keeps at ``key``, or None — never builds.

        ``key`` is a window tuple already normalised by the caller (the
        evaluation plane's :func:`~repro.search.cache.integral_key`); a
        hit counts as a use for the LRU order.  A packed evaluation
        answers with its :class:`~repro.mva.soa.PackedSolution` handle,
        which builds the solution when first read.
        """
        solution = self._solutions.get(key)
        if solution is not None:
            self._solutions.move_to_end(key)
        return solution

    def cached_solution(self, windows: Sequence[int]) -> Optional[NetworkSolution]:
        """The retained solution at ``windows``, or None — never solves.

        The persistent :class:`~repro.search.store.EvaluationStore` uses
        this to harvest converged queue lengths as warm-start seeds
        without triggering extra work.  A cap-evicted point reads as
        None, exactly like a never-evaluated one.
        """
        solution = self.retained(self._key(windows))
        if isinstance(solution, PackedSolution):
            return solution.get()
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

        Delegates to :func:`repro.mva.soa.assess`: a named solver
        with a batched fixed point, no reuse engine — warm starts are
        inherently per-key (each solve seeds from its nearest already-
        solved neighbour, which may be *in the same batch*), so the
        reuse path keeps the serial loop — and at least two networks.
        Returns ``(engage, reason)``; callers log declines so caps are
        never silent.
        """
        return assess(self._solver_name, self._engine is not None, batch_size)

    @property
    def soa_batchable(self) -> bool:
        """True when serial batches can run as one cross-network SoA pass.

        The engagement decision of :meth:`soa_assessment` for a minimal
        (two-network) batch.  The SoA pass performs the same
        floating-point operations in the same order as per-key cold
        solves, so switching it on never changes a search trajectory.
        """
        return self.soa_assessment()[0]

    def engages_packs(self, batch_size: int) -> bool:
        """The one SoA decision for an in-process batch of ``batch_size``.

        :meth:`soa_assessment`, with a decline logged (reason and size)
        so that no caller falls back to a serial loop silently.
        """
        from repro.mva import autobatch

        engage, reason = self.soa_assessment(batch_size)
        if not engage:
            autobatch.record_declined(reason, batch_size)
        return engage

    def _engage_packs(self, batch_size: int) -> bool:
        """:meth:`engages_packs`, counting an engaged batch as packed."""
        if not self.engages_packs(batch_size):
            return False
        from repro.mva import autobatch

        autobatch.record_engaged(batch_size)
        return True

    def batch_solve_networks(
        self, networks: Sequence[ClosedNetwork]
    ) -> "List[Tuple[float, Optional[NetworkSolution]]]":
        """Evaluate a batch of arbitrary (mixed-topology) networks.

        The heterogeneous counterpart of :meth:`batch_solve`: the
        networks need not share this objective's topology, so results
        bypass the window-keyed solution cache and are returned directly
        as ``(1/power, solution)`` pairs in input order (``(inf, None)``
        where the solver failed).  When :meth:`soa_assessment` engages,
        the whole batch runs as SoA packs
        (:func:`repro.mva.soa.solve_networks_batched`), bit-identical to
        serial solves, and is scored by
        :func:`~repro.core.power.inverse_pack_power`; declined batches
        are logged with the reason and solved serially.  ``evaluations``
        grows by ``len(networks)`` either way.
        """
        networks = list(networks)
        if not networks:
            return []
        if self._engage_packs(len(networks)):
            from repro.mva import soa

            packed = soa.solve_networks_batched(networks, solver=self._solver_name)
            results = list(zip(inverse_pack_power(packed).tolist(), packed))
        else:
            results = []
            for network in networks:
                try:
                    solution = self._solver(network)
                except SolverError:
                    results.append((float("inf"), None))
                else:
                    results.append((inverse_power(solution), solution))
        self.evaluations += len(networks)
        return results

    def _window_matrix(self, batch: Sequence[Sequence[int]]) -> np.ndarray:
        """``batch`` as a checked ``(B, R)`` int64 window matrix.

        One array check for the whole batch; anything it cannot vouch
        for goes through :meth:`_key` point by point, which raises the
        same errors a single evaluation would.
        """
        chains = self._network.num_chains
        try:
            windows = np.asarray(batch)
        except ValueError:  # ragged
            windows = None
        if (
            windows is None
            or windows.shape != (len(batch), chains)
            or windows.dtype.kind not in "iu"
            or (windows.size and windows.min() < 0)
        ):
            windows = np.array([self._key(w) for w in batch], dtype=np.int64)
        return windows.reshape(len(batch), chains).astype(np.int64, copy=False)

    def batch_solve(self, batch: Sequence[Sequence[int]]) -> List[float]:
        """Evaluate a whole batch of window vectors in one call.

        The batch is typically a pattern-search neighborhood, a
        multistart seed list or a window grid.  With ``workers > 1``
        (and a named solver) the solves run concurrently on the
        persistent worker fleet — created lazily on first use and reused
        across calls, with warm seeds shipped by arena slot.  In-process
        batches that :meth:`soa_assessment` engages run as SoA packs
        over the objective's one layout and the batch's window matrix
        (:func:`repro.mva.soa.solve_windows_batched`, bit-identical to
        the per-key loop, no network copies) and are scored from the
        pack's arrays (:func:`~repro.core.power.inverse_pack_power`);
        everything else runs serially in-process.  Either way the
        solutions stay retained — packed ones as handles that build a
        :class:`~repro.solution.NetworkSolution` on first read — so
        :meth:`solution` is free afterwards, and ``evaluations`` grows by
        one per solve.

        Returns the objective values in batch order (``inf`` where the
        solver failed).  Duplicate vectors in a packed or pooled batch
        are solved once.
        """
        if not self.parallel:
            if not len(batch):
                return []
            windows = self._window_matrix(batch)
            keys = list(map(tuple, windows.tolist()))
            unique = list(dict.fromkeys(keys))
            if len(unique) < 2 or not self._engage_packs(len(unique)):
                return [self(k) for k in keys]
            from repro.mva import soa

            if len(unique) < len(keys):
                windows = np.array(unique, dtype=np.int64)
            packed = soa.solve_windows_batched(
                self._network, windows, solver=self._solver_name
            )
            values = inverse_pack_power(packed).tolist()
            self.evaluations += len(unique)
            # Only the last ``max_solutions`` keys would survive the
            # LRU: retaining just those leaves the same keys behind.
            for index in range(
                max(0, len(unique) - self._max_solutions), len(unique)
            ):
                self._retain(unique[index], PackedSolution(packed, index))
            if len(unique) == len(keys):
                return values
            by_key = dict(zip(unique, values))
            return [by_key[k] for k in keys]

        keys = [self._key(w) for w in batch]
        if not keys:
            return []
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
        key = self._key(windows)
        if key not in self._solutions:
            self(key)
        solution = self.retained(key)
        if solution is None:
            raise SolverError(f"no solution obtainable at windows {key}")
        if isinstance(solution, PackedSolution):
            return solution.get()
        return solution
