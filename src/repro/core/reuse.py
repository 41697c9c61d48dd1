"""Cross-evaluation reuse for WINDIM objective evaluations.

A pattern search evaluates clouds of *adjacent* window vectors, yet each
objective evaluation classically starts from scratch: the MVA fixed
point from the cold balanced initialiser, the exact lattice from
population zero.  :class:`ReuseEngine` makes the cost of an evaluation
depend on its distance from already-solved points instead:

* **Warm starts** — the engine keeps a bounded store of converged
  queue-length matrices keyed by window vector and hands the solver the
  nearest (L1) neighbour's as ``warm_start=``.  The solvers' stopping
  criteria are unchanged, so converged values stay within the existing
  1e-8 parity band; only iteration counts drop.
* **Lattice sharing** — exact solvers receive one shared
  :class:`~repro.exact.lattice_cache.LatticeCache`, so the prefix
  lattices of neighbouring targets are computed once (bit-exact reuse).

Which keyword a solver understands is read from its signature
(:func:`repro.solvers.solver_keywords`), so custom callables participate
exactly to the extent they opt in (a solver without ``warm_start=``
simply runs cold).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.mva.accel import SWITCHED_OFF
from repro.solvers import solver_keywords

__all__ = ["ReuseEngine"]

Point = Tuple[int, ...]

#: Default cap on retained warm-start seeds (one (R, L) float matrix each).
DEFAULT_MAX_SEEDS = 128


class ReuseEngine:
    """Warm-start seed store + shared lattice cache for one objective.

    Parameters
    ----------
    solver:
        The solver callable the owning objective will invoke; inspected
        once for ``warm_start=`` / ``lattice_cache=`` support.
    max_seeds:
        Bound on retained queue-length seeds; the least recently *stored*
        seed is evicted first.
    """

    def __init__(self, solver: Callable, max_seeds: int = DEFAULT_MAX_SEEDS) -> None:
        keywords = solver_keywords(solver)
        self.supports_warm_start = "warm_start" in keywords
        self.supports_lattice = "lattice_cache" in keywords
        self.max_seeds = int(max_seeds)
        self._seeds: "OrderedDict[Point, np.ndarray]" = OrderedDict()
        self._key_matrix: Optional[np.ndarray] = None
        self._lattice_cache = None
        if self.supports_lattice:
            from repro.exact.lattice_cache import LatticeCache

            self._lattice_cache = LatticeCache()
        self.warm_solves = 0
        self.cold_solves = 0
        self.warm_iterations = 0
        self.cold_iterations = 0
        self.aitken_switched_off = 0

    # ------------------------------------------------------------------
    # seed store
    # ------------------------------------------------------------------
    def nearest_seed(self, key: Point) -> Optional[np.ndarray]:
        """Seed of the L1-nearest stored window vector (None when empty).

        Ties break towards the earliest-stored key: ``argmin`` returns
        the first minimal row and the key matrix preserves store order,
        matching a first-wins linear scan.
        """
        if not self._seeds:
            return None
        if self._key_matrix is None:
            self._key_matrix = np.array(list(self._seeds), dtype=np.int64)
        distances = np.abs(self._key_matrix - np.asarray(key, dtype=np.int64)).sum(axis=1)
        nearest = self._key_matrix[int(np.argmin(distances))]
        return self._seeds[tuple(int(x) for x in nearest)]

    def prime_seed(self, key: Point, queue_lengths: np.ndarray) -> None:
        """Store a converged queue-length matrix for ``key``."""
        if not self.supports_warm_start:
            return
        key = tuple(int(x) for x in key)
        if key not in self._seeds and len(self._seeds) >= self.max_seeds:
            self._seeds.popitem(last=False)
            self._key_matrix = None
        elif key not in self._seeds:
            self._key_matrix = None
        self._seeds[key] = np.asarray(queue_lengths, dtype=float)

    # ------------------------------------------------------------------
    # solver integration
    # ------------------------------------------------------------------
    def solver_kwargs(self, key: Point) -> Dict[str, object]:
        """Extra keyword arguments for the solve at window vector ``key``."""
        kwargs: Dict[str, object] = {}
        if self.supports_lattice and self._lattice_cache is not None:
            kwargs["lattice_cache"] = self._lattice_cache
        if self.supports_warm_start:
            seed = self.nearest_seed(key)
            if seed is not None:
                kwargs["warm_start"] = seed
        return kwargs

    def record(self, key: Point, solution, warmed: bool) -> None:
        """Book-keep a finished solve and bank its seed for neighbours.

        Only a converged solution's queue lengths become a seed: an
        iterate left at the budget would chain its error into every
        neighbour it seeds.
        """
        iterations = int(getattr(solution, "iterations", 0))
        if warmed:
            self.warm_solves += 1
            self.warm_iterations += iterations
        else:
            self.cold_solves += 1
            self.cold_iterations += iterations
        if getattr(solution, "extras", {}).get(SWITCHED_OFF):
            self.aitken_switched_off += 1
        if getattr(solution, "converged", True):
            self.prime_seed(key, solution.queue_lengths)

    def stats(self) -> Dict[str, float]:
        """Counters for result summaries and benches."""
        out: Dict[str, float] = {
            "warm_solves": self.warm_solves,
            "cold_solves": self.cold_solves,
            "warm_iterations": self.warm_iterations,
            "cold_iterations": self.cold_iterations,
            "aitken_switched_off": self.aitken_switched_off,
            "seeds": len(self._seeds),
        }
        if self._lattice_cache is not None:
            for name, value in self._lattice_cache.stats().items():
                out[f"lattice_{name}"] = value
        return out
