"""Mean Value Analysis solvers (thesis §4.2).

* :func:`~repro.mva.single_chain.solve_single_chain` — exact single-chain
  MVA recursion (also the auxiliary subproblem of the heuristic).
* :func:`~repro.mva.heuristic.solve_mva_heuristic` — the thesis multichain
  heuristic (the function-evaluation engine of WINDIM).
* :func:`~repro.mva.schweitzer.solve_schweitzer` — Schweitzer–Bard AMVA,
  included as a comparison baseline.
* :class:`~repro.mva.convergence.IterationControl` — iteration policy.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "IterationControl": "repro.mva.convergence",
    "solve_mva_heuristic": "repro.mva.heuristic",
    "initial_queue_lengths": "repro.mva.heuristic",
    "solve_linearizer": "repro.mva.linearizer",
    "solve_schweitzer": "repro.mva.schweitzer",
    "solve_single_chain": "repro.mva.single_chain",
    "SingleChainTrace": "repro.mva.single_chain",
    "ThroughputBounds": "repro.mva.bounds",
    "asymptotic_bounds": "repro.mva.bounds",
    "balanced_job_bounds": "repro.mva.bounds",
    "saturation_population": "repro.mva.bounds",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
