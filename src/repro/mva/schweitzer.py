"""Schweitzer–Bard approximate MVA (comparison baseline).

The thesis heuristic estimates the arrival-instant queue lengths through an
auxiliary single-chain MVA.  The earlier and simpler Schweitzer–Bard
approximation instead assumes queue lengths scale proportionally when one
customer is removed from chain ``r``:

    N_ij(D - u_r) ~= N_ij(D)                        for j != r
    N_ir(D - u_r) ~= N_ir(D) * (D_r - 1) / D_r      for j == r

yielding the fixed point

    t_ir = G_ir * (1 + sum_{j != r} N_ij + N_ir (D_r - 1)/D_r)
    lambda_r = D_r / sum_i t_ir,   N_ir = lambda_r t_ir.

It is included as an ablation: the benchmark ``bench_mva_vs_exact`` compares
both heuristics against the exact solvers in accuracy and cost.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mva.accel import AitkenAccelerator
from repro.mva.convergence import IterationControl
from repro.mva.soa import fixed_point, pack_networks
from repro.mva.warmstart import validate_warm_start
from repro.queueing.network import ClosedNetwork
from repro.solution import NetworkSolution

__all__ = ["solve_schweitzer"]


def solve_schweitzer(
    network: ClosedNetwork,
    control: Optional[IterationControl] = None,
    warm_start: Optional[np.ndarray] = None,
) -> NetworkSolution:
    """Solve a closed multichain network with Schweitzer–Bard AMVA.

    Parameters and return value mirror
    :func:`repro.mva.heuristic.solve_mva_heuristic`; the returned solution
    has ``method="schweitzer"``.  The fixed point is :func:`repro.mva.soa.
    fixed_point` on a pack of one.  ``warm_start`` replaces the balanced
    start with a caller-supplied ``(R, L)`` queue-length seed (see
    :mod:`repro.mva.warmstart`).
    """
    if control is None:
        control = IterationControl()
    accelerator = None
    start = None
    if warm_start is not None:
        start = network.route_layout.gather(validate_warm_start(network, warm_start))
        # Warm seeds get guarded Aitken extrapolation; cold solves stay
        # the plain iteration (see repro.mva.accel for the method, the
        # gating and the guard).
        accelerator = AitkenAccelerator() if control.damping >= 1.0 else None
    (solution,) = fixed_point(
        pack_networks([network]), "schweitzer", control, start, accelerator
    )
    if not solution.converged:
        # Warned from here, so the warning points at the caller.
        control.on_exhausted(
            "schweitzer", solution.iterations, solution.extras["residual"]
        )
    return solution
