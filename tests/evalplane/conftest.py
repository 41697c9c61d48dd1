"""Harness shared by the cross-plane conformance suite.

Every test in this package parametrises over both evaluation planes,
:data:`PLANES`, each built by :func:`repro.evalplane.build_plane`, the
one way the library picks a plane: ``"persistent"`` is a parallel
objective (a worker pool), ``"serial"`` an in-process one.  Tests only
say *which* plane and *which* network.
"""

from __future__ import annotations

import pytest

from repro.core.objective import WindowObjective
from repro.evalplane import build_plane
from repro.search.cache import EvaluationCache
from repro.search.space import IntegerBox

#: Worker count for pooled planes throughout the suite (CI-friendly).
POOL_WORKERS = 2

#: Both planes, named by their ``EvaluationPlane.name``.
PLANES = ("serial", "persistent")


def build_harness(
    plane_name: str,
    network,
    max_window: int = 12,
    reuse: bool = False,
    budget=None,
    max_evaluations: int = 10**9,
    on_evaluation=None,
    solver="mva-heuristic",
):
    """Build ``(objective, plane)`` for one of :data:`PLANES`.

    ``solver`` is a named solver or, on the serial plane, any solver
    callable (e.g. a :class:`~repro.resilience.ladder.ResilientSolver`).
    """
    workers = POOL_WORKERS if plane_name == "persistent" else None
    objective = WindowObjective(network, solver, workers=workers, reuse=reuse)
    space = IntegerBox.windows(network.num_chains, max_window)
    plane = build_plane(
        objective,
        cache=EvaluationCache(objective),
        space=space,
        budget=budget,
        max_evaluations=max_evaluations,
        on_evaluation=on_evaluation,
        seed_for=objective.seed_for if reuse else None,
    )
    assert plane.name == plane_name
    return objective, plane


@pytest.fixture(params=PLANES)
def plane_name(request) -> str:
    """Parametrise a test over both evaluation planes."""
    return request.param


@pytest.fixture
def moderate_net():
    """The thesis 2-class network at moderate symmetric load."""
    from repro.netmodel.examples import canadian_two_class

    return canadian_two_class(18.0, 18.0, windows=(4, 4))
