"""Harness shared by the cross-backend conformance suite.

Every test in this package parametrises over the evaluation-plane
registry (:func:`repro.evalplane.plane_names`): a backend registered
there is automatically pulled through the whole battery.  The harness
knows how to build, for any registered spec, an objective satisfying the
spec's requirements (a worker pool or none) plus the plane on top of it
— tests only say *which* backend and *which* network.
"""

from __future__ import annotations

import pytest

from repro.core.objective import WindowObjective
from repro.evalplane import create_plane, get_spec, plane_names
from repro.search.cache import EvaluationCache
from repro.search.space import IntegerBox

#: Worker count for pooled planes throughout the suite (CI-friendly).
POOL_WORKERS = 2

BUILTIN_PLANES = plane_names()


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
    """Build ``(objective, plane)`` satisfying a registered spec's needs.

    ``solver`` is a registry name or, on unpooled planes, any solver
    callable (e.g. a :class:`~repro.resilience.ladder.ResilientSolver`).
    """
    workers = POOL_WORKERS if get_spec(plane_name).needs_parallel else None
    objective = WindowObjective(network, solver, workers=workers, reuse=reuse)
    space = IntegerBox.windows(network.num_chains, max_window)
    plane = create_plane(
        plane_name,
        objective,
        cache=EvaluationCache(objective),
        space=space,
        budget=budget,
        max_evaluations=max_evaluations,
        on_evaluation=on_evaluation,
        seed_for=objective.seed_for if reuse else None,
    )
    return objective, plane


@pytest.fixture(params=BUILTIN_PLANES)
def plane_name(request) -> str:
    """Parametrise a test over every registered evaluation plane."""
    return request.param


@pytest.fixture
def moderate_net():
    """The thesis 2-class network at moderate symmetric load."""
    from repro.netmodel.examples import canadian_two_class

    return canadian_two_class(18.0, 18.0, windows=(4, 4))
