"""The increments recursion's scalar tail against numpy, bit for bit.

Once a segment of :func:`repro.mva.heuristic.batched_increments` narrows
to :data:`~repro.mva.heuristic.TAIL_SLOTS` slots, each remaining column
recurses to its own window in Python floats.  Every step must perform
the vectorized step's IEEE operations in the same order, so switching
the tail off (``TAIL_SLOTS = 0``) or sending every call through it must
change no bit: not a kernel output, not a solve, not a campaign.

The walls here: random kernel inputs, the golden thesis campaigns and
the fast fuzz slice (optimum, power, evaluations, lookups, trajectory),
and the 13- and 17-slot lone chains of ``test_summation_order.py``
(trajectories cut after 1 and 5 sweeps, and converged).  A half-ulp
column pins the left-to-right sum; a count gate pins that the tail
takes the long one-column recursions off numpy.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro.mva.heuristic as heuristic
from repro.core.windim import windim
from repro.errors import ConvergenceWarning
from repro.mva.heuristic import batched_increments, plan_increments, solve_mva_heuristic
from repro.mva.layout import route_sum
from repro.mva.soa import solve_networks_batched, solve_windows_batched
from repro.netmodel.examples import canadian_four_class
from repro.verify.golden import golden_cases

from tests.evalplane.test_conformance import FUZZ_FAST, FUZZ_NAMES, _fuzz_network
from tests.mva.test_summation_order import BUDGETS, HALF_ULPS, _control, _ring

#: Thresholds that switch the tail off and send every call through it.
OFF, ALL = 0, 10**9


def _with_tail(monkeypatch, slots, run):
    """``run()`` with the tail threshold at ``slots``."""
    with monkeypatch.context() as patch, warnings.catch_warnings():
        patch.setattr(heuristic, "TAIL_SLOTS", slots)
        warnings.simplefilter("ignore", ConvergenceWarning)
        return run()


def _random_inputs(rng):
    """``(scaled, populations, queueing, plan)`` of a random kernel call."""
    depth = int(rng.integers(1, 18))
    width = int(rng.choice([1, 2, 3, 5, 8, 40]))
    lengths = rng.integers(1, depth + 1, width)
    valid = np.arange(depth)[:, None] < lengths
    demands = np.where(valid, rng.uniform(0.001, 2.0, (depth, width)), 0.0)
    demands[:, rng.uniform(size=width) < 0.1] = 0.0
    queueing = valid & (rng.uniform(size=(depth, width)) < 0.85)
    populations = rng.integers(0, rng.choice([3, 9, 70]), width)
    scaled = np.where(
        queueing, demands * (1.0 + rng.uniform(0.0, 4.0, demands.shape)), demands
    )
    plan = plan_increments(route_sum(demands) > 0, populations, queueing)
    return scaled, populations, queueing, plan


def test_kernel_outputs_do_not_depend_on_the_tail(monkeypatch):
    rng = np.random.default_rng(31)
    for _ in range(300):
        inputs = _random_inputs(rng)
        ref = _with_tail(monkeypatch, OFF, lambda: batched_increments(*inputs))
        for slots in (heuristic.TAIL_SLOTS, ALL):
            sigma = _with_tail(monkeypatch, slots, lambda: batched_increments(*inputs))
            assert sigma.flags.c_contiguous
            # Bytes, so signed zeros count too.
            assert sigma.tobytes() == ref.tobytes()


def test_half_ulps_are_added_one_at_a_time():
    # A pairwise, compensated (``math.fsum``, or ``sum()`` since Python
    # 3.12) or reordered sum of the route makes the total 1 + 2**-49, so
    # one customer's queue would not be the route's own slot values.
    slots = HALF_ULPS.shape[0]
    assert slots <= heuristic.TAIL_SLOTS
    queueing = np.ones_like(HALF_ULPS, dtype=bool)
    sigma = batched_increments(HALF_ULPS, np.array([1]), queueing)
    assert sigma.tobytes() == HALF_ULPS.tobytes()


def test_half_ulp_recursion_matches_numpy(monkeypatch):
    column = np.tile(HALF_ULPS, 3)
    queueing = np.ones_like(column, dtype=bool)
    queueing[5, 1] = False
    populations = np.array([4, 9, 2])
    ref = _with_tail(
        monkeypatch, OFF, lambda: batched_increments(column, populations, queueing)
    )
    sigma = _with_tail(
        monkeypatch, ALL, lambda: batched_increments(column, populations, queueing)
    )
    assert sigma.tobytes() == ref.tobytes()


def _campaign(network, max_window):
    result = windim(network, max_window=max_window)
    search = result.search
    return (
        result.windows,
        float(result.power).hex(),
        search.evaluations,
        search.lookups,
        search.base_points,
        result.solved_ahead,
    )


_GOLDEN_NETWORKS = {case.name: case for case in golden_cases()}


@pytest.mark.parametrize("name", sorted(_GOLDEN_NETWORKS))
def test_golden_campaigns_do_not_depend_on_the_tail(name, monkeypatch):
    network = _GOLDEN_NETWORKS[name].build().network
    max_window = 6 if network.num_chains > 2 else 12
    ref = _with_tail(monkeypatch, OFF, lambda: _campaign(network, max_window))
    assert _campaign(network, max_window) == ref


@pytest.mark.parametrize("name", FUZZ_NAMES[:FUZZ_FAST])
def test_fuzz_campaigns_do_not_depend_on_the_tail(name, monkeypatch):
    network = _fuzz_network(name)
    ref = _with_tail(monkeypatch, OFF, lambda: _campaign(network, 6))
    assert _campaign(network, 6) == ref


def _solutions(solve):
    return [
        (
            s.throughputs.tobytes(),
            s.queue_lengths.tobytes(),
            s.waiting_times.tobytes(),
            s.iterations,
            s.converged,
        )
        for s in solve()
    ]


@pytest.mark.parametrize("budget", BUDGETS)
def test_lone_chains_do_not_depend_on_the_tail(budget, monkeypatch):
    control = _control(budget)
    lone13 = _ring("s", 13, [6], seed=7, delay_station=4)
    lone17 = _ring("b", 17, [4, 1, 2], seed=13, delay_station=0)
    runs = {
        "serial": lambda: [
            solve_mva_heuristic(n.with_populations(w), control=control)
            for n, w in ((lone13, [6]), (lone13, [11]), (lone17, [4, 1, 2]))
        ],
        "windows": lambda: solve_windows_batched(
            lone13, [[6], [3], [9]], control=control
        ),
        "networks": lambda: solve_networks_batched([lone13, lone17], control=control),
    }
    for name, run in runs.items():
        ref = _with_tail(monkeypatch, OFF, lambda: _solutions(run))
        for slots in (heuristic.TAIL_SLOTS, ALL):
            assert _with_tail(monkeypatch, slots, lambda: _solutions(run)) == ref, name


def test_a_long_lone_recursion_leaves_numpy(monkeypatch):
    # Table 4.12 row 8's optimum (1, 1, 1, 64): one column recurses 63
    # steps past the others.  Without the tail each sweep makes 64
    # vectorized steps; with it, at most one.
    network = canadian_four_class(28.18, 38.02, 2.87, 30.93, windows=(1, 1, 1, 64))
    calls = []
    steps = []
    kernel = heuristic.batched_increments
    step = heuristic.route_sum

    def counted_kernel(*args):
        calls.append(1)
        return kernel(*args)

    def counted_step(wait):
        steps.append(wait.shape[1])
        return step(wait)

    monkeypatch.setattr(heuristic, "batched_increments", counted_kernel)
    monkeypatch.setattr(heuristic, "route_sum", counted_step)

    solution = solve_mva_heuristic(network)
    assert solution.converged
    assert calls and len(steps) <= len(calls)
    # The same solve without the tail: 64 steps a sweep.
    steps.clear()
    calls.clear()
    monkeypatch.setattr(heuristic, "TAIL_SLOTS", OFF)
    solve_mva_heuristic(network)
    assert len(steps) == 64 * len(calls)
