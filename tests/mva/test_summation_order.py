"""The summation-order trap: a one-chain solve must equal its packs.

A serial solve of a one-chain network holds its state in a ``(K, 1)``
slot array; the same chain inside a pack sits in a ``(K, N)`` array with
``N >= 2``.  numpy's ``ndarray.sum(axis=0)`` adds a ``(K, 1)`` column
pairwise once ``K >= 9`` but a ``(K, N >= 2)`` array row by row, so if
the route sums relied on it the serial solve and its packs would round
differently.  Route sums therefore run slot by slot
(:func:`repro.mva.layout.route_sum`); these tests pin that with routes
of 13 and 17 stations.

The fixed point is a contraction, so a last-bit difference in an early
sweep can wash out by convergence; the solver checks therefore also
compare trajectories cut after 1 and 5 sweeps.
"""

import warnings

import numpy as np
import pytest

from repro.errors import ConvergenceWarning
from repro.mva.convergence import IterationControl
from repro.mva.heuristic import (
    batched_increments,
    plan_increments,
    solve_mva_heuristic,
)
from repro.mva.layout import route_sum
from repro.mva.schweitzer import solve_schweitzer
from repro.mva.single_chain import solve_single_chain
from repro.mva.soa import pack_networks, solve_networks_batched, solve_windows_batched
from repro.netmodel.examples import canadian_four_class
from repro.queueing.chain import ClosedChain
from repro.queueing.network import ClosedNetwork
from repro.queueing.station import Station

SERIAL = {"mva-heuristic": solve_mva_heuristic, "schweitzer": solve_schweitzer}


def _ring(prefix, num_stations, populations, seed, delay_station=None):
    """Chains sharing one ring of stations with irregular service times.

    Chain ``c`` visits every station, starting at station ``c``; station
    ``delay_station`` (if any) is an infinite server.
    """
    rng = np.random.default_rng(seed)
    names = [f"{prefix}{i}" for i in range(num_stations)]
    service = rng.uniform(0.013, 0.31, size=num_stations)
    stations = [
        Station.delay(name) if i == delay_station else Station(name)
        for i, name in enumerate(names)
    ]
    chains = []
    for c, population in enumerate(populations):
        order = [(c + k) % num_stations for k in range(num_stations)]
        chains.append(
            ClosedChain(
                name=f"{prefix}-chain{c}",
                visits=tuple(names[i] for i in order),
                service_times=tuple(float(service[i]) for i in order),
                population=population,
            )
        )
    return ClosedNetwork.build(stations, chains)


#: Sweep budgets: cut trajectories, then the converged solve.
BUDGETS = (1, 5, None)


def _control(budget):
    if budget is None:
        return IterationControl()
    return IterationControl(max_iterations=budget)


def _quietly(solve, *args, **kwargs):
    """Run a solve whose cut trajectory warns that it did not converge."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        return solve(*args, **kwargs)


def _assert_same(sol, ref):
    assert np.array_equal(sol.throughputs, ref.throughputs)
    assert np.array_equal(sol.queue_lengths, ref.queue_lengths)
    assert np.array_equal(sol.waiting_times, ref.waiting_times)
    assert sol.iterations == ref.iterations
    assert sol.converged == ref.converged


@pytest.fixture(scope="module")
def lone_chain():
    network = _ring("s", 13, [6], seed=7, delay_station=4)
    assert network.route_layout.depth >= 9
    return network


#: One large value then sixteen half-ulps: added one at a time each
#: half-ulp rounds away, grouped (as a pairwise or compensated sum would)
#: they count.
HALF_ULPS = np.array([[1.0]] + [[2.0**-53]] * 16)


def test_route_sum_is_sequential_whatever_the_width():
    assert HALF_ULPS.sum(axis=0)[0] != 1.0  # the trap this layout avoids
    assert route_sum(HALF_ULPS)[0] == 1.0
    rng = np.random.default_rng(3)
    for width in (2, 65, 1275):
        wide = np.tile(HALF_ULPS, width)
        views = {
            "contiguous": wide,
            "strided": np.tile(HALF_ULPS, 2 * width)[:, ::2],
            "taken": wide.take(rng.permutation(width), axis=1),
            "Fortran-ordered": np.asfortranarray(wide),
            "one column of many": wide[:, 1:2],
        }
        for name, view in views.items():
            assert np.array_equal(route_sum(view), np.ones(view.shape[1])), name


def test_increments_of_a_column_do_not_depend_on_its_neighbours(lone_chain):
    layout = lone_chain.route_layout
    rng = np.random.default_rng(5)
    noise = rng.uniform(0.0, 4.0, size=(layout.depth, 3))
    scaled = layout.demands * (1.0 + noise)
    queueing = np.repeat(layout.queueing, 3, axis=1)
    populations = np.array([6, 4, 9])
    together = batched_increments(scaled, populations, queueing)
    for c in range(3):
        alone = batched_increments(
            scaled[:, c : c + 1], populations[c : c + 1], queueing[:, c : c + 1]
        )
        assert np.array_equal(alone[:, 0], together[:, c])


def _kernel_input(windows, seed, dead=()):
    """``(scaled, populations, queueing)`` of a four-class window pack.

    Queueing slots are inflated by seeded noise, as a sweep's
    ``1 + others`` inflates them; the columns in ``dead`` get zero
    demand, whatever their window.
    """
    network = canadian_four_class(20.0, 20.0, 20.0, 40.0)
    pack = pack_networks((network,) * len(windows), populations=windows)
    rng = np.random.default_rng(seed)
    noise = rng.uniform(0.0, 4.0, size=pack.demands.shape)
    scaled = np.where(pack.queueing, pack.demands * (1.0 + noise), pack.demands)
    scaled[:, list(dead)] = 0.0
    return scaled, pack.populations, pack.queueing


def _shuffled(scaled, populations, queueing, seed):
    order = np.random.default_rng(seed).permutation(populations.size)
    return scaled[:, order], populations[order], queueing[:, order]


_GRID = np.indices((6,) * 4).reshape(4, -1).T + 1

#: Kernel inputs that take the edge paths of the trimmed recursion.
KERNEL_CASES = {
    "shuffled columns": lambda: _shuffled(*_kernel_input(_GRID[::37], 1), seed=2),
    "zero populations": lambda: _kernel_input(
        [[0, 3, 0, 1], [2, 0, 5, 0], [0, 0, 0, 4]], 3
    ),
    "zero demand, positive window": lambda: _kernel_input(
        [[3, 1, 4, 2], [5, 2, 6, 1]], 4, dead=(0, 5, 6)
    ),
    "non-increasing populations": lambda: _kernel_input(
        [[6, 5, 5, 3], [3, 2, 0, 0]], 5
    ),
    "thesis window (1,1,2,23)": lambda: _kernel_input([[1, 1, 2, 23]], 6),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_increments_edge_cases_equal_columns_alone(case):
    scaled, populations, queueing = KERNEL_CASES[case]()
    together = batched_increments(scaled, populations, queueing)
    for c in range(populations.size):
        alone = batched_increments(
            scaled[:, c : c + 1], populations[c : c + 1], queueing[:, c : c + 1]
        )
        assert np.array_equal(alone[:, 0], together[:, c])
        # The dense single-chain recursion sums a route pairwise, so it
        # agrees to rounding.
        reference = solve_single_chain(
            scaled[:, c], int(populations[c]), delay_station=~queueing[:, c]
        ).increment()
        np.testing.assert_allclose(together[:, c], reference, rtol=1e-12, atol=1e-15)


def test_increments_identity_order_skips_the_permutation():
    scaled, populations, queueing = KERNEL_CASES["non-increasing populations"]()
    order, inverse, _segments, depth = plan_increments(
        route_sum(scaled) > 0, populations, queueing
    )
    assert order is None and inverse is None and depth == 6


def test_increments_of_all_zero_populations_are_zero():
    scaled, populations, queueing = _kernel_input([[0, 0, 0, 0], [0, 0, 0, 0]], 7)
    sigma = batched_increments(scaled, populations, queueing)
    assert sigma.shape == scaled.shape
    assert not sigma.any()


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("solver", sorted(SERIAL))
def test_one_chain_solve_equals_same_topology_pack(lone_chain, solver, budget):
    control = _control(budget)
    windows = [[6], [3], [6], [9]]
    packed = _quietly(solve_windows_batched, lone_chain, windows, solver, control)
    for w, sol in zip(windows, packed):
        ref = _quietly(
            SERIAL[solver],
            lone_chain.with_populations(w),
            control=control,
        )
        _assert_same(sol, ref)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("solver", sorted(SERIAL))
def test_one_chain_solve_equals_heterogeneous_pack(lone_chain, solver, budget):
    # Neighbours with a shallower and a deeper route than the lone chain:
    # the pack's K exceeds the lone chain's, so its column gets trailing
    # zero slots it does not have when solved alone.
    control = _control(budget)
    networks = [
        _ring("a", 5, [2, 3], seed=11),
        lone_chain,
        _ring("b", 17, [4, 1, 2], seed=13, delay_station=0),
    ]
    packed = _quietly(solve_networks_batched, networks, solver, control)
    for network, sol in zip(networks, packed):
        ref = _quietly(
            SERIAL[solver], network, control=control
        )
        _assert_same(sol, ref)
