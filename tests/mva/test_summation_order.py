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

from repro.backend import BACKEND_ENV_VAR
from repro.errors import ConvergenceWarning
from repro.mva.convergence import IterationControl
from repro.mva.heuristic import batched_increments, solve_mva_heuristic
from repro.mva.layout import NARROW, route_sum
from repro.mva.schweitzer import solve_schweitzer
from repro.mva.soa import solve_networks_batched, solve_windows_batched
from repro.queueing.chain import ClosedChain
from repro.queueing.network import ClosedNetwork
from repro.queueing.station import Station

SERIAL = {"mva-heuristic": solve_mva_heuristic, "schweitzer": solve_schweitzer}


@pytest.fixture(autouse=True)
def vectorized_kernel(monkeypatch):
    """Packs exist only on the vectorized kernel: pin it, so this file
    checks the same pack/serial contract whatever the process default.
    """
    monkeypatch.setenv(BACKEND_ENV_VAR, "vectorized")


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


def test_route_sum_is_sequential_whatever_the_width():
    # One large value then sixteen half-ulps: added one at a time each
    # half-ulp rounds away, grouped (as a pairwise sum would) they count.
    column = np.array([[1.0]] + [[2.0**-53]] * 16)
    assert column.sum(axis=0)[0] != 1.0  # the trap this layout avoids
    assert route_sum(column)[0] == 1.0
    # Narrow and wide arrays take different branches of route_sum.
    for width in (2, NARROW + 1):
        assert np.array_equal(route_sum(np.tile(column, width)), np.ones(width))


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
            backend="vectorized",
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
            SERIAL[solver], network, control=control, backend="vectorized"
        )
        _assert_same(sol, ref)
