"""Shared-memory model arena: round-trip, in-place retarget, seed slots.

The arena is the "broadcast the model exactly once" half of the
persistent pool: these tests pin the owner/attacher round trip, the
generation-bump retarget that lets one worker fleet serve a whole
campaign sweep, and the warm-seed slots pool tasks read.
"""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.netmodel.examples import arpanet_fragment, canadian_two_class
from repro.parallel import ModelArena


@pytest.fixture
def arena():
    net = canadian_two_class(18.0, 18.0)
    arena = ModelArena.create(net, "mva-heuristic")
    yield arena
    arena.close(unlink=True)


def test_attach_round_trips_the_model(arena):
    original = canadian_two_class(18.0, 18.0)
    attached = ModelArena.attach(arena.ref)
    try:
        network, solver_name = attached.model()
        assert solver_name == "mva-heuristic"
        assert network.num_chains == original.num_chains
        assert network.num_stations == original.num_stations
        np.testing.assert_array_equal(network.demands, original.demands)
        np.testing.assert_array_equal(
            network.visit_counts, original.visit_counts
        )
    finally:
        attached.close()


def test_update_model_bumps_generation_in_place(arena):
    attached = ModelArena.attach(arena.ref)
    try:
        gen0 = arena.generation
        retargeted = canadian_two_class(25.0, 25.0)
        arena.update_model(retargeted, "mva-heuristic")
        assert arena.generation == gen0 + 1
        # The attacher sees the new scenario without re-attaching.
        assert attached.generation == gen0 + 1
        network, _ = attached.model()
        np.testing.assert_array_equal(network.demands, retargeted.demands)
    finally:
        attached.close()


def test_update_model_rejects_shape_change(arena):
    with pytest.raises(ModelError):
        arena.update_model(
            arpanet_fragment((8.0, 8.0, 6.0, 6.0)), "mva-heuristic"
        )


def test_seed_cells(arena):
    seed = np.arange(
        arena.ref.num_chains * arena.ref.num_stations, dtype=np.float64
    ).reshape(arena.ref.num_chains, arena.ref.num_stations)
    arena.write_seed(3, seed)
    attached = ModelArena.attach(arena.ref)
    try:
        got = attached.read_seed(3)
        np.testing.assert_array_equal(got, seed)
        # read_seed hands out a private copy, not a view.
        got[0, 0] = -1.0
        np.testing.assert_array_equal(attached.read_seed(3), seed)
    finally:
        attached.close()


def test_unlink_makes_segment_unattachable():
    net = canadian_two_class(18.0, 18.0)
    arena = ModelArena.create(net, "mva-heuristic")
    ref = arena.ref
    arena.close(unlink=True)
    with pytest.raises(FileNotFoundError):
        ModelArena.attach(ref)
