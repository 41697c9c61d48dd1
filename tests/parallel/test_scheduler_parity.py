"""Scheduler parity wall: pool on/off must walk the identical search.

The speculative scheduler's contract is that speculation only ever
*pre-fills* the evaluation cache — the demanded sequence, the accepted
moves and the returned optimum are exactly the serial search's.  Golden
fixtures pin the thesis networks; seeded fuzz networks extend the claim
beyond hand-picked cases.  With ``reuse=True`` warm-started values may
drift within the documented 1e-8 relative parity band, so those runs
assert same-optimum rather than bitwise-equal values.
"""

import pytest

from repro.core.multistart import windim_multistart
from repro.core.windim import windim
from repro.errors import ModelError
from repro.netmodel.examples import arpanet_fragment, canadian_two_class
from repro.verify.fuzz import generate_cases

GOLDEN = [
    pytest.param(lambda: canadian_two_class(18.0, 18.0), 12, id="canadian2@18"),
    pytest.param(lambda: canadian_two_class(25.0, 25.0), 12, id="canadian2@25"),
    pytest.param(
        lambda: arpanet_fragment((8.0, 8.0, 6.0, 6.0)), 6, id="arpanet-frag"
    ),
]


def _assert_identical_trajectory(serial, pooled):
    assert list(pooled.windows) == list(serial.windows)
    assert pooled.power == serial.power
    assert pooled.search.base_points == serial.search.base_points
    health = pooled.pool_health
    assert health is not None
    assert health.respawns == 0
    assert len(set(health.worker_pids)) == health.workers


@pytest.mark.parametrize("factory, max_window", GOLDEN)
def test_golden_trajectory_identity(factory, max_window):
    serial = windim(factory(), max_window=max_window, backend="vectorized")
    pooled = windim(
        factory(), max_window=max_window, backend="vectorized", workers=2
    )
    _assert_identical_trajectory(serial, pooled)


@pytest.mark.parametrize("factory, max_window", GOLDEN[:2])
def test_golden_reuse_same_optimum_within_band(factory, max_window):
    serial = windim(
        factory(), max_window=max_window, backend="vectorized", reuse=True
    )
    pooled = windim(
        factory(),
        max_window=max_window,
        backend="vectorized",
        reuse=True,
        workers=2,
    )
    assert list(pooled.windows) == list(serial.windows)
    assert pooled.power == pytest.approx(serial.power, rel=1e-8)


def test_fuzz_trajectory_identity():
    for case in generate_cases(seed=2026, count=3):
        serial = windim(case.network, max_window=4, backend="vectorized")
        pooled = windim(
            case.network, max_window=4, backend="vectorized", workers=2
        )
        assert list(pooled.windows) == list(serial.windows), case.label
        assert pooled.power == serial.power, case.label
        assert (
            pooled.search.base_points == serial.search.base_points
        ), case.label


def test_multistart_parity_under_persistent_pool():
    net = canadian_two_class(25.0, 25.0)
    serial = windim_multistart(net, max_window=8)
    pooled = windim_multistart(net, max_window=8, workers=2)
    assert list(pooled.windows) == list(serial.windows)
    assert pooled.power == serial.power
    assert pooled.pool_health is not None
    # One fleet serves every start.
    assert pooled.pool_health.respawns == 0


def test_per_batch_pool_mode_is_rejected():
    net = canadian_two_class(18.0, 18.0)
    with pytest.raises(ModelError, match="per-batch mode was removed"):
        windim(net, max_window=8, workers=2, pool_mode="per-batch")
