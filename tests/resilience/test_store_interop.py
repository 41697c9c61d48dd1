"""Resume and reuse through the persistent evaluation store.

Preloading a store must only ever *save* fresh evaluations, a run
without the store must not notice it exists, and warm-start seeds are
stored exactly when a run can read them back (``reuse=True``).
"""

import pytest

from repro.core.windim import windim
from repro.netmodel.examples import arpanet_fragment
from repro.search.store import EvaluationStore, model_fingerprint

MAX_WINDOW = 12


@pytest.fixture
def network():
    return arpanet_fragment()


def test_store_enabled_resume_needs_strictly_fewer_fresh_evals(tmp_path, network):
    store = str(tmp_path / "run.store")
    cold = windim(network, max_window=MAX_WINDOW)
    assert cold.search.evaluations > 10

    # First run is cut off mid-search; its partial work lands in the store.
    partial = windim(
        network, max_window=MAX_WINDOW, max_evaluations=10,
        store_path=store, reuse=True,
    )
    assert partial.status == "budget_exhausted"

    # The store-enabled continuation pays only for the remaining work.
    second = windim(
        network, max_window=MAX_WINDOW, store_path=store, reuse=True,
    )
    assert second.windows == cold.windows
    assert second.store_seeded >= 10
    assert second.search.evaluations < cold.search.evaluations

    # A third run replays entirely from the store.
    third = windim(
        network, max_window=MAX_WINDOW, store_path=store, reuse=True,
    )
    assert third.windows == cold.windows
    assert third.search.evaluations == 0


def test_store_disabled_run_unaffected_by_existing_store(tmp_path, network):
    store = str(tmp_path / "run.store")
    with_store = windim(
        network, max_window=MAX_WINDOW, store_path=store, reuse=True
    )
    plain = windim(network, max_window=MAX_WINDOW)
    assert plain.windows == with_store.windows
    assert plain.store_seeded == 0
    assert plain.search.evaluations > 0


def test_store_seeds_warm_start_the_resumed_run(tmp_path, network):
    store = str(tmp_path / "run.store")
    windim(
        network, max_window=MAX_WINDOW, max_evaluations=10,
        store_path=store, reuse=True,
    )
    second = windim(
        network, max_window=MAX_WINDOW, store_path=store, reuse=True,
    )
    stats = second.reuse_stats
    # Every fresh solve of the continuation had a stored neighbour to
    # warm-start from.
    assert stats is not None
    assert stats["cold_solves"] == 0


@pytest.mark.parametrize("reuse", [False, True])
def test_store_holds_seeds_only_under_reuse(tmp_path, network, reuse):
    store = str(tmp_path / "run.store")
    windim(network, max_window=MAX_WINDOW, store_path=store, reuse=reuse)
    with EvaluationStore.open(
        store, model_fingerprint(network, "mva-heuristic")
    ) as reloaded:
        assert len(reloaded) > 0
        if reuse:
            assert len(reloaded.seeds) == len(reloaded)
        else:
            assert reloaded.seeds == {}
