"""Cross packs against the never-packing reference.

Before each exploratory move the pattern search's driver may solve the
move's ``±step`` cross as one SoA pack and bank the values
(:mod:`repro.search.pattern`).  This wall searches every golden thesis
fixture and the fast fuzz slice twice: through the banking serial
plane, and through the same :class:`~repro.core.objective.
WindowObjective` wrapped as a plain callable, which never packs.  The
two must agree bit for bit in everything a caller can observe: the
accepted-move trajectory, evaluations, lookups, the cache history in
order, the ``on_evaluation`` calls and the store file they write.

Under caps and deadlines a banked value is worth nothing until it is
demanded: none may be counted, stored or returned as best-so-far.
"""

from __future__ import annotations

import itertools
import warnings
from types import SimpleNamespace

import pytest

from repro.core.initializers import initial_windows
from repro.core.objective import WindowObjective
from repro.errors import ConvergenceWarning, SolverError
from repro.evalplane.serial import SerialPlane
from repro.resilience.budget import SearchBudget
from repro.search.pattern import CROSS_COLUMNS, pattern_search
from repro.search.space import IntegerBox
from repro.search.store import EvaluationStore

from tests.evalplane.test_conformance import (
    FUZZ_FAST,
    FUZZ_NAMES,
    _GOLDENS,
    _fuzz_network,
)


def _banks(network) -> bool:
    """Whether the search packs crosses of ``network`` here."""
    chains = network.num_chains
    return (2 * chains + 1) * chains <= CROSS_COLUMNS


class _Run:
    """One pattern search through a serial plane, with a store attached."""

    def __init__(self, network, max_window, path, plain, **wiring):
        objective = WindowObjective(network)
        # A plain callable has no batch_solve: its plane never packs.
        target = (lambda windows: objective(windows)) if plain else objective
        self.hooks = 0
        self.path = path
        store = EvaluationStore.open(str(path), "cross-pack conformance")
        recorded = 0

        def note(cache):
            nonlocal recorded
            self.hooks += 1
            while recorded < len(cache.history):
                point, value = cache.history[recorded]
                recorded += 1
                store.record(point, value)

        self.plane = SerialPlane(
            target,
            space=IntegerBox.windows(network.num_chains, max_window),
            on_evaluation=note,
            **wiring,
        )
        try:
            with self.plane:
                self.result = pattern_search(
                    target,
                    initial_windows(network, "hops"),
                    self.plane.space,
                    plane=self.plane,
                )
        finally:
            store.close()

    def stored(self):
        """Every record line of the store file, in order."""
        with open(self.path) as handle:
            return handle.read().splitlines()[1:]


def _pair(network, max_window, tmp_path, **wiring):
    banked = _Run(network, max_window, tmp_path / "banked.store", False, **wiring)
    plain = _Run(network, max_window, tmp_path / "plain.store", True, **wiring)
    return banked, plain


def _assert_same(banked: _Run, plain: _Run) -> None:
    a, b = banked.result, plain.result
    assert a.base_points == b.base_points
    assert a.best_point == b.best_point
    assert a.best_value == b.best_value
    assert a.status == b.status
    assert a.stop_reason == b.stop_reason
    assert a.evaluations == b.evaluations
    assert a.lookups == b.lookups
    assert banked.plane.cache.history == plain.plane.cache.history
    assert banked.plane.cache.values == plain.plane.cache.values
    assert banked.hooks == plain.hooks == a.evaluations
    assert banked.stored() == plain.stored()
    assert plain.result.solved_ahead == 0
    # Every banked value the search used was one of its evaluations.
    assert banked.result.ahead_used <= a.evaluations
    assert banked.result.ahead_used <= banked.result.solved_ahead


class TestAgainstThePlainCallable:
    @pytest.mark.parametrize("golden", list(_GOLDENS))
    def test_golden_search_is_bitwise_the_plain_one(self, golden, tmp_path):
        network = _GOLDENS[golden].build().network
        max_window = 6 if network.num_chains > 2 else 12
        banked, plain = _pair(network, max_window, tmp_path)
        _assert_same(banked, plain)
        if _banks(network):
            assert banked.result.ahead_used > 0

    @pytest.mark.parametrize("fuzz_name", FUZZ_NAMES[:FUZZ_FAST])
    def test_fuzz_search_is_bitwise_the_plain_one(self, fuzz_name, tmp_path):
        network = _fuzz_network(fuzz_name)
        banked, plain = _pair(network, 4, tmp_path)
        _assert_same(banked, plain)
        if not _banks(network):
            assert banked.result.solved_ahead == 0


class TestBankedValuesCountOnlyWhenDemanded:
    def test_zero_cap_solves_nothing_ahead(self, moderate_net, tmp_path):
        banked, plain = _pair(moderate_net, 12, tmp_path, max_evaluations=0)
        _assert_same(banked, plain)
        assert banked.result.status == "budget_exhausted"
        assert banked.result.best_value == float("inf")
        assert banked.result.solved_ahead == 0
        assert banked.stored() == []

    @pytest.mark.parametrize("cap", [1, 2, 5])
    def test_small_cap_spends_it_on_the_serial_points(
        self, moderate_net, tmp_path, cap
    ):
        banked, plain = _pair(moderate_net, 12, tmp_path, max_evaluations=cap)
        _assert_same(banked, plain)
        assert banked.result.status == "budget_exhausted"
        assert banked.result.evaluations == cap
        assert len(banked.stored()) == cap
        if cap == 1:
            # No room for a second point: nothing is worth solving ahead.
            assert banked.result.solved_ahead == 0

    def test_search_budget_cap_bounds_the_pack(self, moderate_net, tmp_path):
        budget = SearchBudget(max_evaluations=3)
        banked = _Run(
            moderate_net, 12, tmp_path / "banked.store", False, budget=budget
        )
        plain = _Run(
            moderate_net, 12, tmp_path / "plain.store", True,
            budget=SearchBudget(max_evaluations=3),
        )
        _assert_same(banked, plain)
        assert banked.result.evaluations == 3

    def test_expired_deadline_counts_no_banked_value(
        self, moderate_net, tmp_path
    ):
        def budget():
            ticks = itertools.count()
            return SearchBudget(max_seconds=0.5, clock=lambda: float(next(ticks)))

        banked = _Run(
            moderate_net, 12, tmp_path / "banked.store", False, budget=budget()
        )
        plain = _Run(
            moderate_net, 12, tmp_path / "plain.store", True, budget=budget()
        )
        _assert_same(banked, plain)
        assert "deadline passed" in banked.result.stop_reason
        assert banked.result.evaluations == 0
        assert banked.result.best_value == float("inf")
        assert banked.plane.best() == (None, float("inf"))
        assert banked.stored() == []
        if _banks(moderate_net):
            # The start's cross was solved, and none of it counted.
            assert banked.result.solved_ahead > 0
        assert banked.result.ahead_used == 0

    def test_deadline_mid_search_keeps_the_serial_best(
        self, moderate_net, tmp_path
    ):
        # The clock ticks once per budget check, so the deadline passes
        # on the seventh fresh evaluation of either run: the bank reads
        # no clock.
        def budget():
            ticks = itertools.count()
            return SearchBudget(max_seconds=6.5, clock=lambda: float(next(ticks)))

        banked = _Run(
            moderate_net, 12, tmp_path / "banked.store", False, budget=budget()
        )
        plain = _Run(
            moderate_net, 12, tmp_path / "plain.store", True, budget=budget()
        )
        _assert_same(banked, plain)
        assert banked.result.status == "budget_exhausted"
        assert banked.result.evaluations == 6
        best_point, best_value = banked.plane.best()
        assert (banked.result.best_point, banked.result.best_value) == (
            best_point,
            best_value,
        )
        if _banks(moderate_net):
            assert banked.result.solved_ahead > banked.result.ahead_used


class _PackableFake:
    """A packable objective whose pack leaves ``bad`` unconverged.

    Serial solves go through ``__call__``; the pack through
    ``batch_solve``.  Either warns for ``bad``, as the solvers do for a
    point that ran out of iterations.
    """

    parallel = False
    soa_batchable = True

    def __init__(self, bad, fail_packs=False):
        from repro.netmodel.examples import canadian_two_class

        self.network = canadian_two_class(18.0, 18.0)
        self.bad = bad
        self.fail_packs = fail_packs
        self.serial = []

    def _value(self, windows):
        if tuple(windows) == self.bad:
            warnings.warn("did not converge", ConvergenceWarning)
        return float(sum(windows))

    def __call__(self, windows):
        self.serial.append(tuple(windows))
        return self._value(windows)

    def batch_solve(self, batch):
        if self.fail_packs:
            raise SolverError("pack failed")
        return [self._value(windows) for windows in batch]

    def retained(self, key):
        return SimpleNamespace(converged=key != self.bad)


class TestBankEdges:
    """The driver's bank, on a search from (2, 2) with step 1.

    The start's cross is (2, 2), (3, 2), (1, 2), (2, 3), (2, 1): one
    pack of five before the first demand.
    """

    @staticmethod
    def _search(objective):
        return pattern_search(
            objective, (2, 2), IntegerBox.windows(2, 8),
            initial_step=1, max_halvings=0,
        )

    def test_unconverged_member_is_solved_again_on_demand(self):
        fake = _PackableFake(bad=(3, 2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = self._search(fake)
        plain = self._search(lambda windows: float(sum(windows)))
        assert result.base_points == plain.base_points
        assert (result.evaluations, result.lookups) == (
            plain.evaluations,
            plain.lookups,
        )
        assert result.solved_ahead == 5
        # (2, 2) and (1, 2) were banked and used; (3, 2) was not banked,
        # so its demand solved it serially and warned then, once: the
        # pack's own warning was held back.
        assert fake.serial[0] == (3, 2)
        assert (2, 2) not in fake.serial and (1, 2) not in fake.serial
        assert [w.category for w in caught] == [ConvergenceWarning]
        assert result.ahead_used == 3
        assert result.evaluations == result.ahead_used + len(fake.serial)

    def test_pack_that_raises_banks_nothing(self):
        fake = _PackableFake(bad=None, fail_packs=True)
        result = self._search(fake)
        assert result.solved_ahead == result.ahead_used == 0
        assert fake.serial[:3] == [(2, 2), (3, 2), (1, 2)]
        assert len(fake.serial) == result.evaluations
