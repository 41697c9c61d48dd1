"""Fault-plan DSL: validation, matching, serialisation, seeding."""

import json

import pytest

from repro.chaos import ACTIONS, FaultPlan, FaultRule, SITES, seeded_occurrence
from repro.errors import ModelError, SearchError


class TestFaultRule:
    def test_unknown_site_rejected(self):
        with pytest.raises(SearchError, match="unknown fault site"):
            FaultRule("pool.worker.teleport", "crash")

    def test_action_site_mismatch_rejected(self):
        # corrupting a worker task is meaningless; fail at construction.
        with pytest.raises(SearchError, match="not valid"):
            FaultRule("pool.worker.task", "corrupt")
        with pytest.raises(SearchError, match="not valid"):
            FaultRule("clock", "crash")

    def test_occurrence_window(self):
        rule = FaultRule("store.record", "error", occurrence=3, count=2)
        assert not rule.matches(2)
        assert rule.matches(3)
        assert rule.matches(4)
        assert not rule.matches(5)

    def test_worker_filter(self):
        rule = FaultRule("pool.worker.task", "crash", worker=1)
        assert rule.matches(1, worker=1)
        assert not rule.matches(1, worker=0)
        assert not rule.matches(1, worker=None)

    def test_bounds_validated(self):
        with pytest.raises(SearchError, match=">= 1"):
            FaultRule("store.record", "error", occurrence=0)
        with pytest.raises(SearchError, match=">= 1"):
            FaultRule("store.record", "error", count=0)


class TestFaultPlan:
    def test_json_roundtrip_is_identity(self):
        plan = FaultPlan(
            name="rt",
            description="round trip",
            seed=7,
            rules=(
                FaultRule("pool.worker.task", "crash", occurrence=2, worker=1),
                FaultRule("store.record", "delay", seconds=0.25, count=3),
                FaultRule("clock", "skew", occurrence=5, seconds=100.0),
            ),
            pool="persistent",
            workers=3,
            store=True,
            runs=2,
            env=(("REPRO_TASK_DEADLINE", "0.5"),),
            expect="degraded",
            max_seconds=30.0,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_stale_checkpoint_field_rejected(self):
        plan = json.loads(FaultPlan(name="old", store=True).to_json())
        plan["checkpoint"] = True
        with pytest.raises(ModelError, match="checkpoint.*store"):
            FaultPlan.from_json(json.dumps(plan))
        # A stale rule on the removed site fails as an unknown site.
        with pytest.raises(SearchError, match="unknown fault site"):
            FaultRule.from_json({"site": "checkpoint.write", "action": "error"})

    def test_invalid_expectation_rejected(self):
        with pytest.raises(SearchError, match="expect"):
            FaultPlan(name="x", expect="miracle")

    def test_invalid_pool_rejected(self):
        with pytest.raises(SearchError, match="pool"):
            FaultPlan(name="x", pool="fork-bomb")

    def test_from_json_rejects_garbage(self):
        with pytest.raises(SearchError, match="JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(SearchError, match="object"):
            FaultPlan.from_json("[1, 2]")

    def test_with_rules_appends(self):
        plan = FaultPlan(name="x")
        grown = plan.with_rules(FaultRule("store.record", "error"))
        assert len(grown.rules) == 1 and not plan.rules

    def test_registry_constants_cover_each_other(self):
        assert set(SITES) and set(ACTIONS)


class TestSeededOccurrence:
    def test_deterministic_and_in_range(self):
        for seed in range(20):
            for site in SITES:
                first = seeded_occurrence(seed, site, low=1, high=8)
                assert first == seeded_occurrence(seed, site, low=1, high=8)
                assert 1 <= first <= 8

    def test_spreads_over_sites(self):
        picks = {seeded_occurrence(3, site, 1, 100) for site in SITES}
        assert len(picks) > 1

    def test_bad_bounds_rejected(self):
        with pytest.raises(SearchError):
            seeded_occurrence(0, "clock", low=0)
        with pytest.raises(SearchError):
            seeded_occurrence(0, "clock", low=5, high=4)
