"""Tests for the persistent evaluation store (``search/store.py``)."""

import json
import math
import os

import numpy as np
import pytest

from repro.errors import SearchError
from repro.netmodel.examples import arpanet_fragment, canadian_two_class
from repro.search.store import (
    FSYNC_EVERY,
    STORE_VERSION,
    EvaluationStore,
    model_fingerprint,
)


@pytest.fixture
def network():
    return canadian_two_class(18.0, 18.0)


@pytest.fixture
def fingerprint(network):
    return model_fingerprint(network, "mva-heuristic")


class TestModelFingerprint:
    def test_deterministic(self, network):
        assert model_fingerprint(network, "mva-heuristic") == model_fingerprint(
            network, "mva-heuristic"
        )

    def test_populations_excluded(self, network):
        # Windows are the store's keys, so repopulating the template must
        # not invalidate the store.
        repopulated = network.with_populations([7, 9])
        assert model_fingerprint(network, "x") == model_fingerprint(repopulated, "x")

    def test_solver_label_included(self, network):
        assert model_fingerprint(network, "mva-heuristic") != model_fingerprint(
            network, "mva-exact"
        )

    def test_different_networks_differ(self, network):
        other = arpanet_fragment()
        assert model_fingerprint(network, "x") != model_fingerprint(other, "x")

    def test_demand_change_differs(self):
        a = canadian_two_class(18.0, 18.0)
        b = canadian_two_class(18.0, 25.0)
        assert model_fingerprint(a, "x") != model_fingerprint(b, "x")

    def test_golden_network_digest_is_pinned(self):
        # Recorded before the kernel backend left the fingerprint: the
        # digest of a golden network must not move, or every store
        # written since would stop replaying.
        from repro.verify.golden import golden_cases

        case = next(c for c in golden_cases() if c.name == "table47_moderate")
        assert model_fingerprint(case.build().network, "mva-heuristic") == (
            "e2f4afb5a82ec3076ba73aee389afa2be4756a9d1f64da3b7ade8fdc2a68ffd1"
        )


class TestRoundTrip:
    def test_record_then_reload(self, tmp_path, fingerprint):
        path = str(tmp_path / "evals.store")
        seed = np.arange(6, dtype=float).reshape(2, 3)
        with EvaluationStore.open(path, fingerprint) as store:
            store.record((3, 4), 0.125, seed)
            store.record((5, 6), 0.25, None)
            store.record((7, 8), math.inf, None)  # infeasible point

        reloaded = EvaluationStore.open(path, fingerprint)
        assert reloaded.loaded == 3
        assert reloaded.get((3, 4)) == 0.125
        assert reloaded.get((5, 6)) == 0.25
        assert reloaded.get((7, 8)) == math.inf
        assert reloaded.get((9, 9)) is None
        np.testing.assert_array_equal(reloaded.seeds[(3, 4)], seed)
        assert (5, 6) not in reloaded.seeds
        reloaded.close()

    def test_contains_and_len(self, tmp_path, fingerprint):
        with EvaluationStore.open(str(tmp_path / "s"), fingerprint) as store:
            store.record((1, 1), 1.0)
            assert (1, 1) in store
            assert (2, 2) not in store
            assert len(store) == 1

    def test_identical_rerecord_is_idempotent(self, tmp_path, fingerprint):
        path = str(tmp_path / "s")
        with EvaluationStore.open(path, fingerprint) as store:
            store.record((1, 2), 0.5)
            store.record((1, 2), 0.5)
        with open(path) as handle:
            lines = [l for l in handle.read().splitlines() if l]
        assert len(lines) == 2  # header + one record


class TestFingerprintGuard:
    def test_mismatch_rejected(self, tmp_path, network, fingerprint):
        path = str(tmp_path / "s")
        with EvaluationStore.open(path, fingerprint) as store:
            store.record((1, 1), 1.0)
        other = model_fingerprint(network, "mva-exact")
        with pytest.raises(SearchError, match="different"):
            EvaluationStore.open(path, other)

    def test_foreign_json_rejected(self, tmp_path, fingerprint):
        path = tmp_path / "s"
        path.write_text(json.dumps({"version": 99}) + "\n")
        with pytest.raises(SearchError, match="version"):
            EvaluationStore.open(str(path), fingerprint)

    def test_garbage_header_rejected(self, tmp_path, fingerprint):
        path = tmp_path / "s"
        path.write_text("not json at all\n")
        with pytest.raises(SearchError, match="header"):
            EvaluationStore.open(str(path), fingerprint)


class TestCrashTolerance:
    def test_torn_trailing_line_dropped(self, tmp_path, fingerprint):
        path = str(tmp_path / "s")
        with EvaluationStore.open(path, fingerprint) as store:
            store.record((1, 1), 1.0)
            store.record((2, 2), 2.0)
        with open(path, "a") as handle:  # simulate a crash mid-append
            handle.write('{"point": [3, 3], "val')
        reloaded = EvaluationStore.open(path, fingerprint)
        assert reloaded.loaded == 2
        assert (3, 3) not in reloaded
        reloaded.close()

    def test_mid_file_corruption_is_an_error_under_strict(
        self, tmp_path, fingerprint
    ):
        path = str(tmp_path / "s")
        with EvaluationStore.open(path, fingerprint) as store:
            store.record((1, 1), 1.0)
        with open(path, "a") as handle:
            handle.write("garbage line\n")  # complete (newline) but invalid
        with pytest.raises(SearchError, match="malformed"):
            EvaluationStore.open(path, fingerprint, strict=True)

    def test_mid_file_corruption_quarantined_by_default(
        self, tmp_path, fingerprint
    ):
        path = str(tmp_path / "s")
        with EvaluationStore.open(path, fingerprint) as store:
            store.record((1, 1), 1.0)
            store.record((2, 2), 2.0)
        with open(path, "a") as handle:
            handle.write("garbage line\n")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            reloaded = EvaluationStore.open(path, fingerprint)
        assert reloaded.loaded == 2
        assert reloaded.quarantined == 1
        assert reloaded.get((1, 1)) == 1.0
        reloaded.close()
        sidecar = path + ".quarantine"
        assert "garbage line" in open(sidecar).read()
        # the auto-compaction scrubbed the damage: a strict re-open passes
        clean = EvaluationStore.open(path, fingerprint, strict=True)
        assert clean.loaded == 2 and clean.quarantined == 0
        clean.close()


class TestCompaction:
    def test_compact_dedupes_and_preserves_content(self, tmp_path, fingerprint):
        path = str(tmp_path / "s")
        store = EvaluationStore.open(path, fingerprint)
        store.record((1, 1), 1.0)
        store.record((1, 1), 1.5)  # updated value -> second record
        store.record((2, 2), 2.0, np.ones((2, 3)))
        store.compact()
        with open(path) as handle:
            lines = [l for l in handle.read().splitlines() if l]
        assert len(lines) == 3  # header + 2 unique points
        store.close()
        reloaded = EvaluationStore.open(path, fingerprint)
        assert reloaded.get((1, 1)) == 1.5
        np.testing.assert_array_equal(reloaded.seeds[(2, 2)], np.ones((2, 3)))
        reloaded.close()

    def test_close_compacts_only_when_duplicated(self, tmp_path, fingerprint):
        path = str(tmp_path / "s")
        store = EvaluationStore.open(path, fingerprint)
        store.record((1, 1), 1.0)
        before = os.path.getmtime(path)
        store.close()
        # No duplicates -> close leaves the appended file untouched.
        assert os.path.getmtime(path) == before
        with open(path) as handle:
            assert len([l for l in handle.read().splitlines() if l]) == 2

    def test_store_survives_append_after_compact(self, tmp_path, fingerprint):
        path = str(tmp_path / "s")
        store = EvaluationStore.open(path, fingerprint)
        store.record((1, 1), 1.0)
        store.compact()
        store.record((2, 2), 2.0)
        store.close()
        reloaded = EvaluationStore.open(path, fingerprint)
        assert reloaded.loaded == 2
        reloaded.close()


class TestDurability:
    def test_fsync_every_interval_and_at_close(
        self, tmp_path, fingerprint, monkeypatch
    ):
        path = str(tmp_path / "s")
        store = EvaluationStore.open(path, fingerprint)
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd)
        )
        for k in range(1, FSYNC_EVERY):
            store.record((k, 1), float(k))
        assert synced == []  # flushed, not yet synced
        store.record((FSYNC_EVERY, 1), 1.0)
        assert len(synced) == 1
        store.record((1, 2), 1.0)
        assert len(synced) == 1
        store.close()
        assert len(synced) == 2  # the tail since the last sync


class TestHeaderCreation:
    def test_fresh_file_gets_header(self, tmp_path, fingerprint):
        path = str(tmp_path / "sub" / "dir" / "s")  # parent dirs created
        store = EvaluationStore.open(path, fingerprint)
        store.close()
        with open(path) as handle:
            header = json.loads(handle.readline())
        assert header == {"version": STORE_VERSION, "fingerprint": fingerprint}
