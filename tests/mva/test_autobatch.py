"""SoA auto-engagement: the structural ``soa.assess`` paths and the
``autobatch`` counters."""

from __future__ import annotations

import os
import subprocess
import sys

import repro
from repro.mva import autobatch, soa


class TestAssess:
    def test_unbatchable_solver_declines(self):
        engage, reason = soa.assess("linearizer", False, 4)
        assert not engage
        assert "no batched SoA kernel" in reason

    def test_reuse_engine_declines(self):
        engage, reason = soa.assess("mva-heuristic", True, 4)
        assert not engage
        assert "reuse" in reason

    def test_scalar_backend_declines(self):
        # The scalar reference runs as a custom solver, which never packs.
        from repro.core.objective import WindowObjective
        from repro.mva import reference
        from repro.netmodel.examples import canadian_two_class

        objective = WindowObjective(
            canadian_two_class(18.0, 18.0), reference.solve_mva_heuristic
        )
        engage, reason = objective.soa_assessment(4)
        assert not engage
        assert "no batched SoA kernel" in reason

    def test_batch_of_one_declines(self):
        engage, reason = soa.assess("mva-heuristic", False, 1)
        assert not engage
        assert "nothing to batch" in reason

    def test_small_network_engages(self):
        # Network size is no reason either way: any batch of two or more
        # engages.
        engage, reason = soa.assess("mva-heuristic", False, 4)
        assert engage
        assert "4 networks packed" in reason


class TestCounters:
    def test_engaged_and_declined_accumulate(self):
        autobatch.reset_stats()
        autobatch.record_engaged(5)
        autobatch.record_engaged(3)
        autobatch.record_declined("reason one: detail", 7)
        autobatch.record_declined("reason one: other detail", 2)
        autobatch.record_declined("reason two", 1)
        stats = autobatch.batch_stats()
        assert stats["engaged_batches"] == 2
        assert stats["engaged_networks"] == 8
        assert stats["declined_batches"] == 3
        assert stats["declined_networks"] == 10
        # Reasons are bucketed by their prefix before the colon.
        assert stats["declined_reasons"] == {"reason one": 2, "reason two": 1}
        autobatch.reset_stats()
        assert autobatch.batch_stats()["declined_batches"] == 0


_SEARCH_PROBE = """
import sys
from repro.core.windim import windim
from repro.netmodel.examples import canadian_four_class
result = windim(canadian_four_class(6.0, 6.0, 6.0, 12.0))
print(list(result.windows), result.ahead_used > 0, "logging" in sys.modules)
"""


def test_serial_search_never_imports_logging():
    """A packing serial search (Table 4.12 row 1) counts its engaged
    batches without loading :mod:`logging`; only a decline logs."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.run(
        [sys.executable, "-c", _SEARCH_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert child.stdout.split("\n")[0] == "[1, 1, 1, 4] True False"
