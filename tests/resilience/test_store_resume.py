"""Resume from the evaluation store after a run is cut off.

The store appends every fresh evaluation as it completes, so no signal
handler or final flush stands between an interrupted run and its
resume: a ``kill -9`` and a Ctrl-C leave the same thing on disk, every
evaluation that finished.  The resumed run replays the trajectory from
the store and pays only for the rest.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.cli import EXIT_INTERRUPTED, main
from repro.core.windim import windim
from repro.mva.heuristic import solve_mva_heuristic
from repro.netmodel.examples import arpanet_fragment, canadian_two_class
from repro.search.store import EvaluationStore, model_fingerprint

MAX_WINDOW = 12
KILL_AFTER_RECORDS = 10

#: A store-backed windim run slowed to 50 ms per appended record, so the
#: parent can SIGKILL it mid-search.  The solver is the default one: the
#: store's fingerprint (network + solver label) must match on resume.
_CHILD = """
import sys
import time

from repro.core.windim import windim
from repro.netmodel.examples import arpanet_fragment
from repro.search.store import EvaluationStore

record = EvaluationStore.record

def slow_record(self, *args, **kwargs):
    record(self, *args, **kwargs)
    time.sleep(0.05)

EvaluationStore.record = slow_record
windim(arpanet_fragment(), max_window=int(sys.argv[2]), store_path=sys.argv[1])
"""


def _records_on_disk(path):
    """Complete record lines in the store file (the header excluded)."""
    try:
        with open(path) as handle:
            return max(0, handle.read().count("\n") - 1)
    except FileNotFoundError:
        return 0


def test_sigkill_mid_search_then_resume_reaches_same_optimum(tmp_path):
    network = arpanet_fragment()
    cold = windim(network, max_window=MAX_WINDOW)
    assert cold.search.evaluations > 2 * KILL_AFTER_RECORDS

    path = str(tmp_path / "killed.store")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, path, str(MAX_WINDOW)], env=env
    )
    try:
        deadline = time.monotonic() + 60.0
        while _records_on_disk(path) < KILL_AFTER_RECORDS:
            assert child.poll() is None, "the run ended before it was killed"
            assert time.monotonic() < deadline, "no store records appeared"
            time.sleep(0.01)
        child.send_signal(signal.SIGKILL)
    finally:
        child.kill()
        child.wait(timeout=30)
    assert child.returncode == -signal.SIGKILL

    resumed = windim(network, max_window=MAX_WINDOW, store_path=path)
    assert resumed.windows == cold.windows
    assert resumed.power == cold.power  # stored values replay bitwise
    assert resumed.store_seeded >= KILL_AFTER_RECORDS
    assert resumed.search.evaluations < cold.search.evaluations
    # The stored points are the cold trajectory's first evaluations, so
    # the two legs together pay exactly the cold run's work.
    assert (
        resumed.store_seeded + resumed.search.evaluations
        == cold.search.evaluations
    )


def test_keyboard_interrupt_leaves_every_completed_evaluation(tmp_path):
    """Ctrl-C needs no handler: the store already holds the work done."""
    network = canadian_two_class(18.0, 18.0, windows=(1, 1))
    interrupt_after = 7
    calls = [0]
    armed = [False]

    # One function for both legs: the solver label is part of the
    # store's fingerprint.
    def heuristic(net):
        calls[0] += 1
        if armed[0] and calls[0] > interrupt_after:
            raise KeyboardInterrupt
        return solve_mva_heuristic(net)

    baseline = windim(network, max_window=16, solver=heuristic)
    assert baseline.search.evaluations > interrupt_after

    path = str(tmp_path / "interrupted.store")
    calls[0] = 0
    armed[0] = True
    with pytest.raises(KeyboardInterrupt):
        windim(network, max_window=16, solver=heuristic, store_path=path)
    armed[0] = False
    with EvaluationStore.open(
        path, model_fingerprint(network, "heuristic")
    ) as store:
        assert len(store) == interrupt_after

    resumed = windim(network, max_window=16, solver=heuristic, store_path=path)
    assert resumed.windows == baseline.windows
    assert resumed.power == baseline.power
    assert resumed.store_seeded == interrupt_after
    assert (
        resumed.search.evaluations + resumed.store_seeded
        == baseline.search.evaluations
    )


@pytest.mark.parametrize(
    "case", ["lambda", "partial", "resilient-lambda", "multistart-lambda"]
)
def test_unnamed_custom_solver_cannot_label_a_store(tmp_path, case):
    """Every lambda, and every callable without a name, would share one
    store fingerprint and replay one another's values: refused before
    the store file exists."""
    import functools

    from repro.core.multistart import windim_multistart
    from repro.errors import ModelError

    network = canadian_two_class(18.0, 18.0)
    path = tmp_path / "run.store"
    solver = lambda net, control=None: solve_mva_heuristic(  # noqa: E731
        net, control=control
    )
    runs = {
        "lambda": lambda: windim(network, solver=solver, store_path=str(path)),
        "partial": lambda: windim(
            network,
            solver=functools.partial(solve_mva_heuristic),
            store_path=str(path),
        ),
        "resilient-lambda": lambda: windim(
            network, solver=solver, resilient=True, store_path=str(path)
        ),
        "multistart-lambda": lambda: windim_multistart(
            network, solver=solver, store_path=str(path)
        ),
    }
    with pytest.raises(ModelError, match="does not identify the solver"):
        runs[case]()
    assert not path.exists()


def test_cli_interrupt_names_the_store_to_resume_from(
    tmp_path, capsys, monkeypatch
):
    import repro.cli as cli

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "windim", interrupted)
    path = str(tmp_path / "run.store")
    code = main(
        ["solve", "--network", "canadian2", "--rates", "18", "18",
         "--store", path]
    )
    assert code == EXIT_INTERRUPTED == 130
    assert f"resume with --store {path}" in capsys.readouterr().err
