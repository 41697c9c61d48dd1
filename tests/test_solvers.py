"""The named-solver table: one entry per solver, keywords read from signatures.

The parity classes pin what each named solver is offered by every caller
(the objective's reuse engine, the ladder, ``windim evaluate``).  Their
expected values were recorded before the table replaced the per-module
maps, on ``canadian_two_class(18, 18)``.
"""

import contextlib
import functools
import io
import pickle

import pytest

from repro.cli import main
from repro.core.objective import WindowObjective
from repro.core.windim import windim
from repro.errors import ModelError, SolverError
from repro.exact.lattice_cache import LatticeCache
from repro.mva.convergence import IterationControl
from repro.mva.heuristic import solve_mva_heuristic
from repro.netmodel.examples import canadian_two_class
from repro.resilience import ResilientSolver
from repro.solvers import KEYWORDS, SOLVERS, NamedSolver, solver_keywords, solver_name
from repro.verify.oracle import VerifyCase, get_solver

LADDER_NAMES = [name for name in SOLVERS if name != "resilient"]


@pytest.fixture
def net():
    return canadian_two_class(18.0, 18.0, windows=(3, 4))


class TestTable:
    def test_each_entry_is_a_named_solver_under_its_own_name(self):
        for name, solver in SOLVERS.items():
            assert isinstance(solver, NamedSolver)
            assert solver.__name__ == name

    def test_keywords_come_from_the_functions(self):
        iterative = {"control", "warm_start"}
        assert {name: solver_keywords(s) for name, s in SOLVERS.items()} == {
            "mva-heuristic": iterative,
            "mva-exact": {"lattice_cache"},
            "convolution": set(),
            "schweitzer": iterative,
            "linearizer": iterative,
            "asymptotic": iterative,
            "resilient": KEYWORDS,  # solve_resilient forwards **kwargs
        }

    def test_keywords_of_custom_callables(self):
        def explicit(network, control=None, refinements=2):
            pass

        def catch_all(network, **kwargs):
            pass

        assert solver_keywords(explicit) == {"control"}
        assert solver_keywords(catch_all) == KEYWORDS
        assert solver_keywords(lambda network: None) == frozenset()

    def test_unaccepted_keywords_are_not_passed(self, net, monkeypatch):
        import repro.exact.convolution as convolution

        seen = []
        real = convolution.solve_convolution

        def solve_convolution(network):
            seen.append(network)
            return real(network)

        monkeypatch.setattr(convolution, "solve_convolution", solve_convolution)
        SOLVERS["convolution"](net, control=None, warm_start=None)
        assert seen == [net]

    def test_signature_is_read_once_per_function(self, net, monkeypatch):
        import inspect

        reads = []
        real = inspect.signature

        def counting(function, *args, **kwargs):
            reads.append(function)
            return real(function, *args, **kwargs)

        monkeypatch.setattr(inspect, "signature", counting)
        solver = NamedSolver("h", "repro.mva.heuristic", "solve_mva_heuristic")
        for _ in range(3):
            solver(net, control=None)
        solver_keywords(solver)
        assert len(reads) == 1

    def test_pickles_by_name(self, net):
        solver = SOLVERS["schweitzer"]
        solver(net)  # binds a function; the pickle must not carry it
        clone = pickle.loads(pickle.dumps(solver))
        assert (clone.__name__, clone.module, clone.function) == (
            "schweitzer",
            "repro.mva.schweitzer",
            "solve_schweitzer",
        )
        assert clone(net).throughputs.tolist() == solver(net).throughputs.tolist()


class TestEntriesAsObjects:
    """A :data:`SOLVERS` entry passed as an object is its name."""

    def test_entries_and_their_pickles_have_their_names(self):
        for name, solver in SOLVERS.items():
            assert solver_name(solver) == name
            assert solver_name(pickle.loads(pickle.dumps(solver))) == name
            assert solver_name(name) == name

    def test_custom_callables_have_no_name(self):
        assert solver_name(solve_mva_heuristic) is None
        assert solver_name(lambda network: None) is None
        # A registry name bound to another function is not the entry.
        module, function = "repro.mva.heuristic", "solve_mva_heuristic"
        assert solver_name(NamedSolver("schweitzer", module, function)) is None
        assert solver_name(NamedSolver("h", module, function)) is None

    def test_an_entry_may_run_on_workers(self, net):
        objective = WindowObjective(net, solver=SOLVERS["mva-heuristic"], workers=2)
        assert objective.parallel
        with pytest.raises(ModelError, match="requires a named solver"):
            WindowObjective(net, solver=solve_mva_heuristic, workers=2)

    def test_an_entry_packs_its_crosses_like_its_name(self):
        # The entry used to count as a custom callable: no packs, no
        # pool.  Same optimum and evaluations either way, but by name the
        # serial plane solves 14 cross points ahead.
        network = canadian_two_class(18.0, 18.0)
        entry = SOLVERS["mva-heuristic"]
        by_name = windim(network, solver="mva-heuristic")
        by_entry = windim(network, solver=entry)
        assert by_entry.windows == by_name.windows
        assert by_entry.power == by_name.power
        assert by_entry.search.evaluations == by_name.search.evaluations == 13
        assert by_name.solved_ahead == 14
        assert by_entry.solved_ahead == by_name.solved_ahead
        assert by_entry.ahead_used == by_name.ahead_used


class TestCallTimeLookup:
    """A function replaced after construction is the one that runs.

    A tracer that wraps ``solve_mva_heuristic`` after a warm-up relies on
    this: a function object cached at construction would bypass it.
    """

    def test_objective_ladder_and_oracle_call_the_patched_function(
        self, net, monkeypatch
    ):
        import repro.mva.heuristic as heuristic

        objective = WindowObjective(net)
        ladder = ResilientSolver()
        spec = get_solver("mva-heuristic-vectorized")
        calls = []

        @functools.wraps(solve_mva_heuristic)
        def traced(*args, **kwargs):
            calls.append(sorted(kwargs))
            return solve_mva_heuristic(*args, **kwargs)

        monkeypatch.setattr(heuristic, "solve_mva_heuristic", traced)
        objective((3, 4))
        assert len(calls) == 1
        ladder(net)
        assert len(calls) == 2
        spec.solve(VerifyCase.from_network("c2", net))
        assert calls[2:] == [[]]


class TestLadderNames:
    def test_escalation_typo_fails_at_construction(self):
        with pytest.raises(ModelError, match="unknown ladder backend 'schweizer'"):
            ResilientSolver("mva-heuristic", escalation=("schweizer",))

    def test_resilient_is_not_a_rung(self):
        with pytest.raises(ModelError, match="unknown ladder backend"):
            ResilientSolver("resilient")
        with pytest.raises(ModelError, match="unknown ladder backend"):
            ResilientSolver(escalation=("schweitzer", "resilient"))

    def test_every_other_table_name_is_a_rung(self):
        ladder = ResilientSolver(LADDER_NAMES[0], escalation=LADDER_NAMES)
        assert ladder.escalation == tuple(LADDER_NAMES)


#: ``WindowObjective(net, name, reuse=True)`` after solving (3, 4), (4, 4)
#: and (4, 5): its reuse counters and the three ``float.hex`` values.
REUSE = {
    "mva-heuristic": (
        {"cold_solves": 1, "cold_iterations": 40, "warm_solves": 2,
         "warm_iterations": 40, "seeds": 3},
        ("0x1.bb583bc2c68b0p-8", "0x1.bce0e5f867e7ep-8", "0x1.c3c29111b19a1p-8"),
    ),
    "mva-exact": (
        {"cold_solves": 3, "cold_iterations": 0, "warm_solves": 0,
         "warm_iterations": 0, "seeds": 0},
        ("0x1.b66da03af6f2dp-8", "0x1.b90cce566bec8p-8", "0x1.c143b8d590391p-8"),
    ),
    "convolution": (
        {"cold_solves": 3, "cold_iterations": 0, "warm_solves": 0,
         "warm_iterations": 0, "seeds": 0},
        ("0x1.b66da03af6f2dp-8", "0x1.b90cce566bec6p-8", "0x1.c143b8d590394p-8"),
    ),
    "schweitzer": (
        {"cold_solves": 1, "cold_iterations": 26, "warm_solves": 2,
         "warm_iterations": 31, "seeds": 3},
        ("0x1.b7b6717200ec1p-8", "0x1.b8f554f79de3cp-8", "0x1.befd0eb600cf9p-8"),
    ),
    "linearizer": (
        {"cold_solves": 1, "cold_iterations": 175, "warm_solves": 2,
         "warm_iterations": 404, "seeds": 3},
        ("0x1.b4ef654f741e7p-8", "0x1.b6e8457d70d6cp-8", "0x1.bed6302f9be45p-8"),
    ),
    "asymptotic": (
        {"cold_solves": 1, "cold_iterations": 31, "warm_solves": 2,
         "warm_iterations": 33, "seeds": 3},
        ("0x1.0b792da1efdeap-7", "0x1.076be770a9eebp-7", "0x1.06d4f2e02fc86p-7"),
    ),
    "resilient": (
        {"cold_solves": 1, "cold_iterations": 40, "warm_solves": 2,
         "warm_iterations": 40, "seeds": 3},
        ("0x1.bb583bc2c68b0p-8", "0x1.bce0e5f867e7ep-8", "0x1.c3c29111b19a1p-8"),
    ),
}

#: ``(damping, iterations, float.hex of the summed throughputs)`` of each
#: named solver as the primary and as the escalation rung after a dead
#: primary, both offered a warm start from (3, 3) and a lattice cache.
LADDER = {
    "mva-heuristic": ((1.0, 17, "0x1.918cab20fce93p+4"), (0.25, 56, "0x1.918cab1c4d9b8p+4")),
    "mva-exact": ((1.0, 0, "0x1.95de147aa51e6p+4"), (1.0, 0, "0x1.95de147aa51e6p+4")),
    "convolution": ((1.0, 0, "0x1.95de147aa51e6p+4"), (1.0, 0, "0x1.95de147aa51e6p+4")),
    "schweitzer": ((1.0, 13, "0x1.8fac0f6870ab2p+4"), (0.25, 43, "0x1.8fac0f68cc1d6p+4")),
    "linearizer": ((1.0, 173, "0x1.95f0175297da4p+4"), (0.25, 300, "0x1.95f01753b6940p+4")),
    "asymptotic": ((1.0, 17, "0x1.5c4fb23b406b9p+4"), (0.25, 48, "0x1.5c4fb2323293ap+4")),
}

#: ``windim evaluate --network canadian2 --rates 12.5 12.5 --windows 3 4``:
#: its first line, its class throughputs and its last line.
EVALUATE = {
    "mva-heuristic": ("solution by mva-heuristic", "9.8335, 10.9950",
                      "power=134.87 (throughput=20.829 msg/s, delay=154.43 ms)"),
    "mva-exact": ("solution by mva-exact", "9.9115, 11.0695",
                  "power=135.78 (throughput=20.981 msg/s, delay=154.52 ms)"),
    "convolution": ("solution by convolution", "9.9115, 11.0695",
                    "power=135.78 (throughput=20.981 msg/s, delay=154.52 ms)"),
    "schweitzer": ("solution by schweitzer", "9.6618, 10.6858",
                   "power=136.95 (throughput=20.348 msg/s, delay=148.58 ms)"),
    "linearizer": ("solution by linearizer", "9.9062, 11.0552",
                   "power=136.33 (throughput=20.961 msg/s, delay=153.75 ms)"),
    "asymptotic": ("solution by asymptotic", "8.0287, 9.0379",
                   "power=112.29 (throughput=17.067 msg/s, delay=151.99 ms)"),
    "resilient": ("solution by mva-heuristic", "9.8335, 10.9950",
                  "power=134.87 (throughput=20.829 msg/s, delay=154.43 ms)"),
}


def _dead(network, control=None):
    raise SolverError("always fails")


def _run(ladder, net):
    """The ladder's attempts and answer, offered a warm start and a cache."""
    cache = LatticeCache()
    seed = solve_mva_heuristic(net.with_populations((3, 3))).queue_lengths
    solution = ladder(net, warm_start=seed, lattice_cache=cache)
    attempts = [
        (a.solver, a.damping, a.outcome, a.iterations)
        for a in ladder.last_health.attempts
    ]
    return attempts, float(solution.throughputs.sum()).hex(), cache.stats()["computed"]


class TestKeywordParity:
    def test_tables_cover_every_named_solver(self):
        assert set(REUSE) == set(EVALUATE) == set(SOLVERS)
        assert set(LADDER) == set(LADDER_NAMES)

    @pytest.mark.parametrize("name", list(SOLVERS))
    def test_reuse_engine(self, name, net):
        objective = WindowObjective(net, name, reuse=True)
        values = tuple(objective(w).hex() for w in [(3, 4), (4, 4), (4, 5)])
        stats = objective.reuse_stats
        counters, expected_values = REUSE[name]
        assert values == expected_values
        assert {k: stats[k] for k in counters} == counters
        lattice = {k: v for k, v in stats.items() if k.startswith("lattice_")}
        if name in ("mva-exact", "resilient"):
            computed = 29 if name == "mva-exact" else 0
            assert lattice["lattice_computed"] == computed
            assert set(lattice) == {
                "lattice_computed", "lattice_hits", "lattice_resets", "lattice_vectors"
            }
        else:
            assert lattice == {}
        assert set(stats) == set(counters) | set(lattice) | {"aitken_switched_off"}

    @pytest.mark.parametrize("name", LADDER_NAMES)
    def test_ladder_primary_and_rung(self, name, net):
        computed = 19 if name == "mva-exact" else 0
        (damping, iterations, total), (rung_damping, rung_iterations, rung_total) = (
            LADDER[name]
        )
        assert _run(ResilientSolver(name, escalation=()), net) == (
            [(name, damping, "ok", iterations)], total, computed
        )
        dead = [("_dead", d, "error", 0) for d in (1.0, 0.5, 0.25)]
        assert _run(ResilientSolver(_dead, escalation=(name,)), net) == (
            dead + [(name, rung_damping, "ok", rung_iterations)], rung_total, computed
        )

    def test_ladder_escalates_through_every_rung(self, net):
        # Two iterations converge no fixed point, so every iterative rung
        # fails and the exact rung answers.
        order = ["mva-heuristic", "schweitzer", "linearizer", "asymptotic", "mva-exact"]
        ladder = ResilientSolver(
            _dead, escalation=order, control=IterationControl(max_iterations=2)
        )
        attempts, total, computed = _run(ladder, net)
        assert attempts == [("_dead", d, "error", 0) for d in (1.0, 0.5, 0.25)] + [
            ("mva-heuristic", 0.25, "error", 2),
            ("schweitzer", 0.25, "error", 2),
            ("linearizer", 0.25, "error", 14),
            ("asymptotic", 0.25, "error", 2),
            ("mva-exact", 1.0, "ok", 0),
        ]
        assert total == "0x1.95de147aa51e6p+4"
        assert computed == 19

    @pytest.mark.parametrize("name", list(SOLVERS))
    def test_windim_evaluate(self, name):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(
                ["evaluate", "--network", "canadian2", "--rates", "12.5", "12.5",
                 "--windows", "3", "4", "--solver", name]
            )
        lines = out.getvalue().splitlines()
        assert code == 0
        assert (lines[0], lines[2].split("=")[1].strip(), lines[-1]) == EVALUATE[name]
