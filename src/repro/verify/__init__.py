"""Differential-verification oracle (cross-solver fuzzing + golden fixtures).

The thesis argument rests on redundant solvers agreeing: the §4.2 MVA
heuristic must track the exact product-form solutions closely enough to
drive the WINDIM search, and the simulator must validate both.  This
package turns that redundancy into tooling:

* :mod:`repro.verify.oracle` — every throughput/delay backend behind one
  uniform :class:`~repro.verify.oracle.SolverSpec` interface.
* :mod:`repro.verify.fuzz` — seeded random closed networks bounded so the
  exact solvers stay tractable.
* :mod:`repro.verify.differential` — runs all applicable solver pairs with
  per-pair tolerance policies.
* :mod:`repro.verify.report` — structured discrepancy reports.
* :mod:`repro.verify.golden` — JSON regression fixtures for the thesis
  networks with record/replay.

CLI: ``windim verify --seed N --cases K``.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "TolerancePolicy": "repro.verify.differential",
    "check_case": "repro.verify.differential",
    "check_pair": "repro.verify.differential",
    "run_differential": "repro.verify.differential",
    "FuzzConfig": "repro.verify.fuzz",
    "case_seed": "repro.verify.fuzz",
    "generate_case": "repro.verify.fuzz",
    "generate_cases": "repro.verify.fuzz",
    "generate_named_cases": "repro.verify.fuzz",
    "GoldenCase": "repro.verify.golden",
    "compare_fixture": "repro.verify.golden",
    "compute_fixture": "repro.verify.golden",
    "default_golden_dir": "repro.verify.golden",
    "golden_case_names": "repro.verify.golden",
    "golden_cases": "repro.verify.golden",
    "load_fixture": "repro.verify.golden",
    "record_fixtures": "repro.verify.golden",
    "verify_fixtures": "repro.verify.golden",
    "SolverKind": "repro.verify.oracle",
    "SolverOutput": "repro.verify.oracle",
    "SolverSpec": "repro.verify.oracle",
    "VerifyCase": "repro.verify.oracle",
    "applicable_solvers": "repro.verify.oracle",
    "ctmc_state_count": "repro.verify.oracle",
    "get_solver": "repro.verify.oracle",
    "registry": "repro.verify.oracle",
    "simulation_spec": "repro.verify.oracle",
    "solver_names": "repro.verify.oracle",
    "CaseReport": "repro.verify.report",
    "DifferentialReport": "repro.verify.report",
    "Discrepancy": "repro.verify.report",
    "PairResult": "repro.verify.report",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
