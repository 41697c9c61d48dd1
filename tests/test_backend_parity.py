"""Parity wall: the scalar reference kernels and the fast path must agree.

The fast kernels are pure performance work — they must never change a
number.  This wall solves with every solver that has a reference kernel
(:mod:`repro.mva.reference`) both ways and pins agreement on
throughput, per-chain delay, and network power to ``PARITY_RTOL = 1e-8``
relative error across

* every golden thesis fixture under ``tests/golden/``, and
* fifty seeded fuzz networks from :mod:`repro.verify.fuzz`, each pinned
  to ``(FUZZ_SEED, case name)`` via
  :func:`repro.verify.fuzz.case_seed` — so growing or reordering the
  suite can never silently swap the network behind an existing test id
  (a positional derivation did exactly that), and any failure
  regenerates in isolation from its name alone.

It also searches every network of the conformance wall
(``tests/evalplane/test_conformance.py``: the goldens and its 25 fuzz
networks) once on each kernel, the reference passed to ``windim`` as a
custom solver, and requires the same optimum and the same trajectory:
base points, fresh evaluations and lookups.

The differential-verification oracle covers the same ground end to end
(``mva-exact`` vs ``mva-exact-vectorized`` as an exact pair at 1e-8);
this file is the direct, fast, always-on slice of that wall.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.multistart import windim_multistart
from repro.core.power import power_report
from repro.core.windim import windim
from repro.exact.mva_exact import solve_mva_exact
from repro.exact.states import lattice_size
from repro.mva import reference
from repro.mva.heuristic import solve_mva_heuristic
from repro.mva.linearizer import solve_linearizer
from repro.mva.schweitzer import solve_schweitzer
from repro.netmodel.examples import canadian_four_class, canadian_two_class
from repro.verify.fuzz import FuzzConfig, case_seed, generate_case, generate_named_cases
from repro.verify.golden import golden_cases

#: Maximum relative error tolerated between the two kernels.  In practice
#: they are bit-identical (same floating-point operations in the same
#: order); the tolerance only allows for BLAS/platform variation.
PARITY_RTOL = 1e-8

#: Absolute floor for comparisons around zero (idle chains, empty queues).
PARITY_ATOL = 1e-12

#: Master seed of the fuzzed slice of the wall; each case depends only on
#: ``(FUZZ_SEED, name)`` so failures reproduce in isolation and adding
#: cases never perturbs existing ones.
FUZZ_SEED = 1729

#: Number of fuzzed networks in the wall.
FUZZ_COUNT = 50

#: Stable case names: the instance behind ``parity-000`` is pinned by the
#: name's hash, not by its position in this list.
FUZZ_NAMES = tuple(f"parity-{i:03d}" for i in range(FUZZ_COUNT))

#: Exact MVA is only attempted below this lattice size (same spirit as the
#: oracle's gate; fuzzed cases are all far below it).
EXACT_LATTICE_GATE = 10_000

#: solver -> (reference kernel, fast path).
_DUAL_KERNEL_SOLVERS = {
    "mva-heuristic": (reference.solve_mva_heuristic, solve_mva_heuristic),
    "schweitzer": (reference.solve_schweitzer, solve_schweitzer),
    "linearizer": (reference.solve_linearizer, solve_linearizer),
    "mva-exact": (reference.solve_mva_exact, solve_mva_exact),
}

#: The conformance wall's fuzz networks (its seed and case names).
CONFORMANCE_SEED = 977
CONFORMANCE_NAMES = tuple(f"conformance-{i:03d}" for i in range(25))


def _exact_applicable(network) -> bool:
    return (
        network.is_fixed_rate()
        and lattice_size([int(p) for p in network.populations])
        <= EXACT_LATTICE_GATE
    )


def _assert_backend_parity(network, label: str) -> None:
    """Solve ``network`` with every dual-kernel solver on both kernels
    and require throughput/delay/power agreement to ``PARITY_RTOL``."""
    for name, (solve_reference, solve) in _DUAL_KERNEL_SOLVERS.items():
        if name == "mva-exact" and not _exact_applicable(network):
            continue
        scalar = solve_reference(network)
        vectorized = solve(network)
        for field in ("throughputs", "chain_delays", "queue_lengths"):
            np.testing.assert_allclose(
                np.asarray(getattr(vectorized, field), dtype=float),
                np.asarray(getattr(scalar, field), dtype=float),
                rtol=PARITY_RTOL,
                atol=PARITY_ATOL,
                err_msg=f"{label}: {name} {field} diverges between kernels",
            )
        power_scalar = power_report(scalar).power
        power_vectorized = power_report(vectorized).power
        assert power_vectorized == pytest.approx(
            power_scalar, rel=PARITY_RTOL, abs=PARITY_ATOL
        ), f"{label}: {name} power diverges between kernels"


@pytest.mark.fast
class TestGoldenParity:
    """Scalar vs vectorized on every golden thesis fixture."""

    @pytest.mark.parametrize(
        "case", golden_cases(), ids=lambda c: c.name
    )
    def test_golden_fixture_parity(self, case):
        network = case.build().network
        _assert_backend_parity(network, case.name)


class TestFuzzParity:
    """Scalar vs vectorized on the seeded fuzz population."""

    @pytest.mark.parametrize("name", FUZZ_NAMES)
    def test_fuzz_case_parity(self, name):
        case = generate_case(case_seed(FUZZ_SEED, name), name)
        _assert_backend_parity(case.network, case.label)


def _reference_heuristic(network, control=None, warm_start=None):
    """The reference heuristic as a custom solver (reuse seeds included)."""
    return reference.solve_mva_heuristic(
        network, control=control, warm_start=warm_start
    )


def _conformance_networks():
    networks = [pytest.param(case.build().network, id=case.name) for case in golden_cases()]
    for case in generate_named_cases(CONFORMANCE_SEED, CONFORMANCE_NAMES, FuzzConfig()):
        networks.append(pytest.param(case.network, id=case.label.split("[")[0]))
    return networks


def _assert_same_search(fast, scalar, label: str) -> None:
    """The same optimum and trajectory; powers to the parity band."""
    assert scalar.windows == fast.windows, label
    assert scalar.search.base_points == fast.search.base_points, label
    assert scalar.search.evaluations == fast.search.evaluations, label
    assert scalar.status == fast.status, label
    assert scalar.power == pytest.approx(fast.power, rel=PARITY_RTOL), label


class TestSearchParity:
    """Each conformance network searched once on each kernel."""

    @pytest.mark.parametrize("reuse", [False, True], ids=["cold", "reuse"])
    @pytest.mark.parametrize("network", _conformance_networks())
    def test_same_optimum_and_trajectory(self, network, reuse):
        max_window = 6 if network.num_chains > 2 else 12
        fast = windim(network, max_window=max_window, reuse=reuse)
        scalar = windim(
            network, solver=_reference_heuristic, max_window=max_window, reuse=reuse
        )
        _assert_same_search(fast, scalar, f"reuse={reuse}")
        assert scalar.search.lookups == fast.search.lookups

    @pytest.mark.parametrize(
        "network",
        [canadian_two_class(18.0, 18.0), canadian_four_class(6.0, 6.0, 6.0, 12.0)],
        ids=["canadian2", "canadian4"],
    )
    def test_multistart_same_optimum_and_trajectory(self, network):
        fast = windim_multistart(network, max_window=12)
        scalar = windim_multistart(network, solver=_reference_heuristic, max_window=12)
        # Lookups differ: the fast path evaluates the seed list as one
        # pack first, and a custom solver never packs.
        _assert_same_search(fast, scalar, "multistart")


class TestBackendFlagSemantics:
    """The run-time kernel switch is gone: no solver takes ``backend=``."""

    def test_unknown_backend_rejected(self, two_class_net):
        for _solve_reference, solve in _DUAL_KERNEL_SOLVERS.values():
            with pytest.raises(TypeError):
                solve(two_class_net, backend="scalar")
        with pytest.raises(TypeError):
            windim(two_class_net, backend="scalar")
