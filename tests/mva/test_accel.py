"""Guarded Aitken extrapolation of warm-started fixed points.

Pins the Table 4.12 row 8 failure: unguarded extrapolation drove warm
heuristic solves into a limit cycle that never met the tolerance, while
the plain iteration from the same seed converges.  The guard switches
the accelerator off when an extrapolation does not shorten the plain
step, so such a solve falls back to the plain iteration instead of
cycling.
"""

import numpy as np
import pytest

from repro.mva.accel import SWITCHED_OFF, AitkenAccelerator, solve_extras
from repro.mva.asymptotic import solve_asymptotic
from repro.mva.heuristic import solve_mva_heuristic
from repro.mva.schweitzer import solve_schweitzer
from repro.netmodel.examples import canadian_four_class

#: Table 4.12 row 8 class rates.
ROW8 = (28.18, 38.02, 2.87, 30.93)
SEED_WINDOWS = (1, 1, 1, 13)
TARGET_WINDOWS = (1, 1, 1, 19)


def _row8_pair(solve):
    """Cold solve at the target, and a warm one seeded from the cold
    solution at ``SEED_WINDOWS``."""
    network = canadian_four_class(*ROW8)
    seed = solve(network.with_populations(SEED_WINDOWS)).queue_lengths
    target = network.with_populations(TARGET_WINDOWS)
    return solve(target), solve(target, warm_start=seed)


def _unguarded_push():
    """The extrapolation step without the guard (the pre-guard method)."""
    state = {"previous": None, "delta": None, "since": 0}

    def push(iterate):
        if state["previous"] is None:
            state["previous"] = iterate
            return None
        delta = iterate - state["previous"]
        state["previous"] = iterate
        previous_delta, state["delta"] = state["delta"], delta
        state["since"] += 1
        if state["since"] < 2 or previous_delta is None:
            return None
        ratio = float(delta @ previous_delta) / float(previous_delta @ previous_delta)
        if not 0.0 < ratio < 0.95:
            return None
        accelerated = np.clip(iterate + ratio / (1.0 - ratio) * delta, 0.0, None)
        state.update(previous=accelerated, delta=None, since=0)
        return accelerated

    return push


#: Fixed point of the synthetic maps below.
FIXED_POINT = np.array([1.0, 1.0])


def _oscillating_map(rate=0.8, angle=0.6):
    """A contraction whose error rotates: the Rayleigh ratio sees only the
    rotation's real part, so each extrapolation overshoots.  The
    saturation ``1 / (1 + |e|^2)`` keeps the unguarded iterate bounded,
    which turns its divergence into a limit cycle."""
    rotation = rate * np.array(
        [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    )

    def step(q):
        error = q - FIXED_POINT
        return FIXED_POINT + rotation @ error / (1.0 + error @ error)

    return step


def _linear_map(q):
    """A contraction with real, distinct ratios 0.6 and 0.2."""
    return FIXED_POINT + np.array([0.6, 0.2]) * (q - FIXED_POINT)


def _iterate(step, push, tolerance=1e-10, budget=2000):
    """The solvers' loop shape: plain step, stop test, then extrapolate.

    Returns ``(iterations, final residual)``.
    """
    q = np.array([1.1, 1.05])
    residual = float("inf")
    for iterations in range(1, budget + 1):
        previous, q = q, step(q)
        residual = float(np.abs(q - previous).max())
        if residual < tolerance:
            return iterations, residual
        accelerated = push(q)
        if accelerated is not None:
            q = accelerated
    return budget, residual


class TestSyntheticMaps:
    def test_unguarded_step_cycles_on_oscillating_map(self):
        iterations, residual = _iterate(_oscillating_map(), _unguarded_push())
        assert iterations == 2000
        assert residual > 1e-3

    def test_guarded_step_converges_on_oscillating_map(self):
        accelerator = AitkenAccelerator()
        iterations, _ = _iterate(_oscillating_map(), accelerator.push)
        plain, _ = _iterate(_oscillating_map(), lambda q: None)
        assert iterations < 2000
        assert accelerator.switched_off
        # Here the guard costs at most one extrapolation cycle.
        assert iterations <= plain + 2

    def test_guard_stays_quiet_on_real_contraction(self):
        accelerator = AitkenAccelerator()
        iterations, _ = _iterate(_linear_map, accelerator.push)
        plain, _ = _iterate(_linear_map, lambda q: None)
        assert not accelerator.switched_off
        assert accelerator.applied > 0
        assert iterations < plain

    def test_switched_off_accelerator_stays_off(self):
        accelerator = AitkenAccelerator()
        _iterate(_oscillating_map(), accelerator.push)
        applied = accelerator.applied
        for k in range(10):
            assert accelerator.push(np.array([float(k), 0.0])) is None
        assert accelerator.applied == applied


class TestSolveExtras:
    def test_no_accelerator_records_residual_only(self):
        assert solve_extras(1e-9, None) == {"residual": 1e-9}

    def test_switched_off_recorded(self):
        accelerator = AitkenAccelerator()
        accelerator.switched_off = True
        assert solve_extras(1e-9, accelerator)[SWITCHED_OFF] == 1.0


class TestRow8WarmSolves:
    def test_heuristic_warm_converges_within_cold_sweeps(self):
        cold, warm = _row8_pair(solve_mva_heuristic)
        assert cold.iterations == 31
        assert warm.converged
        assert warm.iterations <= cold.iterations
        assert warm.extras.get(SWITCHED_OFF) == 1.0
        np.testing.assert_allclose(warm.throughputs, cold.throughputs, rtol=1e-7)

    def test_schweitzer_keeps_its_accelerated_sweeps(self):
        cold, warm = _row8_pair(solve_schweitzer)
        assert warm.converged
        assert warm.iterations == 25
        assert cold.iterations == 62
        assert SWITCHED_OFF not in warm.extras

    def test_asymptotic_warm_converges(self):
        cold, warm = _row8_pair(solve_asymptotic)
        assert warm.converged
        assert warm.iterations <= cold.iterations

    @pytest.mark.parametrize(
        "solve", [solve_mva_heuristic, solve_schweitzer, solve_asymptotic]
    )
    def test_cold_solves_carry_no_guard_record(self, solve):
        cold, _ = _row8_pair(solve)
        assert set(cold.extras) == {"residual"}

