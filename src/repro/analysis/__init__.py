"""Sweeps, solver comparisons, buffer/permit dimensioning, tables."""

from repro._exports import lazy_exports

_EXPORTS = {
    "SweepPoint": "repro.analysis.sweeps",
    "optimal_window_sweep": "repro.analysis.sweeps",
    "power_curve": "repro.analysis.sweeps",
    "window_grid_power": "repro.analysis.sweeps",
    "SolverComparison": "repro.analysis.compare",
    "compare_solutions": "repro.analysis.compare",
    "compare_solvers": "repro.analysis.compare",
    "render_table": "repro.analysis.tables",
    "BufferRecommendation": "repro.analysis.buffers",
    "recommend_buffers": "repro.analysis.buffers",
    "IsarithmicResult": "repro.analysis.isarithmic",
    "dimension_isarithmic": "repro.analysis.isarithmic",
    "SensitivityPoint": "repro.analysis.sensitivity",
    "window_sensitivity": "repro.analysis.sensitivity",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
