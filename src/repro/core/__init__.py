"""The paper's primary contribution: power metric + WINDIM (Chapter 4).

* :func:`~repro.core.windim.windim` — the WINDIM window-dimensioning
  algorithm (top-level entry point).
* :func:`~repro.core.power.network_power` and friends — the power
  criterion ``P = lambda/T``.
* :class:`~repro.core.objective.WindowObjective` — windows → ``1/P``.
* :mod:`~repro.core.kleinrock` — the p-hop M/M/1 window model.
* :mod:`~repro.core.initializers` — initial window strategies.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "windim": "repro.core.windim",
    "windim_multistart": "repro.core.multistart",
    "constrained_windim": "repro.core.constraints",
    "StationCapacityConstraint": "repro.core.constraints",
    "WindimResult": "repro.core.windim",
    "network_power": "repro.core.power",
    "inverse_power": "repro.core.power",
    "power_report": "repro.core.power",
    "PowerReport": "repro.core.power",
    "WindowObjective": "repro.core.objective",
    "resolve_solver": "repro.solvers",
    "SOLVERS": "repro.solvers",
    "initial_windows": "repro.core.initializers",
    "INITIAL_WINDOW_STRATEGIES": "repro.core.initializers",
    "hop_count_windows": "repro.core.kleinrock",
    "optimal_window": "repro.core.kleinrock",
    "kleinrock_delay": "repro.core.kleinrock",
    "kleinrock_throughput": "repro.core.kleinrock",
    "kleinrock_power": "repro.core.kleinrock",
    "kleinrock_window_for_throughput": "repro.core.kleinrock",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())

# ``windim`` is also the name of a submodule, and importing that submodule
# sets this package's ``windim`` attribute to the module.  Binding the
# function here, once the submodule is loaded, keeps ``repro.core.windim``
# the function in any import order.
from repro.core.windim import windim  # noqa: E402
