"""What a fresh interpreter imports: only what runs, and nothing mid-run.

Package exports resolve on first use (:mod:`repro._exports`), so the
README quickstart loads the modules its campaign executes and no others.
Both gates count modules, so they hold on any host.
"""

import json
import os
import subprocess
import sys

import repro

#: ``repro.*`` modules the README quickstart campaign loads (72 when every
#: package ``__init__`` imported all of its submodules).
QUICKSTART_MODULES = 48

#: Modules the quickstart never runs, so it must never import them.
NOT_ON_QUICKSTART = (
    "repro.sim",
    "repro.verify",
    "repro.chaos.battery",
    "repro.parallel",
    "repro.analysis",
    "repro.exact.ctmc",
    "repro.exact.mva_exact",
    "repro.exact.convolution",
    "repro.exact.jackson",
    "repro.mva.linearizer",
    "repro.mva.schweitzer",
    "repro.mva.bounds",
    "repro.mva.reference",
    "repro.search.coordinate",
    "repro.search.exhaustive",
    "repro.netmodel.generator",
    "repro.netmodel.spec",
    "repro.netmodel.routes",
)

_QUICKSTART = """
import json, sys
from repro import windim, canadian_two_class
windim(canadian_two_class(18, 18))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
"""

_HOT_PATH = """
import json, sys
from repro import IntegerBox, canadian_four_class, canadian_two_class, windim
from repro.analysis import power_curve, window_grid_power

windim(canadian_two_class(18, 18))
before = set(sys.modules)
packed = windim(canadian_four_class(6.0, 6.0, 6.0, 12.0))
windim(canadian_two_class(12.5, 12.5), reuse=True)
window_grid_power(canadian_two_class(18, 18), IntegerBox((1, 1), (3, 3)))
power_curve(canadian_two_class, [(10.0, 10.0), (18.0, 18.0)], (4, 4))
print(json.dumps([packed.ahead_used > 0, sorted(set(sys.modules) - before)]))
"""


def run_fresh(script):
    """Run ``script`` in a fresh interpreter on this checkout; parse its
    last stdout line as JSON."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(child.stdout.strip().splitlines()[-1])


def test_quickstart_imports_only_what_it_runs():
    loaded = run_fresh(_QUICKSTART)
    assert len(loaded) <= QUICKSTART_MODULES, loaded
    assert sorted(set(NOT_ON_QUICKSTART) & set(loaded)) == []


def test_nothing_is_imported_after_the_first_campaign():
    """Once one campaign has run, packed, reused, grid and curve work
    compiles nothing more: import time stays out of the timed loop."""
    packed, added = run_fresh(_HOT_PATH)
    assert packed, "the four-class campaign used no cross pack"
    assert added == []
