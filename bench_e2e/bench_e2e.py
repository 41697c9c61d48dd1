"""End-to-end WINDIM benchmark: five workloads, answer-checked metrics and
an outside-in per-layer trace.

Run from the repository root; the package is imported from ``src/`` and
nothing is built::

    python3 bench_e2e/bench_e2e.py --workload thesis --seed 1 --seconds 10 --trace 0

A run builds its inputs from ``--seed``, runs one warm-up unit, then runs
whole passes over the workload's fixed list of units (a unit is one
``windim`` campaign, grid probe or power curve) until ``--seconds`` have
elapsed, checks every answer, and prints a readable table followed by one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (``setup_s`` is the
median of five fresh interpreters doing imports, input construction and
the warm-up unit); with ``--trace 1`` the layer wrappers of
``_layers.py`` are installed and the metrics are the per-layer ones, the
spans going to ``.bench_e2e/trace-<workload>.jsonl`` (overwritten by the
next traced run of that workload).

The seed shuffles the order of the units in every pass and, on
``scale_medium``, redraws the class arrival rates of the 120-chain
fixture within 5% of their canonical values; the default seed
(``SCALE_FIXTURE_SEED``) is the canonical fixture.  ``--fixture-seed N``
instead draws whole new ``scale_fixture`` networks for both scale
workloads.  A unit without a recorded golden (a redrawn network) gets
one from a serial, cold, reuse-free run before the measurement.
Goldens are re-recorded only with ``--record-goldens``.  See README.md
for the workloads, the metrics and the reasons for both.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import _layers  # noqa: E402
from repro.analysis.sweeps import power_curve, window_grid_power  # noqa: E402
from repro.core.power import network_power  # noqa: E402
from repro.core.windim import windim  # noqa: E402
from repro.errors import ConvergenceWarning  # noqa: E402
from repro.mva.heuristic import solve_mva_heuristic  # noqa: E402
from repro.netmodel.examples import (  # noqa: E402
    canadian_four_class,
    canadian_two_class,
)
from repro.netmodel.builder import build_closed_network  # noqa: E402
from repro.netmodel.generator import (  # noqa: E402
    SCALE_FIXTURE_SEED,
    SCALE_PRESETS,
    random_mesh_topology,
    random_traffic_classes,
    scale_fixture,
)
from repro.queueing.network import ClosedNetwork  # noqa: E402
from repro.search.space import IntegerBox  # noqa: E402

#: Scratch space inside the checkout: per-run kernel caches (removed at
#: the end of the run) and trace files (kept).
WORK = ROOT / ".bench_e2e"
GOLDENS = HERE / "goldens.json"

#: Relative tolerance of every answer check (the repo's parity band).
ANSWER_RTOL = 1e-8

#: Fresh interpreters timed for ``setup_s``.
SETUP_RUNS = 5
#: Longest one of them may run before it is killed.
SETUP_TIMEOUT_S = 20.0

#: Least share of the traced loop the root spans must cover.
MIN_COVERAGE = 0.95

# Thesis experiment grids (Tables 4.7, 4.8, 4.12 and Fig. 4.9).
TABLE_4_7 = [12.5, 15.5, 18.0, 20.0, 22.5, 25.0, 37.5, 50.0, 62.5, 75.0]
TABLE_4_8 = [
    (12.0, 13.0), (10.0, 15.0), (8.4, 16.6), (7.0, 18.0), (5.0, 20.0),
    (18.0, 18.0), (15.0, 21.0), (12.0, 24.0), (9.0, 27.0),
]
TABLE_4_12 = [
    (6.0, 6.0, 6.0, 12.0), (9.957, 4.419, 7.656, 7.968),
    (17.61, 3.56, 3.0, 5.83), (12.5, 12.5, 12.5, 25.0),
    (21.24, 9.86, 18.85, 12.55), (33.59, 1.70, 24.15, 3.06),
    (20.0, 20.0, 20.0, 40.0), (28.18, 38.02, 2.87, 30.93),
]
FIG_4_9_RATES = [2.5, 5.0, 7.5, 10.0, 12.5, 15.0, 20.0, 25.0, 30.0, 40.0,
                 50.0, 65.0, 80.0]
FIG_4_9_WINDOWS = [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (7, 7), (10, 10)]

#: Answers that fail the check at the commit the goldens were recorded
#: (README.md, "Known defects"), by workload and unit label.  They count in
#: ``failed`` and lower ``checked_share``; any other failing answer makes
#: the run incorrect.
KNOWN_DEFECTS = {
    "thesis_reuse": {
        "4.12:20,20,20,40",  # warm-started power 3.1e-8 off a cold solve
        "4.12:28.18,38.02,2.87,30.93",  # non-converged, wrong optimum
    },
}

#: Window box of the grid probes ([1, 6]^4 keeps one pass near a second).
GRID_MAX_WINDOW = 6
#: Pattern-search box and stride on the scale fixtures.
SCALE_SEARCH = {"max_window": 8, "initial_step": 1}
#: Fresh-evaluation cap of one ``scale_medium`` campaign (a full run takes
#: 2102 evaluations, minutes of work).
MEDIUM_CAP = 20
#: Half-width of the relative rate change ``--seed`` makes on
#: ``scale_medium`` (wider changes move the cost of a run by up to 17%).
RATE_JITTER = 0.05
POOL = {"workers": 2, "pool_mode": "persistent"}

#: Layers each workload must reach; the traced run fails without them.
EXPECTED_LAYERS = {
    "thesis": ("search", "evalplane", "objective", "solver", "kernel"),
    "thesis_reuse": ("search", "evalplane", "objective", "reuse", "solver",
                     "kernel"),
    "scale_medium": ("search", "evalplane", "objective", "solver", "kernel"),
    "grid_sweep": ("evalplane", "objective", "soa", "kernel"),
    "scale_small_pool": ("search", "evalplane", "pool"),
}


def _label(values) -> str:
    return ",".join(f"{v:g}" for v in values)


@dataclass
class Unit:
    """One timed piece of work with a golden answer."""

    label: str
    kind: str  # "campaign" | "grid" | "curve"
    network: Optional[ClosedNetwork] = None
    kwargs: Dict = field(default_factory=dict)
    factory: Optional[Callable] = None

    def run(self):
        if self.kind == "campaign":
            return windim(self.network, **self.kwargs)
        if self.kind == "grid":
            box = IntegerBox.windows(self.network.num_chains, GRID_MAX_WINDOW)
            return window_grid_power(self.network, box)
        rates = [(s, s) for s in FIG_4_9_RATES]
        return power_curve(self.factory, rates, self.kwargs["windows"])

    def summarize(self, raw) -> Dict:
        """The checkable answer of one run, small enough to keep."""
        if self.kind == "campaign":
            return {"windows": list(raw.windows), "power": raw.power,
                    "converged": raw.converged,
                    "evals": raw.search.evaluations}
        if self.kind == "grid":
            best = max(raw, key=raw.__getitem__)
            return {"windows": list(best), "power": raw[best],
                    "checksum": math.fsum(raw.values()), "evals": len(raw)}
        return {"checksum": math.fsum(p for _rates, p in raw),
                "evals": len(raw)}


def scale_network(preset: str, seed: int, fixture_seed: Optional[int],
                  jitter: bool) -> Tuple[str, ClosedNetwork]:
    """A scale fixture and the label naming it.

    ``fixture_seed`` draws a whole new fixture.  Otherwise, with
    ``jitter`` and a seed other than ``SCALE_FIXTURE_SEED``, the canonical
    topology and routes are kept and every class's arrival rate is scaled
    by a factor drawn from ``seed`` in ``1 +- RATE_JITTER``.
    """
    if fixture_seed is not None:
        return (f"{preset}:fixture{fixture_seed}",
                scale_fixture(preset, seed=fixture_seed))
    if not jitter or seed == SCALE_FIXTURE_SEED:
        return preset, scale_fixture(preset)
    # The draws of ``random_network`` at the canonical seed, then the rates.
    sizes = SCALE_PRESETS[preset]
    rng = np.random.default_rng(SCALE_FIXTURE_SEED)
    topology = random_mesh_topology(sizes["num_nodes"], sizes["extra_edges"],
                                    seed=rng)
    classes = random_traffic_classes(topology, sizes["num_classes"], seed=rng)
    factors = np.random.default_rng(seed).uniform(
        1.0 - RATE_JITTER, 1.0 + RATE_JITTER, len(classes))
    classes = [c.with_rate(c.arrival_rate * float(f))
               for c, f in zip(classes, factors)]
    return f"{preset}:rates{seed}", build_closed_network(topology, classes)


def build_units(workload: str, seed: int,
                fixture_seed: Optional[int] = None) -> List[Unit]:
    """The workload's fixed list of units."""

    def thesis(reuse: bool) -> List[Unit]:
        kwargs = {"reuse": True} if reuse else {}
        rows = ([("4.7", (s, s)) for s in TABLE_4_7]
                + [("4.8", r) for r in TABLE_4_8]
                + [("4.12", r) for r in TABLE_4_12])
        factory = {2: canadian_two_class, 4: canadian_four_class}
        return [Unit(f"{table}:{_label(r)}", "campaign",
                     factory[len(r)](*r), kwargs)
                for table, r in rows]

    if workload == "thesis":
        return thesis(reuse=False)
    if workload == "thesis_reuse":
        return thesis(reuse=True)
    if workload == "scale_medium":
        label, network = scale_network("medium", seed, fixture_seed,
                                       jitter=True)
        return [Unit(f"{label}:cap{MEDIUM_CAP}", "campaign", network,
                     dict(SCALE_SEARCH, max_evaluations=MEDIUM_CAP))]
    if workload == "grid_sweep":
        return ([Unit(f"grid:{_label(r)}", "grid", canadian_four_class(*r))
                 for r in TABLE_4_12]
                + [Unit(f"curve:{_label(windows)}", "curve",
                        kwargs={"windows": windows},
                        factory=canadian_two_class)
                   for windows in FIG_4_9_WINDOWS])
    if workload == "scale_small_pool":
        # ``--seed`` leaves this fixture alone: a rate change of 0.2%
        # already switches the campaign between 223 and 292 evaluations.
        label, network = scale_network("small", seed, fixture_seed,
                                       jitter=False)
        return [Unit(label, "campaign", network, dict(SCALE_SEARCH, **POOL))]
    raise SystemExit(f"unknown workload {workload!r}; "
                     f"expected one of {sorted(EXPECTED_LAYERS)}")


def serial_golden(unit: Unit) -> Dict:
    """The unit's answer from a serial, cold, reuse-free run."""
    serial = Unit(unit.label, unit.kind, unit.network,
                  {k: v for k, v in unit.kwargs.items()
                   if k not in POOL and k != "reuse"},
                  unit.factory)
    answer = serial.summarize(serial.run())
    answer.pop("converged", None)
    return answer


def warmup(workload: str, units: List[Unit]) -> None:
    """One small unit on the workload's code path, excluded from metrics.

    It pays the lazy set-up a first call would otherwise carry into the
    measurement: the SoA crossover probe, the kernel-cache directory, the
    first pool fork.
    """
    first = units[0]
    if workload == "grid_sweep":
        window_grid_power(first.network,
                          IntegerBox.windows(first.network.num_chains, 2))
        return
    kwargs = dict(first.kwargs)
    if workload in ("scale_medium", "scale_small_pool"):
        kwargs["max_evaluations"] = 8
    windim(first.network, **kwargs)


@dataclass
class Measurement:
    pass_s: List[float]
    unit_s: List[float]
    outcomes: List[Tuple[Unit, Dict]]
    loop_s: float
    convergence_warnings: int
    peak_rss_mb: float

    @property
    def fresh_evals(self) -> int:
        """Every solve the units paid for, pool speculation included."""
        return sum(answer["evals"] for _unit, answer in self.outcomes)


def measure(units: List[Unit], seconds: float, rng: np.random.Generator,
            tracer: Optional[_layers.Tracer]) -> Measurement:
    """Whole passes over ``units`` (seed-shuffled) until ``seconds`` pass."""
    pass_s: List[float] = []
    unit_s: List[float] = []
    outcomes = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        while not pass_s or time.perf_counter() - start < seconds:
            this_pass = 0.0
            for index in rng.permutation(len(units)):
                unit = units[index]
                t0 = time.perf_counter()
                with (tracer.campaign_span(len(unit_s)) if tracer is not None
                      else contextlib.nullcontext()):
                    raw = unit.run()
                elapsed = time.perf_counter() - t0
                this_pass += elapsed
                unit_s.append(elapsed)
                outcomes.append((unit, unit.summarize(raw)))
            pass_s.append(this_pass)
        loop_s = time.perf_counter() - start
    warned = sum(issubclass(w.category, ConvergenceWarning) for w in caught)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Measurement(pass_s, unit_s, outcomes, loop_s, warned, rss_mb)


def _agree(a: float, b: float) -> bool:
    return abs(a - b) <= ANSWER_RTOL * max(abs(a), abs(b))


def check(unit: Unit, answer: Dict, golden: Dict, cold: Dict) -> Optional[str]:
    """Why ``answer`` is wrong, or None when it checks.

    ``cold`` memoises cold re-solves by (label, windows).
    """
    if unit.kind == "curve":
        if not _agree(answer["checksum"], golden["checksum"]):
            return (f"curve checksum {answer['checksum']!r} != golden "
                    f"{golden['checksum']!r}")
        return None
    if unit.kind == "campaign" and not answer["converged"]:
        return f"optimum {answer['windows']} is not converged"
    if unit.kind == "grid" and not _agree(answer["checksum"],
                                          golden["checksum"]):
        return (f"grid checksum {answer['checksum']!r} != golden "
                f"{golden['checksum']!r}")
    key = (unit.label, tuple(answer["windows"]))
    if key not in cold:
        solution = solve_mva_heuristic(
            unit.network.with_populations(answer["windows"]))
        cold[key] = network_power(solution) if solution.converged else None
    if cold[key] is None or not _agree(cold[key], answer["power"]):
        return (f"power {answer['power']!r} at {answer['windows']} but a "
                f"cold solve gives {cold[key]!r}")
    if answer["power"] < golden["power"] * (1.0 - ANSWER_RTOL):
        return (f"power {answer['power']!r} below golden "
                f"{golden['power']!r}")
    return None


def p90(timings: List[float]) -> float:
    """90th percentile, interpolated between samples, never past the largest."""
    if len(timings) == 1:
        return timings[0]
    return statistics.quantiles(timings, n=10, method="inclusive")[8]


def end_to_end(measurement: Measurement, reference: float, failed: int,
               setup_s: Optional[float]) -> Dict[str, Tuple[float, str]]:
    wall = statistics.median(measurement.pass_s)
    timings = measurement.unit_s
    metrics = {} if setup_s is None else {"setup_s": (setup_s, "s")}
    return {
        **metrics,
        "wall_s": (wall, "s"),
        "evals_per_s": (reference / wall, "1/s"),
        "campaign_p50_s": (statistics.median(timings), "s"),
        "campaign_p90_s": (p90(timings), "s"),
        "peak_rss_mb": (measurement.peak_rss_mb, "MB"),
        "checked_share": (1.0 - failed / len(measurement.outcomes), "share"),
        "converged_share": (1.0 - measurement.convergence_warnings
                            / measurement.fresh_evals, "share"),
    }


def per_layer(tracer: _layers.Tracer, measurement: Measurement,
              reference: float, serial_s: Optional[float]
              ) -> Dict[str, Tuple[float, str]]:
    """Per-pass counts and shares of campaign time, one entry per layer."""
    passes = len(measurement.pass_s)
    calls, self_ns = tracer.totals()
    counts = tracer.counts
    root_ns = tracer.root_ns()
    root = max(root_ns, 1)

    def per_pass(value):
        return (value / passes, "count")

    def share(key):
        return (self_ns[key] / root, "share")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    lookups = counts["search.lookups"]
    fresh = measurement.fresh_evals
    warm, cold = counts["solver.warm_calls"], counts["solver.cold_calls"]
    pool_s = statistics.median(measurement.unit_s)
    return {
        "search.self_share": share("search"),
        "search.lookups": per_pass(lookups),
        "search.fresh_evals": per_pass(counts["search.fresh_evals"]),
        "search.hit_ratio": ratio(lookups - counts["search.fresh_evals"],
                                  lookups),
        "search.moves": per_pass(counts["search.moves"]),
        "evalplane.submits": per_pass(calls["evalplane"]),
        "evalplane.self_share": share("evalplane"),
        "evalplane.useful_ratio": ratio(reference * passes, fresh),
        "pool.tasks": per_pass(calls["pool:PersistentEvalPool.submit"]),
        "pool.self_share": share("pool"),
        "pool.poll_wait_share": share("pool:PersistentEvalPool.poll"),
        "pool.speedup_vs_serial": ratio(serial_s or 0.0, pool_s),
        "objective.calls": per_pass(calls["objective"]),
        "objective.self_share": share("objective"),
        "reuse.lookups": per_pass(calls["reuse:ReuseEngine.nearest_seed"]),
        "reuse.self_share": share("reuse"),
        "solver.calls": per_pass(calls["solver"]),
        "solver.self_share": share("solver"),
        "solver.cold_iters_per_call": ratio(counts["solver.cold_iters"],
                                            cold),
        "solver.warm_iters_per_call": ratio(counts["solver.warm_iters"],
                                            warm),
        "solver.warm_share": ratio(warm, warm + cold),
        "solver.nonconverged": per_pass(counts["solver.nonconverged"]),
        "soa.calls": per_pass(calls["soa"]),
        "soa.networks": per_pass(counts["soa.networks"]),
        "soa.self_share": share("soa"),
        "soa.declined": per_pass(counts["soa.declined"]),
        "kernel.calls": per_pass(calls["kernel"]),
        "kernel.self_share": share("kernel"),
        "kernel.ns_per_cell_step": (
            self_ns["kernel"] / counts["kernel.cell_steps"]
            if counts["kernel.cell_steps"] else 0.0, "ns/cell"),
        "campaign.self_share": share(_layers.ROOT),
        "trace.coverage": (root_ns / (measurement.loop_s * 1e9), "share"),
    }


def trace_problems(workload: str, tracer: _layers.Tracer,
                   coverage: float) -> List[str]:
    """Self-checks of a traced run: reached layers, coverage, accounting."""
    calls, self_ns = tracer.totals()
    problems = [f"layer {layer!r} recorded no calls"
                for layer in EXPECTED_LAYERS[workload] if not calls[layer]]
    attributed = sum(self_ns[k] for k in _layers.LAYERS + (_layers.ROOT,))
    root_ns = tracer.root_ns()
    if attributed != root_ns:
        problems.append(f"layer self times sum to {attributed} ns, "
                        f"root spans to {root_ns} ns")
    if coverage < MIN_COVERAGE:
        problems.append(f"root spans cover {coverage:.1%} of the traced "
                        f"loop, under {MIN_COVERAGE:.0%}")
    return problems


def setup_seconds(workload: str, seed: int,
                  fixture_seed: Optional[int]) -> float:
    """Median wall time of fresh interpreters doing the run's set-up.

    The interpreters share the run's kernel cache, as successive
    invocations on one machine do: the first pays the one-off SoA
    crossover probe, the others load its result.  The probe's own length
    depends on timing, so the median is the steady per-invocation cost.

    The wait blocks in ``waitpid``: ``subprocess.run(timeout=...)`` polls
    instead, in sleeps of up to 50 ms that would round every time up to
    the next poll.  A timer kills a child that runs past
    ``SETUP_TIMEOUT_S``.
    """
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, __file__, "--setup-probe",
             "--workload", workload, "--seed", str(seed)]
            + ([] if fixture_seed is None
               else ["--fixture-seed", str(fixture_seed)]))
        timer = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        timer.start()
        try:
            code = child.wait()
        finally:
            timer.cancel()
            timer.join()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, child.args)
    return statistics.median(times)


@contextlib.contextmanager
def kernel_cache():
    """A fresh kernel-cache directory inside the checkout for this process.

    The SoA crossover probe and kernel manifest otherwise persist under
    the home directory; a fresh one per run keeps runs independent and
    every write inside the checkout.
    """
    WORK.mkdir(exist_ok=True)
    previous = os.environ.get("REPRO_KERNEL_CACHE")
    with tempfile.TemporaryDirectory(dir=WORK) as cache:
        os.environ["REPRO_KERNEL_CACHE"] = cache
        try:
            yield
        finally:
            if previous is None:
                del os.environ["REPRO_KERNEL_CACHE"]
            else:
                os.environ["REPRO_KERNEL_CACHE"] = previous


def run(workload: str, seed: int, seconds: float, trace: bool,
        fixture_seed: Optional[int] = None, setup_runs: bool = True) -> Dict:
    """One benchmark run; returns the result object printed last."""
    with kernel_cache():
        return _run(workload, seed, seconds, trace, fixture_seed, setup_runs)


def _run(workload: str, seed: int, seconds: float, trace: bool,
         fixture_seed: Optional[int], setup_runs: bool) -> Dict:
    goldens = json.loads(GOLDENS.read_text())
    setup_s = (setup_seconds(workload, seed, fixture_seed)
               if setup_runs and not trace else None)
    units = build_units(workload, seed, fixture_seed)
    warmup(workload, units)
    for unit in units:
        if unit.label not in goldens:
            goldens[unit.label] = serial_golden(unit)
            print(f"{workload:>16}  golden for {unit.label} computed "
                  "in this run")
    tracer = _layers.install() if trace else None
    if tracer is not None:
        tracer.reset()
        tracer.enabled = True
    try:
        measurement = measure(units, seconds, np.random.default_rng(seed),
                              tracer)
    finally:
        if tracer is not None:
            tracer.enabled = False
    reference = sum(goldens[u.label]["evals"] for u in units)

    cold: Dict = {}
    failures = []
    for unit, answer in measurement.outcomes:
        reason = check(unit, answer, goldens[unit.label], cold)
        if reason is not None:
            failures.append((unit.label, reason))
    known = KNOWN_DEFECTS.get(workload, {})
    problems = [f"{label}: {reason}" for label, reason in failures
                if label not in known]
    if tracer is None:
        metrics = end_to_end(measurement, reference, len(failures), setup_s)
    else:
        serial_s = None
        if workload == "scale_small_pool":
            # The same campaign in-process, for the pool's speedup.
            unit = units[0]
            serial = {k: v for k, v in unit.kwargs.items() if k not in POOL}
            t0 = time.perf_counter()
            windim(unit.network, **serial)
            serial_s = time.perf_counter() - t0
        metrics = per_layer(tracer, measurement, reference, serial_s)
        problems += trace_problems(workload, tracer,
                                   metrics["trace.coverage"][0])
        tracer.dump(str(WORK / f"trace-{workload}.jsonl"))

    for name, (value, unit_name) in metrics.items():
        print(f"{workload:>16}  {name:<28} {value:>14.6g} {unit_name}")
    timings = measurement.unit_s
    above = sum(t > p90(timings) for t in timings)
    print(f"{workload:>16}  {len(measurement.pass_s)} passes, "
          f"{len(timings)} unit samples ({above} above p90), "
          f"{measurement.fresh_evals} fresh evaluations, "
          f"{measurement.convergence_warnings} ConvergenceWarnings in the "
          "parent (pool-worker warnings do not reach it)")
    for label, reason in sorted(set(failures)):
        if label in known:
            print(f"{workload:>16}  KNOWN DEFECT {label}: {reason} "
                  f"({sum(f[0] == label for f in failures)}x)")
    for line in problems:
        print(f"{workload:>16}  FAILED {line}")
    return {
        "correct": not problems,
        "attempted": len(measurement.outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_name}
                    for name, (value, unit_name) in metrics.items()},
    }


def record_goldens() -> None:
    """Re-record ``goldens.json`` from serial, cold, reuse-free runs of the
    canonical inputs."""
    goldens: Dict[str, Dict] = {}
    for workload in EXPECTED_LAYERS:
        for unit in build_units(workload, SCALE_FIXTURE_SEED):
            if unit.label not in goldens:
                goldens[unit.label] = serial_golden(unit)
    lines = [f" {json.dumps(label)}: {json.dumps(goldens[label], sort_keys=True)}"
             for label in sorted(goldens)]
    GOLDENS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(goldens)} goldens to {GOLDENS}")


def _isolate_environment() -> None:
    """Drop ``REPRO_*`` overrides so every run takes the default paths."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def stop_child_processes() -> None:
    """End and reap every process this one started.

    Pool workers are closed by the library; any still alive here are
    stopped.  Creating shared memory (the persistent pool's model arena)
    also starts multiprocessing's resource tracker, a process that by
    design outlives the interpreter; stopping it here and waiting for it
    means a run leaves no process behind.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_child_processes()


def _main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(EXPECTED_LAYERS))
    parser.add_argument("--seed", type=int, default=SCALE_FIXTURE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixture-seed", type=int, default=None,
                        help="draw new scale_fixture networks from this "
                             "seed (answers checked without goldens)")
    parser.add_argument("--record-goldens", action="store_true",
                        help="re-record goldens.json and exit")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        # Child of setup_seconds(): imports are done; build and warm up.
        warmup(args.workload, build_units(args.workload, args.seed,
                                          args.fixture_seed))
        return 0
    _isolate_environment()
    if args.record_goldens:
        with kernel_cache():
            record_goldens()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.fixture_seed)
    print(json.dumps(result))
    return 0


def test_e2e_quick():
    """One pass of every workload, untraced and traced: every answer
    checks or is a known defect."""
    for workload in EXPECTED_LAYERS:
        for trace in (False, True):
            result = run(workload, seed=1, seconds=0, trace=trace,
                         setup_runs=False)
            assert result["correct"], (workload, trace, result)


if __name__ == "__main__":
    sys.exit(main())
