"""Outside-in per-layer tracing for ``bench_e2e.py``.

:func:`install` replaces the public entry points of each WINDIM layer with
``functools.wraps`` wrappers that record a span per call: name, start,
end, parent span and campaign id.  Nothing inside ``src/`` changes; the
spans are timed around calls *into* each layer, so a layer's self time is
its span duration minus the time its child spans (of any layer) cover.
The benchmark opens one root ``campaign`` span per unit of work, so the
layers' self times plus the roots' own self time sum to the roots' total.

Three binding details decide whether a wrapper is actually reached:

* ``repro.core.windim`` names the *function* (``repro.core`` re-exports
  it), so the search wrapper is installed through
  ``sys.modules["repro.core.windim"]``, where ``windim()`` looks up
  ``pattern_search`` at call time.
* ``repro.mva.soa`` imports ``batched_increments`` lazily from
  ``repro.mva.heuristic``, so one patch there covers the serial solver
  and the SoA pack path.
* Forked pool workers inherit the wrappers; an at-fork hook turns the
  tracer off in every child, so worker-side layers stay untraced and the
  ``pool`` layer is measured from the parent side only.

Spans are kept in memory and written as JSON lines by :meth:`Tracer.dump`.
Wrappers are only ever entered from the benchmark's main thread (the
library starts no threads that call them), which the span stack relies on.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> (module, attribute path) of every public entry point wrapped.
ENTRY_POINTS: Dict[str, List[Tuple[str, str]]] = {
    "search": [("repro.core.windim", "pattern_search")],
    "evalplane": [
        ("repro.evalplane.plane", "EvaluationPlane.submit"),
        ("repro.evalplane.plane", "EvaluationPlane.submit_many"),
        ("repro.evalplane.plane", "EvaluationPlane.submit_networks"),
        ("repro.evalplane.serial", "SerialPlane.submit_many"),
        ("repro.evalplane.persistent", "PersistentPlane.submit_many"),
    ],
    "pool": [
        ("repro.parallel.pool", "PersistentEvalPool.submit"),
        ("repro.parallel.pool", "PersistentEvalPool.poll"),
        ("repro.parallel.pool", "PersistentEvalPool.map"),
    ],
    "objective": [
        ("repro.core.objective", "WindowObjective.__call__"),
        ("repro.core.objective", "WindowObjective.batch_solve"),
        ("repro.core.objective", "WindowObjective.batch_solve_networks"),
    ],
    "reuse": [
        ("repro.core.reuse", "ReuseEngine.nearest_seed"),
        ("repro.core.reuse", "ReuseEngine.record"),
    ],
    "solver": [("repro.mva.heuristic", "solve_mva_heuristic")],
    "soa": [
        ("repro.mva.soa", "solve_windows_batched"),
        ("repro.mva.soa", "solve_networks_batched"),
    ],
    "kernel": [("repro.mva.heuristic", "batched_increments")],
}

#: Every layer, in the order the per-layer report lists them.
LAYERS = tuple(ENTRY_POINTS)

#: Name of the benchmark-owned root span around one unit of work.
ROOT = "campaign"


class Tracer:
    """In-memory span recorder.

    A span is recorded when it closes, as the tuple ``(id, name, start_ns,
    end_ns, parent_id, campaign, self_ns)``; its self time comes from the
    time its children reported to its stack frame.  Closed spans are
    tuples of plain values, which the cyclic garbage collector stops
    scanning, so a few hundred thousand of them do not slow the run.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.campaign = -1
        self.spans: List[tuple] = []
        self._next_id = 0
        # The open-span stack as three parallel lists (ids, start times,
        # time covered by children), so opening a span allocates nothing.
        self._ids: List[int] = []
        self._starts: List[int] = []
        self._children: List[int] = []
        #: Counters the observers derive from arguments and results.
        self.counts: Counter = Counter()

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. the warm-up unit)."""
        self.__init__()

    def _open(self) -> None:
        self._ids.append(self._next_id)
        self._next_id += 1
        self._children.append(0)
        self._starts.append(perf_counter_ns())

    def _close(self, name: str) -> None:
        end = perf_counter_ns()
        start = self._starts.pop()
        child_ns = self._children.pop()
        span_id = self._ids.pop()
        duration = end - start
        self.spans.append((span_id, name, start, end,
                           self._ids[-1] if self._ids else -1,
                           self.campaign, duration - child_ns))
        if self._children:
            self._children[-1] += duration

    def campaign_span(self, campaign: int) -> "_RootSpan":
        """Context manager for the root span of one unit of work."""
        return _RootSpan(self, campaign)

    def totals(self) -> Tuple[Counter, Counter]:
        """``(calls, self_ns)`` keyed by layer and by ``layer:entry``."""
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for _id, name, _start, _end, _parent, _campaign, own in self.spans:
            layer = name.split(":", 1)[0]
            for key in (layer, name) if layer != name else (name,):
                calls[key] += 1
                self_ns[key] += own
        return calls, self_ns

    def root_ns(self) -> int:
        """Total duration of the root spans."""
        return sum(end - start for _id, name, start, end, *_ in self.spans
                   if name == ROOT)

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line, in start order."""
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, campaign, own in sorted(
                self.spans
            ):
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start,
                    "end_ns": end, "self_ns": own, "parent": parent,
                    "campaign": campaign,
                }) + "\n")


class _RootSpan:
    def __init__(self, tracer: Tracer, campaign: int) -> None:
        self.tracer = tracer
        self.campaign = campaign
        self.opened = False

    def __enter__(self) -> None:
        if self.tracer.enabled:
            self.tracer.campaign = self.campaign
            self.tracer._open()
            self.opened = True

    def __exit__(self, *_exc) -> None:
        if self.opened:
            self.tracer._close(ROOT)


def _observe_search(tracer: Tracer, _args, _kwargs, result) -> None:
    tracer.counts["search.lookups"] += result.lookups
    tracer.counts["search.fresh_evals"] += result.evaluations
    tracer.counts["search.moves"] += len(result.base_points) - 1


def _observe_solver(tracer: Tracer, _args, kwargs, solution) -> None:
    warm = kwargs.get("warm_start") is not None
    tracer.counts["solver.warm_calls" if warm else "solver.cold_calls"] += 1
    tracer.counts[
        "solver.warm_iters" if warm else "solver.cold_iters"
    ] += solution.iterations
    if not solution.converged:
        tracer.counts["solver.nonconverged"] += 1


def _observe_soa(tracer: Tracer, _args, _kwargs, solutions) -> None:
    tracer.counts["soa.networks"] += len(solutions)
    tracer.counts["solver.nonconverged"] += sum(
        1 for s in solutions if not s.converged
    )


def _observe_kernel(tracer: Tracer, args, kwargs, _sigma) -> None:
    # Cells x recursion steps, computed from the argument shapes: the
    # recursion advances every (row, station) cell once per population
    # step up to the largest population.
    scaled, populations = args[0], args[1]
    plan = args[3] if len(args) > 3 else kwargs.get("plan")
    steps = plan[3] if plan is not None else int(populations.max(initial=0))
    tracer.counts["kernel.cell_steps"] += scaled.size * steps


OBSERVERS: Dict[str, Callable] = {
    "search": _observe_search,
    "solver": _observe_solver,
    "soa": _observe_soa,
    "kernel": _observe_kernel,
}


def _wrap(tracer: Tracer, layer: str, path: str, original: Callable):
    name = f"{layer}:{path}"
    observe = OBSERVERS.get(layer)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return original(*args, **kwargs)
        tracer._open()
        try:
            result = original(*args, **kwargs)
        finally:
            tracer._close(name)
        if observe is not None:
            observe(tracer, args, kwargs, result)
        return result

    return wrapper


def _count(tracer: Tracer, key: str, original: Callable):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if tracer.enabled:
            tracer.counts[key] += 1
        return original(*args, **kwargs)

    return wrapper


#: The process's tracer once :func:`install` has run (wrapping twice would
#: record every call twice).
_installed: Optional[Tracer] = None


def install() -> Tracer:
    """Wrap every entry point in :data:`ENTRY_POINTS`; returns the tracer.

    Idempotent.  The tracer starts disabled; set ``tracer.enabled`` to
    record.
    """
    global _installed
    if _installed is not None:
        return _installed
    tracer = _installed = Tracer()
    for layer, points in ENTRY_POINTS.items():
        for module_name, path in points:
            importlib.import_module(module_name)
            owner = sys.modules[module_name]
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attribute] if parents else getattr(
                owner, attribute
            )
            setattr(owner, attribute, _wrap(tracer, layer, path, original))
    autobatch = importlib.import_module("repro.mva.autobatch")
    autobatch.record_declined = _count(
        tracer, "soa.declined", autobatch.record_declined
    )
    os.register_at_fork(after_in_child=lambda: setattr(tracer, "enabled", False))
    return tracer
