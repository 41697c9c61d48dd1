"""Integer optimisers for window dimensioning (thesis §4.3).

* :func:`~repro.search.pattern.pattern_search` — Hooke–Jeeves, the WINDIM
  engine.
* :func:`~repro.search.exhaustive.exhaustive_search` — global baseline.
* :func:`~repro.search.coordinate.coordinate_descent` — simple baseline.
* :class:`~repro.search.cache.EvaluationCache` — memoisation (APL ``FLOC``).
* :class:`~repro.search.store.EvaluationStore` — persistent cross-run cache.
* :class:`~repro.search.space.IntegerBox` — integer search spaces.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "EvaluationCache": "repro.search.cache",
    "EvaluationStore": "repro.search.store",
    "IntegerBox": "repro.search.space",
    "SearchResult": "repro.search.result",
    "model_fingerprint": "repro.search.store",
    "pattern_search": "repro.search.pattern",
    "exhaustive_search": "repro.search.exhaustive",
    "coordinate_descent": "repro.search.coordinate",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
