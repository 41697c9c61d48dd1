"""Memoised objective evaluation (the APL ``FLOC``/``FCT`` pair).

The thesis WINDIM program keeps every evaluated window vector and its
objective value in arrays (``XCMP``/``FXCMP``); before calling the costly
MVA routine ``FCT`` it scans them via ``FLOC`` ("the necessary computations
were done previously").  :class:`EvaluationCache` is the same idea with a
dictionary, plus bookkeeping of hit/miss counts used by the benchmarks to
report how much work memoisation saves the pattern search.

Cache keys are *only* the integer window vectors: every point the
objective solves is a window vector, and a cache belongs to one
objective, so nothing else (solver, kernel) can tell two values apart.
:func:`integral_key` is the one normalisation — a fractional coordinate
is rejected, never truncated.

All mutating and reading operations take an internal re-entrant lock, so
a cache shared by concurrent batch evaluations cannot be corrupted
(values, history, and counters stay mutually consistent).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["EvaluationCache", "integral_key"]

Point = Tuple[int, ...]


def integral_key(point: Point) -> Tuple[int, ...]:
    """Normalise a point to a tuple of ints, rejecting fractional values."""
    key = []
    for x in point:
        i = int(x)
        if i != x:
            raise ValueError(
                f"non-integral coordinate {x!r} in point {tuple(point)!r}; "
                "window vectors must be integer-valued"
            )
        key.append(i)
    return tuple(key)


@dataclass
class EvaluationCache:
    """Memoising wrapper around an objective function.

    Parameters
    ----------
    objective:
        Function mapping an integer point to the value being minimised.

    Attributes
    ----------
    hits / misses:
        Lookup statistics.
    history:
        Every *distinct* evaluated point, in evaluation order, with its
        value — useful for plotting search trajectories.
    """

    objective: Callable[[Point], float]
    values: Dict[Point, float] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    history: List[Tuple[Point, float]] = field(default_factory=list)
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def __call__(self, point: Point) -> float:
        """Evaluate ``point``, reusing a previous result when available.

        Coordinates must be integral (Python ints, numpy integer scalars,
        or integer-valued floats).  A fractional coordinate is rejected
        rather than silently truncated: truncation would cache the value
        of a *different* window vector under the requested key and
        corrupt every later lookup of the truncated point.
        """
        key = integral_key(point)
        with self._lock:
            if key in self.values:
                self.hits += 1
                return self.values[key]
            self.misses += 1
            value = float(self.objective(key))
            self.values[key] = value
            self.history.append((key, value))
            return value

    def prime(self, point: Point, value: float) -> bool:
        """Insert an externally computed value as a fresh evaluation.

        The merge half of batch evaluation: results computed elsewhere
        (e.g. on a process pool by ``WindowObjective.batch_solve``) enter
        the cache with full bookkeeping — counted as a miss and appended
        to ``history`` exactly as if :meth:`__call__` had computed them.
        Returns False (and changes nothing) when the point is already
        cached, so racing producers cannot double-count.
        """
        return self.prime_key(integral_key(point), value)

    def prime_key(self, key: Point, value: float) -> bool:
        """:meth:`prime` for a key already normalised by :func:`integral_key`.

        The evaluation plane normalises each window vector once, where
        it enters, and merges batch results through this.
        """
        with self._lock:
            if key in self.values:
                return False
            self.misses += 1
            self.values[key] = float(value)
            self.history.append((key, float(value)))
            return True

    def __contains__(self, point: Point) -> bool:
        """True when ``point`` is already cached (no counter updates)."""
        with self._lock:
            return integral_key(point) in self.values

    @property
    def evaluations(self) -> int:
        """Number of distinct objective evaluations performed."""
        return self.misses

    @property
    def lookups(self) -> int:
        """Total number of objective requests (cached or not)."""
        return self.hits + self.misses

    def best(self) -> Tuple[Optional[Point], float]:
        """The best point seen so far (``(None, inf)`` when empty)."""
        with self._lock:
            if not self.values:
                return None, float("inf")
            point = min(self.values, key=self.values.get)
            return point, self.values[point]

    def clear(self) -> None:
        """Forget all cached evaluations and statistics."""
        with self._lock:
            self.values.clear()
            self.history.clear()
            self.hits = 0
            self.misses = 0
