"""Structured health records for resilient solves.

A :class:`SolveHealth` record tells the full story of one objective
evaluation under the escalation ladder: every solver/damping rung that was
tried, how it failed (or why it was skipped), and which rung finally
produced the accepted solution.  WINDIM runs evaluate the solver hundreds
of times, so these records are what turns "one point misbehaved somewhere"
into an actionable post-mortem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "AttemptOutcome",
    "DegradationEvent",
    "SolveAttempt",
    "SolveHealth",
    "PoolEvent",
    "PoolHealth",
]


class AttemptOutcome:
    """String constants classifying how one ladder rung ended."""

    OK = "ok"
    NON_CONVERGED = "non-converged"
    NAN_OUTPUT = "nan-output"
    ERROR = "error"
    SKIPPED = "skipped"


@dataclass(frozen=True)
class SolveAttempt:
    """One rung of the ladder, tried (or skipped) for one network.

    Attributes
    ----------
    solver:
        Backend name (``"mva-heuristic"``, ``"schweitzer"``, ...).
    damping:
        Damping factor the rung used (1.0 for undamped / non-iterative).
    outcome:
        One of the :class:`AttemptOutcome` constants.
    detail:
        Error message or skip reason; empty on success.
    iterations:
        Iteration count reported by the solver (0 when unavailable).
    duration:
        Wall-clock seconds spent in the rung.
    """

    solver: str
    damping: float
    outcome: str
    detail: str = ""
    iterations: int = 0
    duration: float = 0.0

    @property
    def succeeded(self) -> bool:
        """True when this rung produced the accepted solution."""
        return self.outcome == AttemptOutcome.OK

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation."""
        return {
            "solver": self.solver,
            "damping": self.damping,
            "outcome": self.outcome,
            "detail": self.detail,
            "iterations": self.iterations,
            "duration": self.duration,
        }


@dataclass
class SolveHealth:
    """Everything that happened while resiliently solving one network.

    Attributes
    ----------
    windows:
        The chain populations (window vector) of the solved network.
    attempts:
        Every rung tried or skipped, in ladder order.
    """

    windows: Tuple[int, ...]
    attempts: List[SolveAttempt] = field(default_factory=list)

    def record(self, attempt: SolveAttempt) -> None:
        """Append one rung's outcome."""
        self.attempts.append(attempt)

    @property
    def succeeded(self) -> bool:
        """True when some rung produced an accepted solution."""
        return any(a.succeeded for a in self.attempts)

    @property
    def final_solver(self) -> Optional[str]:
        """Name of the rung that succeeded (None when all failed)."""
        for attempt in self.attempts:
            if attempt.succeeded:
                return attempt.solver
        return None

    @property
    def retries(self) -> int:
        """Rungs actually *tried* before the accepted one (skips excluded).

        Zero means the first attempt succeeded; for a fully failed solve
        this counts every tried rung.
        """
        tried = 0
        for attempt in self.attempts:
            if attempt.outcome == AttemptOutcome.SKIPPED:
                continue
            if attempt.succeeded:
                return tried
            tried += 1
        return tried

    @property
    def escalated(self) -> bool:
        """True when the accepted solution came from a non-primary backend.

        The primary backend is the solver of the first attempt; any success
        under a different name means the ladder had to switch algorithms
        (not merely re-damp the same one).
        """
        if not self.attempts:
            return False
        primary = self.attempts[0].solver
        final = self.final_solver
        return final is not None and final != primary

    @property
    def total_duration(self) -> float:
        """Wall-clock seconds across all rungs."""
        return math.fsum(a.duration for a in self.attempts)

    def summary(self) -> str:
        """One line per rung, post-mortem style."""
        lines = [f"solve health for windows {list(self.windows)}:"]
        for attempt in self.attempts:
            line = (
                f"  {attempt.solver} (damping {attempt.damping:g}): "
                f"{attempt.outcome}"
            )
            if attempt.detail:
                line += f" — {attempt.detail}"
            lines.append(line)
        if not self.succeeded:
            lines.append("  => every rung failed")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (used by reports)."""
        return {
            "windows": list(self.windows),
            "succeeded": self.succeeded,
            "final_solver": self.final_solver,
            "retries": self.retries,
            "escalated": self.escalated,
            "attempts": [a.to_dict() for a in self.attempts],
        }


@dataclass(frozen=True)
class PoolEvent:
    """One lifecycle event of the persistent evaluation pool.

    Attributes
    ----------
    kind:
        ``"spawn"``, ``"death"``, ``"respawn"``, ``"requeue"``,
        ``"drop"`` (a task requeued too many times, completed as failed)
        or ``"hung"`` (the watchdog killed a worker that exceeded its
        per-task deadline).
    worker:
        Index of the worker slot the event concerns.
    pid:
        Process id involved (the dead pid for ``"death"``, the new one
        for ``"respawn"``; 0 when not applicable).
    detail:
        Free-form context (exit code, task key, ...).
    """

    kind: str
    worker: int
    pid: int = 0
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "worker": self.worker,
            "pid": self.pid,
            "detail": self.detail,
        }


@dataclass
class PoolHealth:
    """Aggregate state of one persistent evaluation pool.

    The pool-side counterpart of :class:`SolveHealth`: where a ladder
    record tells the story of one evaluation, this tells the story of
    the worker fleet that evaluated everything — how many processes were
    spawned, which died and were replaced, how many in-flight tasks had
    to be requeued, and how small the per-task payloads stayed.
    """

    workers: int
    start_method: str
    worker_pids: List[int] = field(default_factory=list)
    events: List[PoolEvent] = field(default_factory=list)
    tasks_completed: int = 0
    tasks_requeued: int = 0
    tasks_dropped: int = 0
    respawns: int = 0
    hung: int = 0
    payload_bytes_total: int = 0

    def record(self, event: PoolEvent) -> None:
        """Append one lifecycle event (and bump its aggregate counter)."""
        self.events.append(event)
        if event.kind == "respawn":
            self.respawns += 1
        elif event.kind == "requeue":
            self.tasks_requeued += 1
        elif event.kind == "drop":
            self.tasks_dropped += 1
        elif event.kind == "hung":
            self.hung += 1

    @property
    def payload_bytes_per_task(self) -> float:
        """Mean pickled micro-task size shipped to workers (bytes)."""
        if self.tasks_completed <= 0:
            return 0.0
        return self.payload_bytes_total / self.tasks_completed

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (benchmarks, summaries)."""
        return {
            "workers": self.workers,
            "start_method": self.start_method,
            "worker_pids": list(self.worker_pids),
            "tasks_completed": self.tasks_completed,
            "tasks_requeued": self.tasks_requeued,
            "tasks_dropped": self.tasks_dropped,
            "respawns": self.respawns,
            "hung": self.hung,
            "payload_bytes_total": self.payload_bytes_total,
            "payload_bytes_per_task": self.payload_bytes_per_task,
            "events": [e.to_dict() for e in self.events],
        }

    def summary(self) -> str:
        """One line for result summaries."""
        line = (
            f"{self.workers} workers ({self.start_method}), "
            f"{self.tasks_completed} tasks, {self.respawns} respawns, "
            f"{self.payload_bytes_per_task:.0f} B/task"
        )
        if self.hung:
            line += f", {self.hung} hung"
        return line


@dataclass(frozen=True)
class DegradationEvent:
    """One rung taken on the plane degradation ladder.

    Recorded when the persistent evaluation plane abandons a broken
    worker pool mid-search (persistent → serial) while preserving the
    bitwise search trajectory through the shared evaluation cache.

    Attributes
    ----------
    from_mode / to_mode:
        The execution modes before and after the rung
        (``"persistent"``, ``"serial"``).
    reason:
        Why the plane degraded (the pool failure message, the failure
        budget summary, ...).
    evaluations:
        Cache evaluation count at the moment of degradation, locating
        the rung on the search trajectory.
    """

    from_mode: str
    to_mode: str
    reason: str
    evaluations: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "from_mode": self.from_mode,
            "to_mode": self.to_mode,
            "reason": self.reason,
            "evaluations": self.evaluations,
        }
