"""Fault-plan DSL: declarative, seeded, replayable failure scenarios.

A :class:`FaultPlan` names a set of :class:`FaultRule` triggers — *which*
instrumented site misbehaves, on *which* occurrence, *how* — plus the
runtime configuration (pool mode, workers, store usage) the
scenario should run under.  Plans serialise to JSON so they cross the
``multiprocessing`` spawn boundary through an environment variable and so
the chaos battery is a table of data, not a pile of monkeypatches.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.errors import ModelError, SearchError

__all__ = [
    "ACTIONS",
    "FaultPlan",
    "FaultRule",
    "SITES",
    "seeded_occurrence",
]

#: Instrumented hook points threaded through the runtime.
SITES = (
    "pool.worker.task",  # persistent pool worker, before solving a task
    "store.record",  # evaluation-store append of one record line
    "store.load",  # evaluation-store read of the on-disk lines
    "clock",  # monotonic clock consulted by SearchBudget
)

#: What a rule may do when it fires.
ACTIONS = ("crash", "hang", "delay", "error", "corrupt", "skew")

#: Which actions make sense at which site — validated at construction so a
#: typo in a plan fails loudly instead of silently never firing.
_SITE_ACTIONS = {
    "pool.worker.task": ("crash", "hang", "delay"),
    "store.record": ("error", "delay", "corrupt"),
    "store.load": ("error", "delay"),
    "clock": ("skew",),
}


@dataclass(frozen=True)
class FaultRule:
    """One trigger: ``site`` misbehaves via ``action`` on a window of hits.

    ``occurrence`` is 1-based: the rule arms on the ``occurrence``-th time
    the site fires and stays armed for ``count`` consecutive hits.  The
    optional ``worker`` index restricts pool rules to one worker.
    ``seconds`` parameterises hang/delay/skew; ``exit_code`` the crash.
    """

    site: str
    action: str
    occurrence: int = 1
    count: int = 1
    worker: Optional[int] = None
    seconds: float = 0.0
    exit_code: int = 32

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise SearchError(
                f"unknown fault site {self.site!r}; expected one of {SITES}"
            )
        if self.action not in _SITE_ACTIONS[self.site]:
            raise SearchError(
                f"action {self.action!r} is not valid at site {self.site!r}"
                f" (valid: {_SITE_ACTIONS[self.site]})"
            )
        if self.occurrence < 1 or self.count < 1:
            raise SearchError("occurrence and count must be >= 1")

    def matches(self, occurrence: int, worker: Optional[int] = None) -> bool:
        """True when this rule covers the given site hit."""
        if self.worker is not None and worker != self.worker:
            return False
        return self.occurrence <= occurrence < self.occurrence + self.count

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "site": self.site,
            "action": self.action,
            "occurrence": self.occurrence,
            "count": self.count,
            "seconds": self.seconds,
            "exit_code": self.exit_code,
        }
        if self.worker is not None:
            payload["worker"] = self.worker
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "FaultRule":
        if not isinstance(payload, dict):
            raise SearchError("fault rule payload is not an object")
        try:
            return cls(
                site=str(payload["site"]),
                action=str(payload["action"]),
                occurrence=int(payload.get("occurrence", 1)),
                count=int(payload.get("count", 1)),
                worker=(
                    int(payload["worker"])
                    if payload.get("worker") is not None
                    else None
                ),
                seconds=float(payload.get("seconds", 0.0)),
                exit_code=int(payload.get("exit_code", 32)),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SearchError(f"malformed fault rule: {error}") from error


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded failure scenario plus the runtime it targets.

    ``pool`` / ``workers`` / ``store`` describe the run
    configuration the battery should drive; ``env`` carries extra
    environment overrides (e.g. ``REPRO_TASK_DEADLINE``) as a tuple of
    pairs so the plan stays hashable.  ``runs`` > 1 makes the battery
    re-run the same scenario (resuming from the store) to
    exercise recovery-on-reload paths.  ``expect`` is the survival
    criterion: ``"optimal"`` demands the fault-free optimum, ``"degraded"``
    accepts a structured degraded result.
    """

    name: str
    description: str = ""
    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()
    pool: Optional[str] = None  # None = serial, else persistent
    workers: int = 2
    store: bool = False
    runs: int = 1
    env: Tuple[Tuple[str, str], ...] = field(default=())
    expect: str = "optimal"
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.expect not in ("optimal", "degraded"):
            raise SearchError("expect must be 'optimal' or 'degraded'")
        if self.pool not in (None, "persistent"):
            raise SearchError(f"unknown pool mode {self.pool!r}")
        if self.runs < 1:
            raise SearchError("runs must be >= 1")

    def env_dict(self) -> Dict[str, str]:
        return dict(self.env)

    def with_rules(self, *rules: FaultRule) -> "FaultPlan":
        return replace(self, rules=self.rules + tuple(rules))

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "description": self.description,
                "seed": self.seed,
                "rules": [rule.to_json() for rule in self.rules],
                "pool": self.pool,
                "workers": self.workers,
                "store": self.store,
                "runs": self.runs,
                "env": list(list(pair) for pair in self.env),
                "expect": self.expect,
                "max_seconds": self.max_seconds,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SearchError(f"fault plan is not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise SearchError("fault plan payload is not an object")
        rules = payload.get("rules", [])
        if not isinstance(rules, list):
            raise SearchError("fault plan rules must be a list")
        if "checkpoint" in payload:
            # Dropping the key would run a different scenario than the
            # plan describes, so a plan written for it fails loudly.
            raise ModelError(
                "fault plan field 'checkpoint' is no longer supported: "
                "the evaluation store is the one persistence path; "
                "use \"store\": true instead"
            )
        env = payload.get("env", [])
        try:
            return cls(
                name=str(payload["name"]),
                description=str(payload.get("description", "")),
                seed=int(payload.get("seed", 0)),
                rules=tuple(FaultRule.from_json(rule) for rule in rules),
                pool=(
                    str(payload["pool"])
                    if payload.get("pool") is not None
                    else None
                ),
                workers=int(payload.get("workers", 2)),
                store=bool(payload.get("store", False)),
                runs=int(payload.get("runs", 1)),
                env=tuple(
                    (str(k), str(v)) for k, v in env
                ),
                expect=str(payload.get("expect", "optimal")),
                max_seconds=(
                    float(payload["max_seconds"])
                    if payload.get("max_seconds") is not None
                    else None
                ),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SearchError(f"malformed fault plan: {error}") from error


def seeded_occurrence(seed: int, site: str, low: int = 1, high: int = 8) -> int:
    """Deterministically pick which occurrence of ``site`` a rule targets.

    The same (seed, site) pair always lands on the same occurrence, so a
    plan built from a seed is fully replayable while still spreading its
    triggers across the run instead of always hitting the first call.
    """
    if low < 1 or high < low:
        raise SearchError("seeded_occurrence needs 1 <= low <= high")
    digest = hashlib.sha256(f"{seed}:{site}".encode("utf-8")).digest()
    span = high - low + 1
    return low + int.from_bytes(digest[:4], "big") % span
