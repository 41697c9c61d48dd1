"""Unified retry policy for every bounded-retry decision in the runtime.

Ladder rungs, pool respawns and store IO all used to carry their own
ad-hoc retry counters.  :class:`RetryPolicy` centralises the decision:
bounded attempts, exponential backoff, and *deterministic* jitter
derived from a caller-supplied salt so two processes retrying the same
resource desynchronise without any randomness entering the search
trajectory.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type

__all__ = ["RetryPolicy"]


def _jitter_fraction(salt: str, attempt: int) -> float:
    """Deterministic pseudo-random fraction in [0, 1] for backoff jitter."""
    digest = hashlib.sha256(f"{salt}:{attempt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") / 0xFFFFFFFF


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with exponential backoff and deterministic jitter.

    Attempts are 1-based: ``allows(1)`` is the first try, so a policy with
    ``max_attempts=3`` performs at most two retries.  ``delay(attempt)``
    returns the pause *before* the given attempt — zero for the first
    attempt and for zero-base-delay policies (pool respawns inject a small
    pause; in-process ladder rungs retry immediately).
    """

    max_attempts: int = 3
    base_delay: float = 0.0
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")

    def allows(self, attempt: int) -> bool:
        """True when the 1-based ``attempt`` is within budget."""
        return 1 <= attempt <= self.max_attempts

    def delay(self, attempt: int, salt: str = "") -> float:
        """Backoff before ``attempt`` (1-based); 0 for the first attempt."""
        if attempt <= 1 or self.base_delay <= 0:
            return 0.0
        raw = self.base_delay * self.multiplier ** (attempt - 2)
        capped = min(raw, self.max_delay)
        if self.jitter <= 0:
            return capped
        return capped * (1.0 + self.jitter * _jitter_fraction(salt, attempt))

    def call(
        self,
        fn: Callable[[], object],
        retry_on: Tuple[Type[BaseException], ...] = (Exception,),
        salt: str = "",
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> object:
        """Run ``fn`` under this policy, re-raising once attempts run out.

        ``on_retry(attempt, error)`` fires before each retry sleep so the
        caller can record the failure (e.g. in a health log).
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn()
            except retry_on as error:
                if not self.allows(attempt + 1):
                    raise
                if on_retry is not None:
                    on_retry(attempt, error)
                pause = self.delay(attempt + 1, salt=salt)
                if pause > 0:
                    sleep(pause)
