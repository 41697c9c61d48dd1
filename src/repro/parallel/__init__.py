"""Persistent shared-memory evaluation service for WINDIM searches.

Two pieces, layered:

* :mod:`repro.parallel.shm` — a ``multiprocessing.shared_memory`` arena
  broadcasting one network model (zero-copy dense arrays + structural
  blob) and warm-start seed slots.
* :mod:`repro.parallel.pool` — a long-lived worker fleet attached to one
  arena; workers receive only ``(eval_id, window_vector, seed_slot)``
  micro-tasks, and dead workers are respawned with their tasks requeued.

The :class:`~repro.evalplane.persistent.PersistentPlane` drives the
fleet: one demanded point at a time during a search, one ``map`` batch
for a multistart seed list.
"""

from repro.parallel.pool import CompletedEval, PersistentEvalPool
from repro.parallel.shm import ArenaRef, DEFAULT_SEED_SLOTS, ModelArena

__all__ = [
    "ArenaRef",
    "CompletedEval",
    "DEFAULT_SEED_SLOTS",
    "ModelArena",
    "PersistentEvalPool",
]
