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

from repro._exports import lazy_exports

_EXPORTS = {
    "ArenaRef": "repro.parallel.shm",
    "CompletedEval": "repro.parallel.pool",
    "DEFAULT_SEED_SLOTS": "repro.parallel.shm",
    "ModelArena": "repro.parallel.shm",
    "PersistentEvalPool": "repro.parallel.pool",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
