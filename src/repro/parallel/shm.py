"""Shared-memory model arena for the persistent evaluation pool.

A :class:`ModelArena` broadcasts one WINDIM problem instance — the
:class:`~repro.queueing.network.ClosedNetwork`, its dense demand arrays,
and the solver configuration — to every pool worker through a single
``multiprocessing.shared_memory`` segment.  Workers attach once, map the
numeric model **zero-copy** (the ``(R, L)`` demand/visit matrices live in
the segment itself, exposed as read-only numpy views), and afterwards
receive only ``(eval_id, window_vector, seed_slot)`` micro-tasks whose
pickled size is a few hundred bytes regardless of model size.

The arena is **spawn-safe**: everything a worker needs to attach travels
in a small picklable :class:`ArenaRef` (segment name + layout), so the
pool works identically under ``fork``, ``forkserver`` and ``spawn``.

Layout of the segment (offsets precomputed at creation)::

    header     int64[4]    generation, blob_len, seed_slots, seed_capable
    demands    float64[R*L]
    visits     float64[R*L]
    sources    int64[R]
    seeds      float64[slots*R*L]   warm-start queue-length slots
    blob       uint8[capacity]      pickled (stations, chains, solver)

The *blob* carries only the structural Python objects (stations, chains,
solver name); the numeric payload stays in the dense
regions, which :meth:`ModelArena.update_model` can rewrite in place to
re-target a running pool at a new scenario of the same shape (a campaign
sweep changes demands, never topology shape).  Workers detect the bumped
``generation`` on their next task and rebuild their network view.

Warm-start **seed slots** let the parent hand PR 4's reuse-engine seeds
to workers by reference: the parent writes an ``(R, L)`` queue-length
matrix into a free slot and ships only the slot index in the micro-task.
Slot reuse is reference-counted by the pool (a slot is recycled only
after every task that referenced it completed), so a worker can never
observe a torn seed.
"""

from __future__ import annotations

import pickle
from multiprocessing import shared_memory
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import ModelError
from repro.queueing.network import ClosedNetwork

__all__ = ["ArenaRef", "ModelArena", "DEFAULT_SEED_SLOTS"]

#: Default number of warm-start seed slots (pool sizes this to its depth).
DEFAULT_SEED_SLOTS = 32

_HEADER_WORDS = 4
_GENERATION = 0
_BLOB_LEN = 1
_SEED_SLOTS = 2


class ArenaRef(NamedTuple):
    """Picklable handle a worker needs to attach to an arena.

    Deliberately tiny (a name plus integer layout) so it crosses a
    ``spawn`` process boundary for free.
    """

    name: str
    num_chains: int
    num_stations: int
    seed_slots: int
    blob_capacity: int


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without tracker interference.

    Attaching registers the segment with the ``resource_tracker`` on
    Python < 3.13, which is wrong for pool workers twice over: the
    tracker would unlink the parent-owned segment when a worker exits,
    and — because spawned children *share* the parent's tracker process —
    sending an ``unregister`` from a worker would instead delete the
    creator's own registration (the tracker keys by name, not by
    process).  So attachers suppress the registration entirely:
    ``track=False`` on 3.13+, a local no-op ``register`` during the
    attach call before that.  The creator alone stays registered and
    alone unlinks.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track kwarg
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register

        def _no_register(segment_name, rtype):
            if rtype != "shared_memory":  # pragma: no cover
                original_register(segment_name, rtype)

        resource_tracker.register = _no_register
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


class ModelArena:
    """One shared-memory segment holding a broadcast WINDIM model.

    Construct with :meth:`create` (parent / owner) or :meth:`attach`
    (worker).  The owner must eventually call :meth:`close` with
    ``unlink=True``; workers call plain :meth:`close`.
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        ref: ArenaRef,
        owner: bool,
    ):
        self._segment = segment
        self.ref = ref
        self._owner = owner
        R, L = ref.num_chains, ref.num_stations
        buf = segment.buf
        offset = 0

        def region(dtype, shape):
            nonlocal offset
            size = int(np.prod(shape)) * np.dtype(dtype).itemsize
            view = np.ndarray(shape, dtype=dtype, buffer=buf, offset=offset)
            offset += size
            return view

        self._header = region(np.int64, (_HEADER_WORDS,))
        self._demands = region(np.float64, (R, L))
        self._visits = region(np.float64, (R, L))
        self._sources = region(np.int64, (R,))
        self._seeds = region(np.float64, (ref.seed_slots, R, L))
        self._blob = region(np.uint8, (ref.blob_capacity,))
        self._model_cache: Optional[Tuple[int, ClosedNetwork, str]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        network: ClosedNetwork,
        solver_name: str,
        seed_slots: int = DEFAULT_SEED_SLOTS,
        blob_capacity: Optional[int] = None,
    ) -> "ModelArena":
        """Allocate a segment and broadcast ``network`` into it."""
        blob = cls._encode_blob(network, solver_name)
        if blob_capacity is None:
            # Headroom for update_model: structural pickles of sibling
            # scenarios differ only in float payloads, so 2x + slack is
            # comfortably enough.
            blob_capacity = max(2 * len(blob), len(blob) + 4096)
        R, L = network.num_chains, network.num_stations
        total = (
            _HEADER_WORDS * 8
            + 2 * R * L * 8  # demands + visits
            + R * 8  # sources
            + seed_slots * R * L * 8
            + blob_capacity
        )
        segment = shared_memory.SharedMemory(create=True, size=total)
        ref = ArenaRef(segment.name, R, L, seed_slots, blob_capacity)
        arena = cls(segment, ref, owner=True)
        arena._header[:] = 0
        arena._write_model(network, blob)
        return arena

    @classmethod
    def attach(cls, ref: ArenaRef) -> "ModelArena":
        """Map an existing arena (worker side)."""
        return cls(_attach_segment(ref.name), ref, owner=False)

    @staticmethod
    def _encode_blob(network: ClosedNetwork, solver_name: str) -> bytes:
        # Structure only: the dense arrays travel in their own regions.
        return pickle.dumps(
            (network.stations, network.chains, solver_name),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def _write_model(self, network: ClosedNetwork, blob: bytes) -> None:
        if len(blob) > self.ref.blob_capacity:
            raise ModelError(
                f"arena blob capacity exceeded ({len(blob)} > "
                f"{self.ref.blob_capacity} bytes); recreate the pool for "
                "this model"
            )
        self._demands[:] = network.demands
        self._visits[:] = network.visit_counts
        self._sources[:] = network.source_index
        self._blob[: len(blob)] = np.frombuffer(blob, dtype=np.uint8)
        self._header[_BLOB_LEN] = len(blob)
        self._header[_SEED_SLOTS] = self.ref.seed_slots
        self._header[_GENERATION] += 1

    # ------------------------------------------------------------------
    # owner-side updates
    # ------------------------------------------------------------------
    def update_model(self, network: ClosedNetwork, solver_name: str) -> int:
        """Re-broadcast a same-shape model in place; returns the generation.

        Campaign sweeps re-dimension the same topology under different
        loads: the dense regions are rewritten and the generation bumped,
        so live workers switch scenario on their next task without being
        respawned.
        """
        if (network.num_chains, network.num_stations) != (
            self.ref.num_chains,
            self.ref.num_stations,
        ):
            raise ModelError(
                "arena update requires an identically shaped model "
                f"(({network.num_chains}, {network.num_stations}) vs "
                f"({self.ref.num_chains}, {self.ref.num_stations})); "
                "create a fresh pool instead"
            )
        self._write_model(network, self._encode_blob(network, solver_name))
        return self.generation

    def write_seed(self, slot: int, queue_lengths: np.ndarray) -> None:
        """Place a warm-start queue-length matrix into ``slot``."""
        self._seeds[slot] = np.asarray(queue_lengths, dtype=np.float64)

    def read_seed(self, slot: int) -> np.ndarray:
        """A private copy of the seed in ``slot`` (worker side)."""
        return np.array(self._seeds[slot], dtype=np.float64)

    # ------------------------------------------------------------------
    # worker-side model view
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        return int(self._header[_GENERATION])

    def model(self) -> Tuple[ClosedNetwork, str]:
        """The broadcast ``(network, solver name)`` pair.

        The network's dense arrays are **read-only zero-copy views** into
        the segment, so the per-worker memory cost of the numeric model
        is zero and an in-place :meth:`update_model` is visible without
        re-reading.  Rebuilt (and re-cached) only when the generation
        changed since the last call.
        """
        generation = self.generation
        if self._model_cache is not None and self._model_cache[0] == generation:
            _, network, solver_name = self._model_cache
            return network, solver_name
        blob_len = int(self._header[_BLOB_LEN])
        stations, chains, solver_name = pickle.loads(
            self._blob[:blob_len].tobytes()
        )
        demands = self._demands.view()
        visits = self._visits.view()
        sources = self._sources.view()
        populations = np.array([c.population for c in chains], dtype=np.int64)
        for view in (demands, visits, sources):
            view.flags.writeable = False
        network = ClosedNetwork(
            stations=stations,
            chains=chains,
            demands=demands,
            visit_counts=visits,
            populations=populations,
            source_index=sources,
        )
        self._model_cache = (generation, network, solver_name)
        return network, solver_name

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, unlink: bool = False) -> None:
        """Drop every mapped view and release the segment.

        The owner passes ``unlink=True`` exactly once; workers only
        detach.  Safe to call repeatedly.
        """
        if self._segment is None:
            return
        # numpy views pin the exported buffer; drop them before close().
        for attr in (
            "_header",
            "_demands",
            "_visits",
            "_sources",
            "_seeds",
            "_blob",
        ):
            if hasattr(self, attr):
                delattr(self, attr)
        self._model_cache = None
        try:
            self._segment.close()
            if unlink and self._owner:
                self._segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        except BufferError:  # pragma: no cover - a view escaped; the
            # mapping is released at process exit instead, and the owner
            # can still unlink the name so the segment does not leak.
            if unlink and self._owner:
                try:
                    self._segment.unlink()
                except FileNotFoundError:
                    pass
        self._segment = None

    @property
    def nbytes(self) -> int:
        """Total size of the shared segment in bytes."""
        return self._segment.size if self._segment is not None else 0
