"""Persistent cross-run evaluation store (``windim run --store``).

A WINDIM campaign usually dimensions the *same* network many times —
parameter sweeps, restarted jobs, multistart batches.  Each run's
:class:`~repro.search.cache.EvaluationCache` dies with the process, so
identical window vectors get re-solved from scratch.  The
:class:`EvaluationStore` spills that cache to disk: objective values *and*
the converged queue-length vectors that warm-start future solves (see
:class:`~repro.core.reuse.ReuseEngine`), so a later run on the same model
starts with every previously solved point for free.

Format — JSON Lines, append-only:

* line 1 is a header ``{"version": 1, "fingerprint": "..."}``;
* every further line is one evaluation
  ``{"crc": <crc32>, "point": [w1, ..., wR], "value": <float|null>,
  "seed": [[...]]|null}`` (``null`` value encodes ``inf`` — an
  infeasible/failed point; ``crc`` covers the rest of the record and is
  optional on read for back-compatibility with pre-CRC stores).

Appending a line per fresh evaluation keeps writes O(1) and crash-safe in
the useful sense: a crash can tear at most the final line, which
:func:`load` silently drops (every earlier record is intact).  A torn or
foreign *header* is a hard :class:`~repro.errors.SearchError` instead.

The store *self-heals* on load: by default (``strict=False``) a record
line that fails to parse or whose CRC does not match is moved to a
``<path>.quarantine`` sidecar with a warning instead of aborting the
load, the healthy records are kept, and the store is immediately
compacted so the damage never survives another generation.  Pass
``strict=True`` to restore the old fail-hard behaviour.  Appends are
retried under a :class:`~repro.resilience.retry.RetryPolicy`; a store
whose disk persistently refuses writes degrades to memory-only (with a
warning) rather than failing the search.

:meth:`EvaluationStore.compact` rewrites the file deduplicated through the
same-directory-temp + fsync + ``os.replace`` idiom used by
:mod:`repro.resilience.checkpoint`, so the file on disk is always either
the old store or the complete new one.

The header fingerprint (:func:`model_fingerprint`) hashes everything that
determines an objective value *except* the chain populations (those are
the decision variables the store is indexed by) and the kernel backend
(the parity wall pins backends to <= 1e-8 of each other, far inside any
search decision).  Opening a store whose fingerprint does not match the
current network+solver raises :class:`~repro.errors.SearchError`: a stale
store can never poison a different instance.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import warnings
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SearchError
from repro.queueing.network import ClosedNetwork
from repro.resilience.retry import RetryPolicy

__all__ = ["STORE_VERSION", "EvaluationStore", "model_fingerprint"]

STORE_VERSION = 1

Point = Tuple[int, ...]

#: Retries for store IO (reads at open, appends per record): transient
#: failures get two quick backed-off retries before the store degrades.
DEFAULT_STORE_RETRY = RetryPolicy(
    max_attempts=3, base_delay=0.01, multiplier=4.0, max_delay=0.2
)


def _canonical(record: Dict[str, object]) -> str:
    """The byte-stable serialisation the record CRC is computed over."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _record_line(payload: Dict[str, object]) -> str:
    """Serialise one record with its CRC-32 checksum prepended."""
    body = dict(payload)
    body["crc"] = zlib.crc32(_canonical(payload).encode("utf-8"))
    return _canonical(body)


def model_fingerprint(network: ClosedNetwork, solver_label: str) -> str:
    """Hash the parts of ``(network, solver)`` that determine ``F(E)``.

    Included: the demand and visit-count matrices, each station's
    discipline/servers/rate multipliers, per-chain source queues, and the
    solving algorithm's label.  Excluded: chain populations (the store's
    keys *are* window vectors) and the kernel backend: a ``"scalar"``
    store is valid under ``"vectorized"`` and vice versa, because the
    two kernels agree to rounding (pinned at ``PARITY_RTOL``).  They do
    not agree bit for bit, so resuming under the other kernel can break
    a near-tie differently from a fresh run under that kernel.
    """
    digest = hashlib.sha256()
    digest.update(b"windim-store-v1")
    digest.update(repr(network.demands.shape).encode())
    digest.update(np.ascontiguousarray(network.demands, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(network.visit_counts, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(network.source_index, dtype=np.int64).tobytes())
    for station in network.stations:
        digest.update(station.discipline.value.encode())
        digest.update(str(station.servers).encode())
        digest.update(repr(station.rate_multipliers).encode())
    digest.update(str(solver_label).encode())
    return digest.hexdigest()


def _encode_value(value: float) -> Optional[float]:
    """JSON has no ``inf``; an infeasible point is stored as ``null``."""
    return value if math.isfinite(value) else None


def _decode_value(raw: Optional[float]) -> float:
    return float(raw) if raw is not None else math.inf


class EvaluationStore:
    """Append-only on-disk mirror of an evaluation cache.

    Construct with :meth:`open`.  Typical wiring (done by
    :func:`repro.core.windim.windim` under ``store_path=``):

    1. ``open(path, fingerprint)`` — loads previous entries, or creates a
       fresh file with a header.
    2. Prime the run: copy :attr:`values` into the search's
       ``EvaluationCache`` and :attr:`seeds` into the
       :class:`~repro.core.reuse.ReuseEngine`.
    3. :meth:`record` every fresh evaluation as it happens.
    4. :meth:`close` — compacts away duplicate records and releases the
       file handle.

    Attributes
    ----------
    values:
        ``{window vector: objective value}`` for every stored evaluation.
    seeds:
        ``{window vector: (R, L) converged queue lengths}`` where a seed
        was recorded (solver failures and seedless runs store ``null``).
    loaded:
        Number of evaluations read from disk at :meth:`open` time.
    quarantined:
        Corrupt record lines moved to the ``.quarantine`` sidecar at
        :meth:`open` time (always 0 under ``strict=True``).
    """

    def __init__(
        self,
        path: str,
        fingerprint: str,
        values: Dict[Point, float],
        seeds: Dict[Point, np.ndarray],
        appended_lines: int,
        io_policy: Optional[RetryPolicy] = None,
    ):
        self.path = str(path)
        self.fingerprint = str(fingerprint)
        self.values = values
        self.seeds = seeds
        self.loaded = len(values)
        self.quarantined = 0
        self._io_policy = io_policy or DEFAULT_STORE_RETRY
        self._broken = False  # disk gave up; keep serving from memory
        self._disk_lines = appended_lines  # eval records currently on disk
        self._handle = open(self.path, "a")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        path: str,
        fingerprint: str,
        strict: bool = False,
        io_policy: Optional[RetryPolicy] = None,
    ) -> "EvaluationStore":
        """Open (creating if absent) the store at ``path``.

        By default corrupt *record* lines are quarantined to
        ``<path>.quarantine`` (with a warning) and the load proceeds with
        every healthy record; ``strict=True`` makes any malformed record
        a hard error instead.  Header damage and fingerprint mismatches
        always raise — without a trustworthy header the whole file is
        suspect.

        Raises
        ------
        SearchError
            When the file exists but is not a store, has an unsupported
            version, carries a different model fingerprint, or — under
            ``strict=True`` — contains a malformed record.
        """
        policy = io_policy or DEFAULT_STORE_RETRY
        values: Dict[Point, float] = {}
        seeds: Dict[Point, np.ndarray] = {}
        lines_on_disk = 0
        quarantined: List[Tuple[int, str]] = []
        if os.path.exists(path) and os.path.getsize(path) > 0:
            values, seeds, lines_on_disk, quarantined = cls._load(
                path, fingerprint, strict=strict, io_policy=policy
            )
        else:
            cls._write_header(path, fingerprint)
        store = cls(
            path, fingerprint, values, seeds, lines_on_disk, io_policy=policy
        )
        if quarantined:
            store.quarantined = len(quarantined)
            cls._write_quarantine(path, quarantined)
            warnings.warn(
                f"evaluation store {path}: quarantined {len(quarantined)} "
                f"corrupt record line(s) to {path}.quarantine and kept "
                f"{len(values)} healthy record(s)",
                RuntimeWarning,
                stacklevel=2,
            )
            # Compact immediately so the damaged bytes never survive
            # into the next generation of the file.
            store.compact()
        return store

    @staticmethod
    def _write_quarantine(
        path: str, quarantined: List[Tuple[int, str]]
    ) -> None:
        """Append the corrupt lines to the sidecar (best effort)."""
        sidecar = path + ".quarantine"
        try:
            with open(sidecar, "a") as handle:
                for lineno, raw in quarantined:
                    handle.write(json.dumps({"line": lineno, "raw": raw}))
                    handle.write("\n")
        except OSError:  # pragma: no cover - sidecar is advisory
            pass

    @staticmethod
    def _write_header(path: str, fingerprint: str) -> None:
        directory = os.path.dirname(os.path.abspath(path)) or "."
        os.makedirs(directory, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(
                json.dumps({"version": STORE_VERSION, "fingerprint": fingerprint})
            )
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())

    @staticmethod
    def _read_lines(path: str, io_policy: RetryPolicy) -> List[str]:
        """Read the raw store lines, retrying transient IO failures."""
        from repro.chaos import hooks as chaos_hooks

        def _read() -> List[str]:
            chaos_hooks.perform("store.load")
            with open(path, "r") as handle:
                return handle.read().split("\n")

        try:
            return io_policy.call(_read, retry_on=(OSError,), salt=path)
        except OSError as exc:
            raise SearchError(
                f"cannot read evaluation store {path}: {exc}"
            ) from exc

    @classmethod
    def _load(
        cls,
        path: str,
        fingerprint: str,
        strict: bool = False,
        io_policy: Optional[RetryPolicy] = None,
    ) -> Tuple[
        Dict[Point, float],
        Dict[Point, np.ndarray],
        int,
        List[Tuple[int, str]],
    ]:
        lines = cls._read_lines(path, io_policy or DEFAULT_STORE_RETRY)
        # A complete file ends with "\n" -> trailing "" sentinel.  Anything
        # else after the final newline is a torn append; drop it silently.
        if lines and lines[-1] == "":
            lines.pop()
            torn = None
        else:
            torn = lines.pop() if lines else None
        if not lines:
            raise SearchError(
                f"evaluation store {path}: missing header line "
                + (f"(torn write {torn[:40]!r}?)" if torn else "")
            )
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise SearchError(
                f"evaluation store {path}: header is not valid JSON: {exc}"
            ) from exc
        if not isinstance(header, dict) or header.get("version") != STORE_VERSION:
            raise SearchError(
                f"evaluation store {path}: unsupported version "
                f"{header.get('version') if isinstance(header, dict) else header!r} "
                f"(expected {STORE_VERSION})"
            )
        stored = header.get("fingerprint")
        if stored != fingerprint:
            raise SearchError(
                f"evaluation store {path} was written for a different "
                f"model/solver (fingerprint {str(stored)[:12]}… vs "
                f"{fingerprint[:12]}…); refusing to reuse it — pass a "
                "different --store path for this instance"
            )
        values: Dict[Point, float] = {}
        seeds: Dict[Point, np.ndarray] = {}
        quarantined: List[Tuple[int, str]] = []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
                crc = record.pop("crc", None)
                if crc is not None and int(crc) != zlib.crc32(
                    _canonical(record).encode("utf-8")
                ):
                    raise ValueError("record checksum mismatch (bit rot?)")
                point = tuple(int(x) for x in record["point"])
                value = _decode_value(record.get("value"))
                raw_seed = record.get("seed")
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                if strict:
                    raise SearchError(
                        f"evaluation store {path}: malformed record on line "
                        f"{lineno}: {exc}"
                    ) from exc
                quarantined.append((lineno, line))
                continue
            values[point] = value
            if raw_seed is not None:
                seeds[point] = np.asarray(raw_seed, dtype=np.float64)
            else:
                seeds.pop(point, None)
        return values, seeds, len(lines) - 1, quarantined

    # ------------------------------------------------------------------
    # reads / writes
    # ------------------------------------------------------------------
    def __contains__(self, point: Sequence[int]) -> bool:
        return tuple(int(x) for x in point) in self.values

    def __len__(self) -> int:
        return len(self.values)

    def get(self, point: Sequence[int]) -> Optional[float]:
        """The stored objective value, or None when absent."""
        return self.values.get(tuple(int(x) for x in point))

    def record(
        self,
        point: Sequence[int],
        value: float,
        seed: Optional[np.ndarray] = None,
    ) -> None:
        """Append one evaluation (idempotent for identical re-records)."""
        key = tuple(int(x) for x in point)
        if key in self.values and self.values[key] == _safe_float(value):
            if seed is None or key in self.seeds:
                return
        payload = {
            "point": list(key),
            "value": _encode_value(float(value)),
            "seed": np.asarray(seed, dtype=np.float64).tolist()
            if seed is not None
            else None,
        }
        self.values[key] = _safe_float(value)
        if seed is not None:
            self.seeds[key] = np.asarray(seed, dtype=np.float64)
        if self._broken:
            return  # disk already gave up; memory stays authoritative
        line = _record_line(payload)
        try:
            self._io_policy.call(
                lambda: self._append(line), retry_on=(OSError,), salt=str(key)
            )
        except OSError as exc:
            self._broken = True
            warnings.warn(
                f"evaluation store {self.path}: append failed after "
                f"{self._io_policy.max_attempts} attempts ({exc}); the "
                "store degrades to memory-only for the rest of the run",
                RuntimeWarning,
                stacklevel=2,
            )
            return
        self._disk_lines += 1

    def _append(self, line: str) -> None:
        from repro.chaos import hooks as chaos_hooks

        action = chaos_hooks.perform("store.record")
        if action is not None and action.action == "corrupt":
            # Simulate bit rot / a torn sector inside the record: the
            # line length is preserved so only this record is damaged.
            cut = len(line) // 2
            line = line[:cut] + "\x00#CHAOS" + line[cut + 7 :]
        self._handle.write(line)
        self._handle.write("\n")
        self._handle.flush()

    def compact(self) -> str:
        """Atomically rewrite the store with one record per point.

        Uses the checkpoint idiom — same-directory temp file, fsync, then
        ``os.replace`` — so a crash mid-compaction leaves the previous
        store intact.  Returns the path.
        """
        directory = os.path.dirname(os.path.abspath(self.path)) or "."
        fd, tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(self.path) + ".", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(
                    json.dumps(
                        {"version": STORE_VERSION, "fingerprint": self.fingerprint}
                    )
                )
                handle.write("\n")
                for key in sorted(self.values):
                    seed = self.seeds.get(key)
                    handle.write(
                        _record_line(
                            {
                                "point": list(key),
                                "value": _encode_value(self.values[key]),
                                "seed": seed.tolist() if seed is not None else None,
                            }
                        )
                    )
                    handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            self._handle.close()
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        finally:
            if self._handle.closed:
                self._handle = open(self.path, "a")
        self._disk_lines = len(self.values)
        return self.path

    def stats(self) -> Dict[str, object]:
        """Store health counters for result summaries and reports."""
        return {
            "loaded": self.loaded,
            "quarantined": self.quarantined,
            "records": len(self.values),
            "disk_lines": self._disk_lines,
            "broken": self._broken,
        }

    def close(self) -> None:
        """Compact if the file holds duplicate records, then release it."""
        if self._handle.closed:
            return
        if self._disk_lines > len(self.values) and not self._broken:
            self.compact()
        self._handle.close()

    def __enter__(self) -> "EvaluationStore":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


def _safe_float(value: float) -> float:
    value = float(value)
    return value if math.isfinite(value) else math.inf
