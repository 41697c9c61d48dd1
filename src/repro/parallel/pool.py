"""Persistent worker pool for WINDIM objective evaluations.

:class:`PersistentEvalPool` is a long-lived fleet: workers are spawned
**once** per ``windim``/``windim_multistart``/campaign run, receive the network model and solver configuration exactly once through
a :class:`~repro.parallel.shm.ModelArena` (zero-copy for the dense
numeric payload), and from then on accept only
``(eval_id, window_vector, seed_slot)`` micro-tasks a few hundred bytes
each.  Completions stream back out of order over per-worker result
pipes.  Each pipe has exactly one writer, so a worker SIGKILLed
mid-write (by the watchdog or the OS) can only tear its **own**
channel — a shared result queue would
let a dying worker take the queue's write lock to the grave and wedge
every survivor's ``put`` forever.  The parent treats a torn pipe as a
worker death and lets the ordinary respawn path replace both the worker
and its channel.

Resilience is built in: the parent monitors worker liveness whenever it
waits on results; a dead worker is respawned against the same arena and
its in-flight tasks are requeued to the survivors (bounded by
``max_requeues`` so a task that reliably kills workers is completed as
failed instead of crash-looping the fleet).  A *hung* worker — stuck
fixed-point loop, wedged queue — is caught by the per-task watchdog:
workers stamp a shared heartbeat at every dequeue and completion, and
when ``task_deadline`` seconds pass with no progress the parent SIGKILLs
the worker, which then flows through the ordinary death → respawn →
requeue path (recorded as ``PoolEvent("hung", ...)``).  Respawns
themselves are bounded by a :class:`~repro.resilience.retry.RetryPolicy`;
once the budget is spent the pool raises
:class:`~repro.errors.PoolFailure` so the evaluation plane can degrade
to a lower rung instead of crash-looping forever.  Every lifecycle event
is recorded in a :class:`~repro.resilience.health.PoolHealth` that
surfaces through ``WindimResult``.

Start-method safety: everything that crosses the process boundary — the
:class:`~repro.parallel.shm.ArenaRef`, micro-tasks, result tuples — is
plain picklable data and the worker entry point is a module-level
function, so the pool runs identically under ``fork``, ``forkserver``
and ``spawn`` (pass ``start_method=`` to pin one; tests pin ``spawn``).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import queue
import signal
import time
from multiprocessing import connection as mp_connection
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PoolFailure, SearchError, SolverError
from repro.parallel.shm import ArenaRef, ModelArena
from repro.queueing.network import ClosedNetwork
from repro.resilience.health import PoolEvent, PoolHealth
from repro.resilience.retry import RetryPolicy
from repro.solution import NetworkSolution

__all__ = ["PersistentEvalPool", "CompletedEval"]

Point = Tuple[int, ...]

#: How often the parent re-checks worker liveness while waiting (seconds).
_LIVENESS_TICK = 0.1

#: How often an idle worker checks that its parent is still alive (seconds).
_PARENT_TICK = 0.5

#: Default requeue bound (overridable per pool / via REPRO_MAX_REQUEUES).
_MAX_REQUEUES = 2


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return int(raw)
    except ValueError as error:
        raise SearchError(f"{name} must be an integer, got {raw!r}") from error


def _env_float(name: str, default: Optional[float]) -> Optional[float]:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return float(raw)
    except ValueError as error:
        raise SearchError(f"{name} must be a number, got {raw!r}") from error

#: Result statuses a worker can report.
_OK = "ok"
_SOLVER_ERROR = "solver-error"
_FATAL = "fatal"


class CompletedEval(NamedTuple):
    """One finished (or failed) pool task, parent side."""

    eval_id: int
    key: Point
    status: str
    value: float
    payload: Optional[dict]
    worker: int
    pid: int

    @property
    def ok(self) -> bool:
        return self.status in (_OK, _SOLVER_ERROR)


class _TaskRecord(NamedTuple):
    key: Point
    worker: int
    seed_slot: Optional[int]
    generation: int
    requeues: int = 0
    dispatched_at: float = 0.0


def _solution_payload(solution: NetworkSolution, warmed: bool) -> dict:
    """Ship a solution minus its network (the parent already has one)."""
    return {
        "throughputs": np.asarray(solution.throughputs, dtype=np.float64),
        "queue_lengths": np.asarray(solution.queue_lengths, dtype=np.float64),
        "waiting_times": np.asarray(solution.waiting_times, dtype=np.float64),
        "method": solution.method,
        "iterations": int(solution.iterations),
        "converged": bool(solution.converged),
        "extras": dict(solution.extras),
        "warmed": bool(warmed),
    }


def rebuild_solution(
    network: ClosedNetwork, key: Point, payload: dict
) -> NetworkSolution:
    """Parent-side inverse of :func:`_solution_payload`."""
    return NetworkSolution(
        network=network.with_populations(key),
        throughputs=payload["throughputs"],
        queue_lengths=payload["queue_lengths"],
        waiting_times=payload["waiting_times"],
        method=payload["method"],
        iterations=payload["iterations"],
        converged=payload["converged"],
        extras=payload["extras"],
    )


def _worker_main(
    ref: ArenaRef,
    task_queue,
    result_conn,
    worker_index: int,
    heartbeats=None,
) -> None:
    """Pool worker loop: attach the arena once, then serve micro-tasks.

    Module-level (hence importable under ``spawn``) and self-contained.
    SIGINT is ignored so an operator Ctrl-C interrupts only the parent,
    which then closes its store and shuts the fleet down in order.

    ``heartbeats`` is the parent's shared progress array: the worker
    stamps its slot with ``time.monotonic()`` at every dequeue and after
    every completion, which is what the hung-worker watchdog watches
    (``CLOCK_MONOTONIC`` is system-wide on the platforms the pool runs
    on, so parent and child stamps are directly comparable).

    A parent killed without closing the pool (SIGTERM, SIGKILL) cannot
    send the stop message, so an idle worker checks every
    ``_PARENT_TICK`` seconds whether its parent is still there and exits
    when it is not.  Two checks: the parent's sentinel
    (``parent_process().is_alive()``) is the documented one, but under
    ``fork`` a sibling forked later inherits the sentinel's write end and
    keeps it open until that sibling exits; a changed parent pid (the
    worker was reparented) catches the parent's death at once.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    from repro.chaos.hooks import worker_chaos
    from repro.core.power import inverse_power
    from repro.solvers import SOLVERS, solver_keywords

    chaos = worker_chaos(worker_index)
    arena = ModelArena.attach(ref)
    pid = os.getpid()
    parent = multiprocessing.parent_process()
    parent_pid = os.getppid()
    generation = -1
    network = solver = keywords = None

    def _stamp() -> None:
        if heartbeats is not None:
            heartbeats[worker_index] = time.monotonic()

    try:
        while True:
            try:
                message = task_queue.get(timeout=_PARENT_TICK)
            except queue.Empty:
                if os.getppid() != parent_pid or (
                    parent is not None and not parent.is_alive()
                ):
                    break  # orphaned: nobody will ever read a result
                continue
            if message is None:
                break
            _stamp()
            if chaos is not None:
                chaos.on_task()
            eval_id, key, seed_slot, _task_gen = message
            try:
                if arena.generation != generation or network is None:
                    network, solver_name = arena.model()
                    solver = SOLVERS[solver_name]
                    keywords = solver_keywords(solver)
                    generation = arena.generation
                kwargs: Dict[str, object] = {}
                warmed = False
                if seed_slot is not None and "warm_start" in keywords:
                    kwargs["warm_start"] = arena.read_seed(seed_slot)
                    warmed = True
                candidate = network.with_populations(key)
                try:
                    solution = solver(candidate, **kwargs)
                except SolverError:
                    result_conn.send(
                        (eval_id, worker_index, pid, _SOLVER_ERROR, float("inf"), None)
                    )
                else:
                    result_conn.send(
                        (
                            eval_id,
                            worker_index,
                            pid,
                            _OK,
                            inverse_power(solution),
                            _solution_payload(solution, warmed),
                        )
                    )
            except Exception as exc:  # pragma: no cover - defensive
                result_conn.send(
                    (
                        eval_id,
                        worker_index,
                        pid,
                        _FATAL,
                        float("inf"),
                        {"error": f"{type(exc).__name__}: {exc}"},
                    )
                )
            _stamp()
    except (BrokenPipeError, ConnectionResetError):
        pass  # the parent closed its end of the result pipe
    finally:
        arena.close()


class PersistentEvalPool:
    """Long-lived worker fleet bound to one shared-memory model arena.

    Parameters
    ----------
    network:
        The network template broadcast to workers (populations ignored).
    solver:
        Named solver from :data:`repro.solvers.SOLVERS`.
    workers:
        Fleet size (>= 1).
    start_method:
        ``"fork"`` / ``"forkserver"`` / ``"spawn"``; None = platform
        default.  The pool is spawn-safe by construction.
    seed_slots:
        Warm-start slots in the arena; defaults to ``4 * workers`` so
        slot recycling never starves a saturated pipeline.
    max_requeues:
        Times one task may be requeued after worker deaths before it is
        completed as failed.  Defaults to the ``REPRO_MAX_REQUEUES``
        environment variable, then to 2.
    max_respawns:
        Total worker respawns the pool tolerates over its lifetime;
        exceeding it raises :class:`~repro.errors.PoolFailure` so callers
        can degrade.  Defaults to ``REPRO_MAX_RESPAWNS``, then to
        ``max(8, 4 * workers)``.  Zero forbids respawning entirely.
    task_deadline:
        Hung-worker watchdog: seconds a worker may go without a heartbeat
        while holding in-flight tasks before it is SIGKILLed and its
        tasks requeued.  Defaults to ``REPRO_TASK_DEADLINE``, then to
        None (watchdog disabled).
    respawn_policy:
        :class:`~repro.resilience.retry.RetryPolicy` pacing respawns
        (backoff between them).  ``max_attempts`` is derived from
        ``max_respawns`` when omitted.
    """

    def __init__(
        self,
        network: ClosedNetwork,
        solver: str,
        workers: int = 2,
        start_method: Optional[str] = None,
        seed_slots: Optional[int] = None,
        max_requeues: Optional[int] = None,
        max_respawns: Optional[int] = None,
        task_deadline: Optional[float] = None,
        respawn_policy: Optional[RetryPolicy] = None,
    ):
        if workers < 1:
            raise SearchError(f"pool needs >= 1 worker, got {workers}")
        self.max_requeues = (
            _env_int("REPRO_MAX_REQUEUES", _MAX_REQUEUES)
            if max_requeues is None
            else int(max_requeues)
        )
        self.max_respawns = (
            _env_int("REPRO_MAX_RESPAWNS", max(8, 4 * int(workers)))
            if max_respawns is None
            else int(max_respawns)
        )
        self.task_deadline = (
            _env_float("REPRO_TASK_DEADLINE", None)
            if task_deadline is None
            else float(task_deadline)
        )
        if self.max_requeues < 0 or self.max_respawns < 0:
            raise SearchError("max_requeues / max_respawns must be >= 0")
        if self.task_deadline is not None and self.task_deadline <= 0:
            raise SearchError("task_deadline must be positive")
        self._respawn_policy = respawn_policy or RetryPolicy(
            max_attempts=max(1, self.max_respawns),
            base_delay=0.02,
            multiplier=2.0,
            max_delay=0.5,
            jitter=0.25,
        )
        self._ctx = multiprocessing.get_context(start_method)
        self._solver_name = solver
        self.workers = int(workers)
        slots = seed_slots if seed_slots is not None else max(4 * workers, 8)
        self.arena = ModelArena.create(network, solver, seed_slots=slots)
        self.health = PoolHealth(
            workers=self.workers,
            start_method=self._ctx.get_start_method(),
        )
        # One double per worker, stamped by the worker at each dequeue and
        # completion; the watchdog compares against dispatch times.  The
        # lock-free variant is enough: each slot has one writer.
        self._heartbeats = self._ctx.Array("d", int(workers), lock=False)
        # Per-worker result channels (single writer each); a slot is None
        # while its worker's pipe is torn and awaiting respawn.
        self._result_conns: List = []
        self._task_queues: List = []
        self._processes: List = []
        self._eval_ids = itertools.count(1)
        self._inflight: Dict[int, _TaskRecord] = {}
        self._generation = self.arena.generation
        self._free_slots: List[int] = list(range(slots))
        self._slot_refs: Dict[int, int] = {}
        self._synthetic: List[CompletedEval] = []
        self._closed = False
        for index in range(self.workers):
            self._spawn_worker(index)
        self.health.worker_pids = [p.pid for p in self._processes]

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn_worker(self, index: int) -> None:
        task_queue = self._ctx.Queue()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        self._heartbeats[index] = time.monotonic()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                self.arena.ref,
                task_queue,
                send_conn,
                index,
                self._heartbeats,
            ),
            daemon=True,
            name=f"windim-eval-{index}",
        )
        process.start()
        # The worker holds the only live write end now; dropping the
        # parent's copy lets recv() see EOF the moment the worker dies.
        send_conn.close()
        if index < len(self._task_queues):
            self._close_conn(self._result_conns[index])
            self._result_conns[index] = recv_conn
            self._task_queues[index] = task_queue
            self._processes[index] = process
        else:
            self._result_conns.append(recv_conn)
            self._task_queues.append(task_queue)
            self._processes.append(process)
        self.health.record(PoolEvent("spawn", index, process.pid or 0))

    @staticmethod
    def _close_conn(conn) -> None:
        if conn is None:
            return
        try:
            conn.close()
        except OSError:  # pragma: no cover - already gone
            pass

    def _check_watchdog(self) -> None:
        """SIGKILL workers that exceeded the per-task deadline.

        A worker counts as *hung* when it holds in-flight tasks and
        neither its heartbeat nor the most recent dispatch to it is
        younger than ``task_deadline``.  The kill makes the worker fail
        the ordinary liveness scan, which then respawns it and requeues
        its tasks — the watchdog only converts "silently stuck" into
        "visibly dead".
        """
        if self.task_deadline is None:
            return
        now = time.monotonic()
        for index, process in enumerate(self._processes):
            if not process.is_alive():
                continue  # the death scan below handles it
            dispatched = [
                record.dispatched_at
                for record in self._inflight.values()
                if record.worker == index
            ]
            if not dispatched:
                continue  # idle workers owe no heartbeat
            anchor = max(self._heartbeats[index], min(dispatched))
            overdue = now - anchor
            if overdue <= self.task_deadline:
                continue
            pid = process.pid or 0
            self.health.record(
                PoolEvent(
                    "hung",
                    index,
                    pid,
                    f"no progress for {overdue:.2f}s "
                    f"(deadline {self.task_deadline:g}s)",
                )
            )
            try:
                os.kill(pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):  # pragma: no cover
                pass
            process.join(timeout=5.0)

    def _check_workers(self) -> None:
        """Respawn dead workers and requeue their in-flight tasks."""
        self._check_watchdog()
        for index, process in enumerate(self._processes):
            if process.is_alive():
                continue
            dead_pid = process.pid or 0
            self.health.record(
                PoolEvent(
                    "death",
                    index,
                    dead_pid,
                    f"exitcode={process.exitcode}",
                )
            )
            orphaned = [
                (eval_id, record)
                for eval_id, record in self._inflight.items()
                if record.worker == index
            ]
            attempt = self.health.respawns + 1
            if self.max_respawns <= 0 or not self._respawn_policy.allows(
                attempt
            ):
                raise PoolFailure(
                    f"worker {index} (pid {dead_pid}) died and the pool's "
                    f"respawn budget is spent "
                    f"({self.health.respawns}/{self.max_respawns} respawns, "
                    f"{self.health.hung} watchdog kills); degrade to a "
                    f"lower execution mode"
                )
            pause = self._respawn_policy.delay(
                attempt + 1, salt=f"respawn-{index}"
            )
            if pause > 0:
                time.sleep(pause)
            self._spawn_worker(index)
            self.health.record(
                PoolEvent("respawn", index, self._processes[index].pid or 0)
            )
            self.health.worker_pids = [p.pid for p in self._processes]
            for eval_id, record in orphaned:
                if record.requeues >= self.max_requeues:
                    # This task has now taken multiple workers down with
                    # it; stop feeding it to the fleet and fail it.
                    self._inflight.pop(eval_id, None)
                    self._release_slot(record.seed_slot)
                    self.health.record(
                        PoolEvent(
                            "drop", index, dead_pid, f"windows={record.key}"
                        )
                    )
                    self._synthetic.append(
                        CompletedEval(
                            eval_id,
                            record.key,
                            _FATAL,
                            float("inf"),
                            {
                                "error": "task dropped after repeated "
                                "worker deaths"
                            },
                            index,
                            dead_pid,
                        )
                    )
                    continue
                self.health.record(
                    PoolEvent("requeue", index, dead_pid, f"windows={record.key}")
                )
                self._dispatch(
                    eval_id, record._replace(requeues=record.requeues + 1)
                )

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Number of submitted-but-not-completed tasks."""
        return len(self._inflight) + len(self._synthetic)

    @property
    def worker_pids(self) -> List[int]:
        return [p.pid for p in self._processes]

    def _least_loaded_worker(self) -> int:
        load = [0] * self.workers
        for record in self._inflight.values():
            load[record.worker] += 1
        return int(np.argmin(load))

    def _acquire_slot(self, seed: Optional[np.ndarray]) -> Optional[int]:
        if seed is None or not self._free_slots:
            return None
        slot = self._free_slots.pop()
        self.arena.write_seed(slot, seed)
        self._slot_refs[slot] = self._slot_refs.get(slot, 0) + 1
        return slot

    def _release_slot(self, slot: Optional[int]) -> None:
        if slot is None:
            return
        remaining = self._slot_refs.get(slot, 0) - 1
        if remaining <= 0:
            self._slot_refs.pop(slot, None)
            self._free_slots.append(slot)
        else:  # pragma: no cover - slots are single-referenced today
            self._slot_refs[slot] = remaining

    def _dispatch(self, eval_id: int, record: _TaskRecord) -> None:
        worker = self._least_loaded_worker()
        record = record._replace(worker=worker, dispatched_at=time.monotonic())
        self._inflight[eval_id] = record
        message = (eval_id, record.key, record.seed_slot, record.generation)
        self.health.payload_bytes_total += len(
            pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        )
        self._task_queues[worker].put(message)

    def submit(
        self, key: Sequence[int], seed: Optional[np.ndarray] = None
    ) -> int:
        """Queue one window vector for evaluation; returns its eval id.

        ``seed`` (a converged queue-length matrix) travels through an
        arena slot, not the task message.
        """
        if self._closed:
            raise SearchError("pool is closed")
        eval_id = next(self._eval_ids)
        slot = self._acquire_slot(seed)
        self._dispatch(
            eval_id,
            _TaskRecord(
                key=tuple(int(x) for x in key),
                worker=0,
                seed_slot=slot,
                generation=self._generation,
            ),
        )
        return eval_id

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def poll(self, timeout: Optional[float] = None) -> Optional[CompletedEval]:
        """Next completion, or None when ``timeout`` elapses first.

        ``timeout=None`` blocks until a completion arrives (monitoring
        worker liveness the whole time).  Results for tasks the pool no
        longer tracks (a requeued task whose original worker managed to
        answer before dying) are dropped silently — first answer wins.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._synthetic:
                return self._synthetic.pop(0)
            if not self._inflight:
                return None
            remaining = _LIVENESS_TICK
            if deadline is not None:
                remaining = min(remaining, deadline - time.monotonic())
                if remaining <= 0:
                    return None
            message = self._next_message(max(remaining, 0.001))
            if message is None:
                self._check_workers()
                continue
            eval_id, worker, pid, status, value, payload = message
            record = self._inflight.pop(eval_id, None)
            if record is None:
                continue  # duplicate answer for a requeued task
            self._release_slot(record.seed_slot)
            self.health.tasks_completed += 1
            return CompletedEval(
                eval_id,
                record.key,
                status,
                float(value),
                payload,
                worker,
                pid,
            )

    def _next_message(self, timeout: float):
        """One raw result tuple, or None after ``timeout`` / torn pipes.

        A pipe that raises on ``recv`` (EOF, or a partial pickle from a
        worker killed mid-write) is closed and its slot cleared; the
        liveness scan then respawns the worker with a fresh channel.
        """
        conns = [c for c in self._result_conns if c is not None]
        if not conns:  # every channel torn; wait for the respawn path
            time.sleep(timeout)
            return None
        ready = mp_connection.wait(conns, timeout=timeout)
        for conn in ready:
            try:
                return conn.recv()
            except (EOFError, OSError, pickle.UnpicklingError):
                index = self._result_conns.index(conn)
                self._close_conn(conn)
                self._result_conns[index] = None
        return None

    def map(
        self,
        keys: Sequence[Point],
        seeds: Optional[Dict[Point, np.ndarray]] = None,
    ) -> Dict[Point, CompletedEval]:
        """Batch helper: evaluate ``keys`` and return completions by key.

        The barrier-style entry point used by
        ``WindowObjective.batch_solve``; a search's single demanded
        points go through :meth:`submit`/:meth:`poll` directly.
        """
        pending = set()
        for key in keys:
            seed = seeds.get(tuple(int(x) for x in key)) if seeds else None
            pending.add(self.submit(key, seed=seed))
        out: Dict[Point, CompletedEval] = {}
        while pending:
            done = self.poll(timeout=None)
            if done is None:
                raise SearchError("pool drained with tasks still pending")
            pending.discard(done.eval_id)
            if done.status == _FATAL:
                detail = (done.payload or {}).get("error", "unknown")
                raise SearchError(
                    f"pool worker failed evaluating windows {done.key}: {detail}"
                )
            out[done.key] = done
        return out

    # ------------------------------------------------------------------
    # model updates / shutdown
    # ------------------------------------------------------------------
    def update_model(self, network: ClosedNetwork) -> None:
        """Point the live fleet at a new same-shape scenario.

        Requires a quiescent pool (no in-flight tasks): generation
        semantics guarantee workers only ever solve against the latest
        broadcast, so mixing scenarios within one batch is a bug, not a
        race to tolerate.
        """
        if self.inflight:
            raise SearchError(
                f"cannot update the pool model with {self.inflight} tasks "
                "in flight"
            )
        self._generation = self.arena.update_model(network, self._solver_name)

    def close(self) -> None:
        """Stop the fleet and release the arena. Idempotent."""
        if self._closed:
            return
        self._closed = True
        for task_queue in self._task_queues:
            try:
                task_queue.put(None)
            except (OSError, ValueError):  # pragma: no cover
                pass
        for process in self._processes:
            process.join(timeout=2.0)
        for process in self._processes:
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)
        for process in self._processes:
            if process.is_alive():  # pragma: no cover - SIGTERM ignored
                # A worker wedged in an uninterruptible state (or hung in
                # a C extension masking SIGTERM) must not leak past
                # close(); SIGKILL is the shutdown of last resort.
                process.kill()
                process.join(timeout=1.0)
        for conn in self._result_conns:
            self._close_conn(conn)
        for q in self._task_queues:
            try:
                q.close()
                q.cancel_join_thread()
            except (OSError, ValueError):  # pragma: no cover
                pass
        self.arena.close(unlink=True)

    def __enter__(self) -> "PersistentEvalPool":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - belt and braces
        try:
            self.close()
        except Exception:
            pass
