"""Sweep evaluation over a persistent worker pool.

Event profiles are architecture-independent and every (version × size ×
tunables) point is independent of every other, so the sweep behind
``best_version`` / ``tune_all`` / ``DynamicSelector.build`` is
embarrassingly parallel — the paper's "simple script that runs all
versions with different tuning parameters".

:class:`SweepScheduler` keeps that simple:

* a **persistent, lazily-spawned process pool** shared by every
  ``map_profiles`` / ``profile_many`` / ``tune_all`` /
  ``DynamicSelector.build`` call in the process. A worker runs the
  framework's own compute path,
  :func:`repro.runtime.session.profile_point`, on the calling
  framework's engine; its frontend memo and plan cache stay warm
  across sweeps, and it never touches a profile cache;
* specs go to the pool's shared queue in **submission order** and are
  collected as they complete, into a list aligned with ``specs``;
* **one serial retry** — if a worker dies (``BrokenProcessPool``) or
  the pool cannot be built, completed results are kept and the
  unfinished specs run serially in the parent, where a genuine error
  propagates with its original traceback. Only a broken pool is
  discarded; the next sweep spawns a fresh one.

Worker spans ship back with the worker's **pid**, which the parent maps
to a stable ``worker-<slot>`` trace lane — one real worker is one lane,
regardless of which specs it pulled.

Scheduler telemetry flows through :mod:`repro.obs`:
``sweep.sched.dispatched`` / ``completed`` / ``retried`` / ``steals``
counters, the ``sweep.sched.queue_depth`` histogram, pool
``pool_spawns`` / ``pool_reuses`` counters and the ``sweep.worker_util``
gauge — all surfaced by ``python -m repro stats``.
"""

from __future__ import annotations

import atexit
import os
import threading
import time

#: Environment override for the worker count (0/1 forces serial).
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"

#: Upper bound on auto-selected workers; an explicit count or
#: ``REPRO_MAX_WORKERS`` may exceed it.
DEFAULT_WORKER_CAP = 8

#: Below this many outstanding profiles a pool costs more than it saves.
MIN_PARALLEL_SPECS = 4


def resolve_workers(max_workers=None) -> int:
    """Effective worker count: explicit arg > env var > capped cpu count."""
    if max_workers is None:
        env = os.environ.get(MAX_WORKERS_ENV)
        if env is not None:
            try:
                max_workers = int(env)
            except ValueError:
                max_workers = None
    if max_workers is None:
        max_workers = min(os.cpu_count() or 1, DEFAULT_WORKER_CAP)
    return max(1, int(max_workers)) if max_workers > 0 else 1


def _profile_spec(spec):
    """Worker entry point: profile one (version, n, tunables) point.

    ``spec`` is ``(op, ctype, unroll, version, n, tunables,
    sample_limit, mode, backend)`` with a picklable frozen-dataclass
    version/tunables and the calling framework's engine mode and
    backend. Returns ``(profile, num_memsets, cost_s)``; no cache is
    read or written — the caller does all the accounting.
    """
    from ..runtime import session

    op, ctype, unroll, version, n, tunables, sample_limit, mode, backend = spec
    _, pre = session._frontend(op, ctype, unroll)
    start = time.perf_counter()
    profile, num_memsets = session.profile_point(
        pre, version, n, tunables, sample_limit, mode, backend
    )
    return profile, num_memsets, time.perf_counter() - start


def _profile_spec_traced(spec):
    """Process-pool entry point: ``_profile_spec`` plus the spans the
    worker recorded and the worker's pid, shipped back as plain values
    so the parent can merge the spans onto that worker's stable trace
    lane (``time.perf_counter`` is CLOCK_MONOTONIC on Linux, so
    forked-worker timestamps line up with the parent's).
    """
    from ..obs import get_tracer

    with get_tracer().capture() as captured:
        result = _profile_spec(spec)
    return result + ([span.as_dict() for span in captured], os.getpid())


class _PoolUnavailable(Exception):
    """Raised when the process pool cannot be constructed here."""


class SweepScheduler:
    """Persistent process pool for profiling sweeps.

    One instance (the module singleton behind :func:`map_profiles`)
    owns one lazily-created :class:`ProcessPoolExecutor` that survives
    across sweep calls with the same effective worker count; a call
    requesting a different count recreates it.  Thread-safe: concurrent
    ``run`` calls share the pool's task queue.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._pool = None
        self._workers = 0
        #: pid -> stable worker slot for trace-lane attribution; reset
        #: whenever the pool is recreated so slots stay within
        #: [0, workers).
        self._slots = {}

    # -- pool lifecycle ------------------------------------------------

    def _ensure_pool(self, workers, metrics):
        from concurrent.futures import ProcessPoolExecutor

        with self._lock:
            if self._pool is not None and self._workers == workers:
                metrics.inc("sweep.sched.pool_reuses")
                return self._pool
            self._shutdown_locked()
            try:
                self._pool = ProcessPoolExecutor(max_workers=workers)
            except Exception as exc:
                raise _PoolUnavailable from exc
            self._workers = workers
            self._slots = {}
            metrics.inc("sweep.sched.pool_spawns")
            return self._pool

    def _discard(self, pool) -> None:
        """Drop a broken pool so the next sweep spawns a fresh one."""
        with self._lock:
            if self._pool is pool:
                self._shutdown_locked()

    def _shutdown_locked(self) -> None:
        pool, self._pool = self._pool, None
        self._workers = 0
        self._slots = {}
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    def shutdown(self) -> None:
        """Tear the persistent pool down (tests, interpreter exit)."""
        with self._lock:
            self._shutdown_locked()

    def _slot(self, pid: int) -> int:
        with self._lock:
            return self._slots.setdefault(pid, len(self._slots))

    # -- the sweep -----------------------------------------------------

    def run(self, specs, max_workers=None):
        """Profile every spec; results aligned with ``specs``."""
        from ..obs import default_metrics

        specs = list(specs)
        metrics = default_metrics()
        metrics.observe("pool.fanout", len(specs))
        workers = resolve_workers(max_workers)
        if workers <= 1 or len(specs) < MIN_PARALLEL_SPECS:
            metrics.inc("pool.serial")
            return [_profile_spec(spec) for spec in specs]
        workers = min(workers, len(specs))
        start = time.perf_counter()
        results = [None] * len(specs)
        try:
            self._run_pool(specs, results, workers, metrics)
        except _PoolUnavailable:
            pass
        unfinished = [i for i, result in enumerate(results) if result is None]
        if unfinished:
            metrics.inc("sweep.sched.retried", len(unfinished))
        for index in unfinished:  # a real error propagates from here
            results[index] = _profile_spec(specs[index])
        metrics.inc("pool.parallel")
        wall = time.perf_counter() - start
        busy = sum(result[2] for result in results)
        if wall > 0:
            metrics.gauge(
                "sweep.worker_util",
                round(min(1.0, busy / (workers * wall)), 4),
            )
        return results

    def _run_pool(self, specs, results, workers, metrics) -> None:
        """Submit every spec in order and record results as they
        complete; specs that fail in the pool are left ``None``. A
        broken pool is discarded."""
        from concurrent.futures import as_completed
        from concurrent.futures.process import BrokenProcessPool

        from ..obs import get_tracer
        from ..obs.export import WORKER_TID_BASE

        pool = self._ensure_pool(workers, metrics)
        tracer = get_tracer()
        submitted = {}
        broken = False
        try:
            for index, spec in enumerate(specs):
                submitted[pool.submit(_profile_spec_traced, spec)] = index
        except Exception:
            broken = True  # the rest runs serially
        metrics.inc("sweep.sched.dispatched", len(submitted))
        by_pid = {}
        queued = len(submitted)
        for future in as_completed(submitted):
            queued -= 1
            try:
                *result, spans, pid = future.result()
            except BrokenProcessPool:
                broken = True
                continue
            except Exception:
                continue  # re-raised by the serial retry
            tracer.merge(spans, tid=WORKER_TID_BASE + self._slot(pid))
            by_pid[pid] = by_pid.get(pid, 0) + 1
            results[submitted[future]] = tuple(result)
            metrics.record(
                counters={"sweep.sched.completed": 1},
                observations={"sweep.sched.queue_depth": queued},
            )
        if by_pid:
            # A "steal" is a completion beyond the even share a static
            # partition would have handed that worker.
            fair = -(-sum(by_pid.values()) // workers)
            steals = sum(max(0, c - fair) for c in by_pid.values())
            if steals:
                metrics.inc("sweep.sched.steals", steals)
        if broken:
            self._discard(pool)


# ---------------------------------------------------------------------
# process-wide scheduler singleton
# ---------------------------------------------------------------------

_scheduler = None
_scheduler_lock = threading.Lock()


def default_scheduler() -> SweepScheduler:
    """The process-wide scheduler shared by every sweep entry point."""
    global _scheduler
    if _scheduler is None:
        with _scheduler_lock:
            if _scheduler is None:
                _scheduler = SweepScheduler()
                atexit.register(shutdown_scheduler)
    return _scheduler


def shutdown_scheduler() -> None:
    """Close the persistent pool (no-op when none was ever created).

    Tests call this before monkeypatching worker entry points so the
    next sweep forks fresh workers that inherit the patched globals.
    """
    scheduler = _scheduler
    if scheduler is not None:
        scheduler.shutdown()


def map_profiles(specs, max_workers=None):
    """Profile every spec, in parallel when it pays off.

    Returns results aligned with ``specs`` (deterministic order). Specs
    run on the persistent process pool; any the pool could not finish
    (a worker died, or no pool could be built) run serially in the
    parent. Worker spans merge into the parent trace under the owning
    worker's stable ``worker-<slot>`` lane; serially run specs record
    their spans on the parent tracer directly.
    """
    return default_scheduler().run(specs, max_workers=max_workers)
