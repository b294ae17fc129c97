"""Per-session batching scheduler: the cross-request launch fusion core.

One :class:`SessionScheduler` exists per (op, ctype, version) session.
It owns a bounded intake queue and a single batcher thread that

1. blocks until a request arrives,
2. keeps collecting requests for at most ``window_s`` seconds (or until
   the batch hits its request/element caps),
3. packs the survivors as heterogeneous segments of ONE segmented
   reduction plan (:mod:`repro.codegen.segmented`) and executes them as
   a single launch through the configured engine backend,
4. resolves each request's Future with a per-segment result that is
   bit-identical to what a standalone run of that request returns.

Degradation is graceful and silent: when segmented synthesis rejects
the version (stride grid patterns), the batch re-executes unfused — one
standalone plan per request — and only the ``fallbacks`` counter and its
per-cause ``serve.fallbacks.<cause>`` metric tell the difference. Any
other fused-path failure is a bug and fails the batch. A batch of one
skips fusion entirely (there is nothing to fuse).

The batcher thread is the only thread that touches the framework and
executor state for its session; everything it shares with submitters is
either the thread-safe queue or per-request Futures.
"""

from __future__ import annotations

import queue
import threading
import time

import numpy as np

from ..codegen.segmented import (
    build_segmented_plan_cached,
    execute_segmented_plan,
)
from ..core.sources import identity_value
from ..lang.errors import SynthesisError
from ..obs import default_metrics
from ..runtime.session import ReductionFramework
from .errors import DeadlineExceeded, RequestInvalid, ServerClosed
from .request import ReduceResponse, SessionKey, _Pending

#: Queue sentinel: wakes the batcher for shutdown.
_CLOSE = object()


class SessionScheduler:
    """Batching scheduler for one (op, ctype, version) session."""

    def __init__(self, key: SessionKey, config, account, on_finish):
        self.key = key
        self.config = config
        #: Server accounting callback: ``account(**counter_deltas)``.
        self._account = account
        #: Server per-request completion callback (quota release).
        self._on_finish = on_finish
        self._queue = queue.Queue(maxsize=config.max_queue_depth)
        self._saw_close = False
        self._drain = config.drain_on_close
        self._fw = None
        self._fw_error = None
        self._thread = threading.Thread(
            target=self._loop, name=f"serve-{key.label()}", daemon=True
        )
        self._thread.start()

    # -- submitter side ------------------------------------------------

    def try_enqueue(self, pending: _Pending) -> bool:
        """Non-blocking enqueue; False means the bounded queue is full."""
        try:
            self._queue.put_nowait(pending)
        except queue.Full:
            return False
        self._gauge_depth()
        return True

    def close(self, drain: bool) -> None:
        """Ask the batcher to stop; pending work is drained or rejected
        per ``drain``. The sentinel bypasses the bound on purpose."""
        self._drain = drain
        self._queue.put(_CLOSE)

    def join(self, timeout: float = None) -> None:
        self._thread.join(timeout=timeout)

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    # -- batcher thread ------------------------------------------------

    def _loop(self) -> None:
        while not self._saw_close:
            item = self._queue.get()
            if item is _CLOSE:
                self._saw_close = True
                break
            batch = self._collect(item)
            self._gauge_depth()
            if self._saw_close and not self._drain:
                # Close raced into the collection window: these requests
                # were never executed, so a no-drain close rejects them
                # like the rest of the queue.
                for pending in batch:
                    self._reject(pending, ServerClosed("server closed"))
                    self._account(rejected_closed=1)
            else:
                self._execute(batch)
        self._shutdown_drain()

    def _collect(self, first: _Pending) -> list:
        """The fusion window: bounded in time, requests and elements."""
        config = self.config
        batch = [first]
        total = len(first.request.data)
        deadline = time.perf_counter() + config.window_s
        while (
            len(batch) < config.max_batch_requests
            and total < config.max_batch_elements
        ):
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            try:
                item = self._queue.get(timeout=remaining)
            except queue.Empty:
                break
            if item is _CLOSE:
                self._saw_close = True
                break
            batch.append(item)
            total += len(item.request.data)
        return batch

    def _shutdown_drain(self) -> None:
        """After the close sentinel: finish or reject whatever queued."""
        leftovers = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _CLOSE:
                leftovers.append(item)
        if not leftovers:
            return
        if self._drain:
            config = self.config
            for start in range(0, len(leftovers), config.max_batch_requests):
                self._execute(leftovers[start:start + config.max_batch_requests])
        else:
            for pending in leftovers:
                self._reject(pending, ServerClosed("server closed"))
                self._account(rejected_closed=1)

    # -- execution -----------------------------------------------------

    def _framework(self) -> ReductionFramework:
        if self._fw_error is not None:
            raise self._fw_error
        if self._fw is None:
            try:
                self._fw = ReductionFramework(
                    op=self.key.op,
                    ctype=self.key.ctype,
                    engine=self.config.engine,
                )
                self._fw.resolve(self.key.version)
            except (ValueError, KeyError) as exc:
                self._fw = None
                self._fw_error = RequestInvalid(str(exc))
                raise self._fw_error from exc
        return self._fw

    def _execute(self, batch: list) -> None:
        now = time.perf_counter()
        live = []
        for pending in batch:
            if pending.expired(now):
                self._reject(
                    pending, DeadlineExceeded(now - pending.submitted_at)
                )
                self._account(rejected_deadline=1)
            else:
                live.append(pending)
        if not live:
            return

        try:
            fw = self._framework()
        except RequestInvalid as exc:
            for pending in live:
                self._reject(pending, exc)
                self._account(rejected_invalid=1)
            return

        fused = False
        if self.config.fuse and len(live) > 1:
            fused = self._execute_fused(fw, live)
        if not fused:
            self._execute_unfused(fw, live, batch_size=len(live))

    def _execute_fused(self, fw, live) -> bool:
        """One segmented launch for the whole batch; False → caller
        falls back to unfused execution (graceful degradation).

        Only a version that cannot be segment-fused degrades. Any other
        failure is a bug: every request in the batch is rejected with
        it and counted under ``errors``.
        """
        arrays = [pending.request.data for pending in live]
        lengths = [len(a) for a in arrays]
        try:
            plan = build_segmented_plan_cached(
                fw.pre,
                fw.resolve(self.key.version),
                lengths,
                backend=fw.engine_backend,
            )
            results, profile = execute_segmented_plan(
                plan, arrays, mode=fw.engine_mode, backend=fw.engine_backend
            )
        except SynthesisError as exc:
            # The version cannot be segment-fused (stride grid pattern).
            self._account(fallbacks=1)
            default_metrics().inc(f"serve.fallbacks.{exc.cause or 'other'}")
            return False
        except Exception as exc:
            for pending in live:
                self._reject(pending, exc)
            self._account(errors=len(live))
            return True
        launches = len(profile.steps)
        batch_elements = int(sum(lengths))
        now = time.perf_counter()
        latencies = {}
        for index, pending in enumerate(live):
            response = ReduceResponse(
                value=float(results[index]),
                n=lengths[index],
                fused=True,
                batch_size=len(live),
                latency_s=now - pending.submitted_at,
                plan_name=plan.name,
            )
            self._resolve(pending, response)
        self._account(
            responses=len(live),
            fused_requests=len(live),
            launches=launches,
            batches=1,
            fused_batches=1,
        )
        self._metrics_batch(
            live, fused=True, launches=launches, elements=batch_elements
        )
        return True

    def _execute_unfused(self, fw, live, batch_size: int) -> None:
        launches = 0
        served = 0
        elements = 0
        for pending in live:
            data = pending.request.data
            try:
                value, plan_name, request_launches = self._run_one(fw, data)
            except Exception as exc:  # surfaced to the one caller
                self._reject(pending, exc)
                self._account(errors=1)
                continue
            launches += request_launches
            served += 1
            elements += len(data)
            response = ReduceResponse(
                value=value,
                n=len(data),
                fused=False,
                batch_size=batch_size,
                latency_s=time.perf_counter() - pending.submitted_at,
                plan_name=plan_name,
            )
            self._resolve(pending, response)
        if served:
            self._account(
                responses=served,
                unfused_requests=served,
                launches=launches,
                batches=1,
            )
            self._metrics_batch(
                live[:served], fused=False, launches=launches,
                elements=elements,
            )

    def _run_one(self, fw, data: np.ndarray):
        """Standalone execution of one request (the unfused path and the
        reference semantics for fused results)."""
        if len(data) == 0:
            # An empty reduction is the operator identity — the same
            # value an empty segment produces in a fused launch.
            identity = identity_value(self.key.op, self.key.ctype)
            return float(np.array(identity, dtype=fw.dtype)), "", 0
        result = fw.run(data, version=self.key.version)
        return result.value, result.plan_name, len(result.profile.steps)

    # -- resolution & telemetry ---------------------------------------

    def _resolve(self, pending: _Pending, response: ReduceResponse) -> None:
        pending.future.set_result(response)
        self._on_finish(pending)

    def _reject(self, pending: _Pending, error: Exception) -> None:
        pending.future.set_exception(error)
        self._on_finish(pending)

    def _metrics_batch(self, live, fused: bool, launches: int,
                       elements: int) -> None:
        """One grouped registry update per executed batch."""
        kind = "fused" if fused else "unfused"
        latency_key = f"serve.latency_us.{self.key.label()}"
        observations = {
            "serve.batch_segments": len(live),
            "serve.batch_elements": elements,
        }
        metrics = default_metrics()
        metrics.record(
            counters={
                f"serve.batches.{kind}": 1,
                f"serve.requests.{kind}": len(live),
                "serve.launches": launches,
            },
            observations=observations,
        )
        # Latency samples are per request; observe() them individually
        # (record() takes one value per histogram name).
        now = time.perf_counter()
        for pending in live:
            metrics.observe(
                latency_key, (now - pending.submitted_at) * 1e6
            )

    def _gauge_depth(self) -> None:
        default_metrics().gauge(
            f"serve.queue_depth.{self.key.label()}", self._queue.qsize()
        )
