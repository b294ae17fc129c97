"""``serve``: open-loop traffic into an in-process ``ReductionServer``.

One submitting thread sends seeded Poisson arrivals to a server with
``ServerConfig()`` defaults: the ``serve.client.DEFAULT_MIX`` of
(op, ctype, version) across 3 tenants, sizes uniform in 1..4096. Two
phases of equal length run back to back: ``light`` at 50 requests/s,
which mostly bypasses fusion, and ``heavy`` at 150 requests/s, which
uses it. Latency is timed from each request's due time, so a stalled
generator shows up as latency; the limit is 100 ms.
"""

from __future__ import annotations

import time
from concurrent.futures import wait
from functools import partial

import numpy as np

from common import Outcome, Recorder, median, percentile
from oracles import value_ok

PHASES = (("light", 50.0), ("heavy", 150.0))
LIMIT_S = 0.100
SIZES = (1, 4096)
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
#: How often the submitting thread samples the session queue depths.
_DEPTH_EVERY_S = 0.1


def requests(rng, mix, rate: float, duration: float) -> list:
    """Seeded Poisson arrivals: (due offset s, tenant, op, ctype, version, data)."""
    out = []
    due = rng.exponential(1.0 / rate)
    while due < duration:
        index = len(out)
        op, ctype, version = mix[index % len(mix)]
        n = int(rng.integers(SIZES[0], SIZES[1] + 1))
        if ctype == "int":
            data = rng.integers(-1000, 1000, size=n).astype(np.int32)
        else:
            data = rng.standard_normal(n).astype(np.float32)
        out.append((due, TENANTS[index % len(TENANTS)], op, ctype, version, data))
        due += rng.exponential(1.0 / rate)
    return out


class _Phase:
    """One open-loop phase and what it measured."""

    def __init__(self, name: str, rate: float, duration: float, reqs: list):
        self.name = name
        self.rate = rate
        self.duration = duration
        self.reqs = reqs
        self.latencies = []
        self.late = []
        self.submit_s = []
        self.depth_max = 0
        self.stats = {}

    def drive(self, server, out: Outcome, rec) -> None:
        from repro.serve import ServeError

        count = len(self.reqs)
        done = [None] * count
        futures = {}
        before = server.stats()
        next_depth = 0.0
        start = time.perf_counter() + 0.01
        for index, (offset, tenant, op, ctype, version, data) in enumerate(self.reqs):
            due = start + offset
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            now = time.perf_counter()
            self.late.append(now - due)
            try:
                with rec.span("serve.submit", rid=f"{self.name}-{index}"):
                    future = server.submit(
                        data, op=op, ctype=ctype, version=version, tenant=tenant
                    )
            except ServeError as exc:
                out.check(False, f"serve {self.name} request {index}: {exc!r}")
                continue
            self.submit_s.append(time.perf_counter() - now)
            future.add_done_callback(partial(_stamp, done, index))
            futures[index] = future
            if now >= next_depth:
                depths = server.stats()["sessions"].values()
                self.depth_max = max(self.depth_max, max(depths, default=0))
                next_depth = now + _DEPTH_EVERY_S
        wait(list(futures.values()), timeout=120)
        after = server.stats()
        self.stats = {
            key: after[key] - before[key]
            for key in ("responses", "launches", "fused_requests", "fallbacks")
        }
        for index, future in futures.items():
            offset, _, op, ctype, version, data = self.reqs[index]
            try:
                response = future.result(timeout=0)
            except Exception as exc:  # a failed request is counted, not raised
                out.check(False, f"serve {self.name} request {index}: {exc!r}")
                continue
            if out.check(
                value_ok(op, data, response.value),
                f"serve {self.name} {op}/{ctype} version {version} n={len(data)}: "
                f"got {response.value!r}",
            ):
                self.latencies.append(done[index] - (start + offset))

    def goodput(self) -> float:
        """Answers within the limit per second, at the offered rate (the
        share of sent requests, times the rate, so the Poisson draw of
        the request count does not add noise)."""
        good = sum(1 for latency in self.latencies if latency <= LIMIT_S)
        return self.rate * good / len(self.reqs)


def _stamp(done: list, index: int, _future) -> None:
    done[index] = time.perf_counter()


def _phases(rng, mix, seconds: float) -> list:
    duration = seconds / len(PHASES)
    return [
        _Phase(name, rate, duration, requests(rng, mix, rate, duration))
        for name, rate in PHASES
    ]


def run(ctx) -> Outcome:
    from repro.perf import default_plan_cache
    from repro.serve import DEFAULT_MIX, ReductionServer, ServerConfig

    out = Outcome()
    rng = np.random.default_rng(ctx.seed)
    mix = tuple(DEFAULT_MIX)
    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    phases = _phases(rng, mix, seconds)
    traced = _phases(rng, mix, seconds) if ctx.trace else []
    server = ReductionServer(ServerConfig())
    try:
        # Warm-up: one request per mix entry opens every session.
        for op, ctype, version in mix:
            data = rng.standard_normal(64).astype(np.float32 if ctype == "float" else np.int32)
            response = server.submit(data, op=op, ctype=ctype, version=version).result(60)
            out.check(value_ok(op, data, response.value), f"serve warm-up {op}/{ctype}")
        ctx.end_setup()

        plans = default_plan_cache()
        before = plans.stats.as_dict()
        for phase in phases:
            phase.drive(server, out, Recorder(enabled=False))
        after = plans.stats.as_dict()
        if ctx.trace:
            import repro.serve.scheduler as scheduler

            rec = ctx.recorder
            rec.wrap(scheduler, "build_segmented_plan_cached", "codegen.segmented.build")
            rec.wrap(scheduler, "execute_segmented_plan", "codegen.segmented.execute")
            for phase in traced:
                phase.drive(server, out, rec)
            rec.unwrap()
    finally:
        server.close()

    light, heavy = phases
    for phase in phases:
        out.notes.append(
            f"serve: {phase.name} {len(phase.reqs)} requests at {phase.rate:g}/s "
            f"over {phase.duration:g} s, {len(phase.latencies)} answered correctly"
        )
    out.breakdown["serve_p50_ms.light"] = median(light.latencies) * 1e3
    out.breakdown["serve_p99_ms.light"] = percentile(light.latencies, 99) * 1e3
    out.breakdown["serve_p50_ms.heavy"] = median(heavy.latencies) * 1e3
    out.breakdown["serve_goodput_rps.heavy"] = heavy.goodput()
    out.metrics["work_per_s"] = out.breakdown["serve_goodput_rps.heavy"]
    if ctx.trace:
        _layers(out, phases, traced, before, after)
    return out


def _layers(out: Outcome, phases: list, traced: list, before: dict, after: dict) -> None:
    late = [x for phase in phases for x in phase.late]
    out.layers["serve.submit_us"] = median(
        x for phase in phases for x in phase.submit_s
    ) * 1e6
    out.layers["serve.gen_late_ms.p99"] = percentile(late, 99) * 1e3
    out.layers["serve.gen_late_ms.max"] = max(late) * 1e3
    for phase in phases:
        stats = phase.stats
        responses = max(stats["responses"], 1)
        out.layers[f"serve.fusion_ratio.{phase.name}"] = (
            stats["responses"] / max(stats["launches"], 1)
        )
        out.layers[f"serve.fused_frac.{phase.name}"] = stats["fused_requests"] / responses
        out.layers[f"serve.launches_per_request.{phase.name}"] = (
            stats["launches"] / responses
        )
    out.layers["serve.fallbacks"] = sum(phase.stats["fallbacks"] for phase in phases)
    out.layers["serve.queue_depth_max"] = max(phase.depth_max for phase in phases)
    misses = after["misses"] - before["misses"]
    hits = after["hits"] - before["hits"]
    out.layers["serve.plan_cache.miss_frac"] = misses / max(hits + misses, 1)
    untraced = median(phases[0].latencies)
    with_spans = median(traced[0].latencies)
    out.layers["trace_overhead_frac.serve"] = with_spans / untraced - 1.0
