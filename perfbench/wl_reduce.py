"""``reduce``: warm, fully executed launches, one client, closed loop.

Legs (backend, engine spec, sizes):

* compiled   ``batched``          n = 65536
* vector     ``batched-vector``   n = 65536, 262144
* native     ``batched-native``   n = 65536, 262144
* sequential ``sequential``       n = 4096

Each leg runs every Figure-6 version x {add/float, max/float, add/int}.
The compiled and sequential legs run at smaller sizes than the others
because a pass over them at 262144 / 65536 takes 25-40 s on a 2-CPU
host. One untimed warm-up pass fills the plan and ``.so`` caches and
checks every value and the cross-backend event counts; then whole
passes run, at least one and none that would end past ``--seconds``.
"""

from __future__ import annotations

import time

import numpy as np

from common import Outcome, geomean, median
from oracles import KNOWN_DEFECTS, event_signature, expected_value, value_ok

VERSIONS = "abcdefghijklmnop"
OPS = (("add", "float"), ("max", "float"), ("add", "int"))
SEQUENTIAL_SIZES = (4096,)
LEGS = (
    ("compiled", "batched", (65536,)),
    ("vector", "batched-vector", (65536, 262144)),
    ("native", "batched-native", (65536, 262144)),
    ("sequential", "sequential", SEQUENTIAL_SIZES),
)


def _inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    sizes = sorted({n for _, _, ns in LEGS for n in ns})
    data = {}
    for n in sizes:
        data[("float", n)] = rng.standard_normal(n).astype(np.float32)
        data[("int", n)] = rng.integers(-1000, 1000, size=n).astype(np.int32)
    return data


def _items() -> list:
    """One pass, legs interleaved so slow drift hits every leg alike."""
    per_leg = [
        [(leg, engine, op, ctype, n, version)
         for op, ctype in OPS for n in sizes for version in VERSIONS]
        for leg, engine, sizes in LEGS
    ]
    order = []
    for index in range(max(len(items) for items in per_leg)):
        order.extend(items[index] for items in per_leg if index < len(items))
    return order


class _Pass:
    def __init__(self, seed: int):
        from repro import ReductionFramework

        self.data = _inputs(seed)
        self.items = _items()
        self.fws = {
            (engine, op, ctype): ReductionFramework(op=op, ctype=ctype, engine=engine)
            for _, engine, _ in LEGS
            for op, ctype in OPS
        }

    def run(self, out: Outcome, rec=None) -> list:
        """One pass; returns (item, host seconds, profile) per item."""
        timings = []
        for rid, item in enumerate(self.items):
            leg, engine, op, ctype, n, version = item
            fw = self.fws[(engine, op, ctype)]
            data = self.data[(ctype, n)]
            if rec is not None:
                with rec.span("reduce.run", rid=rid):
                    start = time.perf_counter()
                    result = fw.run(data, version=version)
                    seconds = time.perf_counter() - start
            else:
                start = time.perf_counter()
                result = fw.run(data, version=version)
                seconds = time.perf_counter() - start
            out.check(
                value_ok(op, data, result.value),
                f"{leg} {op}/{ctype} n={n} version {version}: got "
                f"{result.value!r}, numpy {expected_value(op, data)!r}",
                known=(leg, op, ctype, n, version) in KNOWN_DEFECTS,
            )
            timings.append((item, seconds, result.profile))
        return timings

    def check_events(self, out: Outcome, timings: list) -> None:
        """Same plan, same events: across the batched backends, and the
        sequential leg against a batched run of its plans."""
        from repro import ReductionFramework

        by_plan = {}
        for (leg, _, op, ctype, n, version), _, profile in timings:
            by_plan.setdefault((op, ctype, n, version), []).append(
                (leg, event_signature(profile))
            )
        for op, ctype in OPS:
            peer = ReductionFramework(op=op, ctype=ctype, engine="batched")
            for n in SEQUENTIAL_SIZES:
                for version in VERSIONS:
                    profile = peer.run(self.data[(ctype, n)], version=version).profile
                    by_plan[(op, ctype, n, version)].append(
                        ("batched", event_signature(profile))
                    )
        for (op, ctype, n, version), runs in sorted(by_plan.items()):
            first_leg, first = runs[0]
            for leg, signature in runs[1:]:
                out.check(
                    signature == first,
                    f"events differ: {leg} vs {first_leg} {op}/{ctype} n={n} "
                    f"version {version}",
                )


def _leg_rates(timings: list) -> dict:
    """Simulated Melem per host second, per leg."""
    legs = {}
    for (leg, _, _, _, n, _), seconds, _ in timings:
        entry = legs.setdefault(leg, [0, 0.0])
        entry[0] += n
        entry[1] += seconds
    return {leg: elements / seconds / 1e6 for leg, (elements, seconds) in legs.items()}


def run(ctx) -> Outcome:
    from repro.perf import default_plan_cache

    out = Outcome()
    work = _Pass(ctx.seed)
    warm = work.run(out)
    work.check_events(out, warm)
    ctx.end_setup()

    plans = default_plan_cache()
    before = plans.stats.as_dict()
    if ctx.trace:
        untraced = work.run(out)
        import repro.runtime.session as session
        from repro.gpusim.engine import Executor

        rec = ctx.recorder
        rec.wrap(session, "build_plan_cached", "codegen.build_plan_cached")
        rec.wrap(Executor, "run_plan", "gpusim.run_plan")
        timings = work.run(out, rec=rec)
        rec.unwrap()
        out.layers["trace_overhead_frac.reduce"] = (
            sum(t for _, t, _ in timings) / sum(t for _, t, _ in untraced) - 1.0
        )
    else:
        timings = []
        start = time.perf_counter()
        passes = 0
        # Whole passes only, and none that would end past --seconds.
        while not passes or (elapsed := time.perf_counter() - start) + elapsed / passes <= ctx.seconds:
            timings.extend(work.run(out))
            passes += 1
        out.notes.append(f"reduce: {passes} timed passes of {len(work.items)} launches")
    after = plans.stats.as_dict()

    rates = _leg_rates(timings)
    for leg, melem_per_s in rates.items():
        out.breakdown[f"reduce_melem_per_s.{leg}"] = melem_per_s
    out.metrics["work_per_s"] = geomean(rates.values())
    if ctx.trace:
        _layers(out, timings, before, after)
    return out


def _layers(out: Outcome, timings: list, before: dict, after: dict) -> None:
    largest = {leg: max(sizes) for leg, _, sizes in LEGS}
    calls = {}
    instructions = {}
    for (leg, _, _, _, n, version), seconds, profile in timings:
        if n == largest[leg]:
            calls.setdefault((leg, version), []).append(seconds)
        total = instructions.setdefault(leg, [0.0, 0.0])
        total[0] += sum(
            value for step in profile.steps
            for key, value in step.scaled().items() if key.startswith("inst.")
        )
        total[1] += seconds
    for (leg, version), seconds in calls.items():
        if leg != "sequential":
            out.layers[f"launch_ms.{leg}.{version}"] = median(seconds) * 1e3
    for leg, (count, seconds) in instructions.items():
        out.layers[f"sim_warp_instr_per_s.{leg}"] = count / seconds
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    out.layers["plan_cache.hit_frac.reduce"] = hits / max(hits + misses, 1)
