"""``sweep``: the paper's tuning run, cold.

The grid is ``autotune.tuner.sweep_specs`` over the 16 Figure-6
versions x default blocks/grids x n in {4096, 65536, 1048576} (720
points, add/float), profiled through ``ReductionFramework.profile_many``
on the default pool; then ``fw.time`` runs on kepler/maxwell/pascal and
the fastest point per (arch, n) is picked. Before every sweep the
profile and plan caches are cleared and the pool is shut down, so each
sweep pays plan build, sampled simulation and pool start-up.
"""

from __future__ import annotations

import random
import time

from common import Outcome, median
from oracles import events_equal

SIZES = (4096, 65536, 1048576)
ARCHS = ("kepler", "maxwell", "pascal")
GRID_POINTS = 720
#: Points re-profiled by the reference engine after the timed phase.
ORACLE_POINTS = 3

#: Scheduler counters of ``repro.obs.default_metrics()`` -> layer metric.
_SCHED_COUNTERS = {
    "sweep.sched.dispatched": "sweep.sched.dispatched",
    "sweep.sched.completed": "sweep.sched.completed",
    "sweep.sched.retried": "sweep.sched.retried",
    "sweep.sched.steals": "sweep.sched.steals",
    "sweep.sched.pool_spawns": "sweep.pool_spawns",
}


class _Sweep:
    def __init__(self, seed: int):
        from repro import ReductionFramework
        from repro.autotune.tuner import sweep_specs

        self.fw = ReductionFramework(op="add", ctype="float")
        specs = sweep_specs(self.fw, SIZES)
        random.Random(seed).shuffle(specs)
        self.specs = specs
        self.rng = random.Random(seed)

    def cold(self, max_workers=None):
        """One cold sweep; returns (wall seconds, winners, cache stats delta)."""
        from repro.perf import default_cache, default_plan_cache, shutdown_scheduler

        cache = default_cache()
        cache.clear()
        default_plan_cache().clear()
        shutdown_scheduler()
        before = cache.stats.as_dict()
        start = time.perf_counter()
        self.fw.profile_many(self.specs, max_workers=max_workers)
        winners = {}
        for arch in ARCHS:
            for version, n, tunables in self.specs:
                seconds = self.fw.time(n, version, arch, tunables)
                key = (arch, n)
                if key not in winners or seconds < winners[key][0]:
                    winners[key] = (seconds, version.identifier, tunables)
        wall = time.perf_counter() - start
        after = cache.stats.as_dict()
        delta = {k: after[k] - before[k] for k in ("misses", "stores", "hits")}
        return wall, {key: value[1:] for key, value in winners.items()}, delta

    def check_cold(self, out: Outcome, delta: dict) -> None:
        out.check(
            delta["stores"] == GRID_POINTS,
            f"sweep stored {delta['stores']} profiles, expected {GRID_POINTS}",
        )

    def check_reference(self, out: Outcome) -> None:
        """Re-profile a seeded sample serially on the reference engine."""
        from repro import ReductionFramework
        from repro.perf import ProfileCache

        reference = ReductionFramework(
            op="add", ctype="float", engine="sequential-interpreted",
            cache=ProfileCache(),
        )
        for version, n, tunables in self.rng.sample(self.specs, ORACLE_POINTS):
            got, got_memsets = self.fw.profile(version, n, tunables)
            ref, ref_memsets = reference.profile(version, n, tunables)
            out.check(
                events_equal(got, ref) and got_memsets == ref_memsets,
                f"sweep point {version.identifier} n={n} {tunables}: events "
                "differ from sequential-interpreted",
            )


def run(ctx) -> Outcome:
    from repro.perf import resolve_workers

    out = Outcome()
    sweep = _Sweep(ctx.seed)
    out.check(len(sweep.specs) == GRID_POINTS, f"grid has {len(sweep.specs)} points")
    workers = resolve_workers()
    out.notes.append(f"sweep: {len(sweep.specs)} points, {workers} workers")
    ctx.end_setup()

    if ctx.trace:
        _traced(ctx, sweep, out, workers)
    else:
        walls, winners = [], None
        start = time.perf_counter()
        # Whole sweeps only, and none that would end past --seconds.
        while not walls or time.perf_counter() - start + median(walls) <= ctx.seconds:
            wall, found, delta = sweep.cold()
            walls.append(wall)
            sweep.check_cold(out, delta)
            if winners is not None:
                out.check(found == winners, "sweep winners differ between sweeps")
            winners = found
        wall = median(walls)
        out.metrics["work_per_s"] = GRID_POINTS / wall
        out.breakdown["sweep_points_per_s"] = GRID_POINTS / wall
        out.notes.append(f"sweep: {len(walls)} cold sweeps, median {wall:.3f} s")
    sweep.check_reference(out)
    return out


def _traced(ctx, sweep, out, workers) -> None:
    """Pool sweep, untraced serial sweep, then a traced serial sweep
    with spans around plan build, profiling and the timing model."""
    from repro.obs import default_metrics
    import repro.runtime.session as session

    metrics = default_metrics()
    before = metrics.snapshot(include_caches=False)
    pool_wall, _, delta = sweep.cold()
    after = metrics.snapshot(include_caches=False)
    sweep.check_cold(out, delta)
    serial_wall, _, _ = sweep.cold(max_workers=1)

    rec = ctx.recorder
    rec.wrap(session, "build_plan_cached", "codegen.build_plan_cached")
    rec.wrap(session.ReductionFramework, "profile", "runtime.profile")
    rec.wrap(session.ReductionFramework, "time", "runtime.time")
    with rec.span("sweep.serial"):
        traced_wall, _, _ = sweep.cold(max_workers=1)
    rec.unwrap()

    layers = out.layers
    layers["sweep_points_per_s"] = GRID_POINTS / pool_wall
    layers["sweep.plan_build_s"] = rec.total("codegen.build_plan_cached")
    layers["sweep.simulate_s"] = rec.self_time("runtime.profile", parent="sweep.serial")
    layers["sweep.time_model_s"] = rec.total("runtime.time")
    layers["sweep.serial_s"] = serial_wall
    layers["sweep.pool_s"] = pool_wall
    layers["sweep.parallel_efficiency"] = serial_wall / (workers * pool_wall)
    for counter, name in _SCHED_COUNTERS.items():
        layers[name] = after["counters"].get(counter, 0) - before["counters"].get(counter, 0)
    layers["sweep.worker_util"] = after["gauges"].get("sweep.worker_util", 0.0)
    layers["profile_cache.misses"] = delta["misses"]
    layers["profile_cache.stores"] = delta["stores"]
    layers["trace_overhead_frac.sweep"] = traced_wall / serial_wall - 1.0
