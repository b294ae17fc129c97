"""Sweep pool: determinism, persistent-pool reuse, and the serial
retry after a worker death or a pool that cannot be built.

The scheduler's contract is that *scheduling is invisible except in
wall time*: whatever order workers complete specs in — including after
a worker death — the caller-visible results, the cache contents, the
cache's LRU order and the tuning tables must be bit-identical to a
serial sweep.
"""

import os

import pytest

from repro.codegen import Tunables
from repro.perf import ProfileCache, shutdown_scheduler
from repro.perf import parallel as parallel_mod
from repro.perf.parallel import (
    DEFAULT_WORKER_CAP,
    MAX_WORKERS_ENV,
    resolve_workers,
)
from repro.runtime import ReductionFramework


def _spec(n, block=64, grid=8, sample_limit=None):
    return ("add", "float", False, None, n, Tunables(block=block, grid=grid),
            sample_limit, "auto", "compiled")


class TestWorkerResolution:
    def test_auto_selection_is_capped(self, monkeypatch):
        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 32)
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        assert resolve_workers() == DEFAULT_WORKER_CAP == 8
        # The cap only bounds auto-selection; fewer cores still win.
        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 4)
        assert resolve_workers() == 4

    def test_max_workers_env_beats_cap(self, monkeypatch):
        monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 32)
        monkeypatch.setenv(MAX_WORKERS_ENV, "12")
        assert resolve_workers() == 12


SIZES = [1024, 2048, 4096, 8192, 16384, 32768]


def _specs():
    return [("b", n, Tunables(block=64, grid=8)) for n in SIZES]


def _table(results):
    return {
        key: (result.tunables, result.time_s)
        for key, result in results.items()
    }


class TestSchedulingDeterminism:
    def test_cache_contents_and_lru_order_match_serial(self):
        serial = ReductionFramework(op="add", cache=ProfileCache())
        serial.profile_many(_specs(), max_workers=1)
        parallel = ReductionFramework(op="add", cache=ProfileCache())
        parallel.profile_many(_specs(), max_workers=2)
        assert list(serial.cache._mem) == list(parallel.cache._mem)
        for key in serial.cache._mem:
            left = serial.cache._mem[key].value
            right = parallel.cache._mem[key].value
            assert left[1] == right[1]  # num_memsets
            assert left[0].result == right[0].result
            for got, ref in zip(left[0].steps, right[0].steps):
                assert dict(got.events) == dict(ref.events)

    def test_tune_all_table_is_schedule_independent(self):
        from repro.autotune import tune_all

        serial = ReductionFramework(op="add", cache=ProfileCache())
        parallel = ReductionFramework(op="add", cache=ProfileCache())
        blocks, grids = (64, 128), (None, 8)
        reference = tune_all(
            serial, 4096, "kepler", candidates=["b", "p"],
            blocks=blocks, grids=grids, max_workers=1,
        )
        stolen = tune_all(
            parallel, 4096, "kepler", candidates=["b", "p"],
            blocks=blocks, grids=grids, max_workers=2,
        )
        assert _table(reference) == _table(stolen)

    def test_selector_table_is_schedule_independent(self):
        from repro.autotune import DynamicSelector

        kwargs = dict(
            sizes=(1024, 16384), candidates=["b", "p"],
            blocks=(64,), grids=(None, 8),
        )
        serial = DynamicSelector.build(
            ReductionFramework(op="add", cache=ProfileCache()),
            "kepler", max_workers=1, **kwargs,
        )
        stolen = DynamicSelector.build(
            ReductionFramework(op="add", cache=ProfileCache()),
            "kepler", max_workers=2, **kwargs,
        )
        assert [
            (e.max_n, e.version_key, e.tunables, e.time_s)
            for e in serial.entries
        ] == [
            (e.max_n, e.version_key, e.tunables, e.time_s)
            for e in stolen.entries
        ]


class TestWorkerEngine:
    @pytest.mark.parametrize("workers", [2, 1], ids=["pool", "serial"])
    def test_profile_many_profiles_on_the_framework_engine(self, workers):
        """Every computed point runs on the calling framework's engine
        spec, whether a pool worker or the parent computed it."""
        fw = ReductionFramework(
            op="add", engine="sequential-interpreted", cache=ProfileCache()
        )
        specs = _specs()[:4]
        entries = fw.profile_many(specs, max_workers=workers)
        assert fw.cache.stats.misses == len(specs)
        for profile, _ in entries:
            assert profile.steps
            for step in profile.steps:
                assert step.meta["exec.mode"] == "sequential"
                assert step.meta["exec.backend"] == "interpreted"


class TestPersistentPool:
    def test_pool_is_reused_across_sweeps(self):
        from repro.obs import default_metrics

        shutdown_scheduler()
        metrics = default_metrics()

        def counters():
            snap = metrics.snapshot()["counters"]
            return (snap.get("sweep.sched.pool_spawns", 0),
                    snap.get("sweep.sched.pool_reuses", 0))

        spawns0, reuses0 = counters()
        fw = ReductionFramework(op="add", cache=ProfileCache())
        fw.profile_many(_specs(), max_workers=2)
        fw2 = ReductionFramework(op="add", cache=ProfileCache())
        fw2.profile_many(_specs(), max_workers=2)
        spawns1, reuses1 = counters()
        assert spawns1 - spawns0 == 1  # second sweep reused the pool
        assert reuses1 - reuses0 >= 1
        shutdown_scheduler()


# Module-level so forked pool workers inherit them (the test rebinds
# them via monkeypatch before the pool is created).
_DIE_ONCE_ORIGINAL = None
_DIE_ONCE_FLAG = None
_DIE_ONCE_POISON_N = None


def _die_once_entry(spec):
    """Kill the worker the first time it sees the poisoned spec; the
    flag file lets the next pool's workers run it normally."""
    if spec[4] == _DIE_ONCE_POISON_N:
        import os as _os

        if not _os.path.exists(_DIE_ONCE_FLAG):
            open(_DIE_ONCE_FLAG, "w").close()
            _os._exit(1)
    return _DIE_ONCE_ORIGINAL(spec)


class TestFaultTolerance:
    def test_die_once_worker_death_retries_only_unfinished(
        self, monkeypatch, tmp_path
    ):
        import sys

        from repro.obs import default_metrics

        this_module = sys.modules[__name__]
        monkeypatch.setattr(
            this_module, "_DIE_ONCE_ORIGINAL",
            parallel_mod._profile_spec_traced,
        )
        monkeypatch.setattr(
            this_module, "_DIE_ONCE_FLAG", str(tmp_path / "died-once")
        )
        monkeypatch.setattr(this_module, "_DIE_ONCE_POISON_N", 4096)
        monkeypatch.setattr(
            parallel_mod, "_profile_spec_traced", _die_once_entry
        )
        # Fork after the patch so workers inherit the poisoned entry.
        shutdown_scheduler()

        serial = ReductionFramework(op="add", cache=ProfileCache())
        expected = serial.profile_many(_specs(), max_workers=1)

        metrics = default_metrics()
        retried0 = metrics.snapshot()["counters"].get(
            "sweep.sched.retried", 0
        )
        try:
            fw = ReductionFramework(op="add", cache=ProfileCache())
            results = fw.profile_many(_specs(), max_workers=2)
            retried1 = metrics.snapshot()["counters"].get(
                "sweep.sched.retried", 0
            )
            # The broken pool was discarded: the next sweep spawns a
            # fresh one.
            spawns0 = metrics.snapshot()["counters"].get(
                "sweep.sched.pool_spawns", 0
            )
            fresh = ReductionFramework(op="add", cache=ProfileCache())
            fresh.profile_many(_specs(), max_workers=2)
            spawns1 = metrics.snapshot()["counters"].get(
                "sweep.sched.pool_spawns", 0
            )
        finally:
            shutdown_scheduler()  # no poisoned forks leak to later tests

        assert os.path.exists(str(tmp_path / "died-once"))  # it did die
        assert len(results) == len(expected)
        for (profile, memsets), (ref_profile, ref_memsets) in zip(
            results, expected
        ):
            assert memsets == ref_memsets
            assert profile.result == ref_profile.result
        # Only unfinished specs were re-dispatched — never the whole
        # list (the old fallback re-ran all six).
        assert 1 <= retried1 - retried0 < len(SIZES)
        assert spawns1 - spawns0 == 1

    def test_unbuildable_pool_runs_every_spec_serially(self, monkeypatch):
        import concurrent.futures

        from repro.obs import default_metrics
        from repro.perf import default_cache

        def _no_pool(*args, **kwargs):
            raise OSError("no process pool on this host")

        version = ReductionFramework(op="add").resolve("b")
        specs = [
            ("add", "float", False, version, n, Tunables(block=64, grid=8),
             None, "auto", "compiled")
            for n in SIZES
        ]
        serial = parallel_mod.map_profiles(specs, max_workers=1)
        default_cache().clear()  # the retry must profile, not hit
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _no_pool
        )
        shutdown_scheduler()
        metrics = default_metrics()
        retried0 = metrics.snapshot()["counters"].get(
            "sweep.sched.retried", 0
        )
        results = parallel_mod.map_profiles(specs, max_workers=2)
        retried1 = metrics.snapshot()["counters"].get(
            "sweep.sched.retried", 0
        )
        assert retried1 - retried0 == len(SIZES)
        assert len(results) == len(serial)
        for (profile, memsets, _), (ref_profile, ref_memsets, _) in zip(
            results, serial
        ):
            assert memsets == ref_memsets
            assert profile.result == ref_profile.result
            for got, ref in zip(profile.steps, ref_profile.steps):
                assert dict(got.events) == dict(ref.events)

    def test_serial_tail_propagates_real_errors(self, monkeypatch):
        def _boom(spec):
            raise ValueError("deterministic spec failure")

        monkeypatch.setattr(parallel_mod, "_profile_spec", _boom)
        monkeypatch.setattr(parallel_mod, "_profile_spec_traced", _boom)
        shutdown_scheduler()
        try:
            with pytest.raises(ValueError, match="deterministic spec"):
                parallel_mod.map_profiles(
                    [_spec(n) for n in (64, 128, 256, 512)], max_workers=2
                )
        finally:
            shutdown_scheduler()
