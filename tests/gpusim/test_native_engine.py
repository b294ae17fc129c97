"""Native (generated-C) backend: bit-identical to the vector backend.

The native backend lowers fused regions, megafused While loops, shuffle
gathers and region+shuffle chains to C compiled into per-plan shared
libraries; everything it cannot lower falls back to the vector/compiled
closures.  Its contract is the same as every backend behind
:class:`repro.gpusim.backend.Backend`: bit-identical results AND
identical per-step event counters, for every Figure 6 version, op,
element type and execution mode, with and without the sanitizer
attached.  These tests also lock the graceful-degradation story (no C
toolchain -> unavailable with a reason, never a crash), the dtype edge
cases (NaN min/max, int64 extremes), the chain-fusion statistics, the
plan cache's native keying and the ``native.*`` metrics.

Equivalence tests skip cleanly on hosts without a C compiler; the
degradation tests run everywhere (they force unavailability via
``REPRO_NATIVE_DISABLE``).
"""

import itertools

import numpy as np
import pytest

from repro.codegen import Tunables, build_plan_cached, plan_key
from repro.gpusim import Executor
from repro.gpusim.native import (
    lower_kernel,
    native_available,
    reset_toolchain_cache,
    unavailable_reason,
)
from repro.runtime import ReductionFramework

FIG6_LABELS = "abcdefghijklmnop"
OPS = ("add", "max", "min")
CTYPES = ("float", "int")
MODES = ("sequential", "batched")

needs_toolchain = pytest.mark.skipif(
    not native_available(), reason="no C toolchain on this host"
)


def _tunables(version):
    if version.block_kind == "coop":
        return Tunables(block=64)
    return Tunables(block=64, grid=8)


def _data(ctype, n, seed=7):
    rng = np.random.default_rng(seed)
    if ctype == "int":
        return rng.integers(-50, 50, size=n).astype(np.int32)
    return rng.random(n).astype(np.float32)


def _run(plan, data, mode="batched", backend="native", sanitizer=None):
    executor = Executor(mode=mode, backend=backend, sanitizer=sanitizer)
    executor.device.upload("in", data)
    return executor.run_plan(plan)


def _same_scalar(a, b):
    """Bit-exact equality that treats NaN == NaN (results may be NaN)."""
    if a == b:
        return True
    try:
        return bool(np.isnan(a)) and bool(np.isnan(b))
    except TypeError:
        return False


def _assert_profiles_identical(ref, got):
    assert _same_scalar(got.result, ref.result), (got.result, ref.result)
    assert len(got.steps) == len(ref.steps)
    for r, g in zip(ref.steps, got.steps):
        assert dict(g.events) == dict(r.events), r.kernel_name


@pytest.fixture(scope="module")
def frameworks():
    return {
        (op, ctype): ReductionFramework(op=op, ctype=ctype)
        for op, ctype in itertools.product(OPS, CTYPES)
    }


@needs_toolchain
class TestFigure6NativeEquivalence:
    @pytest.mark.parametrize("label", sorted(FIG6_LABELS))
    @pytest.mark.parametrize("ctype", CTYPES)
    @pytest.mark.parametrize("op", OPS)
    def test_results_and_events_identical(self, frameworks, label, op, ctype):
        """Exhaustive: every Fig. 6 version × op × element type, both
        modes, native vs vector (itself locked to the interpreter)."""
        fw = frameworks[(op, ctype)]
        n = 3333
        data = _data(ctype, n)
        version = fw.resolve(label)
        plan = fw.build(version, n, _tunables(version))
        for mode in MODES:
            ref = _run(plan, data, mode=mode, backend="vector")
            got = _run(plan, data, mode=mode, backend="native")
            _assert_profiles_identical(ref, got)

    @pytest.mark.parametrize("mode", MODES)
    def test_sanitized_native_reports_match_vector(self, frameworks, mode):
        """Same diagnostics (kind, kernel) with the sanitizer attached:
        lowered fragments fall back to the closure path under a
        sanitizer, so shadow-state hooks observe identical traffic."""
        from repro.sanitize import Sanitizer

        fw = frameworks[("add", "float")]
        n = 1024
        data = _data("float", n)
        plan = fw.build("d", n, Tunables(block=64, grid=4))
        reports = {}
        for backend in ("vector", "native"):
            sanitizer = Sanitizer()
            _run(plan, data, mode=mode, backend=backend, sanitizer=sanitizer)
            reports[backend] = [
                (d.kind, d.kernel) for d in sanitizer.diagnostics
            ]
        assert reports["native"] == reports["vector"]

    @pytest.mark.parametrize("label", sorted(FIG6_LABELS))
    def test_equal_shaped_chunks(self, frameworks, label, monkeypatch):
        """A launch split into several equal-shaped batch chunks. Native
        wrappers reuse their output arrays across chunks, so no analysis
        memoized on a register array may outlive its chunk."""
        monkeypatch.setattr(Executor, "BATCH_LANES", 1024)
        fw = frameworks[("add", "int")]
        n = 8192
        data = _data("int", n)
        plan = fw.build(label, n, Tunables(block=256))
        assert plan.steps[-1].grid == 32  # eight chunks of four blocks
        ref = _run(plan, data, mode="batched", backend="vector")
        got = _run(plan, data, mode="batched", backend="native")
        _assert_profiles_identical(ref, got)

    def test_native_after_vector_warm_is_unperturbed(self, frameworks):
        """Artifact memos are per backend: running vector first (and the
        sanitized fallback path) must not leak into a native run."""
        fw = frameworks[("add", "float")]
        n = 2048
        data = _data("float", n)
        plan = fw.build("b", n, Tunables(block=64, grid=8))
        ref = _run(plan, data, mode="batched", backend="vector")
        got = _run(plan, data, mode="batched", backend="native")
        _assert_profiles_identical(ref, got)
        got2 = _run(plan, data, mode="batched", backend="native")
        _assert_profiles_identical(ref, got2)


@needs_toolchain
class TestDtypeEdgeCases:
    """Generated C must round-trip numpy's exact semantics at the edges:
    NaN propagation through min/max, int64 extremes, and bool/int/float
    promotion inside predicated regions."""

    @pytest.mark.parametrize("op", ("max", "min"))
    def test_float32_nan_min_max(self, frameworks, op):
        fw = frameworks[(op, "float")]
        n = 3333
        data = _data("float", n)
        data[[0, 17, 1000, n - 1]] = np.nan
        version = fw.resolve("b")
        plan = fw.build(version, n, _tunables(version))
        ref = _run(plan, data, backend="vector")
        got = _run(plan, data, backend="native")
        _assert_profiles_identical(ref, got)

    @pytest.mark.parametrize("op", OPS)
    def test_int_extremes_bitexact(self, frameworks, op):
        """Full-range int32 inputs (INT32_MIN/MAX mixed in): the int64
        accumulator arithmetic must match numpy bit for bit, including
        any wraparound behaviour on summation."""
        fw = frameworks[(op, "int")]
        n = 3333
        rng = np.random.default_rng(11)
        data = rng.integers(
            np.iinfo(np.int32).min, np.iinfo(np.int32).max,
            size=n, dtype=np.int64,
        ).astype(np.int32)
        data[0] = np.iinfo(np.int32).min
        data[-1] = np.iinfo(np.int32).max
        version = fw.resolve("b")
        plan = fw.build(version, n, _tunables(version))
        ref = _run(plan, data, backend="vector")
        got = _run(plan, data, backend="native")
        _assert_profiles_identical(ref, got)

    @pytest.mark.parametrize("label", ("d", "g", "p"))
    def test_mixed_promotion_in_predicated_versions(
        self, frameworks, label
    ):
        """Versions mixing bool predicates, int lane math and float
        accumulation in one region (conditional tree / warp variants):
        promotion inside the generated expressions must match numpy."""
        fw = frameworks[("add", "float")]
        n = 2048
        data = _data("float", n)
        data[::7] = -0.0  # signed zero through the predicate paths
        version = fw.resolve(label)
        plan = fw.build(version, n, _tunables(version))
        ref = _run(plan, data, backend="vector")
        got = _run(plan, data, backend="native")
        _assert_profiles_identical(ref, got)


@needs_toolchain
class TestNativeLoweringStats:
    def test_lowering_stats_for_warp_version(self):
        """Version (b) at a warp-rich shape lowers regions, the
        megafused accumulation loop, shuffles AND at least one fused
        region+shuffle chain (the warp reduction tree)."""
        fw = ReductionFramework(op="add")
        plan = fw.build("b", 1 << 14, Tunables(block=256, grid=8))
        totals = {}
        for step in plan.kernel_steps():
            nk = lower_kernel(step.kernel)
            for key, value in nk.stats.items():
                if key.startswith("native_"):
                    totals[key] = totals.get(key, 0) + value
        assert totals["native_regions"] >= 1
        assert totals["native_loops"] >= 1
        assert totals["native_shfls"] >= 1
        assert totals["native_chains"] >= 1

    def test_native_metrics_flow_to_registry(self):
        from repro.obs import default_metrics

        metrics = default_metrics()
        before = metrics.counter("native.kernels")
        fw = ReductionFramework(op="add")
        # Odd size/shape no other test builds: lowering is memoized per
        # kernel, so a shared plan would bump no counters here.
        n = 4111
        plan = fw.build("b", n, Tunables(block=64, grid=3))
        _run(plan, _data("float", n), backend="native")
        snap = metrics.snapshot(include_caches=False)
        assert metrics.counter("native.kernels") > before
        counters = snap["counters"]
        assert counters.get("native.cache.hits", 0) + counters.get(
            "native.cache.misses", 0
        ) >= 1
        # Compile time lands in the histogram on every cache miss; the
        # counter set always carries the lowered/fallback breakdown.
        assert "native.lowered_regions" in counters
        assert "native.fallback_closures" in counters

    @pytest.mark.parametrize("op,ctype", [("add", "int"), ("max", "float")])
    def test_sequential_keeps_native_fragments(self, frameworks, op, ctype):
        """One-block chunks are ordinary run states: under tracing, a
        sequential launch records no fallback cause on any native
        fragment that the batched launch of the same plan does not."""
        from repro.obs import disable_tracing, enable_tracing, get_tracer

        fw = frameworks[(op, ctype)]
        n = 4096
        data = _data(ctype, n)
        tracer = get_tracer()
        was_enabled = tracer.enabled
        enable_tracing()
        causes = {}
        try:
            for mode in MODES:
                with tracer.capture() as spans:
                    for label in FIG6_LABELS:
                        _run(fw.build(label, n), data, mode=mode)
                causes[mode] = {
                    (span.args["kernel"], key)
                    for span in spans
                    if span.name == "exec.launch"
                    for key in span.args.get("fallbacks", {})
                    if key.startswith("native.")
                }
        finally:
            if not was_enabled:
                disable_tracing()
        assert causes["sequential"] <= causes["batched"]

    def test_out_of_bounds_matches_vector(self):
        """An undersized buffer must fault with the engine's exact
        bounds error (message included) however the loads happen."""
        from repro.gpusim import SimulationError

        fw = ReductionFramework(op="add")
        n = 4096
        plan = fw.build("b", n, Tunables(block=64, grid=8))
        data = _data("float", n)
        errors = {}
        for backend in ("vector", "native"):
            executor = Executor(mode="batched", backend=backend)
            executor.device.upload("in", data[: n // 2])
            with pytest.raises(SimulationError) as exc:
                executor.run_plan(plan)
            errors[backend] = str(exc.value)
        assert errors["native"] == errors["vector"]


class TestPlanCacheNativeKeying:
    def test_key_includes_native_backend(self):
        fw = ReductionFramework(op="add")
        v = fw.resolve("b")
        t = Tunables(block=64, grid=8)
        assert plan_key(fw.pre, v, 4096, t, backend="native") != plan_key(
            fw.pre, v, 4096, t, backend="vector"
        )
        assert plan_key(fw.pre, v, 4096, t, backend="native") != plan_key(
            fw.pre, v, 4096, t, backend="compiled"
        )

    @needs_toolchain
    def test_native_plan_is_distinct_entry(self):
        from repro.perf import default_plan_cache

        fw = ReductionFramework(op="add")
        v = fw.resolve("b")
        t = Tunables(block=96, grid=5)  # unlikely to be cached already
        cache = default_plan_cache()
        p_vector = build_plan_cached(fw.pre, v, 4104, t, backend="vector")
        misses = cache.stats.misses
        p_native = build_plan_cached(fw.pre, v, 4104, t, backend="native")
        assert cache.stats.misses == misses + 1
        assert p_native is not p_vector
        assert (
            build_plan_cached(fw.pre, v, 4104, t, backend="native")
            is p_native
        )


class TestGracefulDegradation:
    """No C toolchain (or REPRO_NATIVE_DISABLE): the backend stays
    registered but refuses with a reason; sweeps shrink instead of
    failing; nothing crashes at import or parse time."""

    @pytest.fixture
    def disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        reset_toolchain_cache()
        yield
        monkeypatch.undo()
        reset_toolchain_cache()

    def test_unavailable_with_reason(self, disabled):
        assert not native_available()
        assert "REPRO_NATIVE_DISABLE" in unavailable_reason()

    def test_executor_refuses_with_reason(self, disabled):
        with pytest.raises(ValueError, match="unavailable"):
            Executor(mode="batched", backend="native")

    def test_engine_spec_refuses_with_reason(self, disabled):
        from repro.gpusim import parse_engine_spec

        with pytest.raises(ValueError, match="REPRO_NATIVE_DISABLE"):
            parse_engine_spec("batched-native")

    def test_sanitizer_sweep_drops_native_engine(self, disabled):
        from repro.sanitize import DEFAULT_ENGINES, default_engines

        engines = default_engines()
        assert engines == DEFAULT_ENGINES
        assert "batched-native" not in engines

    @needs_toolchain
    def test_sanitizer_sweep_gains_native_engine(self):
        from repro.sanitize import DEFAULT_ENGINES, default_engines

        engines = default_engines()
        assert engines[: len(DEFAULT_ENGINES)] == DEFAULT_ENGINES
        assert engines[-1] == "batched-native"

    def test_availability_recovers_after_reset(self, disabled):
        assert not native_available()
        # Fixture teardown restores env + cache; simulate it inline so
        # the recovery path itself is under test.
        import os

        del os.environ["REPRO_NATIVE_DISABLE"]
        reset_toolchain_cache()
        assert native_available() == (unavailable_reason() is None)
