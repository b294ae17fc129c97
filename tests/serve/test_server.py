"""Serving runtime: fusion under load, typed admission, degradation.

The acceptance scenario from the serve milestone: >= 64 concurrent
heterogeneous requests execute with strictly fewer launches than
requests (fusion ratio > 1, visible through ``repro.obs``), every
response bit-identical to sequential per-request execution, and
over-quota traffic rejected with a typed error.
"""

import threading

import numpy as np
import pytest

from repro.obs import default_metrics
from repro.serve import (
    DeadlineExceeded,
    LoadGenerator,
    QueueFull,
    QuotaExceeded,
    ReductionServer,
    RequestInvalid,
    ServerClosed,
    ServerConfig,
    SessionKey,
    prove_backpressure,
)


def _make_server(**overrides) -> ReductionServer:
    defaults = dict(window_s=0.02)
    defaults.update(overrides)
    return ReductionServer(ServerConfig(**defaults))


class TestAcceptanceLoad:
    """The headline load test: fusion + bit-exactness + telemetry."""

    def test_64_concurrent_requests_fuse_and_verify(self):
        with _make_server() as server:
            generator = LoadGenerator(server, seed=11)
            report = generator.run(
                num_requests=64, concurrency=16, max_size=4096, verify=True
            )
            stats = server.stats()
        assert report.responses == 64
        assert report.mismatches == 0
        assert not report.rejected
        # Strictly fewer launches than requests — the fusion win.
        assert 0 < report.launches < report.responses
        assert report.fusion_ratio > 1.0
        assert stats["fused_requests"] > stats["unfused_requests"]
        assert stats["fused_batches"] >= 1

    def test_fusion_ratio_visible_in_obs_metrics(self):
        with _make_server() as server:
            LoadGenerator(server, seed=2).run(
                num_requests=32, concurrency=8, verify=False
            )
            server.stats()  # refreshes the gauges
            snapshot = default_metrics().snapshot()
        assert snapshot["counters"].get("serve.launches", 0) >= 1
        assert snapshot["gauges"]["serve.fusion_ratio"] > 1.0
        assert any(
            name.startswith("serve.latency_us.")
            for name in snapshot["histograms"]
        )

    def test_empty_and_single_element_requests(self):
        with _make_server() as server:
            empty = server.submit(np.array([], dtype=np.float32))
            single = server.submit(np.array([42.5], dtype=np.float32))
            assert empty.result(timeout=30.0).value == np.float32(0.0)
            assert single.result(timeout=30.0).value == np.float32(42.5)

    def test_int_sessions_bit_exact(self):
        data = np.arange(-500, 777, dtype=np.int32)
        with _make_server() as server:
            response = server.reduce(data, op="add", ctype="int", version="m")
        assert response.value == int(data.sum())


class TestAdmissionControl:
    def test_quota_exceeded_is_typed_and_synchronous(self):
        result = prove_backpressure()
        assert result["typed_backpressure"] is True
        assert result["quota_rejections"] >= 1
        assert result["served"] + result["quota_rejections"] + \
            result["queue_rejections"] == result["submitted"]

    def test_queue_full_rejects(self):
        config = ServerConfig(
            window_s=5.0, max_queue_depth=1, tenant_quota=1000,
            max_batch_requests=2,
        )
        data = np.ones(16, dtype=np.float32)
        with ReductionServer(config) as server:
            futures = [server.submit(data)]
            rejections = 0
            # The batcher may drain a couple of items into its window;
            # a bounded queue must reject well before 64.
            for _ in range(64):
                try:
                    futures.append(server.submit(data))
                except QueueFull:
                    rejections += 1
            assert rejections >= 1
            server.close(drain=True)
            for future in futures:
                assert future.result(timeout=30.0).value == np.float32(16.0)

    def test_invalid_requests_typed(self):
        with _make_server() as server:
            data = np.ones(4, dtype=np.float32)
            with pytest.raises(RequestInvalid):
                server.submit(data, op="mean")
            with pytest.raises(RequestInvalid):
                server.submit(data, ctype="double")
            with pytest.raises(RequestInvalid):
                server.submit(data, version="z")
            with pytest.raises(RequestInvalid):
                server.submit(np.ones((2, 2), dtype=np.float32))
            with pytest.raises(RequestInvalid):
                server.submit(["not", "numbers"])
            assert server.stats()["responses"] == 0

    def test_deadline_exceeded_in_queue(self):
        # A long window holds the batch open; a microscopic deadline
        # expires while the request waits for the window to close.
        config = ServerConfig(window_s=0.3, tenant_quota=1000)
        with ReductionServer(config) as server:
            data = np.ones(8, dtype=np.float32)
            first = server.submit(data)  # opens the window
            doomed = server.submit(data, deadline_s=1e-6)
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=30.0)
            assert first.result(timeout=30.0).value == np.float32(8.0)
        assert server.stats()["rejected_deadline"] == 1

    def test_quota_releases_after_completion(self):
        with _make_server(tenant_quota=2) as server:
            data = np.ones(8, dtype=np.float32)
            for _ in range(6):  # 3 quota-sized waves, sequentially
                a = server.submit(data, tenant="t")
                b = server.submit(data, tenant="t")
                assert a.result(timeout=30.0).value == np.float32(8.0)
                assert b.result(timeout=30.0).value == np.float32(8.0)
            assert server.stats()["rejected_quota"] == 0


class TestDegradation:
    def test_stride_version_falls_back_unfused(self):
        # Version "k" strides blocks across the whole input; segmented
        # synthesis rejects it and the batch degrades to per-request
        # execution with correct results, counted by cause.
        cause_key = "serve.fallbacks.stride-grid"
        before = default_metrics().counter(cause_key)
        with _make_server(window_s=0.1) as server:
            rng = np.random.default_rng(5)
            payloads = [
                rng.standard_normal(int(n)).astype(np.float32)
                for n in rng.integers(1, 2048, size=8)
            ]
            futures = [server.submit(d, version="k") for d in payloads]
            responses = [f.result(timeout=60.0) for f in futures]
            stats = server.stats()
        fw = LoadGenerator(server)._reference_value
        for data, response in zip(payloads, responses):
            assert response.fused is False
            assert response.value == fw("add", "float", "k", data)
        assert stats["fallbacks"] >= 1
        assert default_metrics().counter(cause_key) - before == (
            stats["fallbacks"]
        )
        assert stats["fused_requests"] == 0
        assert stats["responses"] == len(payloads)

    def test_fused_path_bug_fails_the_batch(self, monkeypatch):
        # Only SynthesisError degrades to unfused execution; any other
        # fused-path exception is a bug and reaches every caller.
        import repro.serve.scheduler as scheduler_mod

        def _broken(*args, **kwargs):
            raise RuntimeError("segmented launch bug")

        monkeypatch.setattr(scheduler_mod, "execute_segmented_plan", _broken)
        with _make_server(window_s=0.1) as server:
            payloads = [np.ones(n, dtype=np.float32) for n in (64, 128, 256)]
            futures = [server.submit(d) for d in payloads]
            for future in futures:
                with pytest.raises(RuntimeError, match="segmented launch bug"):
                    future.result(timeout=60.0)
            stats = server.stats()
        assert stats["fallbacks"] == 0
        assert stats["errors"] == len(payloads)
        assert stats["responses"] == 0

    def test_fuse_disabled_still_serves(self):
        with _make_server(fuse=False) as server:
            report = LoadGenerator(server, seed=4).run(
                num_requests=12, concurrency=4, verify=True
            )
        assert report.responses == 12
        assert report.mismatches == 0
        assert report.fused_responses == 0


class TestLifecycle:
    def test_submit_after_close_rejected(self):
        server = _make_server()
        server.close()
        with pytest.raises(ServerClosed):
            server.submit(np.ones(4, dtype=np.float32))

    def test_close_drains_queued_work(self):
        config = ServerConfig(window_s=2.0, tenant_quota=1000)
        server = ReductionServer(config)
        data = np.ones(32, dtype=np.float32)
        futures = [server.submit(data) for _ in range(10)]
        server.close(drain=True)
        for future in futures:
            assert future.result(timeout=30.0).value == np.float32(32.0)

    def test_close_without_drain_rejects_queued(self):
        config = ServerConfig(window_s=2.0, tenant_quota=1000)
        server = ReductionServer(config)
        data = np.ones(32, dtype=np.float32)
        futures = [server.submit(data) for _ in range(10)]
        server.close(drain=False)
        outcomes = {"served": 0, "closed": 0}
        for future in futures:
            try:
                future.result(timeout=30.0)
                outcomes["served"] += 1
            except ServerClosed:
                outcomes["closed"] += 1
        # The batcher may have pulled a first batch into its window
        # before the sentinel landed; everything else must be rejected.
        assert outcomes["closed"] >= 1
        assert outcomes["served"] + outcomes["closed"] == 10

    def test_close_is_idempotent(self):
        server = _make_server()
        server.close()
        server.close()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServerConfig(window_s=-1.0)
        with pytest.raises(ValueError):
            ServerConfig(max_batch_requests=0)
        with pytest.raises(ValueError):
            ServerConfig(tenant_quota=0)
        with pytest.raises(ValueError):
            ServerConfig(engine="warp-drive")


class TestSessions:
    def test_sessions_keyed_by_op_ctype_version(self):
        with _make_server() as server:
            data = np.ones(8, dtype=np.float32)
            idata = np.ones(8, dtype=np.int32)
            server.reduce(data, op="add", version="p")
            server.reduce(data, op="max", version="p")
            server.reduce(idata, op="add", ctype="int", version="p")
            server.reduce(data, op="add", version="b")
            stats = server.stats()
        assert set(stats["sessions"]) == {
            "add-float-p", "max-float-p", "add-int-p", "add-float-b",
        }

    def test_session_key_label(self):
        assert SessionKey("min", "int", "c").label() == "min-int-c"

    def test_concurrent_submitters_many_sessions(self):
        # Hammer one server from 12 threads across 3 sessions; every
        # response must match the oracle (torn state would show up as
        # wrong values or dropped futures).
        with _make_server() as server:
            generator = LoadGenerator(server, seed=9)
            errors = []

            def storm(version, seed):
                rng = np.random.default_rng(seed)
                for _ in range(5):
                    data = rng.standard_normal(
                        int(rng.integers(0, 1024))).astype(np.float32)
                    try:
                        response = server.submit(
                            data, version=version).result(timeout=60.0)
                        expected = generator._reference_value(
                            "add", "float", version, data)
                        if response.value != expected:
                            errors.append((version, len(data)))
                    except Exception as exc:  # noqa: BLE001
                        errors.append((version, repr(exc)))

            threads = [
                threading.Thread(target=storm, args=("pbm"[i % 3], i))
                for i in range(12)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert errors == []
