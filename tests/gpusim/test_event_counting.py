"""Event counting with sorts: ``sorted_unique`` and its engine call sites.

The engine counts bank replays, atomic serialization and same-address
contention from sorted keys instead of ``np.unique`` (which numpy 2.x
answers with a hash table). Bank replays take a memoized one-row
shortcut when every block row of a chunk has the same active lanes and
addresses; any other access is counted over all active lanes. These
tests pin the helper to ``np.unique``, both replay paths and the
atomic walk to brute-force counts, and the backends to the interpreter
at sizes past the golden fixture's 4,096 elements.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.gpusim import Executor
from repro.gpusim.engine import _ATOMIC_TRACK_CAP, sorted_unique
from repro.gpusim.native import native_available
from repro.runtime import ReductionFramework
from repro.vir import Imm, IRBuilder, Kernel, KernelStep, SharedDecl

SRC = Path(__file__).resolve().parents[2] / "src"


def _int_arrays(dtype):
    return hnp.arrays(
        dtype,
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=40),
        elements=st.integers(-50, 50),
    )


class TestSortedUnique:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_int_arrays(np.int32), _int_arrays(np.int64)))
    def test_matches_np_unique(self, keys):
        values = sorted_unique(keys)
        expected = np.unique(keys)
        assert values.dtype == expected.dtype
        np.testing.assert_array_equal(values, expected)
        values, counts = sorted_unique(keys, return_counts=True)
        expected, expected_counts = np.unique(keys, return_counts=True)
        np.testing.assert_array_equal(values, expected)
        np.testing.assert_array_equal(counts, expected_counts)
        assert counts.dtype == expected_counts.dtype

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize(
        "keys",
        [[], [7], [-3], [4, 4, 4, 4], [-1, -1], [5, -2, 5, -9, -2, 0]],
        ids=["empty", "one", "one-negative", "all-equal",
             "all-equal-negative", "mixed-negative"],
    )
    def test_edge_cases(self, keys, dtype):
        keys = np.array(keys, dtype=dtype)
        for got, expected in zip(
            sorted_unique(keys, return_counts=True),
            np.unique(keys, return_counts=True),
        ):
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)

    def test_input_is_not_modified(self):
        keys = np.array([3, 1, 2, 1], dtype=np.int64)
        sorted_unique(keys, return_counts=True)
        np.testing.assert_array_equal(keys, [3, 1, 2, 1])


# -- bank replays ------------------------------------------------------

_GRID, _BLOCK, _SMEM = 12, 96, 1024


#: Shared-store patterns: the same lanes and addresses in every block
#: row (the one-row memo), per-block addresses under the same lanes,
#: and per-block lanes and addresses (both counted over all lanes).
_PATTERNS = ("uniform", "addresses", "lanes")


def _stride(block, pattern):
    return 2 if pattern == "uniform" else (block + 1) * 4


def _limit(block, pattern):
    return 16 * (block % 4) + 40 if pattern == "lanes" else _BLOCK


def _replay_kernel(pattern):
    """A shared store at ``tid * stride % 1024`` for lanes ``tid <
    limit``, with ``_stride`` / ``_limit`` as functions of the block."""
    b = IRBuilder()
    tid = b.special("tid")
    ctaid = b.special("ctaid")
    if pattern == "uniform":
        stride = Imm(2)
    else:
        stride = b.binop("mul", b.binop("add", ctaid, Imm(1)), Imm(4))
    idx = b.binop("mod", b.binop("mul", tid, stride), Imm(_SMEM))
    if pattern == "lanes":
        limit = b.binop(
            "add", b.binop("mul", b.binop("mod", ctaid, Imm(4)), Imm(16)),
            Imm(40),
        )
        with b.if_(b.binop("lt", tid, limit)):
            b.st_shared("smem", idx, Imm(1.0))
    else:
        b.st_shared("smem", idx, Imm(1.0))
    return Kernel(
        "replays", shared=[SharedDecl("smem", _SMEM)], body=b.finish()
    )


def _brute_force_replays(pattern):
    total = 0
    for block in range(_GRID):
        stride, limit = _stride(block, pattern), _limit(block, pattern)
        for warp in range(_BLOCK // 32):
            addrs = {(lane * stride) % _SMEM
                     for lane in range(warp * 32, warp * 32 + 32)
                     if lane < limit}
            if addrs:
                per_bank = np.bincount([a % 32 for a in addrs], minlength=32)
                total += int(per_bank.max()) - 1
    return total


class TestBankReplayPaths:
    @pytest.mark.parametrize("backend", ["interpreted", "compiled", "vector"])
    @pytest.mark.parametrize("mode", ["batched", "sequential"])
    @pytest.mark.parametrize("pattern", _PATTERNS)
    def test_matches_brute_force(self, pattern, mode, backend):
        step = KernelStep(_replay_kernel(pattern), grid=_GRID, block=_BLOCK)
        profile = Executor(mode=mode, backend=backend).run_kernel(step)
        expected = _brute_force_replays(pattern)
        assert expected > 0
        assert profile.events["mem.shared.replays"] == expected

    @pytest.mark.parametrize("pattern", _PATTERNS)
    def test_each_pattern_takes_its_path(self, pattern, monkeypatch):
        from repro.gpusim import engine

        rows = []
        real = engine._BatchedRun._count_row_replays
        monkeypatch.setattr(
            engine._BatchedRun, "_count_row_replays",
            lambda run, cols, addrs: rows.append(run.nblocks)
            or real(run, cols, addrs),
        )
        step = KernelStep(_replay_kernel(pattern), grid=_GRID, block=_BLOCK)
        Executor(mode="batched").run_kernel(step)
        assert rows == ([_GRID] if pattern == "uniform" else [])


# -- global atomics --------------------------------------------------------


def _atomic_kernel():
    """Each lane adds 1 to ``out[(ctaid * 917 + tid) % 5000]``: blocks
    overlap, and 8 blocks of 1024 lanes touch more distinct addresses
    than the tracker's cap (untracked, the max would read 3, not 2)."""
    b = IRBuilder()
    tid = b.special("tid")
    ctaid = b.special("ctaid")
    idx = b.binop(
        "mod", b.binop("add", b.binop("mul", ctaid, Imm(917)), tid),
        Imm(5000),
    )
    b.atom_global("add", "out", idx, Imm(1.0))
    return Kernel("atoms", buffers=["out"], body=b.finish())


def _brute_force_tracker(grid, block):
    """The documented walk: blocks ascending, addresses ascending within
    a block, the cap checked before each block."""
    counts = {}
    for ctaid in range(grid):
        if len(counts) > _ATOMIC_TRACK_CAP:
            continue
        per_addr = {}
        for tid in range(block):
            address = (ctaid * 917 + tid) % 5000
            per_addr[address] = per_addr.get(address, 0) + 1
        for address in sorted(per_addr):
            entry = counts.get(address)
            if entry is None:
                counts[address] = [per_addr[address], ctaid, False]
            else:
                entry[0] += per_addr[address]
                entry[2] = entry[2] or entry[1] != ctaid
    return max(ops for ops, _first, _cross in counts.values())


class TestGlobalAtomicWalk:
    @pytest.mark.parametrize("batch_lanes", [None, 2048])
    @pytest.mark.parametrize("mode", ["batched", "sequential"])
    @pytest.mark.parametrize("backend", ["compiled", "vector"])
    def test_tracker_matches_brute_force(self, backend, mode, batch_lanes,
                                         monkeypatch):
        if batch_lanes is not None:
            monkeypatch.setattr(Executor, "BATCH_LANES", batch_lanes)
        grid, block = 8, 1024
        executor = Executor(mode=mode, backend=backend)
        executor.device.alloc("out", 5000)
        step = KernelStep(_atomic_kernel(), grid=grid, block=block,
                          buffers={"out": "out"})
        profile = executor.run_kernel(step)
        assert profile.events["atom.global.ops"] == grid * block
        assert profile.events["atom.global.max_same_addr"] == (
            _brute_force_tracker(grid, block)
        )
        assert executor.device.get("out").sum() == grid * block


# -- Figure-6 versions past the golden fixture ------------------------------

_VERSIONS = "acdkn"


def _events(engine, label, data):
    profile = ReductionFramework(engine=engine).run(data, label).profile
    return profile.result, [dict(step.events) for step in profile.steps]


@pytest.fixture(scope="module")
def data_65573():
    return np.random.default_rng(11).standard_normal(65536 + 37).astype(
        np.float32
    )


class TestFigure6EventsAtScale:
    @pytest.mark.parametrize("label", _VERSIONS)
    @pytest.mark.parametrize("engine", ["batched", "batched-vector"])
    def test_partial_tail_block(self, engine, label, data_65573):
        """n = 65,536 + 37: the last block is partly out of range, so
        its loads and atomics differ from the other rows. (The catalog's
        shared accesses stay block-uniform even here; the replay sort
        path is pinned by ``TestBankReplayPaths``.)"""
        assert _events(engine, label, data_65573) == _events(
            "batched-interpreted", label, data_65573
        )

    @pytest.mark.parametrize("label", _VERSIONS)
    @pytest.mark.parametrize("engine", ["batched", "batched-vector"])
    def test_equal_chunks(self, engine, label, monkeypatch):
        """n = 65,536 in 1,024-lane chunks: equal chunks replay the
        memoized row patterns."""
        monkeypatch.setattr(Executor, "BATCH_LANES", 1024)
        data = np.random.default_rng(12).standard_normal(65536).astype(
            np.float32
        )
        assert _events(engine, label, data) == _events(
            "batched-interpreted", label, data
        )


# -- numpy.ma stays unimported ----------------------------------------------

_IMPORT_PROBE = textwrap.dedent(
    """
    import sys
    import numpy as np
    from repro import ReductionFramework

    data = np.random.default_rng(0).standard_normal(65536).astype(np.float32)
    for engine in sys.argv[1:]:
        ReductionFramework(engine=engine).run(data, "c")
    ReductionFramework().time(1 << 20, "a", "kepler")  # sampled profile
    print("numpy.ma" in sys.modules)
    """
)


def test_counting_does_not_import_numpy_ma():
    """``np.unique`` imports ``numpy.ma`` on its first call (~17 ms);
    full reduces on every backend and a sampled profile never call it."""
    engines = ["batched", "batched-vector"]
    if native_available():
        engines.append("batched-native")
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *engines],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
