"""Segmented reduction synthesis: layout, keys, and bit-exactness.

The contract under test (docs/SERVING.md, ``repro.codegen.segmented``):
a fused launch over heterogeneous segments returns, for EVERY segment,
the bit-identical value a standalone per-request run of that segment
produces — including 1-element, empty and non-power-of-two segments,
for every library op, both element types, and every engine backend.
"""

import numpy as np
import pytest

from repro.codegen import Tunables, launch_geometry
from repro.codegen.segmented import (
    SegmentLayout,
    build_segmented_plan,
    build_segmented_plan_cached,
    execute_segmented_plan,
    segment_layout,
    segmented_plan_key,
)
from repro.core import FIG6, Version
from repro.core.sources import identity_value
from repro.gpusim.native import native_available
from repro.lang.errors import SynthesisError
from repro.runtime import ReductionFramework
from repro.vir import KernelStep, MemsetStep

#: The heterogeneous mix every bit-exactness test packs: 1-element,
#: empty, non-power-of-two, and a couple of "normal" sizes.
MIX_LENGTHS = (1, 0, 37, 1000, 256, 5, 0, 777)

OPS = ("add", "max", "min")
CTYPES = ("float", "int")
#: Tile-partitioned versions spanning coop/compound x atomic/partials.
VERSIONS = ("a", "b", "e", "m", "n", "p")

BACKENDS = ["interpreted", "compiled", "vector"]
if native_available():
    BACKENDS.append("native")

#: Every Figure 6 version is atomic-final; the per-segment second
#: kernel (partials) path needs a pre-pruning version.
SECOND_KERNEL_VERSION = Version(
    grid_pattern="tile",
    final_combine="second_kernel",
    block_kind="coop",
    combine="V",
)
SECOND_KERNEL_COMPOUND = Version(
    grid_pattern="tile",
    final_combine="second_kernel",
    block_kind="compound",
    block_pattern="stride",
    combine="V",
)


def _make_arrays(lengths, ctype, seed=7):
    rng = np.random.default_rng(seed)
    arrays = []
    for n in lengths:
        if ctype == "int":
            arrays.append(rng.integers(-999, 999, size=n).astype(np.int32))
        else:
            arrays.append(rng.standard_normal(n).astype(np.float32))
    return arrays


def _sequential_values(fw, version, arrays):
    """The oracle: one standalone run per segment."""
    out = []
    for data in arrays:
        if len(data) == 0:
            out.append(
                np.array(identity_value(fw.op, fw.ctype), dtype=fw.dtype)
            )
        else:
            out.append(np.array(fw.run(data, version=version).value,
                                dtype=fw.dtype))
    return out


class TestLayout:
    def test_per_segment_geometry_matches_standalone(self):
        version = FIG6["b"]
        tunables = Tunables(block=64)
        layout = segment_layout(version, MIX_LENGTHS, tunables)
        assert isinstance(layout, SegmentLayout)
        assert layout.num_segments == len(MIX_LENGTHS)
        assert layout.total == sum(MIX_LENGTHS)
        for sid, n in enumerate(MIX_LENGTHS):
            blocks = layout.first_block[sid + 1] - layout.first_block[sid]
            if n == 0:
                assert blocks == 0
                continue
            geometry = launch_geometry(version, n, tunables)
            assert blocks == geometry["grid"]
            assert layout.epb[sid] == geometry["epb"]
            assert layout.coarsen[sid] == geometry["coarsen"]

    def test_blocks_are_contiguous_per_segment(self):
        layout = segment_layout(FIG6["p"], (10, 0, 1000, 1), Tunables(block=64))
        seg_map = layout.block_map()
        assert len(seg_map) == layout.grid
        assert seg_map == sorted(seg_map)

    def test_offsets_pack_back_to_back(self):
        layout = segment_layout(FIG6["p"], MIX_LENGTHS)
        expected = 0
        for sid, n in enumerate(MIX_LENGTHS):
            assert layout.offsets[sid] == expected
            expected += n

    def test_stride_grid_version_rejected(self):
        with pytest.raises(SynthesisError, match="tile grid") as info:
            segment_layout(FIG6["k"], (100, 200))
        assert info.value.cause == "stride-grid"

    def test_negative_length_rejected(self):
        with pytest.raises(SynthesisError) as info:
            segment_layout(FIG6["p"], (10, -1))
        assert info.value.cause == "negative-length"

    def test_no_segments_rejected(self):
        with pytest.raises(SynthesisError) as info:
            segment_layout(FIG6["p"], ())
        assert info.value.cause == "no-segments"

    def test_int32_overflow_rejected(self):
        with pytest.raises(SynthesisError, match="int32") as info:
            segment_layout(FIG6["p"], (2**31 - 1, 100))
        assert info.value.cause == "int32-overflow"


class TestPlanStructure:
    @pytest.fixture(scope="class")
    def fw(self):
        return ReductionFramework(op="add")

    def test_atomic_version_memset_plus_main(self, fw):
        plan = build_segmented_plan(fw.pre, FIG6["p"], MIX_LENGTHS)
        assert plan.meta["segmented"] is True
        assert plan.meta["num_segments"] == len(MIX_LENGTHS)
        kinds = [type(step) for step in plan.steps]
        assert kinds == [MemsetStep, KernelStep]
        assert plan.scratch["out"] == len(MIX_LENGTHS)

    def test_partials_version_two_kernels(self, fw):
        plan = build_segmented_plan(fw.pre, SECOND_KERNEL_VERSION, MIX_LENGTHS)
        kernel_steps = plan.kernel_steps()
        assert len(kernel_steps) == 2
        # The second kernel runs one block per segment.
        assert kernel_steps[-1].grid == len(MIX_LENGTHS)
        assert "partials" in plan.scratch

    def test_all_empty_segments_still_produce_identity(self, fw):
        for version in (FIG6["a"], SECOND_KERNEL_VERSION):
            plan = build_segmented_plan(fw.pre, version, (0, 0, 0))
            results, _ = execute_segmented_plan(plan, [np.array([])] * 3)
            identity = np.float32(identity_value("add", "float"))
            assert list(results) == [identity] * 3

    def test_key_varies_with_lengths_and_backend(self, fw):
        base = segmented_plan_key(fw.pre, FIG6["p"], (1, 2, 3))
        assert base != segmented_plan_key(fw.pre, FIG6["p"], (1, 2, 4))
        assert base != segmented_plan_key(fw.pre, FIG6["a"], (1, 2, 3))
        assert base != segmented_plan_key(
            fw.pre, FIG6["p"], (1, 2, 3), backend="vector"
        )
        assert base == segmented_plan_key(fw.pre, FIG6["p"], [1, 2, 3])

    def test_cached_build_returns_same_object(self, fw):
        a = build_segmented_plan_cached(fw.pre, FIG6["p"], (64, 32))
        b = build_segmented_plan_cached(fw.pre, FIG6["p"], (64, 32))
        assert a is b

    def test_execute_rejects_mismatched_data(self, fw):
        plan = build_segmented_plan(fw.pre, FIG6["p"], (4, 4))
        with pytest.raises(ValueError, match="do not match"):
            execute_segmented_plan(
                plan, [np.zeros(4, np.float32), np.zeros(5, np.float32)]
            )


class TestBitExactness:
    """Fused == sequential, bit for bit, across the whole matrix."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("ctype", CTYPES)
    @pytest.mark.parametrize("op", OPS)
    def test_mix_all_versions(self, op, ctype, backend):
        fw = ReductionFramework(op=op, ctype=ctype, engine=backend)
        arrays = _make_arrays(MIX_LENGTHS, ctype)
        for label in VERSIONS:
            version = fw.resolve(label)
            plan = build_segmented_plan_cached(
                fw.pre, version, MIX_LENGTHS, backend=backend
            )
            results, profile = execute_segmented_plan(
                plan, arrays, backend=backend
            )
            expected = _sequential_values(fw, label, arrays)
            for sid in range(len(arrays)):
                assert results[sid] == expected[sid], (
                    f"segment {sid} (n={MIX_LENGTHS[sid]}) of "
                    f"{op}/{ctype}/{label} on {backend}: fused "
                    f"{results[sid]!r} != sequential {expected[sid]!r}"
                )
            # One fused plan must launch less than one plan per segment.
            nonempty = sum(1 for n in MIX_LENGTHS if n)
            assert plan.num_kernel_launches() < nonempty

    @pytest.mark.parametrize(
        "version", (SECOND_KERNEL_VERSION, SECOND_KERNEL_COMPOUND),
        ids=("coop", "compound"),
    )
    def test_second_kernel_path(self, version):
        fw = ReductionFramework(op="add")
        arrays = _make_arrays(MIX_LENGTHS, "float")
        plan = build_segmented_plan_cached(fw.pre, version, MIX_LENGTHS)
        results, _ = execute_segmented_plan(plan, arrays)
        for sid, data in enumerate(arrays):
            if len(data) == 0:
                expected = np.float32(identity_value("add", "float"))
            else:
                expected = np.float32(fw.run(data, version=version).value)
            assert results[sid] == expected

    def test_single_element_segments(self):
        fw = ReductionFramework(op="add")
        lengths = (1, 1, 1, 1)
        arrays = _make_arrays(lengths, "float")
        plan = build_segmented_plan_cached(fw.pre, fw.resolve("p"), lengths)
        results, _ = execute_segmented_plan(plan, arrays)
        for sid, data in enumerate(arrays):
            assert results[sid] == data[0]

    def test_float_rounding_order_preserved(self):
        # A sum whose value depends on association order: catches any
        # layout drift that reorders the reduction tree.
        fw = ReductionFramework(op="add")
        rng = np.random.default_rng(3)
        data = (rng.standard_normal(10_000) * 10.0 ** rng.integers(
            -6, 6, size=10_000)).astype(np.float32)
        lengths = (len(data),)
        plan = build_segmented_plan_cached(fw.pre, fw.resolve("b"), lengths)
        results, _ = execute_segmented_plan(plan, [data])
        assert results[0] == np.float32(fw.run(data, version="b").value)
