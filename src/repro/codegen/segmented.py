"""Segmented reduction synthesis: many independent reductions, one launch.

The paper's Map/Partition semantics (Section II-B-2) partition *one*
array across blocks.  This module generalizes that to **heterogeneous
segments**: N independent reductions, packed back to back in a single
``in`` buffer, reduced by a single launch whose blocks are partitioned
*per segment* — the segment-group shape that "A Fast and Generic
GPU-Based Parallel Reduction Implementation" motivates for multi-value
workloads.  It exists to serve cross-request launch fusion
(:mod:`repro.serve`): concurrent small requests become segments of one
plan instead of one launch each.

Layout contract (what makes fused results bit-identical to per-request
runs): each segment gets exactly the blocks, elements-per-block, and
coarsening that :func:`~repro.codegen.synthesize.launch_geometry` would
assign it standalone, and its blocks are contiguous in the fused grid.
Each block therefore sees the same elements in the same order as the
standalone launch, so the reduction tree — and with it every float
rounding step — is unchanged.

A block finds its work through small int32 metadata buffers uploaded
alongside the data:

========== ============ ====================================================
buffer     length       meaning
========== ============ ====================================================
seg_map    total blocks block id -> segment id
seg_off    N            segment start offset in the packed ``in`` buffer
seg_len    N            segment element count (0 allowed)
seg_first  N + 1        first block id of each segment (+ total sentinel)
seg_epb    N            per-segment elements per block
seg_coarsen N           per-segment thread coarsening (compound versions)
========== ============ ====================================================

Values loaded from global memory land in float64 registers, so all
derived counts use exact double arithmetic; trip counts that standalone
synthesis computed with integer ``div`` use the dtype-independent
``idiv`` (floor division) here.

Only ``tile`` grid partitioning is supported: a strided grid pattern
interleaves a block's accesses across the whole input, which has no
per-segment meaning.  Callers (the serve scheduler) catch the
:class:`~repro.lang.errors.SynthesisError` and degrade to unfused
execution.  Empty segments receive no blocks and reduce to the
operator identity.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from ..core.pipeline import PreprocessResult
from ..core.sources import identity_value
from ..core.variants import Version, fig6_label
from ..lang.errors import SynthesisError
from ..perf import content_key
from ..vir import IRBuilder, Imm, Kernel, KernelStep, MemsetStep, Plan
from .compiler import CodeletToVIR, GlobalView, RegisterPartials
from .synthesize import (
    _SECOND_KERNEL_BLOCK,
    _element_ctype,
    _pipeline_fingerprint,
    Tunables,
    launch_geometry,
)

#: Packed inputs are addressed through int32 metadata buffers.
_MAX_TOTAL_ELEMENTS = 2**31 - 1


@dataclass(frozen=True)
class SegmentLayout:
    """Resolved per-segment geometry of one fused launch."""

    lengths: tuple  #: element count per segment (0 allowed)
    offsets: tuple  #: start offset of each segment in the packed input
    first_block: tuple  #: first block id per segment, + total sentinel
    epb: tuple  #: elements per block, per segment
    coarsen: tuple  #: thread coarsening, per segment
    block: int  #: shared block size of the fused launch
    grid: int  #: total blocks across all segments
    total: int  #: total packed elements

    @property
    def num_segments(self) -> int:
        return len(self.lengths)

    def block_map(self) -> list:
        """block id -> segment id (length :attr:`grid`)."""
        seg_map = []
        for sid in range(self.num_segments):
            seg_map.extend([sid] * (self.first_block[sid + 1] - self.first_block[sid]))
        return seg_map


def segment_layout(
    version: Version, lengths, tunables: Tunables = None
) -> SegmentLayout:
    """Per-segment :func:`launch_geometry`, packed into one grid."""
    tunables = tunables or Tunables()
    if version.grid_pattern != "tile":
        raise SynthesisError(
            f"segmented synthesis requires tile grid partitioning; version "
            f"{version.identifier!r} strides blocks across the whole input",
            cause="stride-grid",
        )
    lengths = tuple(int(n) for n in lengths)
    if not lengths:
        raise SynthesisError(
            "segmented reduction needs at least one segment",
            cause="no-segments",
        )
    if any(n < 0 for n in lengths):
        raise SynthesisError(
            "segment lengths must be non-negative", cause="negative-length"
        )
    total = sum(lengths)
    if total > _MAX_TOTAL_ELEMENTS:
        raise SynthesisError(
            f"packed input of {total} elements overflows int32 addressing",
            cause="int32-overflow",
        )
    offsets, first_block, epbs, coarsens = [], [0], [], []
    offset = 0
    for n in lengths:
        offsets.append(offset)
        offset += n
        if n == 0:
            # No blocks; the plan writes the identity for this segment.
            first_block.append(first_block[-1])
            epbs.append(tunables.block)
            coarsens.append(1)
            continue
        geometry = launch_geometry(version, n, tunables)
        first_block.append(first_block[-1] + geometry["grid"])
        epbs.append(geometry["epb"])
        coarsens.append(geometry["coarsen"])
    return SegmentLayout(
        lengths=lengths,
        offsets=tuple(offsets),
        first_block=tuple(first_block),
        epb=tuple(epbs),
        coarsen=tuple(coarsens),
        block=tunables.block,
        grid=first_block[-1],
        total=total,
    )


def build_segmented_plan(
    pre: PreprocessResult,
    version: Version,
    lengths,
    tunables: Tunables = None,
) -> Plan:
    """Synthesize one fused plan reducing every segment independently.

    The result buffer ``out`` holds one value per segment (the operator
    identity for empty segments)."""
    tunables = tunables or Tunables()
    layout = segment_layout(version, lengths, tunables)
    op = pre.reduction_op
    ctype = _element_ctype(pre)
    identity = identity_value(op, ctype)
    label = fig6_label(version)
    nseg = layout.num_segments

    uploads = {
        "seg_map": layout.block_map(),
        "seg_off": list(layout.offsets),
        "seg_len": list(layout.lengths),
        "seg_first": list(layout.first_block),
        "seg_epb": list(layout.epb),
    }
    if version.block_kind != "coop":
        uploads["seg_coarsen"] = list(layout.coarsen)

    steps = []
    scratch = {"out": nseg}
    if layout.grid:
        kernel = _build_segmented_main_kernel(pre, version, layout, identity)
        main_buffers = {name: name for name in kernel.buffers}
        main_step = KernelStep(
            kernel,
            grid=layout.grid,
            block=layout.block,
            args={},
            buffers=main_buffers,
        )
    if version.final_combine == "global_atomic":
        # Identity-fill covers empty segments; atomics fold block results.
        steps.append(MemsetStep("out", identity))
        if layout.grid:
            steps.append(main_step)
    else:
        scratch["partials"] = max(1, layout.grid)
        if layout.grid:
            steps.append(main_step)
        second = _build_segmented_second_kernel(pre, identity)
        steps.append(
            KernelStep(
                second,
                grid=nseg,
                block=_SECOND_KERNEL_BLOCK,
                args={},
                buffers={name: name for name in second.buffers},
            )
        )

    plan = Plan(
        name=f"segmented_{label or version.identifier}",
        steps=steps,
        scratch=scratch,
        result_buffer="out",
        result_index=0,
        meta={
            "dtype": "int32" if ctype == "int" else "float32",
            "version": version.identifier,
            "label": label,
            "op": op,
            "n": layout.total,
            "segmented": True,
            "num_segments": nseg,
            "lengths": list(layout.lengths),
            "geometry": {"block": layout.block, "grid": layout.grid},
            "uploads": uploads,
        },
    )
    plan.validate()
    return plan


def segmented_plan_key(
    pre: PreprocessResult,
    version: Version,
    lengths,
    tunables: Tunables = None,
    backend: str = "compiled",
) -> str:
    """Content-hash key for one fused plan (see :func:`plan_key`)."""
    t = tunables or Tunables()
    digest = hashlib.sha256(
        ",".join(str(int(n)) for n in lengths).encode("ascii")
    ).hexdigest()[:24]
    return content_key(
        kind="segplan",
        op=pre.reduction_op,
        ctype=_element_ctype(pre),
        version=version.identifier,
        segments=digest,
        block=t.block,
        grid=t.grid,
        passes=_pipeline_fingerprint(pre),
        backend=backend,
    )


def build_segmented_plan_cached(
    pre: PreprocessResult,
    version: Version,
    lengths,
    tunables: Tunables = None,
    backend: str = "compiled",
) -> Plan:
    """:func:`build_segmented_plan` through the process-wide plan cache,
    pre-warmed exactly like :func:`build_plan_cached` (backend artifact +
    batchability summary computed before the plan is published)."""
    from ..gpusim import analyze_batchability, get_backend
    from ..obs import get_tracer
    from ..perf import default_plan_cache

    cache = default_plan_cache()
    key = segmented_plan_key(pre, version, lengths, tunables, backend=backend)
    plan = cache.get(key)
    if plan is None:
        tracer = get_tracer()
        start = time.perf_counter()
        with tracer.span(
            "plan.build.segmented",
            version=version.identifier,
            segments=len(tuple(lengths)),
        ) as span:
            plan = build_segmented_plan(pre, version, lengths, tunables)
            span.set(name_=plan.name, steps=len(plan.steps))
        with tracer.span(
            "plan.compile", version=version.identifier, n=int(plan.meta["n"])
        ) as span:
            prepare = get_backend(backend).prepare
            for step in plan.kernel_steps():
                prepare(step.kernel)
                analyze_batchability(step.kernel)
            span.set(backend=backend)
        cache.put(key, plan, cost_s=time.perf_counter() - start)
    return plan


def execute_segmented_plan(
    plan: Plan,
    arrays,
    mode: str = "auto",
    backend: str = "compiled",
):
    """Upload segment data + metadata, run the fused plan, and return
    ``(per_segment_results, plan_profile)``.

    ``arrays`` must match the lengths the plan was built for; the
    results array has one element per segment in request order."""
    from ..gpusim import Executor

    lengths = plan.meta["lengths"]
    if [len(a) for a in arrays] != list(lengths):
        raise ValueError(
            f"segment data lengths {[len(a) for a in arrays]} do not match "
            f"plan lengths {list(lengths)}"
        )
    dtype = np.dtype(plan.meta["dtype"])
    executor = Executor(mode=mode, backend=backend)
    device = executor.device
    total = int(plan.meta["n"])
    if total:
        packed = np.concatenate(
            [np.asarray(a, dtype=dtype) for a in arrays if len(a)]
        )
        device.upload("in", packed)
    for name, values in plan.meta["uploads"].items():
        if values:
            device.upload(name, np.asarray(values, dtype=np.int32))
    profile = executor.run_plan(plan)
    results = device.download("out")[: plan.meta["num_segments"]]
    return results, profile


# ---------------------------------------------------------------------
# kernel construction
# ---------------------------------------------------------------------


def _segment_prologue(b, layout_has_coarsen: bool):
    """Emit the per-block segment binding; returns the shared registers.

    Every quantity loaded from the metadata buffers lands in a float64
    register; the arithmetic below is exact for any int32 value."""
    tid = b.special("tid")
    ctaid = b.special("ctaid")
    sid = b.ld_global("seg_map", ctaid)
    off = b.ld_global("seg_off", sid)
    slen = b.ld_global("seg_len", sid)
    first = b.ld_global("seg_first", sid)
    epb = b.ld_global("seg_epb", sid)
    local = b.binop("sub", ctaid, first)
    lbase = b.binop("mul", local, epb)
    remaining = b.binop("sub", slen, lbase)
    clamped = b.binop("max", remaining, Imm(0))
    kcount = b.binop("min", clamped, epb)
    gbase = b.binop("add", off, lbase)
    coarsen = b.ld_global("seg_coarsen", sid) if layout_has_coarsen else None
    return tid, sid, gbase, kcount, coarsen


def _build_segmented_main_kernel(pre, version, layout, identity) -> Kernel:
    """The fused analogue of ``synthesize._build_main_kernel``: the same
    block-level reduction, with the grid-level sub-container resolved
    from the segment metadata instead of launch constants."""
    b = IRBuilder()
    block = layout.block
    is_compound = version.block_kind != "coop"
    tid, sid, gbase, kcount, coarsen = _segment_prologue(b, is_compound)
    gstride = Imm(1)  # tile grid pattern only

    if not is_compound:
        coop = pre.coop_variant(version.combine)
        binding = GlobalView(
            buf="in", base=gbase, stride=gstride, size=kcount, size_static=block
        )
        compiler = CodeletToVIR(
            b, coop.codelet, binding, identity=identity, prefix="blk"
        )
        ret = compiler.compile()
        shared = compiler.shared_decls
        meta = {
            "load_pattern": "scalar",
            "uses_shuffle": coop.uses_shuffle,
            "uses_shared_atomic": coop.uses_shared_atomic,
            "cross_block_interleaved": False,
        }
    else:
        ret, shared, meta = _compile_segmented_compound(
            pre, version, b, block, gbase, kcount, coarsen, identity
        )
    meta["segmented"] = True

    buffers = ["in", "seg_map", "seg_off", "seg_len", "seg_first", "seg_epb"]
    if is_compound:
        buffers.append("seg_coarsen")
    is_zero = b.binop("eq", tid, 0)
    if version.final_combine == "global_atomic":
        with b.if_(is_zero):
            b.atom_global(pre.reduction_op, "out", sid, ret)
        buffers.append("out")
    else:
        ctaid = b.special("ctaid")
        with b.if_(is_zero):
            b.st_global("partials", ctaid, ret)
        buffers.append("partials")

    label = fig6_label(version)
    name = f"segreduce_{label}" if label else "segreduce_block"
    return Kernel(
        name=name,
        params=[],
        buffers=buffers,
        shared=shared,
        body=b.finish(),
        meta=meta,
    )


def _compile_segmented_compound(
    pre, version, b, block, gbase, kcount, coarsen, identity
):
    """``synthesize._compile_compound_block`` with the coarsening factor
    in a register (it varies per segment) instead of an immediate."""
    tid = b.special("tid")

    if version.block_pattern == "tile":
        k0 = b.binop("mul", tid, coarsen)
        t_remaining = b.binop("sub", kcount, k0)
        t_clamped = b.binop("max", t_remaining, Imm(0))
        tcount = b.binop("min", t_clamped, coarsen)
        tstride = Imm(1)
    else:  # stride: k = tid + j * block
        k0 = b.mov(tid)
        numer = b.binop("sub", kcount, tid)
        numer = b.binop("add", numer, Imm(block - 1))
        numer = b.binop("max", numer, Imm(0))
        # kcount lives in a float64 register here, so integer `div`
        # semantics must be requested explicitly.
        tcount = b.binop("idiv", numer, Imm(block))
        tstride = Imm(block)

    tbase = b.binop("add", gbase, k0)

    scalar_info = pre.analyzed.find(pre.spectrum, "scalar")
    thread_view = GlobalView(
        buf="in", base=tbase, stride=tstride, size=tcount, size_static=None
    )
    thread_compiler = CodeletToVIR(
        b, scalar_info.codelet, thread_view, identity=identity, prefix="thr"
    )
    val = thread_compiler.compile()

    combine = pre.coop_variant(version.combine)
    partials = RegisterPartials(value=val, count=block)
    combine_compiler = CodeletToVIR(
        b, combine.codelet, partials, identity=identity, prefix="cmb"
    )
    ret = combine_compiler.compile()
    shared = thread_compiler.shared_decls + combine_compiler.shared_decls
    meta = {
        "load_pattern": "scalar",
        "uses_shuffle": combine.uses_shuffle,
        "uses_shared_atomic": combine.uses_shared_atomic,
        "cross_block_interleaved": False,
    }
    return ret, shared, meta


def _build_segmented_second_kernel(pre, identity) -> Kernel:
    """Per-segment partials reduction: block ``s`` folds the partials of
    segment ``s`` exactly like ``synthesize._build_second_kernel`` folds
    a standalone launch's partials (same block size, same stride walk,
    same cooperative combine — so the same rounding order)."""
    b = IRBuilder()
    tid = b.special("tid")
    sid = b.special("ctaid")
    block = _SECOND_KERNEL_BLOCK

    first = b.ld_global("seg_first", sid)
    nxt = b.binop("add", sid, Imm(1))
    after = b.ld_global("seg_first", nxt)
    nblocks = b.binop("sub", after, first)

    numer = b.binop("sub", nblocks, tid)
    numer = b.binop("add", numer, Imm(block - 1))
    numer = b.binop("max", numer, Imm(0))
    tcount = b.binop("idiv", numer, Imm(block))
    base = b.binop("add", first, tid)
    scalar_info = pre.analyzed.find(pre.spectrum, "scalar")
    view = GlobalView(
        buf="partials", base=base, stride=Imm(block), size=tcount,
        size_static=None,
    )
    thread_compiler = CodeletToVIR(
        b, scalar_info.codelet, view, identity=identity, prefix="thr2"
    )
    val = thread_compiler.compile()

    combine = pre.coop_variant("V")
    partials = RegisterPartials(value=val, count=block)
    combine_compiler = CodeletToVIR(
        b, combine.codelet, partials, identity=identity, prefix="cmb2"
    )
    ret = combine_compiler.compile()

    is_zero = b.binop("eq", tid, 0)
    with b.if_(is_zero):
        b.st_global("out", sid, ret)
    return Kernel(
        name="segreduce_partials",
        params=[],
        buffers=["partials", "seg_first", "out"],
        shared=thread_compiler.shared_decls + combine_compiler.shared_decls,
        body=b.finish(),
        meta={"load_pattern": "scalar", "segmented": True},
    )
