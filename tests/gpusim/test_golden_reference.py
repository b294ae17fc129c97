"""Every backend and execution mode against a frozen reference.

``golden_fig6_4096.json`` holds, for each Figure 6 version x {add, max,
min} x {float, int} at n = 4096, the result and the per-step event
signature (kernel, geometry, every non-zero event counter) that the
``sequential-interpreted`` engine produced while it still ran one block
at a time in its own 1-D run state (commit 4f519ec). The run states
have since merged into one, so mode-vs-mode tests compare two uses of
the same class; this fixture keeps an independent reference.

Every backend runs each launch in three chunkings of the one run
state: one-block chunks (sequential mode), one chunk of all 16 blocks
(batched mode) and four equal chunks of four blocks (batched mode
under a small ``Executor.BATCH_LANES``).

The fixture was written by the command below. Rerunning it records
today's ``sequential-interpreted`` engine instead, so do that only when
a deliberate change to the kernels, the event model or the inputs below
invalidates the fixture::

    PYTHONPATH=src python tests/gpusim/test_golden_reference.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.codegen import Tunables
from repro.gpusim import EXECUTION_BACKENDS, Executor
from repro.gpusim.native import native_available
from repro.runtime import ReductionFramework

FIXTURE = Path(__file__).with_name("golden_fig6_4096.json")
FIG6_LABELS = "abcdefghijklmnop"
OPS = ("add", "max", "min")
CTYPES = ("float", "int")
N = 4096
TUNABLES = Tunables(block=256)

#: chunking id -> (execution mode, Executor.BATCH_LANES override).
CHUNKINGS = {
    "sequential": ("sequential", None),
    "batched": ("batched", None),
    "batched-4x4": ("batched", 4 * TUNABLES.block),
}


def _data(ctype):
    rng = np.random.default_rng(4096)
    if ctype == "int":
        return rng.integers(-1000, 1000, size=N).astype(np.int32)
    return rng.standard_normal(N).astype(np.float32)


def _signature(profile):
    return [
        [
            step.kernel_name,
            step.grid,
            step.block,
            step.sampled_blocks,
            sorted([k, int(v)] for k, v in step.events.items() if v),
        ]
        for step in profile.steps
    ]


def _run(fw, label, engine):
    mode, backend = engine.split("-")
    plan = fw.build(label, N, TUNABLES)
    executor = Executor(mode=mode, backend=backend)
    executor.device.upload("in", _data(fw.ctype))
    profile = executor.run_plan(plan)
    return {"result": profile.result, "steps": _signature(profile)}


def _key(op, ctype, label):
    return f"{op}/{ctype}/{label}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def frameworks():
    return {
        (op, ctype): ReductionFramework(op=op, ctype=ctype)
        for op in OPS
        for ctype in CTYPES
    }


@pytest.mark.parametrize("backend", EXECUTION_BACKENDS)
@pytest.mark.parametrize("chunking", CHUNKINGS)
@pytest.mark.parametrize("ctype", CTYPES)
@pytest.mark.parametrize("op", OPS)
def test_matches_golden(
    golden, frameworks, op, ctype, chunking, backend, monkeypatch
):
    if backend == "native" and not native_available():
        pytest.skip("no C toolchain on this host")
    mode, lanes = CHUNKINGS[chunking]
    if lanes is not None:
        monkeypatch.setattr(Executor, "BATCH_LANES", lanes)
    fw = frameworks[(op, ctype)]
    for label in FIG6_LABELS:
        got = _run(fw, label, f"{mode}-{backend}")
        want = golden[_key(op, ctype, label)]
        assert got["result"] == want["result"], (label, got["result"])
        assert got["steps"] == want["steps"], label


def _write():
    table = {}
    for op in OPS:
        for ctype in CTYPES:
            fw = ReductionFramework(op=op, ctype=ctype)
            for label in FIG6_LABELS:
                table[_key(op, ctype, label)] = _run(
                    fw, label, "sequential-interpreted"
                )
    lines = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items()))
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} entries to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    _write()
