"""Independent correctness oracles.

Values are checked against numpy, never against another engine of the
program: integer add, max and min must match exactly; float add may
differ from the float64 sum by a tolerance relative to the sum of
absolute values (the simulated reduction order differs from numpy's).
Simulated statistics are checked for identity across engines running
the same plan.
"""

from __future__ import annotations

import numpy as np

#: Float add tolerance, relative to sum(|x|). A float32 tree or atomic
#: reduction over at most a few million elements stays well inside it.
FLOAT_ADD_RTOL = 1e-5

#: Known program defects: (backend, op, ctype, n, version) whose wrong
#: results are counted as failures but do not make a run incorrect.
#: ``batched-native`` add/int returns wrong sums at n = 262144 for
#: versions a-j (every seed tried; all-ones input is correct); vector,
#: compiled and numpy agree. Any other wrong value is unexpected.
KNOWN_DEFECTS = frozenset(
    ("native", "add", "int", 262144, version) for version in "abcdefghij"
)


def expected_value(op: str, data: np.ndarray):
    """The exact reference for int data and max/min; float64 sum for
    float add."""
    if op == "add":
        if data.dtype.kind == "i":
            return int(data.astype(np.int64).sum().astype(np.int32))
        return float(data.sum(dtype=np.float64))
    if op == "max":
        return data.max().item()
    if op == "min":
        return data.min().item()
    raise ValueError(f"unknown op {op!r}")


def value_ok(op: str, data: np.ndarray, value) -> bool:
    """Whether ``value`` is a correct reduction of ``data``."""
    if data.size == 0:
        return False
    expected = expected_value(op, data)
    if op == "add" and data.dtype.kind == "f":
        scale = float(np.abs(data).sum(dtype=np.float64))
        return abs(float(value) - expected) <= FLOAT_ADD_RTOL * max(scale, 1.0)
    return float(value) == float(expected)


def event_signature(profile) -> list:
    """Per launch: kernel, geometry, sampling and every event counter."""
    return [
        (
            step.kernel_name,
            step.grid,
            step.block,
            step.sampled_blocks,
            tuple(sorted((k, v) for k, v in step.events.items() if v)),
        )
        for step in profile.steps
    ]


def events_equal(first, second) -> bool:
    return event_signature(first) == event_signature(second)
