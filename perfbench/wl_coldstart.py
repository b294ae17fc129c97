"""``cold-start``: what one CLI invocation costs.

Runs fresh ``python -m repro reduce 1048576 --version b --engine E``
processes for E in batched, batched-vector and batched-native, round
robin, until ``--seconds`` have elapsed. Each process gets its own seed;
the value it prints is checked against numpy on the same data. The
native ``.so`` cache and the bytecode cache are warmed during set-up
(one process per engine), so every timed process pays import, frontend,
toolchain probe, plan build and first launch, but no C compilation and
no compilation of Python sources.

The traced run adds, per engine, fresh ``coldprobe.py`` processes that
time each public call, and reports what the CLI's wall time leaves
unattributed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import ROOT, Outcome, median
from oracles import value_ok

N = 1048576
VERSION = "b"
ENGINES = (
    ("compiled", "batched"),
    ("vector", "batched-vector"),
    ("native", "batched-native"),
)
PROBE = Path(__file__).with_name("coldprobe.py")
_RESULT = re.compile(r"^result\s*=\s*(\S+)\s*$", re.MULTILINE)
_LAYER_CALLS = ("engine_spec_ms", "plan_build_ms", "first_launch_ms", "warm_launch_ms")


def _cli(engine: str, seed: int):
    """One CLI process: (wall seconds, printed value or None, exit code)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "reduce", str(N), "--version", VERSION,
         "--engine", engine, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - start
    match = _RESULT.search(proc.stdout)
    return wall, float(match.group(1)) if match else None, proc.returncode


def _data(seed: int) -> np.ndarray:
    """The CLI's input for ``--seed``: ``rng.random(n)`` as float32."""
    return np.random.default_rng(seed).random(N).astype(np.float32)


def check_cli(out: Outcome, leg: str, seed: int, value, code: int) -> bool:
    ok = code == 0 and value is not None and value_ok("add", _data(seed), value)
    return out.check(ok, f"cold-start {leg} seed={seed}: exit {code}, value {value!r}")


class _Seeds:
    """Distinct per-process seeds derived from the workload seed."""

    def __init__(self, seed: int):
        self.base = seed * 100_000
        self.count = 0

    def next(self) -> int:
        self.count += 1
        return self.base + self.count


def run(ctx) -> Outcome:
    out = Outcome()
    seeds = _Seeds(ctx.seed)
    for leg, engine in ENGINES:  # warm .pyc files and the native .so cache
        seed = seeds.next()
        _, value, code = _cli(engine, seed)
        check_cli(out, leg, seed, value, code)
    ctx.end_setup()

    walls = {leg: [] for leg, _ in ENGINES}
    deadline = time.perf_counter() + (ctx.seconds / 2 if ctx.trace else ctx.seconds)
    while not all(walls.values()) or time.perf_counter() < deadline:
        for leg, engine in ENGINES:
            seed = seeds.next()
            wall, value, code = _cli(engine, seed)
            if check_cli(out, leg, seed, value, code):
                walls[leg].append(wall)
    medians = {leg: median(v) for leg, v in walls.items()}
    for leg, seconds in medians.items():
        out.breakdown[f"cold_reduce_s.{leg}"] = seconds
        out.notes.append(
            f"cold-start: {leg} median {seconds:.4f} s over {len(walls[leg])} processes"
        )
    # One process per engine, one after another, at the median cost.
    out.metrics["work_per_s"] = len(medians) / sum(medians.values())
    if ctx.trace:
        _probe_layers(ctx, out, seeds, medians)
    return out


def _probe(engine: str, seed: int, trace: bool) -> tuple:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(PROBE), engine, str(N), VERSION, str(seed), str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"coldprobe {engine} failed:\n{proc.stderr}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def _probe_layers(ctx, out: Outcome, seeds: _Seeds, cli_medians: dict) -> None:
    """Per-call timings from fresh probe processes, same share of time
    as the CLI runs; the CLI wall minus the calls is unattributed. Timed
    and untimed probes alternate, for the tracing overhead."""
    samples = {(leg, trace): [] for leg, _ in ENGINES for trace in (True, False)}
    deadline = time.perf_counter() + ctx.seconds / 2
    while not all(samples.values()) or time.perf_counter() < deadline:
        for leg, engine in ENGINES:
            for trace in (True, False):
                seed = seeds.next()
                with ctx.recorder.span("coldprobe", rid=seed):
                    wall, probe = _probe(engine, seed, trace)
                out.check(
                    value_ok("add", _data(seed), probe["value"]),
                    f"coldprobe {leg} seed={seed}: value {probe['value']!r}",
                )
                samples[(leg, trace)].append((wall, probe["calls"]))
    imports, frontends, overheads = [], [], []
    for leg, _ in ENGINES:
        runs = samples[(leg, True)]
        calls = [c for _, c in runs]
        for name in _LAYER_CALLS:
            out.layers[f"{name}.{leg}"] = median(c[name] for c in calls)
        cli_calls = median(
            sum(v for k, v in c.items() if k != "warm_launch_ms") for c in calls
        )
        out.layers[f"unattributed_ms.{leg}"] = cli_medians[leg] * 1e3 - cli_calls
        imports.extend(c["import_ms"] for c in calls)
        frontends.extend(c["frontend_ms"] for c in calls)
        untimed = median(w for w, _ in samples[(leg, False)])
        overheads.append(median(w for w, _ in runs) / untimed - 1.0)
    out.layers["import_ms"] = median(imports)
    out.layers["frontend_ms"] = median(frontends)
    out.layers["trace_overhead_frac.cold-start"] = median(overheads)
