"""Benchmark of the reduction framework, end to end and per layer.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, by name

Workloads (see BENCHMARK.json for why each exists):

* ``sweep``      cold tuning sweep over the Figure-6 grid (wl_sweep.py);
* ``reduce``     warm full launches per backend (wl_reduce.py);
* ``cold-start`` fresh ``python -m repro reduce`` processes (wl_coldstart.py);
* ``serve``      open-loop traffic into ``ReductionServer`` (wl_serve.py).

``--trace 0`` measures the end-to-end metrics with no spans recorded.
``--trace 1`` is the separate traced run that gives the per-layer
metrics; spans are kept in memory and written to ``.perfbench/`` at
exit. Every run checks the program's outputs with the oracles in
oracles.py. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up is timed from here, before any import of repro

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

from common import (  # noqa: E402
    SPEC,
    STATE,
    Recorder,
    host_facts,
    median,
    peak_rss_mb,
    prepare_environment,
    require_program,
)

#: set-up is repeated in fresh processes (after the timed phase) while
#: the samples so far stay under the budget, and the median is reported;
#: a long set-up already averages the host's noise.
SETUP_SAMPLES = 3
SETUP_BUDGET_S = 5.0

WORKLOADS = {
    "sweep": "wl_sweep",
    "reduce": "wl_reduce",
    "cold-start": "wl_coldstart",
    "serve": "wl_serve",
}


class SetupDone(Exception):
    """Raised at the end of set-up when only set-up was asked for."""


class Context:
    """What a workload needs from the harness."""

    def __init__(self, seed: int, seconds: float, trace: bool, setup_only: bool = False):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.setup_only = setup_only
        self.recorder = Recorder(enabled=trace)
        self.setup_s = None
        self.peak_rss_mb = None

    def end_setup(self) -> None:
        """Mark the end of set-up: the timed phase starts now."""
        self.setup_s = time.perf_counter() - START
        if self.setup_only:
            raise SetupDone


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
    }


def finish(name: str, ctx: Context, out, spec: dict) -> dict:
    """Complete the outcome with the harness-level metrics and build the
    result object; every metric must be declared in BENCHMARK.json."""
    attempted = max(out.attempted, 1)
    out.breakdown["failed_frac"] = out.failed / attempted
    if ctx.trace:
        declared = spec["per_layer"]
        values = {**out.breakdown, **out.layers}
        unknown = sorted(set(values) - set(declared))
        values = {key: values.get(key, 0) for key in declared}
    else:
        declared = spec["end_to_end"]
        values = dict(out.metrics)
        values["setup_s"] = median(ctx.setup_s)
        values["peak_rss_mb"] = ctx.peak_rss_mb
        values["ok_frac"] = (attempted - out.failed) / attempted
        unknown = sorted(
            (set(values) - set(declared))
            | (set(out.breakdown) - set(spec["per_layer"]))
        )
        missing = sorted(set(declared) - set(values))
        if missing:
            raise RuntimeError(f"{name}: end-to-end metrics not measured: {missing}")
    if unknown:
        raise RuntimeError(f"{name}: metrics missing from BENCHMARK.json: {unknown}")
    return {
        "correct": not out.unexpected,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            key: {"value": float(values[key]), "unit": declared[key]["unit"]}
            for key in declared
        },
    }


def report(name: str, ctx: Context, out, result: dict, spec: dict) -> None:
    facts = host_facts()
    print(f"workload {name} seed={ctx.seed} seconds={ctx.seconds} trace={int(ctx.trace)}")
    print("host " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for note in out.notes:
        print(note)
    for what, count in Counter(out.known).items():
        print(f"known defect ({count}x): {what}")
    for what in out.unexpected:
        print(f"FAILED: {what}")
    print(f"checked {out.attempted} operations, {out.failed} failed")
    if not ctx.trace:
        for key, value in sorted(out.breakdown.items()):
            unit = spec["per_layer"][key]["unit"]
            print(f"  {key} = {value:.6g} {unit}")
    for key, entry in result["metrics"].items():
        print(f"{name}: {key} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))


def setup_samples(args, first: float) -> list:
    """The set-up time of this run plus fresh-process repeats."""
    samples = [first]
    while len(samples) < SETUP_SAMPLES and sum(samples) + first <= SETUP_BUDGET_S:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed",
             str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up repeat failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_one(args) -> int:
    require_program()
    spec = load_spec()
    prepare_environment()
    module = importlib.import_module(WORKLOADS[args.workload])
    ctx = Context(args.seed, args.seconds, bool(args.trace), args.setup_only)
    try:
        out = module.run(ctx)
    except SetupDone:
        print(ctx.setup_s)
        return 0
    if not ctx.trace:
        ctx.peak_rss_mb = peak_rss_mb()
        ctx.setup_s = setup_samples(args, ctx.setup_s)
        out.notes.append(
            "set-up: " + ", ".join(f"{s:.4f}" for s in ctx.setup_s) + " s"
        )
    result = finish(args.workload, ctx, out, spec)
    if ctx.trace:
        ctx.recorder.write(STATE / f"spans-{args.workload}-{args.seed}.jsonl")
    report(args.workload, ctx, out, result, spec)
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each metric by name."""
    require_program()
    correct = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        correct = correct and json.loads(lines[-1])["correct"]
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="run the set-up only and print its seconds")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
