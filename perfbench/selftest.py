"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py          # oracles + BENCHMARK.json, seconds
    python3 perfbench/selftest.py --runs   # also runs every workload briefly

Each oracle must reject an injected wrong value; BENCHMARK.json must
follow the benchmark contract; the harness must refuse a metric that
BENCHMARK.json does not declare. ``--runs`` runs each workload for one
second, untraced and traced, and checks the shape of the result line.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import numpy as np

from common import SPEC, Outcome, prepare_environment, require_program

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def test_value_oracle() -> None:
    from oracles import FLOAT_ADD_RTOL, expected_value, value_ok

    rng = np.random.default_rng(0)
    floats = rng.standard_normal(4096).astype(np.float32)
    ints = rng.integers(-1000, 1000, size=4096).astype(np.int32)
    total = expected_value("add", floats)
    slack = 2 * FLOAT_ADD_RTOL * float(np.abs(floats).sum(dtype=np.float64))
    check(value_ok("add", floats, total), "float add rejects the exact sum")
    check(not value_ok("add", floats, total + slack), "float add accepts a wrong sum")
    check(value_ok("add", ints, expected_value("add", ints)), "int add rejects the sum")
    check(not value_ok("add", ints, expected_value("add", ints) + 1), "int add accepts sum+1")
    for op, data in (("max", floats), ("min", ints)):
        right = expected_value(op, data)
        wrong = np.nextafter(np.float32(right), np.float32(np.inf)) if op == "max" else right - 1
        check(value_ok(op, data, right), f"{op} rejects the right value")
        check(not value_ok(op, data, wrong), f"{op} accepts a wrong value")


def test_event_oracle() -> None:
    from oracles import events_equal
    from repro import ReductionFramework

    fw = ReductionFramework(op="add")
    data = np.ones(4096, dtype=np.float32)
    first = fw.run(data, version="b").profile
    second = fw.run(data, version="b", engine_mode="interpreted").profile
    check(events_equal(first, second), "events differ across engines for one plan")
    key = next(k for k, v in second.steps[0].events.items() if v)
    second.steps[0].events[key] += 1
    check(not events_equal(first, second), "event oracle accepts a changed counter")


def test_known_defects() -> None:
    from oracles import KNOWN_DEFECTS

    out = Outcome()
    out.check(False, "listed", known=("native", "add", "int", 262144, "a") in KNOWN_DEFECTS)
    check(out.failed == 1 and not out.unexpected, "a known defect made the run incorrect")
    out.check(False, "not listed", known=("vector", "add", "int", 262144, "a") in KNOWN_DEFECTS)
    check(out.unexpected == ["not listed"], "an unlisted failure did not make the run incorrect")


def test_cli_oracle() -> None:
    import wl_coldstart

    seed = 7
    right = float(wl_coldstart._data(seed).sum(dtype=np.float64))
    out = Outcome()
    check(wl_coldstart.check_cli(out, "compiled", seed, right, 0), "CLI oracle rejects the sum")
    check(not wl_coldstart.check_cli(out, "compiled", seed, right * 1.001, 0),
          "CLI oracle accepts a wrong sum")
    check(not wl_coldstart.check_cli(out, "compiled", seed, right, 1),
          "CLI oracle accepts a failing exit code")
    check(not wl_coldstart.check_cli(out, "compiled", seed, None, 0),
          "CLI oracle accepts a missing result line")


def test_spec() -> None:
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json keys")
    check(1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int),
          "run_seconds")
    check(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    names = set()
    for workload in spec["workloads"]:
        check(set(workload) == {"name", "why"}, f"workload keys {workload}")
        check(0 < len(workload["why"]) <= 200 and "\n" not in workload["why"],
              f"why of {workload['name']}")
        names.add(workload["name"])
    import run

    check(names == set(run.WORKLOADS), "workloads in BENCHMARK.json and run.py differ")
    check(1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128,
          "metric counts")
    seen = set()
    for kind in ("end_to_end", "per_layer"):
        keys = {"name", "unit", "better"} | ({"bound"} if kind == "end_to_end" else set())
        for metric in spec[kind]:
            check(set(metric) == keys, f"keys of {metric}")
            check(bool(_NAME.match(metric["name"])), f"name {metric['name']}")
            check(bool(_UNIT.match(metric["unit"])), f"unit of {metric['name']}")
            check(metric["better"] in ("lower", "higher"), f"direction of {metric['name']}")
            check(metric["name"] not in seen, f"{metric['name']} used twice")
            seen.add(metric["name"])
            if kind == "end_to_end":
                check(0 < metric["bound"] <= 0.25, f"bound of {metric['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s")
    check(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s has the largest bound")


def test_undeclared_metric_refused() -> None:
    import run

    spec = run.load_spec()
    ctx = run.Context(seed=0, seconds=1, trace=False)
    ctx.setup_s = [1.0]
    ctx.peak_rss_mb = 1.0
    out = Outcome(attempted=1, metrics={"work_per_s": 1.0})
    run.finish("selftest", ctx, out, spec)
    out.breakdown["not_a_declared_metric"] = 1.0
    try:
        run.finish("selftest", ctx, out, spec)
    except RuntimeError:
        pass
    else:
        check(False, "an undeclared metric was printed")


def test_runs() -> None:
    import run

    spec = run.load_spec()
    for name in run.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            check(proc.returncode == 0, f"{name} trace={trace} exited {proc.returncode}:"
                  f"\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} result keys")
            check(result["correct"] and result["attempted"] >= 1, f"{name} trace={trace}")
            check(set(result["metrics"]) == set(declared), f"{name} trace={trace} metrics")
            if trace == 0:
                zero = [k for k, v in result["metrics"].items() if not v["value"]]
                check(not zero, f"{name}: end-to-end metrics read 0: {zero}")
            print(f"selftest: {name} trace={trace} ok")


def main() -> int:
    require_program()
    prepare_environment()
    test_value_oracle()
    test_event_oracle()
    test_known_defects()
    test_cli_oracle()
    test_spec()
    test_undeclared_metric_refused()
    if "--runs" in sys.argv[1:]:
        test_runs()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
