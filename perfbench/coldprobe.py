"""One cold reduction in a fresh process, timed per public call.

Mirrors what ``python -m repro reduce N --version V --engine E --seed S``
does, as separate calls into each layer: import, engine spec parsing
(which probes the C toolchain for native), the frontend
(``ReductionFramework(...)``), plan build, the first launch and a second,
warm launch. Prints one JSON object: per-call milliseconds and the first
launch's value. With TRACE 0 the same calls run without timers, for the
tracing overhead.

    PYTHONPATH=src python3 perfbench/coldprobe.py ENGINE N VERSION SEED TRACE
"""

from __future__ import annotations

import json
import sys
import time


def main(engine: str, n: int, version: str, seed: int, trace: bool) -> dict:
    calls = {}

    def timed(name, call):
        if not trace:
            return call()
        start = time.perf_counter()
        value = call()
        calls[name] = (time.perf_counter() - start) * 1e3
        return value

    repro = timed("import_ms", lambda: __import__("repro"))
    from repro.gpusim import parse_engine_spec

    timed("engine_spec_ms", lambda: parse_engine_spec(engine))
    fw = timed("frontend_ms", lambda: repro.ReductionFramework(op="add", engine=engine))
    import numpy as np

    data = np.random.default_rng(seed).random(n).astype(np.float32)
    timed("plan_build_ms", lambda: fw.build(version, n))
    first = timed("first_launch_ms", lambda: fw.run(data, version=version))
    timed("warm_launch_ms", lambda: fw.run(data, version=version))
    return {"calls": calls, "value": first.value}


if __name__ == "__main__":
    engine, n, version, seed, trace = sys.argv[1:6]
    print(json.dumps(main(engine, int(n), version, int(seed), trace == "1")))
