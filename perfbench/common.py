"""Shared plumbing of the benchmark: environment, host facts, statistics,
in-memory spans and the result record every workload returns.

The benchmark runs from the root of a checkout of the repository. It
imports the program from ``src/`` and keeps everything it writes (the
native ``.so`` cache, temporary files, span dumps) under ``.perfbench/``
in that checkout.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"


def require_program() -> None:
    """Exit with code 2 unless the program's sources are present."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            "perfbench: src/repro not found under the current directory; "
            "run from the root of a checkout of the repository",
            file=sys.stderr,
        )
        sys.exit(2)


def prepare_environment() -> None:
    """Point the program (and every child process) at benchmark-owned
    state before ``repro`` is first imported.

    * the native ``.so`` cache lives in ``.perfbench/native`` and is
      warmed during set-up;
    * temporary files (the C toolchain probe) go to ``.perfbench/tmp``;
    * the profile cache never gets a disk tier, so every sweep is cold;
    * the sweep pool uses at most one worker per CPU;
    * bytecode is cached under ``src`` as an installed package has it,
      so a fresh process does not recompile the program's sources.
    """
    (STATE / "native").mkdir(parents=True, exist_ok=True)
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE_DIR"] = str(STATE / "native")
    os.environ["TMPDIR"] = str(STATE / "tmp")
    os.environ["REPRO_MAX_WORKERS"] = str(nproc())
    for name in ("REPRO_CACHE_DIR", "REPRO_TRACE", "REPRO_WORKER_CAP",
                 "PYTHONDONTWRITEBYTECODE"):
        os.environ.pop(name, None)
    sys.dont_write_bytecode = False
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def program_revision() -> str:
    """Git sha of the checkout, or a content hash of ``src`` when the
    checkout is not a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def host_facts() -> dict:
    """What a number needs next to it to say what it measured."""
    from repro.gpusim.native.toolchain import detect_toolchain, unavailable_reason

    toolchain = detect_toolchain()
    return {
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "toolchain": toolchain.tag if toolchain else None,
        "native": toolchain is not None,
        "native_reason": unavailable_reason(),
        "revision": program_revision(),
    }


# ---------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest waited-for
    child (pool workers, CLI subprocesses), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ---------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------


class Recorder:
    """In-memory spans recorded from the benchmark's own files.

    A span holds name, start, end, parent span and request id; spans
    nest per thread. Disabled recorders hand out no spans at all, so the
    untimed path costs one attribute test. :meth:`wrap` puts a span
    around a public function of the program for the rest of the run;
    :meth:`unwrap` restores the originals.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent index, request id]
        self._local = threading.local()
        self._patches = []

    @contextmanager
    def span(self, name: str, rid=None):
        if not self.enabled:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = [name, time.perf_counter(), None, stack[-1] if stack else None, rid]
        self.spans.append(record)
        index = len(self.spans) - 1
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            record[2] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        recorder = self

        def traced(*args, **kwargs):
            with recorder.span(name):
                return original(*args, **kwargs)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)

    def self_time(self, name: str, parent: str = None) -> float:
        """Summed duration of ``name`` spans minus the time their direct
        children cover. ``parent`` keeps only spans directly under a span
        of that name; ``""`` keeps only top-level spans."""
        children = {}
        for span in self.spans:
            if span[3] is not None:
                children.setdefault(span[3], []).append(span)
        total = 0.0
        for index, (n, start, end, up, _) in enumerate(self.spans):
            if n != name:
                continue
            if parent is not None:
                if (self.spans[up][0] if up is not None else "") != parent:
                    continue
            covered = _union_length(
                (child[1], child[2]) for child in children.get(index, ())
            )
            total += (end - start) - covered
        return total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, rid) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "rid": rid,
                }) + "\n")


def _union_length(intervals) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


# ---------------------------------------------------------------------
# the record a workload returns
# ---------------------------------------------------------------------


@dataclass
class Outcome:
    """Checked operations, measurements and notes of one workload run.

    ``metrics`` holds the end-to-end values, ``layers`` the per-layer
    values (traced runs only) and ``breakdown`` the workload's own named
    figures, printed on every run. ``unexpected`` lists failures that
    are not known defects; any entry makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)
    known: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    breakdown: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def check(self, ok: bool, what: str, known: bool = False) -> bool:
        """Count one checked operation; record it when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            (self.known if known else self.unexpected).append(what)
        return ok
