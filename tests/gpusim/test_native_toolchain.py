"""Native toolchain: discovery, FFI call protocol and `.so` disk cache.

The disk tier must never trust a cached object: a truncated ``.so``, a
sidecar from a different toolchain/ABI, or an object that fails to
dlopen must all be evicted and recompiled from source — silently
serving a stale or corrupt library would poison every later run keyed
to the same source hash.  These tests drive :func:`load_or_compile`
against a throwaway cache directory (``REPRO_NATIVE_CACHE_DIR``) and
tamper with the entries between calls.

Everything here needs a real C compiler; the module skips cleanly
otherwise (the degradation story is covered in test_native_engine.py).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.gpusim.native import native_available
from repro.gpusim.native.toolchain import (
    ABI_VERSION,
    Toolchain,
    cache_dir,
    detect_toolchain,
    load_or_compile,
    source_key,
)

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C toolchain on this host"
)

#: Minimal translation unit honouring the generated-code call protocol:
#: ``int64_t f(void **ptrs, int64_t *meta)``.
SOURCE = """\
#include <stdint.h>
int64_t t_answer(void **p, int64_t *m) { (void)p; (void)m; return 42; }
"""


class Recorder:
    """Stand-in metrics registry capturing counter increments."""

    def __init__(self):
        self.counts = {}

    def inc(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def observe(self, name, value):
        pass


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))
    assert cache_dir() == str(tmp_path)
    return tmp_path


def _paths(source):
    key = source_key(source, detect_toolchain())
    return (
        os.path.join(cache_dir(), f"{key}.so"),
        os.path.join(cache_dir(), f"{key}.json"),
    )


def _call(lib):
    return lib.binder("t_answer")(0, 0)()


def test_compile_then_disk_hit(cache):
    rec = Recorder()
    lib = load_or_compile(SOURCE, ["t_answer"], rec)
    assert _call(lib) == 42
    assert rec.counts == {"native.cache.misses": 1}
    so_path, meta_path = _paths(SOURCE)
    assert os.path.exists(so_path) and os.path.exists(meta_path)
    # Second process/plan with the same source: pure disk hit.
    lib2 = load_or_compile(SOURCE, ["t_answer"], rec)
    assert _call(lib2) == 42
    assert rec.counts["native.cache.hits"] == 1
    assert rec.counts["native.cache.misses"] == 1


def test_truncated_object_is_evicted_and_recompiled(cache):
    load_or_compile(SOURCE, ["t_answer"])
    so_path, meta_path = _paths(SOURCE)
    # Replace (unlink + rewrite, as an interrupted writer would leave
    # it) rather than truncating the mapped inode in place.
    os.unlink(so_path)
    with open(so_path, "wb") as fh:
        fh.write(b"\x7fELF")  # truncated: sidecar size no longer matches
    rec = Recorder()
    lib = load_or_compile(SOURCE, ["t_answer"], rec)
    assert _call(lib) == 42
    assert rec.counts == {"native.cache.misses": 1}
    assert os.path.getsize(so_path) > 4  # fresh object replaced the stub


def test_stale_toolchain_tag_is_evicted(cache):
    load_or_compile(SOURCE, ["t_answer"])
    so_path, meta_path = _paths(SOURCE)
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    meta["toolchain"] = "ancient-cc 0.1|abi0"
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    rec = Recorder()
    lib = load_or_compile(SOURCE, ["t_answer"], rec)
    assert _call(lib) == 42
    assert rec.counts == {"native.cache.misses": 1}
    with open(meta_path, "r", encoding="utf-8") as fh:
        assert json.load(fh)["abi"] == ABI_VERSION  # sidecar rewritten


def test_corrupt_object_with_forged_sidecar_is_evicted(cache):
    """Worst case: garbage bytes whose size matches the sidecar, so the
    metadata check passes and only dlopen can reveal the corruption.

    The entry is produced by a *separate process*: dlopen dedupes by
    pathname within one process and would serve the healthy image it
    already mapped, hiding the on-disk corruption this test plants.
    (That is also the realistic failure: a corrupted cache is only ever
    *read* by a process that never compiled it.)
    """
    import repro

    src_root = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        "from repro.gpusim.native.toolchain import load_or_compile; "
        f"load_or_compile({SOURCE!r}, ['t_answer'])"
    )
    subprocess.run(
        [sys.executable, "-c", code], check=True,
        env={**os.environ, "PYTHONPATH": src_root},
    )
    so_path, meta_path = _paths(SOURCE)
    size = os.path.getsize(so_path)
    os.unlink(so_path)
    with open(so_path, "wb") as fh:
        fh.write(b"\x00" * size)
    rec = Recorder()
    lib = load_or_compile(SOURCE, ["t_answer"], rec)
    assert _call(lib) == 42
    assert rec.counts == {"native.cache.misses": 1}


def test_missing_sidecar_forces_recompile(cache):
    load_or_compile(SOURCE, ["t_answer"])
    so_path, meta_path = _paths(SOURCE)
    os.unlink(meta_path)
    rec = Recorder()
    lib = load_or_compile(SOURCE, ["t_answer"], rec)
    assert _call(lib) == 42
    assert rec.counts == {"native.cache.misses": 1}
    assert os.path.exists(meta_path)


def test_source_key_separates_source_and_toolchain(cache):
    tc = detect_toolchain()
    other = SOURCE.replace("42", "43")
    assert source_key(SOURCE, tc) != source_key(other, tc)
    # Two sources coexist as independent entries.
    lib_a = load_or_compile(SOURCE, ["t_answer"])
    lib_b = load_or_compile(other, ["t_answer"])
    assert _call(lib_a) == 42
    assert _call(lib_b) == 43


def test_toolchain_tag_is_pinned():
    """The tag keys every cached object: any edit to its format orphans
    every `.so` already on disk, so it must stay byte-identical."""
    tag = Toolchain(cc="/usr/bin/cc", version="cc 1").tag
    assert tag == "/usr/bin/cc|cc 1|abi1|ffi-any|"
