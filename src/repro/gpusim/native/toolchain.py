"""C toolchain discovery, shared-library compilation and the `.so` disk cache.

The native backend generates one C translation unit per kernel and needs
it compiled into a loadable shared object at plan-build time.  This
module owns everything between "here is C source" and "here is a callable
symbol":

* **Discovery** — find a working C compiler (``$REPRO_NATIVE_CC``, then
  ``cc``/``gcc``/``clang`` on ``PATH``).  When none exists the backend
  reports itself *unavailable with a reason* instead of erroring; the
  reason string is surfaced verbatim by ``parse_engine_spec`` and the
  CLI so a user on a compiler-less machine knows exactly what to
  install.  ``REPRO_NATIVE_DISABLE=1`` forces unavailability (used by
  the degradation tests).

* **FFI layer** — loaded libraries are called through :mod:`ctypes`
  against a uniform ``int64_t f(void **, int64_t *)`` prototype; a
  per-symbol binder fixes both pointer arguments once so each call is a
  zero-argument ``() -> int64``.

* **Disk cache** — compiled objects persist under a content key of
  ``sha256(source + toolchain tag)`` so unrelated processes reuse one
  compile, mirroring :class:`repro.perf.cache.ProfileCache`'s disk
  tier: entries are written atomically (temp file + ``os.replace``),
  and corrupt, truncated or stale entries are *evicted and recompiled*
  rather than trusted — a sidecar ``.json`` records the toolchain tag,
  ABI version and object size, and any mismatch (or a load failure of
  the object itself) unlinks the pair and falls through to a fresh
  compile.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass

#: Generated-code ABI version.  Part of every cache key and sidecar:
#: bump when the generated C / caller protocol changes so stale objects
#: from older builds can never be loaded.
ABI_VERSION = 1

#: Compiler candidates probed in order when $REPRO_NATIVE_CC is unset.
_CC_CANDIDATES = ("cc", "gcc", "clang")

_CFLAGS = ("-O3", "-fPIC", "-shared", "-std=c99", "-fno-strict-aliasing")

#: Host-tuning flags, used only when the compiler accepts them (probed
#: once at discovery).  They join the toolchain tag, so objects built
#: for a different host or flag set never get reused from disk.
_TUNE_FLAGS = ("-march=native", "-funroll-loops", "-mprefer-vector-width=512")


class NativeUnavailable(RuntimeError):
    """Raised when native compilation is requested but impossible."""


class NativeCompileError(RuntimeError):
    """The toolchain exists but compilation of generated source failed."""


@dataclass(frozen=True)
class Toolchain:
    """A discovered C compiler and the host-tuning flags it accepts."""

    cc: str            # absolute compiler path
    version: str       # first line of `cc --version`
    tune: tuple = ()   # accepted host-tuning flags (subset of _TUNE_FLAGS)

    @property
    def tag(self) -> str:
        """Cache-key component: compiler identity + flags + ABI rev.

        Keep the format, ``ffi-any`` literal included, byte-identical:
        any edit orphans every `.so` already in a disk cache.
        """
        flags = " ".join(self.tune)
        return f"{self.cc}|{self.version}|abi{ABI_VERSION}|ffi-any|{flags}"


# Discovery is cached process-wide; tests reset it around env changes.
_DETECTED = None       # False = not probed yet; None = unavailable
_DETECT_REASON = None
_NOT_PROBED = False


def reset_toolchain_cache() -> None:
    """Forget discovery results (tests flip env vars around this)."""
    global _DETECTED, _DETECT_REASON
    _DETECTED = _NOT_PROBED
    _DETECT_REASON = None


reset_toolchain_cache()


def _probe() -> tuple:
    if os.environ.get("REPRO_NATIVE_DISABLE"):
        return None, "disabled via REPRO_NATIVE_DISABLE"
    override = os.environ.get("REPRO_NATIVE_CC")
    if override:
        path = shutil.which(override)
        if path is None:
            return None, (
                f"REPRO_NATIVE_CC={override!r} is not an executable on PATH"
            )
        candidates = [path]
    else:
        candidates = [
            p for p in (shutil.which(c) for c in _CC_CANDIDATES) if p
        ]
        if not candidates:
            return None, (
                "no C compiler found (looked for "
                + ", ".join(_CC_CANDIDATES)
                + " on PATH; install one or set REPRO_NATIVE_CC)"
            )
    cc = candidates[0]
    try:
        out = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30
        )
        version = (out.stdout or out.stderr).splitlines()[0].strip()
    except (OSError, subprocess.SubprocessError, IndexError) as exc:
        return None, f"C compiler {cc!r} failed to run: {exc}"
    return Toolchain(cc=cc, version=version, tune=_probe_tune_flags(cc)), None


def _probe_tune_flags(cc) -> tuple:
    """Which of :data:`_TUNE_FLAGS` the compiler accepts (all or none:
    a trivial compile is attempted with the full set)."""
    with tempfile.TemporaryDirectory(prefix="repro-native-probe-") as td:
        src = os.path.join(td, "probe.c")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write("int probe(int x) { return x + 1; }\n")
        try:
            r = subprocess.run(
                [cc, *_CFLAGS, *_TUNE_FLAGS, src,
                 "-o", os.path.join(td, "probe.so")],
                capture_output=True, timeout=60,
            )
        except (OSError, subprocess.SubprocessError):
            return ()
    return _TUNE_FLAGS if r.returncode == 0 else ()


def detect_toolchain():
    """The process's toolchain, or None (see :func:`unavailable_reason`)."""
    global _DETECTED, _DETECT_REASON
    if _DETECTED is _NOT_PROBED:
        _DETECTED, _DETECT_REASON = _probe()
    return _DETECTED


def unavailable_reason():
    """Why native execution is impossible, or None when it is possible."""
    detect_toolchain()
    return _DETECT_REASON


def native_available() -> bool:
    return detect_toolchain() is not None


# ---------------------------------------------------------------------
# disk cache
# ---------------------------------------------------------------------


def cache_dir() -> str:
    path = os.environ.get("REPRO_NATIVE_CACHE_DIR")
    if not path:
        base = os.environ.get(
            "XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache")
        )
        path = os.path.join(base, "repro", "native")
    return path


def source_key(source: str, toolchain: Toolchain) -> str:
    """Content key for one translation unit under one toolchain."""
    h = hashlib.sha256()
    h.update(source.encode("utf-8"))
    h.update(b"\x00")
    h.update(toolchain.tag.encode("utf-8"))
    return h.hexdigest()


def _evict(so_path: str, meta_path: str) -> None:
    for path in (so_path, meta_path):
        try:
            os.unlink(path)
        except OSError:
            pass


def _meta_ok(meta_path: str, so_path: str, toolchain: Toolchain) -> bool:
    """Validate a cached object's sidecar: same toolchain tag, same ABI,
    and the recorded byte size (a truncated `.so` fails here before we
    ever try to dlopen it)."""
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        return (
            meta.get("toolchain") == toolchain.tag
            and meta.get("abi") == ABI_VERSION
            and meta.get("size") == os.path.getsize(so_path)
        )
    except (OSError, ValueError):
        return False


def _compile(source: str, toolchain: Toolchain, so_path: str) -> None:
    directory = os.path.dirname(so_path)
    os.makedirs(directory, exist_ok=True)
    fd, c_path = tempfile.mkstemp(suffix=".c", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(source)
        tmp_so = c_path[:-2] + ".so.tmp"
        cmd = [toolchain.cc, *_CFLAGS, *toolchain.tune,
               c_path, "-o", tmp_so, "-lm"]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=300
        )
        if proc.returncode != 0:
            raise NativeCompileError(
                f"native codegen: {toolchain.cc} failed "
                f"(rc={proc.returncode}):\n{proc.stderr[-2000:]}"
            )
        os.replace(tmp_so, so_path)
        meta = {
            "toolchain": toolchain.tag,
            "abi": ABI_VERSION,
            "size": os.path.getsize(so_path),
        }
        mfd, m_tmp = tempfile.mkstemp(suffix=".json", dir=directory)
        with os.fdopen(mfd, "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        os.replace(m_tmp, so_path[:-3] + ".json")
    finally:
        try:
            os.unlink(c_path)
        except OSError:
            pass


class LoadedLibrary:
    """A dlopened generated library behind a uniform call protocol.

    Every exported symbol takes the *addresses* (ints) of a ``void *``
    pointer array and an ``int64_t`` metadata array and returns an
    int64 status code; :meth:`binder` turns one symbol into zero-arg
    calls on fixed argument frames.
    """

    def __init__(self, so_path: str, names):
        self.so_path = so_path
        self._lib = ctypes.CDLL(so_path)
        self._raw = {}
        for name in names:
            raw = getattr(self._lib, name)
            raw.restype = ctypes.c_int64
            raw.argtypes = [ctypes.c_void_p, ctypes.c_void_p]
            self._raw[name] = raw

    def binder(self, name):
        """``bind(p_addr, m_addr) -> call()`` for one symbol: the pointer
        arguments are boxed once at bind time instead of per invocation.
        Callers that reuse fixed argument frames (the native wrappers)
        bind once per frame and then pay only a zero-arg call."""
        raw = self._raw[name]

        def bind(p, m, _raw=raw):
            cp = ctypes.c_void_p(p)
            cm = ctypes.c_void_p(m)
            return lambda _raw=_raw, cp=cp, cm=cm: _raw(cp, cm)

        return bind


def load_or_compile(source: str, names, metrics=None) -> LoadedLibrary:
    """Return the compiled library for ``source``, via the disk cache.

    Cache-hit path: sidecar validates (toolchain tag + ABI + size) and
    the object dlopens.  Every other state — missing sidecar, stale
    toolchain, truncated object, dlopen failure — evicts the entry and
    recompiles from source.
    """
    toolchain = detect_toolchain()
    if toolchain is None:
        raise NativeUnavailable(unavailable_reason())
    key = source_key(source, toolchain)
    directory = cache_dir()
    so_path = os.path.join(directory, f"{key}.so")
    meta_path = os.path.join(directory, f"{key}.json")
    names = list(names)
    if os.path.exists(so_path):
        if _meta_ok(meta_path, so_path, toolchain):
            try:
                lib = LoadedLibrary(so_path, names)
                if metrics is not None:
                    metrics.inc("native.cache.hits")
                return lib
            except OSError:
                pass  # corrupt object that still had a valid-looking sidecar
        _evict(so_path, meta_path)
    if metrics is not None:
        metrics.inc("native.cache.misses")
    _compile(source, toolchain, so_path)
    return LoadedLibrary(so_path, names)
