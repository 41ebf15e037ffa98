"""Compile, cache and load generated-C kernels on first use.

Two modules ship a small C translation unit that mirrors a Python hot
loop operation for operation: :mod:`repro.network.cprobe` (the lane
engine's probe objective) and :mod:`repro.simulation.ckernels` (the
vectorized simulator's slot kernels).  Each declares one
:class:`CKernel` — its C source and the ``ctypes`` signature of every
exported function — and this module does the rest:

* **Lazy.** Nothing compiles or loads at import time; the first
  :meth:`CKernel.load` compiles (or reuses) the shared object and
  memoizes the handle for the process.
* **Cached by source hash.** The object is named
  ``repro_<name>_<sha256(source)[:16]>.so``, so the compiler runs once
  per source revision, and every kernel shares one directory:
  ``$REPRO_CPROBE_DIR`` when set, else a per-user ``0700``
  ``repro_cprobe-<uid>/`` in the system temp directory.  A default
  directory that is not a directory, is owned by another user or is
  group/world-writable is refused (a :class:`RuntimeWarning`, then the
  Python fallback), since loading a planted shared object would run
  foreign code.
* **Atomic.** Source and object are built under unique ``mkstemp``
  names and moved into place with ``os.replace``, so concurrent first
  uses never see a torn file.
* **Strict FP.** ``-O2 -fno-fast-math -ffp-contract=off``: no
  reassociation and no FMA contraction, so the C code computes the same
  IEEE-754 double sequence as the Python it mirrors.

Without a working ``cc`` :meth:`CKernel.load` returns ``None`` and the
callers run their Python bodies, which give identical results.  When
:mod:`repro.obs` is enabled, every :meth:`CKernel.load` reports the
kernel's availability through the callback the kernel registered (a
``<kernel>.available`` gauge).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import stat
import subprocess
import tempfile
import warnings
from typing import Any, Callable, Mapping, Sequence

from repro import obs

__all__ = ["CKernel", "cache_dir"]

_STRICT_FLAGS = (
    "-O2",
    "-fPIC",
    "-shared",
    "-fno-fast-math",
    "-ffp-contract=off",
)

#: ``{function name: (argtypes, restype)}`` of a kernel's exports.
Signatures = Mapping[str, tuple[Sequence[Any], Any]]


def cache_dir() -> str | None:
    """Where compiled kernels live; ``None`` if the default is unsafe."""
    override = os.environ.get("REPRO_CPROBE_DIR")
    if override:
        return override
    path = os.path.join(tempfile.gettempdir(), f"repro_cprobe-{os.getuid()}")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        info = os.lstat(path)
    except OSError:
        return None
    if (
        not stat.S_ISDIR(info.st_mode)
        or info.st_uid != os.getuid()
        or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        warnings.warn(
            f"not loading compiled kernels from {path}: it is not a "
            "directory owned by this user and writable only by it; "
            "using the slower Python fallback (set REPRO_CPROBE_DIR to "
            "choose another directory)",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return path


def _build(source: str, directory: str, src_path: str, so_path: str) -> None:
    """Compile into unique temp files, then move both into place."""
    fd, tmp_src = tempfile.mkstemp(suffix=".c", dir=directory)
    tmp_so = tmp_src[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(source)
        subprocess.run(
            ["cc", *_STRICT_FLAGS, "-o", tmp_so, tmp_src, "-lm"],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp_src, src_path)
        os.replace(tmp_so, so_path)
    finally:
        for leftover in (tmp_src, tmp_so):
            if os.path.exists(leftover):
                os.unlink(leftover)


class CKernel:
    """One generated-C translation unit, compiled and loaded on first use.

    ``name`` prefixes the cached file names, ``signatures`` declares
    every exported function, and ``report(available)`` — typically a
    one-line ``obs.set_gauge`` — runs on each :meth:`load` while
    :mod:`repro.obs` is enabled.
    """

    def __init__(
        self,
        name: str,
        source: str,
        signatures: Signatures,
        report: Callable[[bool], None] | None = None,
    ) -> None:
        self.name = name
        self.source = source
        self.signatures = signatures
        self._report = report
        self._lib: ctypes.CDLL | None = None
        self._checked = False

    def source_key(self) -> str:
        return hashlib.sha256(self.source.encode()).hexdigest()[:16]

    def compile(self) -> ctypes.CDLL | None:
        """Compile (or reuse) the kernel; ``None`` when no compiler works."""
        directory = cache_dir()
        if directory is None:
            return None
        stem = os.path.join(directory, f"repro_{self.name}_{self.source_key()}")
        so_path = stem + ".so"
        if not os.path.exists(so_path):
            try:
                _build(self.source, directory, stem + ".c", so_path)
            except (OSError, subprocess.SubprocessError):
                return None
        try:
            lib = ctypes.CDLL(so_path)
            for fn_name, (argtypes, restype) in self.signatures.items():
                fn = getattr(lib, fn_name)
                fn.argtypes = list(argtypes)
                fn.restype = restype
        except (OSError, AttributeError):
            return None
        return lib

    def load(self) -> ctypes.CDLL | None:
        """The loaded kernel, compiled on the first call of the process."""
        if not self._checked:
            self._lib = self.compile()
            self._checked = True
        if self._report is not None and obs.enabled():
            self._report(self._lib is not None)
        return self._lib

    def available(self) -> bool:
        """Whether the compiled kernel is usable in this environment."""
        return self.load() is not None
