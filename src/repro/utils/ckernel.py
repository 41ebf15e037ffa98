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
  ``repro_<name>_<key>.so``, where ``key`` is the first 16 hex digits
  of the sha256 of the source and of the identity of every
  :class:`LinkInput` (a prebuilt archive linked into the object: its
  version plus a digest of its bytes), so the compiler runs once per
  source revision and an upgraded archive never meets an object linked
  against the old one.  Every kernel shares one directory:
  ``$REPRO_CPROBE_DIR`` when set (created ``0700`` if missing), else a
  per-user ``0700`` ``repro_cprobe-<uid>/`` in the system temp
  directory.  A default directory that is not a directory, is owned by
  another user or is group/world-writable is refused (a
  :class:`RuntimeWarning`, then the Python fallback), since loading a
  planted shared object would run foreign code.
* **Atomic.** Source and object are built under unique ``mkstemp``
  names and moved into place with ``os.replace``, so concurrent first
  uses never see a torn file.
* **Strict FP.** ``-O2 -fno-fast-math -ffp-contract=off``: no
  reassociation and no FMA contraction, so the C code computes the same
  IEEE-754 double sequence as the Python it mirrors.

Without a working ``cc`` (or a link input) :meth:`CKernel.load`
returns ``None`` and the callers run their Python bodies, which give
identical results; a build or load that fails says so once per kernel
in a :class:`RuntimeWarning` naming the kernel and the compiler's
stderr, so a slow fallback is never silent.  When
:mod:`repro.obs` is enabled, :meth:`CKernel.load` reports the kernel's
availability through the callback the kernel registered (a
``<kernel>.available`` gauge), once into each enabled registry and again
after that registry is reset.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import stat
import subprocess
import tempfile
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro import obs

__all__ = ["CKernel", "LinkInput", "cache_dir"]

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
        try:
            os.makedirs(override, mode=0o700, exist_ok=True)
        except OSError as exc:
            warnings.warn(
                f"cannot create REPRO_CPROBE_DIR {override}: {exc}; using "
                "the slower Python fallback",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
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


@dataclass(frozen=True)
class LinkInput:
    """A prebuilt object file or archive linked into a kernel.

    ``version`` names the release that shipped it; together with a
    digest of the file's bytes it forms the :meth:`identity` that the
    kernel's cache key hashes.
    """

    path: str
    version: str

    def identity(self) -> str:
        with open(self.path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        return f"{self.version}:{digest}"


def _build(
    source: str,
    directory: str,
    src_path: str,
    so_path: str,
    link_paths: Sequence[str] = (),
) -> None:
    """Compile into unique temp files, then move both into place."""
    fd, tmp_src = tempfile.mkstemp(suffix=".c", dir=directory)
    tmp_so = tmp_src[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(source)
        subprocess.run(
            ["cc", *_STRICT_FLAGS, "-o", tmp_so, tmp_src, *link_paths, "-lm"],
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
    every exported function, ``link_inputs`` lists the prebuilt objects
    linked in after the source, and ``report(available)`` — typically a
    one-line ``obs.set_gauge`` — runs on the first :meth:`load` into each
    enabled :mod:`repro.obs` registry (and again after a reset of it).
    """

    def __init__(
        self,
        name: str,
        source: str,
        signatures: Signatures,
        report: Callable[[bool], None] | None = None,
        link_inputs: Sequence[LinkInput] = (),
    ) -> None:
        self.name = name
        self.source = source
        self.signatures = signatures
        self.link_inputs = tuple(link_inputs)
        self._report = report
        self._lib: ctypes.CDLL | None = None
        self._checked = False
        # the registry (and its reset count) the gauge last went to
        self._reported: tuple[obs.MetricsRegistry | None, int] = (None, 0)

    def source_key(self) -> str:
        """Hash of the source and of every link input's identity."""
        digest = hashlib.sha256(self.source.encode())
        for link in self.link_inputs:
            digest.update(b"\0" + link.identity().encode())
        return digest.hexdigest()[:16]

    def _unavailable(self, reason: str) -> None:
        warnings.warn(
            f"compiled kernel {self.name!r} is unavailable, using its "
            f"slower Python fallback: {reason}",
            RuntimeWarning,
            stacklevel=3,
        )

    def compile(self) -> ctypes.CDLL | None:
        """Compile (or reuse) the kernel; ``None`` when no compiler works."""
        directory = cache_dir()
        if directory is None:
            return None
        try:
            key = self.source_key()
        except OSError as exc:
            self._unavailable(f"cannot read a link input: {exc}")
            return None
        stem = os.path.join(directory, f"repro_{self.name}_{key}")
        so_path = stem + ".so"
        if not os.path.exists(so_path):
            link_paths = [link.path for link in self.link_inputs]
            try:
                _build(self.source, directory, stem + ".c", so_path, link_paths)
            except subprocess.CalledProcessError as exc:
                stderr = exc.stderr.decode(errors="replace").strip()
                self._unavailable(f"the build failed: {stderr}")
                return None
            except (OSError, subprocess.SubprocessError) as exc:
                self._unavailable(f"the build failed: {exc}")
                return None
        try:
            lib = ctypes.CDLL(so_path)
            for fn_name, (argtypes, restype) in self.signatures.items():
                fn = getattr(lib, fn_name)
                fn.argtypes = list(argtypes)
                fn.restype = restype
        except (OSError, AttributeError) as exc:
            self._unavailable(f"loading {so_path} failed: {exc}")
            return None
        return lib

    def load(self) -> ctypes.CDLL | None:
        """The loaded kernel, compiled on the first call of the process."""
        if not self._checked:
            self._lib = self.compile()
            self._checked = True
        if self._report is not None:
            registry = obs.active()
            if registry.enabled():
                # once per registry: a hot kernel call pays no lock
                reported, resets = self._reported
                if reported is not registry or resets != registry.resets:
                    self._report(self._lib is not None)
                    self._reported = (registry, registry.resets)
        return self._lib

    def available(self) -> bool:
        """Whether the compiled kernel is usable in this environment."""
        return self.load() is not None
