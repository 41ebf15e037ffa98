"""The shared loader of the generated-C kernels.

Both kernels (:mod:`repro.network.cprobe`, :mod:`repro.simulation.ckernels`)
compile through :class:`repro.utils.ckernel.CKernel` into one cache
directory: the loader must keep them apart by source hash, leave no
temp files behind, refuse a default directory another user could
write to, and report availability to :mod:`repro.obs`.
"""

import os
import stat
import tempfile

import pytest

from repro import obs
from repro.network import cprobe
from repro.simulation import ckernels
from repro.utils import ckernel


def test_world_writable_default_dir_refused(tmp_path, monkeypatch):
    """Another local user could plant a shared object in a default
    kernel directory that is not private: refuse it, warn, fall back."""
    monkeypatch.delenv("REPRO_CPROBE_DIR", raising=False)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    shared = tmp_path / f"repro_cprobe-{os.getuid()}"
    shared.mkdir()
    shared.chmod(0o777)
    with pytest.warns(RuntimeWarning, match="Python fallback"):
        assert cprobe.KERNEL.compile() is None
    assert list(shared.iterdir()) == []  # nothing written or loaded


def test_default_dir_is_private(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CPROBE_DIR", raising=False)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    path = ckernel.cache_dir()
    assert path == str(tmp_path / f"repro_cprobe-{os.getuid()}")
    assert stat.S_IMODE(os.stat(path).st_mode) & 0o077 == 0


def test_build_leaves_no_temp_files(tmp_path, monkeypatch):
    """Two kernels compile side by side into one directory under
    distinct source hashes, with no temp files left over."""
    monkeypatch.setenv("REPRO_CPROBE_DIR", str(tmp_path))
    kernels = (cprobe.KERNEL, ckernels.KERNEL)
    for kernel in kernels:
        assert kernel.compile() is not None
    keys = {kernel.source_key() for kernel in kernels}
    assert len(keys) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"repro_{kernel.name}_{kernel.source_key()}{suffix}"
        for kernel in kernels
        for suffix in (".c", ".so")
    )


def test_nothing_compiles_until_first_load(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CPROBE_DIR", str(tmp_path))
    kernel = ckernel.CKernel("probe_test", "int one(void) { return 1; }", {})
    assert list(tmp_path.iterdir()) == []
    lib = kernel.load()
    if lib is None:
        pytest.skip("no working C compiler")
    assert kernel.load() is lib  # memoized for the process
    assert len(list(tmp_path.iterdir())) == 2


def test_availability_gauge_reported_in_every_traced_registry(monkeypatch):
    """The gauge lands in each enabled registry that loads the kernel,
    not only in the one active when the process first compiled it."""
    seen = []
    kernel = ckernel.CKernel(
        "probe_test", "", {}, report=lambda ok: seen.append(ok)
    )
    monkeypatch.setattr(kernel, "compile", lambda: None)
    with obs.scoped(enabled=False):
        kernel.load()
    assert seen == []
    for _ in range(2):
        with obs.scoped() as registry:
            cprobe.available()
            ckernels.KERNEL.available()
            kernel.load()
        assert registry.gauge("cprobe.available") is cprobe.available()
        assert registry.gauge("simulation.kernel_available") is (
            ckernels.KERNEL.available()
        )
    assert seen == [False, False]
