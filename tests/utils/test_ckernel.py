"""The shared loader of the generated-C kernels.

Every kernel (:mod:`repro.network.cprobe`, :mod:`repro.simulation.ckernels`,
:mod:`repro.arrivals.csampler`) compiles through
:class:`repro.utils.ckernel.CKernel` into one cache directory: the
loader must keep them apart by source and link-input hash, leave no
temp files behind, refuse a default directory another user could
write to, create a missing override directory, warn when a build or
load fails, and report availability to :mod:`repro.obs`.
"""

import ctypes
import os
import shutil
import stat
import subprocess
import tempfile
import warnings

import pytest

from repro import obs
from repro.arrivals import csampler
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
    """The kernels compile side by side into one directory under
    distinct source hashes, with no temp files left over."""
    monkeypatch.setenv("REPRO_CPROBE_DIR", str(tmp_path))
    kernels = (cprobe.KERNEL, ckernels.KERNEL, csampler.KERNEL)
    for kernel in kernels:
        assert kernel.compile() is not None
    keys = {kernel.source_key() for kernel in kernels}
    assert len(keys) == 3
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
            csampler.KERNEL.available()
            kernel.load()
        assert registry.gauge("cprobe.available") is cprobe.available()
        assert registry.gauge("simulation.kernel_available") is (
            ckernels.KERNEL.available()
        )
        assert registry.gauge("simulation.sampler_available") is (
            csampler.KERNEL.available()
        )
    assert seen == [False, False]


def test_availability_gauge_reported_once_per_registry_and_reset(
    monkeypatch,
):
    """Repeated loads into one registry report once; after the registry's
    ``reset`` (which drops its gauges) the next load reports again."""
    seen = []
    kernel = ckernel.CKernel(
        "probe_test", "", {},
        report=lambda ok: (seen.append(ok), obs.set_gauge("probe_test", ok)),
    )
    monkeypatch.setattr(kernel, "compile", lambda: None)
    with obs.scoped() as registry:
        for _ in range(3):
            kernel.load()
        assert seen == [False]
        registry.reset()
        assert registry.gauge("probe_test") is None
        kernel.load()
        kernel.load()
        assert seen == [False, False]
        assert registry.gauge("probe_test") is False


def test_missing_override_dir_is_created_private(tmp_path, monkeypatch):
    """A ``REPRO_CPROBE_DIR`` that does not exist yet is created 0700,
    not a silent reason to run every kernel's Python fallback."""
    target = tmp_path / "not" / "yet"
    monkeypatch.setenv("REPRO_CPROBE_DIR", str(target))
    assert ckernel.cache_dir() == str(target)
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o700


def test_uncreatable_override_dir_warns(tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("REPRO_CPROBE_DIR", str(blocker / "kernels"))
    with pytest.warns(RuntimeWarning, match="REPRO_CPROBE_DIR"):
        assert ckernel.cache_dir() is None


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_failed_build_warns_once_with_compiler_stderr(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CPROBE_DIR", str(tmp_path))
    kernel = ckernel.CKernel("broken_test", "int one(void) { return }", {})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert kernel.load() is None
        assert kernel.load() is None
    (warning,) = caught
    assert warning.category is RuntimeWarning
    message = str(warning.message)
    assert "'broken_test'" in message and "error" in message
    assert list(tmp_path.iterdir()) == []  # no temp files left behind


def test_missing_compiler_warns(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CPROBE_DIR", str(tmp_path / "kernels"))
    monkeypatch.setenv("PATH", str(tmp_path))
    kernel = ckernel.CKernel("nocc_test", "int one(void) { return 1; }", {})
    with pytest.warns(RuntimeWarning, match="'nocc_test'.*build failed"):
        assert kernel.load() is None


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_failed_load_warns(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CPROBE_DIR", str(tmp_path))
    kernel = ckernel.CKernel(
        "symbol_test", "int one(void) { return 1; }",
        {"two": ([], ctypes.c_int)},
    )
    with pytest.warns(RuntimeWarning, match="'symbol_test'.*loading"):
        assert kernel.load() is None


def _object_file(tmp_path, value: int) -> str:
    source = tmp_path / "value.c"
    source.write_text(f"int linked_value(void) {{ return {value}; }}\n")
    obj = tmp_path / "value.o"
    subprocess.run(
        ["cc", "-O2", "-fPIC", "-c", "-o", str(obj), str(source)], check=True
    )
    return str(obj)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_link_input_identity_names_the_object(tmp_path, monkeypatch):
    """Rebuilding a link input (same path, new bytes) or bumping its
    version gives a new ``.so`` name, so an object linked against the
    old input is never loaded again."""
    kernels = tmp_path / "kernels"
    monkeypatch.setenv("REPRO_CPROBE_DIR", str(kernels))
    source = "int linked_value(void);\nint value(void) { return linked_value(); }\n"
    signatures = {"value": ([], ctypes.c_int)}
    built = tmp_path / "lib"
    built.mkdir()

    def kernel(version: str) -> ckernel.CKernel:
        link = ckernel.LinkInput(str(built / "value.o"), version)
        return ckernel.CKernel("link_test", source, signatures, link_inputs=(link,))

    _object_file(built, 1)
    first = kernel("v1")
    keys = [first.source_key()]
    assert first.load().value() == 1
    _object_file(built, 2)
    second = kernel("v1")
    keys.append(second.source_key())
    assert second.load().value() == 2
    keys.append(kernel("v2").source_key())
    assert len(set(keys)) == 3
    assert sorted(p.name for p in kernels.iterdir() if p.suffix == ".so") == sorted(
        f"repro_link_test_{key}.so" for key in keys[:2]
    )
