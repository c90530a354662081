"""The native kd-tree build: its loader, its fallback, and its results.

``repro.spatial._native`` compiles ``_kdbuild.c`` at import and
``KDTree`` builds with it whenever it loaded and every coordinate is
finite; otherwise the numpy level build runs.  The node arrays of both
paths are checked against the recursive oracle in
``test_kdtree_build.py``; here: the loader's cache and failure handling,
the packaging, and whole sessions on both paths.
"""

import logging
import os
import shutil
import threading
from importlib import resources

import numpy as np
import pytest

from repro.core.config import (
    SplittingConfig,
    StreamGridConfig,
    TerminationConfig,
)
from repro.datasets import make_drifting_frames
from repro.spatial import KDTree, _native, kdtree
from repro.streaming import StreamSession

HAVE_COMPILER = any(shutil.which(name) for name in _native._COMPILERS)
needs_compiler = pytest.mark.skipif(not HAVE_COMPILER,
                                    reason="no C compiler on PATH")


def _must_not_run(*args, **kwargs):
    raise AssertionError("this build path must not run")


def _same_arrays(got, want) -> bool:
    return all(g.dtype == w.dtype and np.array_equal(g, w)
               for g, w in zip(got, want))


@needs_compiler
def test_native_build_is_in_force_with_a_compiler_on_path():
    """CI must not pass on the fallback alone: with a compiler on
    ``PATH`` the library loaded at import and finite clouds use it."""
    assert _native.LIB is not None
    points = np.random.default_rng(0).normal(size=(300, 3))
    assert _same_arrays(kdtree.build_node_arrays(points),
                        _native.build(points))


def test_c_source_ships_as_package_data():
    source = resources.files("repro.spatial").joinpath(_native.SOURCE)
    assert source.is_file()
    assert b"int kdbuild(" in source.read_bytes()
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as handle:
        setuptools = tomllib.load(handle)["tool"]["setuptools"]
    assert _native.SOURCE in setuptools["package-data"]["repro.spatial"]


def test_cache_dir_prefers_xdg_then_a_private_temp_dir(tmp_path,
                                                      monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert _native.cache_dir() == str(tmp_path / "xdg" / "streamgrid-repro")
    # An unusable base (a file) or a relative one falls back to the
    # temp dir, in a directory only this user can write.
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(_native.tempfile, "gettempdir",
                        lambda: str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    for base in (str(tmp_path / "file"), "relative"):
        monkeypatch.setenv("XDG_CACHE_HOME", base)
        path = _native.cache_dir()
        assert os.path.dirname(path) == str(tmp_path / "tmp")
        assert os.stat(path).st_mode & 0o777 == 0o700
    assert not os.path.exists("relative")
    os.chmod(path, 0o777)
    with pytest.raises(OSError, match="unsafe"):
        _native.cache_dir()


@needs_compiler
def test_second_load_reuses_the_cached_library(tmp_path, monkeypatch):
    first = _native.load(str(tmp_path))
    assert first is not None
    [library] = os.listdir(tmp_path)
    assert library.startswith("kdbuild-") and library.endswith(".so")

    monkeypatch.setattr(_native.subprocess, "run", _must_not_run)
    again = _native.load(str(tmp_path))
    assert again is not None
    assert os.listdir(tmp_path) == [library]
    points = np.random.default_rng(1).integers(0, 3, size=(200, 3)) * 1.0
    monkeypatch.setattr(_native, "LIB", again)
    assert _same_arrays(_native.build(points), kdtree._build_levels(points))


@needs_compiler
def test_concurrent_loads_publish_one_whole_library(tmp_path):
    """Racing compiles write temp names and ``os.replace`` them: every
    loader gets a working library and no partial file is left."""
    loaded = [None] * 3

    def load(slot):
        loaded[slot] = _native.load(str(tmp_path))

    threads = [threading.Thread(target=load, args=(slot,))
               for slot in range(len(loaded))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert all(lib is not None for lib in loaded)
    assert len(os.listdir(tmp_path)) == 1


@pytest.mark.parametrize("failure", ["no_compiler", "compile_fails"])
def test_load_failure_leaves_the_numpy_build_with_one_warning(
        failure, tmp_path, monkeypatch, caplog):
    if failure == "no_compiler":
        monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    else:
        if shutil.which("false") is None:
            pytest.skip("no `false` command to stand in for a compiler")
        # `false` exits 1 like a compiler that rejects the source.
        monkeypatch.setattr(_native, "_COMPILERS", ("false",))
    with caplog.at_level(logging.WARNING, logger=_native.__name__):
        lib = _native.load(str(tmp_path))
    assert lib is None
    assert [r.levelno for r in caplog.records
            if r.name == _native.__name__] == [logging.WARNING]
    assert os.listdir(tmp_path) == []
    monkeypatch.setattr(_native, "LIB", lib)
    monkeypatch.setattr(_native, "build", _must_not_run)
    points = np.random.default_rng(2).normal(size=(150, 3))
    assert _same_arrays(kdtree.build_node_arrays(points),
                        kdtree._build_levels(points))


@needs_compiler
def test_finite_clouds_build_natively(monkeypatch):
    monkeypatch.setattr(kdtree, "_build_levels", _must_not_run)
    tree = KDTree(np.random.default_rng(3).normal(size=(64, 3)))
    assert len(tree) == 64


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_clouds_take_the_numpy_build(bad, monkeypatch):
    monkeypatch.setattr(_native, "build", _must_not_run)
    points = np.random.default_rng(4).normal(size=(40, 3))
    points[7, 1] = bad
    with np.errstate(invalid="ignore"):
        got = kdtree.build_node_arrays(points)
        want = kdtree._build_levels(points)
    assert _same_arrays(got, want)


def _session_outcomes(backend):
    frames = [cloud.positions for cloud in make_drifting_frames(
        "two_spheres", 3, 600, seed=9, drift=(0.03, 0.0, 0.0),
        spin=0.02, jitter=0.01)]
    config = StreamGridConfig(
        splitting=SplittingConfig(shape=(3, 3, 1), kernel=(2, 2, 1)),
        termination=TerminationConfig(profile_queries=12),
        executor=backend,
        executor_workers=None if backend == "serial" else 2)
    with StreamSession(config, k=5) as session:
        return session.run(frames)


@pytest.mark.parametrize("backend", ["serial", "shm"])
def test_session_is_bit_equal_on_both_build_paths(backend, monkeypatch):
    """Every window tree on ``serial`` and in ``shm`` workers (forked
    after the handle is cleared) takes the forced path; the frames'
    results and deadlines match the native run bit for bit."""
    native = _session_outcomes(backend)
    monkeypatch.setattr(_native, "LIB", None)
    fallback = _session_outcomes(backend)
    assert len(native) == len(fallback) == 3
    for got, want in zip(native, fallback):
        assert got.deadline == want.deadline
        for name in ("indices", "distances", "counts", "steps",
                     "terminated"):
            np.testing.assert_array_equal(getattr(got.result, name),
                                          getattr(want.result, name))
