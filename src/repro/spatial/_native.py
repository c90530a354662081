"""The native kd-tree build: ``_kdbuild.c``, compiled once and loaded.

Importing this module compiles the package's C source with the system
C compiler (``cc``, ``gcc`` or ``clang`` on ``PATH``) into a per-user
cache directory, unless a library built from the same source, flags and
machine is already there, and loads it with :mod:`ctypes`.  ``LIB`` is
the loaded library, or ``None`` when no library could be built or
loaded; that failure logs one warning, and
:func:`repro.spatial.kdtree.build_node_arrays` then keeps the numpy
level build.  Forked ``shm`` workers inherit the loaded library.

The compiled file's name is the SHA-1 of the source, the flags and the
machine, and it is written under a temporary name and moved into place
with :func:`os.replace`, so processes that compile at once never load
a partial file.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shutil
import stat
import subprocess
import tempfile
from importlib import resources
from typing import Optional

import numpy as np

_LOG = logging.getLogger(__name__)

SOURCE = "_kdbuild.c"
_COMPILERS = ("cc", "gcc", "clang")
# No -ffast-math or -march=native: the spans must be plain IEEE double
# subtractions (no contraction, no flush of subnormals to zero), and a
# cache shared by several hosts of one architecture must run on each.
_FLAGS = ("-std=c99", "-O2", "-fPIC", "-shared", "-ffp-contract=off")
_COMPILE_TIMEOUT_S = 120.0


def cache_dir() -> str:
    """The per-user directory compiled libraries are cached in.

    ``$XDG_CACHE_HOME`` (or ``~/.cache``) plus ``streamgrid-repro``;
    when that is not absolute or cannot be created, a directory under
    the temp dir that this user owns and no one else can write (mode
    0700).
    """
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "streamgrid-repro")
    # A relative base (no home directory) would land in the cwd.
    if os.path.isabs(path):
        try:
            os.makedirs(path, exist_ok=True)
            return path
        except OSError:
            pass
    path = os.path.join(tempfile.gettempdir(),
                        f"streamgrid-repro-{os.getuid()}")
    os.makedirs(path, mode=0o700, exist_ok=True)
    info = os.lstat(path)
    # A shared temp dir: only trust a directory nobody else controls.
    if (not stat.S_ISDIR(info.st_mode) or info.st_uid != os.getuid()
            or info.st_mode & 0o077):
        raise OSError(f"unsafe cache directory {path}")
    return path


def _library_name(source: bytes) -> str:
    digest = hashlib.sha1(source)
    digest.update("\0".join(_FLAGS).encode())
    digest.update(f"\0{platform.system()}\0{platform.machine()}".encode())
    return f"kdbuild-{digest.hexdigest()}.so"


def _compile(target: str) -> None:
    """Compile the C source into *target*, atomically."""
    compiler = next(filter(None, map(shutil.which, _COMPILERS)), None)
    if compiler is None:
        raise OSError(f"no C compiler ({', '.join(_COMPILERS)}) on PATH")
    fd, scratch = tempfile.mkstemp(suffix=".so",
                                   dir=os.path.dirname(target))
    os.close(fd)
    try:
        with resources.as_file(
                resources.files(__package__).joinpath(SOURCE)) as source:
            subprocess.run([compiler, *_FLAGS, "-o", scratch, str(source)],
                           check=True, capture_output=True,
                           timeout=_COMPILE_TIMEOUT_S)
        os.replace(scratch, target)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


def load(directory: Optional[str] = None) -> Optional[ctypes.CDLL]:
    """The compiled library, built into *directory* (default
    :func:`cache_dir`) on first use; ``None``, after one logged
    warning, when it cannot be compiled or loaded."""
    try:
        source = resources.files(__package__).joinpath(SOURCE).read_bytes()
        target = os.path.join(directory or cache_dir(),
                              _library_name(source))
        if not os.path.exists(target):
            _compile(target)
        lib = ctypes.CDLL(target)
        lib.kdbuild.argtypes = (ctypes.c_int64,) + (ctypes.c_void_p,) * 5
        lib.kdbuild.restype = ctypes.c_int
    except (OSError, subprocess.SubprocessError) as exc:
        detail = getattr(exc, "stderr", None) or b""
        _LOG.warning("native kd-tree build unavailable, using the numpy "
                     "build: %s %s", exc,
                     detail.decode(errors="replace").strip())
        return None
    return lib


LIB = load()


def build(points: np.ndarray):
    """``(axis, left, right, point_index)`` of *points* (``(N, 3)``
    float64, every coordinate finite) from the loaded library."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(
            f"points must have shape (N, 3), got {points.shape}")
    n = len(points)
    axis = np.empty(n, dtype=np.int8)
    left = np.empty(n, dtype=np.int64)
    right = np.empty(n, dtype=np.int64)
    point_index = np.empty(n, dtype=np.int64)
    if LIB.kdbuild(n, points.ctypes.data, axis.ctypes.data,
                   left.ctypes.data, right.ctypes.data,
                   point_index.ctypes.data) != 0:
        raise MemoryError("native kd-tree build: out of scratch memory")
    return axis, left, right, point_index
