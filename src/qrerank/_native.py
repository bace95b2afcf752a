"""Build and load the native engine, ``_tk.c``, on first use.

The engine holds the tree-kernel block and the combined-kernel row of
:mod:`.kernels`, the SMO step and the triangle's finiteness check of
:mod:`.svm` and the counts behind the 20
text similarities of :mod:`.features`. :func:`load` compiles the source
with the installed ``cc`` (or ``gcc``) the first time a process needs one
of them, never at import. The library goes into a
per-user cache directory, ``$XDG_CACHE_HOME/qrerank`` or else
``~/.cache/qrerank``, created with mode 0700; its name is the sha256 of the
source, the compiler flags and the machine (``os.uname().machine``, the
string ``platform.machine()`` gives), so a later process,
or a later version of the source, finds its own build or makes a new one.
It is written under a temporary name and renamed into place, so concurrent
builds never expose a partial file. It is loaded with ``ctypes``, which
needs no ``Python.h`` and works with the package on ``PYTHONPATH``.

The module also binds :func:`sha256`, the one digest of the package: the
library's name here, ``kernels.config_fingerprint`` and
``svm._training_checksum``. It is the interpreter's built-in sha256
(``_sha2`` on CPython 3.12+, ``_sha256`` before), or ``hashlib``'s where
neither imports, so no stage loads OpenSSL; the digests are the same.

When there is no compiler, the compiler fails or the library does not load,
:func:`load` logs one WARNING naming the reason and returns None, and the
kernels, the solver and the similarities use their Python code for the
rest of the process. Each fallback gives the same values, so the same
files byte for byte: the examples file of ``featurize``, the Gram, the
model and the predictions.
"""

from __future__ import annotations

import ctypes
import logging
import os
from array import array
from pathlib import Path
from typing import Callable, NamedTuple

# hashlib loads OpenSSL's libcrypto, about 3.6 MB of resident memory, so
# the digests come from the interpreter's own sha256, as random.py takes
# its sha512
try:
    from _sha2 import sha256                # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256          # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256

logger = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_tk.c")
# -ffp-contract=off: no fused multiply-add (compilers for aarch64 fuse by
# default), so that every Δ and every SMO update rounds exactly as the
# Python code's does
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
LIBS = ("-lm",)      # after the source, so that --as-needed keeps it

_p, _i64, _f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double


class Engine(NamedTuple):
    """The library's entry points (see ``_tk.c``), argument types set."""

    tree_block: Callable
    kernel_row: Callable
    smo_step: Callable
    all_finite: Callable
    similarity: Callable


_SIGNATURES = {
    "tree_block": ([ctypes.c_int, _f64, _f64, _p, _p, _p, _p, _p,
                    ctypes.c_int, _p, _i64, _p, _p, _p], ctypes.c_int),
    "kernel_row": ([_i64, _i64, ctypes.c_int, _p, _p,
                    ctypes.c_int, _f64, _i64, _p, _p,
                    ctypes.c_int, _f64, _f64, _p, _p, _p, _p, _p, _p, _p,
                    ctypes.c_int, _p, _p,
                    ctypes.c_int, _f64, _p, _p], _i64),
    "smo_step": ([_i64, _p, _p, _p, _p, _p, _f64, _f64, _p],
                 ctypes.c_int),
    "all_finite": ([_i64, _p], ctypes.c_int),
    "similarity": ([_p, _i64, _p, _i64, _i64, _p], ctypes.c_int),
}

_UNTRIED = object()
_engine = _UNTRIED


class _Unavailable(Exception):
    """The native engine cannot be built; the message says why."""


def load() -> Engine | None:
    """The native engine, or None when it is unavailable in this
    process."""
    global _engine
    if _engine is _UNTRIED:
        _engine = _load()
    return _engine


def _load():
    try:
        path = _build()
    except (_Unavailable, OSError, RuntimeError) as exc:
        logger.warning("native engine unavailable (%s); using the Python "
                       "engine", exc)
        return None
    try:
        lib = ctypes.CDLL(str(path))
        fns = {name: getattr(lib, f"qrerank_{name}") for name in _SIGNATURES}
    except (OSError, AttributeError) as exc:
        logger.warning("native engine unavailable (cannot load %s: %s); "
                       "using the Python engine", path, exc)
        return None
    for name, (argtypes, restype) in _SIGNATURES.items():
        fns[name].argtypes = argtypes
        fns[name].restype = restype
    return Engine(**fns)


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
    cache = root / "qrerank"
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    if cache.stat().st_mode & 0o022:
        raise _Unavailable(f"cache directory {cache} is writable by others")
    return cache


def _library() -> Path:
    """Where the library of this source, these flags and this machine is
    cached."""
    digest = sha256(b"\0".join(
        [SOURCE.read_bytes(), " ".join(FLAGS + LIBS).encode(),
         os.uname().machine.encode()]))
    return _cache_dir() / f"_tk-{digest.hexdigest()}.so"


def _build() -> Path:
    """The cached library, compiled first if it is not there yet."""
    if array("i").itemsize != 4:
        raise _Unavailable("C int is not 32 bits wide")
    if not hasattr(os, "uname"):
        raise _Unavailable("not a POSIX system")
    path = _library()
    if path.exists():
        return path
    # imported only for a build: the imports alone take several
    # milliseconds, which every stage loading the cached library would pay
    import shutil
    import subprocess
    import tempfile

    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        raise _Unavailable("no C compiler: neither cc nor gcc is on PATH")
    fd, tmp = tempfile.mkstemp(prefix=".tk-", suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        done = subprocess.run(
            [compiler, *FLAGS, "-o", tmp, str(SOURCE), *LIBS],
            capture_output=True, text=True, errors="replace", check=False)
        if done.returncode != 0:
            lines = done.stderr.splitlines()
            first = next((ln for ln in lines if "error" in ln),
                         lines[0] if lines else
                         f"exit status {done.returncode}")
            raise _Unavailable(f"{compiler} failed: {first.strip()}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path
