"""Exception hierarchy shared across the toolkit, and the file layer every
stage reads and writes through.

Two broad failure families matter to callers (and map to distinct CLI exit
codes): problems with input data or files, and numerical breakdowns inside
the math. Everything raised on purpose by this package derives from one of
the two bases below. ``open_text`` opens an input file so that bytes which
are not UTF-8 end in the first family too, and ``replace_file`` is the one
way a stage writes its output: whole, or not at all.
"""

import os
from contextlib import contextmanager


class DataError(ValueError):
    """Malformed or inconsistent input: corpora, trees, model files, configs."""


class NumericalError(ArithmeticError):
    """Numerical breakdown: a degenerate self-kernel, a non-finite value."""


@contextmanager
def open_text(path):
    """Open ``path`` for reading as UTF-8 text. Bytes that do not decode,
    wherever the block reads them, raise :class:`DataError` naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not valid UTF-8 ({exc.reason})") from exc


@contextmanager
def replace_file(path, mode: str = "w"):
    """Open a temporary file beside ``path``, ``PATH.PID.tmp``, for writing
    in ``mode`` (text as UTF-8), and rename it onto ``path`` when the block
    completes. On any exception, the block's or the rename's, it is
    removed, and a file already at ``path`` is left as it was. So ``path``
    must name a file in a writable directory, not a device or a pipe."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, mode, encoding=None if "b" in mode else "utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
