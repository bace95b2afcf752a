"""Exception hierarchy shared across the toolkit.

Two broad failure families matter to callers (and map to distinct CLI exit
codes): problems with input data or files, and numerical breakdowns inside
the math. Everything raised on purpose by this package derives from one of
the two bases below. ``open_text`` opens an input file so that bytes which
are not UTF-8 end in the first family too.
"""

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
