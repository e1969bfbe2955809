"""Write-to-temp-then-rename helpers so failed runs never leave partial files,
and the integer check every config dataclass shares."""

from __future__ import annotations

import os
import tempfile
from numbers import Integral
from pathlib import Path


def require_int(name: str, value: object, minimum: int) -> None:
    """Raise ValueError unless ``value`` is an integer >= ``minimum``.

    bool is an int subclass, but true is not a count, a size or a seed.
    """
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def atomic_write_bytes(path: str | Path, blob: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
