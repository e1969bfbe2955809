"""Write-to-temp-then-rename helpers so failed runs never leave partial files,
the one header codec of every index artifact, and the integer check every
config dataclass shares."""

from __future__ import annotations

import json
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


def write_artifact(
    path: str | Path, fmt: str, version: int, fields: dict, payload=b"", align: int = 1
) -> None:
    """Atomically write an artifact: the JSON header line ``{"format",
    "version", **fields}``, a newline and the raw ``payload``, maybe empty.
    Spaces pad the header line so that the payload starts at a multiple of
    ``align`` bytes."""
    header = json.dumps({"format": fmt, "version": version, **fields}).encode("utf-8")
    padding = b" " * (-(len(header) + 1) % align)
    atomic_write_bytes(path, header + padding + b"\n" + payload)


def read_artifact(path: str | Path, fmt: str, version: int) -> tuple[dict, memoryview]:
    """The header and the payload of a ``write_artifact`` file.  A header that
    is not a JSON object of this format and version raises ValueError naming
    the file; a file with no newline is all header."""
    raw = Path(path).read_bytes()
    end = raw.find(b"\n") if b"\n" in raw else len(raw)
    try:
        header = json.loads(raw[:end].decode("utf-8"))
    except ValueError as exc:  # not UTF-8, or malformed JSON
        raise ValueError(f"{path}: header is not valid JSON: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise ValueError(f"{path}: format is not {fmt!r}")
    found = header.get("version")
    if type(found) is not int or found != version:  # true and 1.0 equal 1 but are no version
        raise ValueError(f"{path}: unsupported {fmt} version {found!r}")
    return header, memoryview(raw)[end + 1 :]
