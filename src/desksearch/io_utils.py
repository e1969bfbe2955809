"""Write-to-temp-then-rename helpers so failed runs never leave partial files,
the one JSON-lines codec of every record file, the one container codec of
every index artifact, and the integer and physical-memory checks.

``label_pairs`` is the bulk path of ``eval``: it reads a predictions file
through one fixed buffer and holds the labels, not the file.  A file that
fails its proof is then read whole for ``json_lines``."""

from __future__ import annotations

import json
import os
import stat
from collections.abc import Sequence
from json.encoder import encode_basestring
from numbers import Integral
from pathlib import Path

import numpy as np

# json.loads and json.dumps(..., ensure_ascii=False) build or look up these on
# every call; a record file's lines, or search's hits, share one of each.
# scan_once is the JSON scanner that raw_decode wraps, without raw_decode's
# Python frame.
_scan_once = json.JSONDecoder().scan_once
_encode = json.JSONEncoder(ensure_ascii=False).encode


def require_int(name: str, value: object, minimum: int) -> None:
    """Raise ValueError unless ``value`` is an integer >= ``minimum``.

    bool is an int subclass, but true is not a count, a size or a seed.
    """
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def require_memory(need: int, what: str) -> None:
    """Raise MemoryError if ``need`` bytes of ``what`` exceed physical memory (POSIX only)."""
    if "SC_PHYS_PAGES" in getattr(os, "sysconf_names", {}):
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if 0 < have < need:
            raise MemoryError(f"{need} bytes of {what} exceed the {have} bytes of physical memory")


def atomic_write_bytes(path: str | Path, blob: bytes) -> None:
    """Write ``blob`` to a new temp file beside ``path``, then rename it over
    ``path``.  The file gets the mode ``open()`` would give it, 0o666 less the
    umask, not the 0o600 of a ``tempfile.mkstemp`` file."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
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


def read_lines(path: str | Path) -> list[str]:
    """``split_lines`` of the UTF-8 text of the file ``path``."""
    return split_lines(Path(path).read_bytes().decode("utf-8"))


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, without their ends, split as ``open()`` splits
    them: at ``\n``, ``\r\n`` or a lone ``\r``, never at U+2028, U+0085 or a
    form feed as ``str.splitlines`` would.  A last line with no newline is a
    line too."""
    # A scan for "\r" is fast, a replace of "\r\n" is not.
    lines = (text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text).split("\n")
    if lines[-1] == "":  # the end of the last line, or an empty file
        lines.pop()
    return lines


class JSONLineError(ValueError):
    """A line of a record file that ``json.loads`` rejects: ``line_no``, its
    number from 1, and ``error``, the ``ValueError`` or ``RecursionError``
    that ``json.loads`` raised."""

    def __init__(self, line_no: int, error: Exception) -> None:
        super().__init__(f"line {line_no}: {error}")
        self.line_no, self.error = line_no, error


def json_lines(lines, skip_bad: bool = False):
    """Yield ``(line_no, json.loads(line))`` for each line of ``lines`` that is
    not blank (``str.strip``), numbered from 1: the same value of the same
    types.  A value that ends exactly where the line does is decoded without
    ``json.loads``' per-call cost; anything else (whitespace around it, a BOM,
    extra data, any error) goes to ``json.loads``.  A line it rejects is
    skipped with ``skip_bad``, else raises ``JSONLineError``."""
    scan_once, loads = _scan_once, json.loads
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            value, end = scan_once(line, 0)
            decoded = end == len(line)
        # StopIteration: no value starts the line.  json.loads raises its own
        # error for that, or the same ValueError or RecursionError again.
        except (StopIteration, ValueError, RecursionError):
            decoded = False
        if not decoded:
            try:
                value = loads(line)
            except (ValueError, RecursionError) as exc:
                if skip_bad:
                    continue
                raise JSONLineError(line_no, exc) from exc
        yield line_no, value


def encode_json(value) -> str:
    """``json.dumps(value, ensure_ascii=False)``, with one encoder for every call."""
    return _encode(value)


# json.dumps(value, ensure_ascii=False) of a str, and of an int that is no bool.
_ENCODERS = {str: encode_basestring, int: int.__repr__}


def write_json_lines(path: str | Path, columns: dict[str, Sequence]) -> bytes:
    """Atomically write record i of ``columns``, which hold one sequence of
    values per key, as the line ``json.dumps({key: values[i] for key, values
    in columns.items()}, ensure_ascii=False)`` and a newline, in UTF-8, and
    return the bytes written.  Every line fills one template with its values,
    each encoded on its own.  A column whose values are not all str or all
    int (no bool) raises TypeError, and columns of two lengths ValueError."""
    encoded = []
    for key, values in columns.items():
        kinds = set(map(type, values)) or {str}  # an empty column encodes nothing
        if len(kinds) > 1 or not kinds <= _ENCODERS.keys():
            names = ", ".join(sorted(kind.__name__ for kind in kinds))
            raise TypeError(f"{key} values must be all str or all int, got {names}")
        encoded.append(map(_ENCODERS[kinds.pop()], values))
    keys = (encode_basestring(key).replace("%", "%%") for key in columns)
    template = "{" + ", ".join(f"{key}: %s" for key in keys) + "}\n"
    blob = "".join(map(template.__mod__, zip(*encoded, strict=True))).encode("utf-8")
    atomic_write_bytes(path, blob)
    return blob


def write_artifact(
    path: str | Path, fmt: str, version: int, fields: dict, arrays: list | None = None
) -> None:
    """Atomically write an artifact: the JSON header line ``{"format",
    "version", **fields}``, a newline and the bytes of each of ``arrays``,
    numpy arrays in their little-endian dtypes, in order.  With arrays, spaces
    pad the header line so that they start at a multiple of 8 bytes; listed
    widest first, each then starts at a multiple of its item size."""
    header = json.dumps({"format": fmt, "version": version, **fields}).encode("utf-8")
    padding = b"" if arrays is None else b" " * (-(len(header) + 1) % 8)
    payload = [np.ascontiguousarray(a) for a in arrays or ()]
    atomic_write_bytes(path, b"".join([header, padding, b"\n", *payload]))


def read_artifact(
    path: str | Path, fmt: str, version: int, counts: tuple[str, ...] = (), layout=None,
    int_list: str | None = None,
) -> tuple[dict, list[np.ndarray]]:
    """The header and the arrays of a ``write_artifact`` file, read-only
    ``np.frombuffer`` views of the bytes read: ``layout`` maps the values of
    the header keys ``counts`` to one ``(dtype, length)`` per array, in file
    order.  A header that is not a JSON object of this format and version, a
    count that is missing or no non-negative integer, a payload that is
    missing, unaligned or not exactly as long as the layout, or any payload
    without a layout raises ValueError naming the file.  Without a layout, a
    file with no newline is all header.

    The header key ``int_list``, if given, is a list of 64-bit integers that
    ``write_artifact`` wrote last, and its value is one int64 array decoded
    from the header's bytes by ``_int64_list``; JSON decodes only the rest.
    A header that does not end with the key in that form raises ValueError
    naming the file and the key."""
    raw = Path(path).read_bytes()
    end = raw.find(b"\n") if b"\n" in raw else len(raw)
    head, ints = raw[:end], None
    if int_list is not None:
        # json.dumps writes the key last as `, "<int_list>": [1, 2]}`; spaces pad the line.
        key, line = f', "{int_list}": ['.encode(), head.rstrip(b" ")
        at = line.rfind(key)
        if at >= 0 and line.endswith(b"]}"):
            head, ints = line[:at] + b"}", memoryview(line)[at + len(key) : -2]
    try:
        header = json.loads(head.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, malformed or too deeply nested
        raise ValueError(f"{path}: header is not valid JSON: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise ValueError(f"{path}: format is not {fmt!r}")
    found = header.get("version")
    if type(found) is not int or found != version:  # true and 1.0 equal 1 but are no version
        raise ValueError(f"{path}: unsupported {fmt} version {found!r}")
    if int_list is not None:
        ids = None if ints is None else _int64_list(ints)
        if ids is None:
            raise ValueError(
                f"{path}: malformed header: it must end with {int_list}, a list of 64-bit "
                "integers as json.dumps writes it"
            )
        header[int_list] = ids
    payload = memoryview(raw)[end + 1 :]
    if layout is None:
        if payload:
            raise ValueError(f"{path}: {len(payload)} bytes after the header")
        return header, []
    try:
        values = [header[key] for key in counts]
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    if not all(type(n) is int and n >= 0 for n in values):
        raise ValueError(f"{path}: {', '.join(counts)} must be non-negative integers")
    if end == len(raw):
        raise ValueError(f"{path}: payload is missing: no newline ends the header")
    if (end + 1) % 8:
        raise ValueError(f"{path}: payload starts at byte {end + 1}, not a multiple of 8")
    shapes = [(np.dtype(dtype), n) for dtype, n in layout(*values)]
    expected = sum(dtype.itemsize * n for dtype, n in shapes)
    if len(payload) != expected:
        raise ValueError(
            f"{path}: payload is {len(payload)} bytes, expected {expected} for "
            + ", ".join(f"{key} {n}" for key, n in zip(counts, values))
        )
    arrays, offset = [], 0
    for dtype, n in shapes:
        arrays.append(np.frombuffer(payload, dtype, n, offset))
        offset += dtype.itemsize * n
    return header, arrays


_POW10 = 10 ** np.arange(19, dtype=np.uint64)  # 19 digits fit in a uint64
_INT64_MAX = np.uint64(2**63 - 1)
_PAIR_HEAD, _PAIR_MID = b'{"y_true": ', b', "y_pred": '  # the keys as json.dumps writes them
# Two 1-digit labels, "}" and "\n": 27 bytes.
_SHORTEST_PAIR = len(_PAIR_HEAD) + len(_PAIR_MID) + 4
# Bytes per read of a predictions file: any size past the longest line that
# label_pairs accepts, which is 63 bytes (two 19-digit labels), will do.
LABEL_BLOCK = 256 * 1024


def _decimals(b: np.ndarray, ends: np.ndarray, width: np.ndarray, limit, out: np.ndarray) -> bool:
    """Write to the uint64 array ``out`` the values of the runs of ``width``
    decimal digits that end before ``ends`` in the bytes ``b``, all of one
    shape, with no Python int per value; False unless every run is 1 to 19
    digits, with no leading zero, and at most ``limit``."""
    if not 1 <= width.min() <= width.max() <= 19:
        return False
    out[...] = 0
    for place in range(int(width.max())):  # one decimal place of every value at a time
        # b - "0" wraps below "0", so only a digit is < 10; a shorter value has 0 here.
        digit = (b[ends - 1 - place] - np.uint8(ord("0"))) * (width > place)
        if digit.max() >= 10:
            return False
        # A 1-element array, not a scalar, makes the product uint64 under every
        # numpy's promotion rules; numpy 1 would size it by the scalar's value.
        out += digit * _POW10[place : place + 1]
    return not (((b[ends - width] == ord("0")) & (width > 1)).any() or (out > limit).any())


def _int64_list(text) -> np.ndarray | None:
    """The int64 array of ``text``, the bytes inside a list that ``json.dumps``
    wrote, such as ``b"-3, 0, 17"``, decoded by ``_decimals``; None unless
    ``text`` is exactly that form: values from -2**63 to 2**63 - 1 joined by
    ``", "``, with no sign but ``-``, no leading zero and no ``-0``."""
    b = np.frombuffer(text, np.uint8)
    if not b.size:
        return np.empty(0, np.int64)
    comma = np.flatnonzero(b == ord(","))
    starts, ends = np.append(0, comma + 2), np.append(comma, b.size)
    size = ends - starts
    if size.min() < 1 or (b[comma + 1] != ord(" ")).any():
        return None
    neg = b[starts] == ord("-")
    magnitude = np.empty(len(ends), np.uint64)
    # Every byte but the ", " separators and the leading minus signs is a digit.
    proven = _decimals(b, ends, size - neg, _INT64_MAX + neg, magnitude)
    if not proven or (neg & (magnitude == 0)).any():  # -0
        return None
    ids = magnitude.view(np.int64)  # 2**63 reads as -2**63, which negation keeps
    return np.negative(ids, out=ids, where=neg)


def label_pairs(path: str | Path) -> np.ndarray | None:
    """The ``(n, 2)`` int64 labels of the predictions file ``path`` when it
    is a regular file of n >= 1 lines, each exactly ``json.dumps({"y_true":
    t, "y_pred": p})`` and a newline, with 0 <= t, p < 2**63; else None.

    The file is read into one buffer of ``LABEL_BLOCK`` bytes, and each
    block's whole lines are proven and decoded in a few numpy passes, straight
    into one int64 array sized for the file's opening size in 27-byte lines,
    the shortest there are: this holds the labels, not the file.  A file
    whose last byte is no newline gives None before any block is read; a
    line longer than the buffer, or a file whose size changes while it is
    read, gives None too."""
    if not stat.S_ISREG(os.stat(path).st_mode):  # a pipe could not be read again
        return None
    with open(path, "rb", buffering=0) as f:
        size = os.fstat(f.fileno()).st_size
        if not size or os.pread(f.fileno(), 1, size - 1) != b"\n":
            return None
        labels = np.empty((2, size // _SHORTEST_PAIR), np.int64)  # y_true, then y_pred
        buf = np.empty(LABEL_BLOCK, np.uint8)
        n = done = 0
        while got := f.readinto(buf):
            b = buf[:got]
            # A whole line holds one comma, then its newline; a comma after the
            # last newline is in the line that the next read starts with.
            edges = np.flatnonzero((b == ord(",")) | (b == ord("\n")))
            k = len(edges) // 2
            edges = edges[: 2 * k]
            comma, newline = edges[0::2], edges[1::2]
            if (
                not k
                or n + k > labels.shape[1]
                or (b[newline] != ord("\n")).any()
                or (b[newline - 1] != ord("}")).any()
            ):
                return None
            heads = np.append(0, newline[:-1] + 1)
            # y_true runs from the end of the head's key to the comma, y_pred
            # from the end of the comma's key to the "}" before the newline.
            ends = np.stack((comma, newline - 1))
            width = ends - np.stack((heads + len(_PAIR_HEAD), comma + len(_PAIR_MID)))
            if not _decimals(b, ends, width, _INT64_MAX, labels[:, n : n + k].view(np.uint64)):
                return None
            for at, text in ((heads, _PAIR_HEAD), (comma, _PAIR_MID)):  # one gather of each
                keys = np.ndarray((got - len(text) + 1,), f"S{len(text)}", buf, 0, (1,))
                if (keys[at] != text).any():
                    return None
            n, done = n + k, done + int(newline[-1]) + 1
            f.seek(done)  # the next read starts at the next line
    if done != size:
        return None
    if n < labels.shape[1]:  # lines past 27 bytes: move y_pred's labels up to y_true's
        flat = labels.reshape(-1)
        flat[n : 2 * n] = labels[1, :n]
        labels = flat[: 2 * n].reshape(2, n)
    # Column by column in memory, as metrics.confusion_counts reads them.
    return labels.T
