import os
import random
import re
import stat
import warnings

import numpy as np
import pytest
from conftest import random_corpus
from hypothesis import given, settings
from hypothesis import strategies as st

from desksearch.dataset import Review
from desksearch.encoder import EncoderConfig, init_weights, load_weights, save_weights
from desksearch.io_utils import atomic_write_bytes, read_artifact, write_artifact
from desksearch.lexical_index import build_index, load_index, save_index
from desksearch.searcher import _doc_texts, write_docs
from desksearch.vector_index import VectorIndex, load_vectors, save_vectors


class TestArtifactCodec:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "a.bin"
        write_artifact(path, "fmt", 3, {"n": 3, "s": "x"}, [np.array([0, 10, 255], "u1")])
        header = b'{"format": "fmt", "version": 3, "n": 3, "s": "x"}'  # 49 bytes
        assert path.read_bytes() == header + b" " * 6 + b"\n\x00\n\xff"
        header, arrays = read_artifact(path, "fmt", 3, ("n",), lambda n: [("u1", n)])
        assert header == {"format": "fmt", "version": 3, "n": 3, "s": "x"}
        assert [a.tobytes() for a in arrays] == [b"\x00\n\xff"]
        write_artifact(path, "fmt", 3, {"s": "x"})
        assert path.read_bytes() == b'{"format": "fmt", "version": 3, "s": "x"}\n'
        assert read_artifact(path, "fmt", 3) == ({"format": "fmt", "version": 3, "s": "x"}, [])

    def test_aligned_payload(self, tmp_path):
        path = tmp_path / "a.bin"
        header = b'{"format": "fmt", "version": 1, "n": 20}'  # 40 bytes
        write_artifact(path, "fmt", 1, {"n": 20}, [np.full(8, 1, "u1")])
        assert path.read_bytes() == header + b" " * 7 + b"\n" + b"\x01" * 8
        layout = lambda n: [("u1", 8)]  # noqa: E731
        assert read_artifact(path, "fmt", 1, ("n",), layout)[1][0].tobytes() == b"\x01" * 8
        path.write_bytes(header + b"\n" + b"\x01" * 8)
        with pytest.raises(ValueError, match=re.escape(f"{path}: payload starts at byte 41, "
                                                       "not a multiple of 8")):
            read_artifact(path, "fmt", 1, ("n",), layout)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({}, "missing key 'n'"),
            ({"n": -1}, "n must be non-negative integers"),
            ({"n": 1.0}, "n must be non-negative integers"),
            ({"n": True}, "n must be non-negative integers"),
            ({"n": "1"}, "n must be non-negative integers"),
        ],
    )
    def test_bad_count_rejected_naming_the_file(self, tmp_path, fields, message):
        path = tmp_path / "a.bin"
        write_artifact(path, "fmt", 1, fields, [])
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
            read_artifact(path, "fmt", 1, ("n",), lambda n: [("u1", n)])

    def test_file_without_newline_is_all_header(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text('{"format": "fmt", "version": 1}')
        header, payload = read_artifact(path, "fmt", 1)
        assert header == {"format": "fmt", "version": 1} and not payload

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"", "header is not valid JSON"),
            (b"\xff\n", "header is not valid JSON"),
            (b'{"format": "fmt",\n "version": 1}\n', "header is not valid JSON"),
            (b"[1, 2]\n", "format is not 'fmt'"),
            (b'{"format": "other", "version": 1}\n', "format is not 'fmt'"),
            (b'{"version": 1}\n', "format is not 'fmt'"),
            (b'{"format": "fmt", "version": 2}\n', "unsupported fmt version 2"),
            (b'{"format": "fmt", "version": "1"}\n', "unsupported fmt version '1'"),
            (b'{"format": "fmt", "version": true}\n', "unsupported fmt version True"),
            (b'{"format": "fmt", "version": 1.0}\n', "unsupported fmt version 1.0"),
            (b'{"format": "fmt"}\n', "unsupported fmt version None"),
        ],
    )
    def test_bad_header_rejected_naming_the_file(self, tmp_path, raw, message):
        path = tmp_path / "a.bin"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
            read_artifact(path, "fmt", 1)


class TestAtomicWrite:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_file_gets_the_mode_open_gives(self, tmp_path, umask, mode):
        before = os.umask(umask)
        try:
            atomic_write_bytes(tmp_path / "out.bin", b"blob")
        finally:
            os.umask(before)
        assert stat.S_IMODE((tmp_path / "out.bin").stat().st_mode) == mode
        assert (tmp_path / "out.bin").read_bytes() == b"blob"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]  # no .tmp left


COUNTS = ("n_i8", "n_f8", "n_i4", "n_u1")
DTYPES = ("<i8", "<f8", "<i4", "u1")  # widest first


def _layout(*counts):
    return list(zip(DTYPES, counts))


@given(
    fields=st.dictionaries(
        st.text(max_size=6).filter(lambda k: k not in ("format", "version", *COUNTS)),
        st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=6),
                  st.floats(allow_nan=False)),
        max_size=4,
    ),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_artifact_round_trip(tmp_path_factory, fields, data):
    """Any header fields and four arrays of 0-50 items read back equal,
    read-only and each at a file offset that is a multiple of its item size;
    a byte too few or too many, a space more of header padding, or trailing
    bytes after a header-only artifact fails naming the file."""
    path = tmp_path_factory.mktemp("codec") / "a.bin"
    arrays = []
    for dtype in DTYPES:
        raw = data.draw(st.binary(max_size=50 * np.dtype(dtype).itemsize), label=dtype)
        arrays.append(np.frombuffer(raw[: len(raw) // np.dtype(dtype).itemsize
                                        * np.dtype(dtype).itemsize], dtype))
    counts = dict(zip(COUNTS, map(len, arrays)))
    write_artifact(path, "fmt", 1, {**fields, **counts}, arrays)
    header, got = read_artifact(path, "fmt", 1, COUNTS, _layout)
    assert header == {"format": "fmt", "version": 1, **fields, **counts}
    raw = path.read_bytes()
    offset = raw.index(b"\n") + 1
    for want, a in zip(arrays, got):
        assert a.dtype == want.dtype and a.tobytes() == want.tobytes()
        assert not a.flags.writeable and a.flags.aligned
        assert offset % a.itemsize == 0 and raw[offset : offset + a.nbytes] == a.tobytes()
        offset += a.nbytes
    assert offset == len(raw)

    newline = raw.index(b"\n")
    for damaged, message in [
        (raw[:-1], "payload is"),
        (raw + b"\0", "payload is"),
        (raw[:newline] + b" " + raw[newline:], "not a multiple of 8"),
    ]:
        path.write_bytes(damaged)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: ") + ".*" + message):
            read_artifact(path, "fmt", 1, COUNTS, _layout)
    write_artifact(path, "fmt", 1, fields)
    assert read_artifact(path, "fmt", 1) == ({"format": "fmt", "version": 1, **fields}, [])
    trailing = data.draw(st.binary(min_size=1, max_size=9), label="trailing")
    path.write_bytes(path.read_bytes() + trailing)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {len(trailing)} bytes after "
                                                         "the header")):
        read_artifact(path, "fmt", 1)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """One small build's three artifacts, as bytes, the loader of each and a
    directory for damaged copies."""
    root = tmp_path_factory.mktemp("built")
    docs = random_corpus(random.Random(31), 12, max_len=6)
    lex = build_index(docs)
    save_index(lex, root / "lexical_index.json")
    cfg = EncoderConfig(vocab_size=lex.vocabulary.size, d_model=8, n_heads=2, n_layers=1, d_ff=16)
    save_weights(cfg, init_weights(cfg), root / "weights.json")
    rows = np.random.default_rng(31).normal(size=(len(docs), cfg.d_model))
    vec = VectorIndex.from_arrays(range(len(docs)), rows / np.linalg.norm(rows, axis=1)[:, None])
    save_vectors(vec, root / "vectors.bin")
    texts = [" ".join(doc) + "\u2028\n" for doc in docs]
    write_docs(root, [Review(text, 3, "b") for text in texts])

    def load_texts(path):
        """Every doc's snippet through a damaged doc_offsets.bin: the true
        texts, or an error that names it or the docs.jsonl beside it."""
        assert _doc_texts(path.parent, len(docs), list(range(len(docs)))) == texts

    loaders = {"lexical_index.json": load_index, "vectors.bin": load_vectors,
               "weights.json": load_weights, "doc_offsets.bin": load_texts}
    (root / "damaged").mkdir()
    (root / "damaged" / "docs.jsonl").write_bytes((root / "docs.jsonl").read_bytes())
    return {name: ((root / name).read_bytes(), load, root / "damaged" / name)
            for name, load in loaders.items()}


@pytest.mark.parametrize(
    "name", ["lexical_index.json", "vectors.bin", "weights.json", "doc_offsets.bin"]
)
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_damaged_artifact_loads_or_fails_naming_the_file(built, name, data):
    """A truncated, overwritten or grown artifact either loads or raises one
    ValueError naming the file; any other exception or a warning fails."""
    raw, load, path = built[name]
    edit = data.draw(st.sampled_from(["truncate", "overwrite", "insert"]), label="edit")
    if edit == "truncate":
        damaged = raw[: data.draw(st.integers(0, len(raw) - 1), label="at")]
    elif edit == "overwrite":
        damaged = bytearray(raw)
        for at in data.draw(st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=3)):
            damaged[at] = data.draw(st.integers(0, 255), label=f"byte at {at}")
    else:
        at = data.draw(st.integers(0, len(raw)), label="at")
        damaged = raw[:at] + bytes([data.draw(st.integers(0, 255), label="byte")]) + raw[at:]
    path.write_bytes(bytes(damaged))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            load(path)
        except ValueError as exc:
            assert str(exc).startswith((f"{path}: ", f"{path.parent / 'docs.jsonl'}: ")), exc
