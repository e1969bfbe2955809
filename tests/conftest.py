from __future__ import annotations

import json
import random
import tempfile
from operator import setitem
from pathlib import Path

import numpy as np

WORDS = [
    "pasta", "pizza", "salad", "soup", "burger", "tacos", "sushi", "ramen",
    "bread", "cheese", "olive", "lemon", "basil", "garlic", "onion", "pepper",
    "grill", "roast", "spicy", "sweet", "fresh", "crispy", "tender", "smoky",
    "service", "friendly", "slow", "quick", "cozy", "loud", "clean", "busy",
    "great", "awful", "decent", "amazing", "bland", "delicious", "overpriced",
    "cheap", "portion", "menu", "waiter", "table", "patio", "brunch", "dinner",
    "lunch", "dessert", "coffee",
]


def random_corpus(
    rng: random.Random,
    n_docs: int,
    vocab: list[str] | None = None,
    min_len: int = 1,
    max_len: int = 12,
) -> list[list[str]]:
    pool = vocab if vocab is not None else WORDS
    return [
        [rng.choice(pool) for _ in range(rng.randint(min_len, max_len))]
        for _ in range(n_docs)
    ]


def _scale_first_row(payload: bytes, factor: float) -> bytes:
    rows = np.frombuffer(payload, dtype="<f8").copy()
    rows[0] *= factor
    return rows.tobytes()


def _doc_ids(edit):
    """An edit of the header's doc-id list, which json.dumps writes back."""
    def apply(line: bytes) -> bytes:
        header = json.loads(line)
        header["doc_ids"] = edit(header["doc_ids"])
        return json.dumps(header).encode("utf-8")

    return apply


def _doc_ids_bytes(edit):
    """An edit of the bytes of the header's doc-id list, from `[` to `]`, into
    a form that json.dumps never writes; the rest of the header keeps its bytes."""
    def apply(line: bytes) -> bytes:
        at = line.index(b'"doc_ids": ') + len(b'"doc_ids": ')
        return line[:at] + edit(line[at:-1]) + line[-1:]

    return apply


def _doc_ids_not_last(line: bytes) -> bytes:
    header = json.loads(line)
    ids, count = header.pop("doc_ids"), header.pop("count")
    return json.dumps({**header, "doc_ids": ids, "count": count}).encode("utf-8")


# fault name -> (edit of the header line as json.dumps wrote it, edit of the
# raw payload, a fragment of the loader's error message)
VECTOR_FILE_FAULTS = {
    "doc_ids_shorter_than_count": (_doc_ids(lambda ids: ids[:-1]), None, "doc ids for count"),
    "doc_ids_longer_than_count": (
        _doc_ids(lambda ids: ids + [10**6]), None, "doc ids for count"
    ),
    "truncated_payload": (None, lambda p: p[:-8], "payload is"),
    "extra_payload": (None, lambda p: p + bytes(8), "payload is"),
    "float_id": (_doc_ids(lambda ids: [0.5] + ids[1:]), None, "integers"),
    "bool_id": (_doc_ids(lambda ids: [True] + ids[1:]), None, "integers"),
    "huge_id": (_doc_ids(lambda ids: [2**64] + ids[1:]), None, "integers"),
    "id_past_int64_max": (_doc_ids(lambda ids: ids[:-1] + [2**63]), None, "integers"),
    "id_below_int64_min": (_doc_ids(lambda ids: [-(2**63) - 1] + ids[1:]), None, "integers"),
    "duplicate_id": (
        _doc_ids(lambda ids: [ids[0], ids[0]] + ids[2:]), None, "already present"
    ),
    "falling_id": (_doc_ids(lambda ids: [ids[1], ids[0]] + ids[2:]), None, "rise strictly"),
    # Headers that write_artifact never writes.  json.loads reads the first
    # four as rising 64-bit ids; the loader accepts only json.dumps's form.
    "ids_without_spaces": (
        _doc_ids_bytes(lambda ids: ids.replace(b", ", b",")), None, "integers"
    ),
    "minus_zero_id": (
        _doc_ids_bytes(lambda ids: b"[-0" + ids[ids.index(b","):]), None, "integers"
    ),
    "doc_ids_not_last": (_doc_ids_not_last, None, "integers"),
    "tab_after_header": (lambda line: line + b"\t", None, "integers"),
    "leading_zero_id": (_doc_ids_bytes(lambda ids: b"[0" + ids[1:]), None, "integers"),
    "plus_sign_id": (_doc_ids_bytes(lambda ids: b"[+" + ids[1:]), None, "integers"),
    "trailing_comma": (_doc_ids_bytes(lambda ids: ids[:-1] + b",]"), None, "integers"),
    "non_unit_row": (None, lambda p: _scale_first_row(p, 2.0), "unit-norm"),
    "nan_row": (None, lambda p: _scale_first_row(p, float("nan")), "unit-norm"),
    "overflowing_row": (None, lambda p: _scale_first_row(p, 1e300), "unit-norm"),
}


def _padded(line: bytes, payload: bytes) -> bytes:
    """An artifact from its header line and payload, the line padded as
    write_artifact pads it, so that the payload starts 8-byte aligned."""
    return line + b" " * (-(len(line) + 1) % 8) + b"\n" + payload


def _artifact_file(header: dict, payload: bytes) -> bytes:
    """A vectors.bin or lexical_index.json from its header and payload."""
    return _padded(json.dumps(header).encode("utf-8"), payload)


def corrupt_vectors_file(path, fault: str) -> str:
    """Rewrite a vectors.bin in place with one header/payload inconsistency
    from VECTOR_FILE_FAULTS; returns the message fragment the loader must give."""
    edit_header, edit_payload, message = VECTOR_FILE_FAULTS[fault]
    raw = path.read_bytes()
    newline = raw.index(b"\n")
    line, payload = raw[:newline].rstrip(b" "), raw[newline + 1 :]
    if edit_header is not None:
        line = edit_header(line)
    if edit_payload is not None:
        payload = edit_payload(payload)
    path.write_bytes(_padded(line, payload))
    return message


LEXICAL_DTYPES = {
    "term_ptr": "<i8", "doc_norms": "<f8", "doc_ids": "<i4", "tf": "<i4", "term_ids": "<i4"
}


def _lexical_arrays(raw: bytes) -> tuple[dict, dict, bytes]:
    """The header of a lexical_index.json, writable copies of its payload
    arrays and the terms' bytes after them, read by the layout README
    documents."""
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline])
    n_terms, n_postings = header["n_terms"], header["n_postings"]
    counts = (n_terms + 1, header["n_docs"], n_postings, n_postings, n_terms)
    arrays, offset = {}, newline + 1
    for (name, dtype), count in zip(LEXICAL_DTYPES.items(), counts):
        arrays[name] = np.frombuffer(raw, dtype, count, offset).copy()
        offset += arrays[name].nbytes
    assert len(raw) - offset == header["term_bytes"]
    return header, arrays, raw[offset:]


def _edit_payload(edit):
    """An edit of lexical_index.json's payload arrays in place; the header
    line and the terms keep their bytes."""
    def apply(raw: bytes) -> bytes:
        _, arrays, terms = _lexical_arrays(raw)
        edit(arrays)
        return (raw[: raw.index(b"\n") + 1] + b"".join(a.tobytes() for a in arrays.values())
                + terms)

    return apply


def _edit_terms(edit):
    """An edit of lexical_index.json's sorted terms, a list of UTF-8 byte
    strings; the header's term_bytes follows the new length."""
    def apply(raw: bytes) -> bytes:
        header, arrays, terms = _lexical_arrays(raw)
        terms = b"\0".join(edit(terms.split(b"\0")))
        header["term_bytes"] = len(terms)
        return _artifact_file(header, b"".join(a.tobytes() for a in arrays.values()) + terms)

    return apply


def _terms_by_id(arrays: dict, terms: bytes) -> list[str]:
    by_id = [""] * len(arrays["term_ids"])
    for tid, term in zip(arrays["term_ids"].tolist(), terms.decode("utf-8").split("\0")):
        by_id[tid] = term
    return by_id


def _edit_header(edit):
    """An edit of an artifact's header line, padded again; the payload keeps
    its bytes."""
    def apply(raw: bytes) -> bytes:
        newline = raw.index(b"\n")
        header = json.loads(raw[:newline])
        edit(header)
        return _artifact_file(header, raw[newline + 1 :])

    return apply


def _shared_postings(arrays: dict) -> np.ndarray:
    """A writable view of the doc ids of the first term in two or more docs."""
    ptr = arrays["term_ptr"].tolist()
    lo, hi = next((lo, hi) for lo, hi in zip(ptr, ptr[1:]) if hi - lo > 1)
    return arrays["doc_ids"][lo:hi]


def _lexical_version_2(raw: bytes) -> bytes:
    """The same index as the version-2 file: one JSON line whose postings are
    [doc_id, tf] lists."""
    header, arrays, terms = _lexical_arrays(raw)
    ptr = arrays["term_ptr"].tolist()
    rows = np.column_stack((arrays["doc_ids"], arrays["tf"])).tolist()
    return json.dumps({
        "format": header["format"], "version": 2, "terms": _terms_by_id(arrays, terms),
        "postings": [rows[lo:hi] for lo, hi in zip(ptr, ptr[1:])],
        "doc_norms": arrays["doc_norms"].tolist(),
    }).encode("utf-8")


def _lexical_version_3(raw: bytes) -> bytes:
    """The same index as the version-3 file: the terms by id in the header,
    and the four CSR arrays without term_ids or the sorted terms."""
    header, arrays, terms = _lexical_arrays(raw)
    v3 = {"format": header["format"], "version": 3, "terms": _terms_by_id(arrays, terms),
          "n_docs": header["n_docs"], "n_postings": header["n_postings"]}
    return _artifact_file(v3, b"".join(
        arrays[name].tobytes() for name in ("term_ptr", "doc_norms", "doc_ids", "tf")
    ))


def _edit_offsets(edit):
    """An edit of doc_offsets.bin's line starts in place."""
    def apply(raw: bytes) -> bytes:
        newline = raw.index(b"\n")
        starts = np.frombuffer(raw, "<i8", offset=newline + 1).copy()
        edit(starts)
        return raw[: newline + 1] + starts.tobytes()

    return apply


def _offsets_one_doc_fewer(raw: bytes) -> bytes:
    """A whole doc_offsets.bin for a build with one doc fewer."""
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline])
    header["n_docs"] -= 1
    return _artifact_file(header, raw[newline + 1 : -8])


def _first_text_one_char_longer(raw: bytes) -> bytes:
    first, rest = raw.split(b"\n", 1)
    record = json.loads(first)
    record["text"] += "x"
    return json.dumps(record, ensure_ascii=False).encode("utf-8") + b"\n" + rest


def _sidecar_of_another_build(raw: bytes) -> bytes:
    """A whole sidecar, with a valid CRC-32, for a build with one more term."""
    from desksearch.encoder import EncoderConfig, init_weights, save_weights

    config = json.loads(raw)["config"]
    cfg = EncoderConfig(**{**config, "vocab_size": config["vocab_size"] + 1})
    with tempfile.TemporaryDirectory() as tmp:
        save_weights(cfg, init_weights(cfg), Path(tmp) / "weights.json")
        return (Path(tmp) / "weights.json").read_bytes()


def _vectors_one_dimension_wider(raw: bytes) -> bytes:
    """A whole vectors.bin whose unit rows gain a zero column."""
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline])
    rows = np.frombuffer(raw, dtype="<f8", offset=newline + 1)
    rows = np.pad(rows.reshape(header["count"], header["dimension"]), ((0, 0), (0, 1)))
    header["dimension"] += 1
    return _artifact_file(header, rows.tobytes())


def _flip_in_last_row(raw: bytes) -> bytes:
    """The top exponent bit of the last float64 flipped: that entry, at most
    1 in magnitude, becomes at least 2 in magnitude, infinite or NaN."""
    return raw[:-1] + bytes([raw[-1] ^ 0x40])


def _unaligned(raw: bytes) -> bytes:
    """One more space of header padding, so the payload starts one byte late."""
    newline = raw.index(b"\n")
    return raw[:newline] + b" " + raw[newline:]


LEX = "lexical_index.json"
NOT_COUNTS = "n_terms, n_docs, n_postings, term_bytes must be non-negative integers"
NOT_RISING_TERMS = "terms must rise strictly"
DOCS_SIZE = "ends its last line at byte"
BAD_TERM_PTR = "term_ptr must rise strictly from 0 to n_postings"
NOT_RISING = "doc ids must rise within each term"
BAD_TF = "tf must be >= 1"
WEIGHTS_MISMATCH = "crc32 mismatch in weights regenerated by numpy"
BAD_CRC = "malformed header: crc32 must be an integer"

# fault name -> (file in the index directory, edit of its bytes (None deletes
# the file), a fragment of the error message)
ARTIFACT_FAULTS = {
    "weights_unknown_config_key": (
        "weights.json", _edit_header(lambda s: s["config"].update(bogus=1)), "unexpected keyword"
    ),
    "weights_sidecar_is_list": (
        "weights.json", lambda raw: b"[]", "format is not 'encoder-weights'"
    ),
    "weights_checksum_mismatch": (
        "weights.json", _edit_header(lambda s: s.update(crc32=s["crc32"] ^ 1)), WEIGHTS_MISMATCH
    ),
    "weights_checksum_missing": (
        "weights.json", _edit_header(lambda s: s.pop("crc32")), "missing key 'crc32'"
    ),
    # The right value as a float equals the CRC, but is no integer.
    "weights_checksum_float": (
        "weights.json", _edit_header(lambda s: s.update(crc32=float(s["crc32"]))), BAD_CRC
    ),
    "weights_checksum_string": (
        "weights.json", _edit_header(lambda s: s.update(crc32=str(s["crc32"]))), BAD_CRC
    ),
    "weights_checksum_null": ("weights.json", _edit_header(lambda s: s.update(crc32=None)), BAD_CRC),
    "weights_checksum_list": (
        "weights.json", _edit_header(lambda s: s.update(crc32=[s["crc32"]])), BAD_CRC
    ),
    "weights_checksum_bool": ("weights.json", _edit_header(lambda s: s.update(crc32=True)), BAD_CRC),
    "weights_checksum_negative": (
        "weights.json", _edit_header(lambda s: s.update(crc32=-1)), BAD_CRC
    ),
    "weights_checksum_past_32_bits": (
        "weights.json", _edit_header(lambda s: s.update(crc32=s["crc32"] + 2**32)), BAD_CRC
    ),
    "weights_seed_edited": (
        "weights.json",
        _edit_header(lambda s: s["config"].update(seed=s["config"]["seed"] + 1)),
        WEIGHTS_MISMATCH,
    ),
    "weights_version_1": (
        "weights.json",
        _edit_header(lambda s: s.update(version=1)),
        "unsupported encoder-weights version 1",
    ),
    # A version-3 sidecar's crc32 also covered the token table.
    "weights_version_3": (
        "weights.json",
        _edit_header(lambda s: s.update(version=3)),
        "unsupported encoder-weights version 3",
    ),
    # A version-2 sidecar spread the same object over indented lines.
    "weights_version_2_indented": (
        "weights.json",
        lambda raw: json.dumps({**json.loads(raw), "version": 2}, indent=2).encode("utf-8"),
        "header is not valid JSON",
    ),
    "lexical_truncated": (LEX, lambda raw: raw[:-1], "payload is"),
    "lexical_one_byte_long": (LEX, lambda raw: raw + b"\0", "payload is"),
    "lexical_missing_postings": (
        LEX, _edit_header(lambda h: h.pop("n_postings")), "missing key 'n_postings'"
    ),
    "lexical_posting_count_not_an_int": (
        LEX, _edit_header(lambda h: h.update(n_postings=h["n_postings"] + 0.0)), NOT_COUNTS
    ),
    "lexical_version_1": (LEX, _edit_header(lambda h: h.update(version=1)), "version 1"),
    "lexical_version_2_json": (
        LEX, _lexical_version_2, "unsupported desksearch-lexical-index version 2"
    ),
    "lexical_term_without_postings": (
        LEX, _edit_payload(lambda a: setitem(a["term_ptr"], 1, 0)), BAD_TERM_PTR
    ),
    "lexical_fewer_postings_than_terms": (
        LEX, _edit_payload(lambda a: setitem(a["term_ptr"], -1, a["term_ptr"][-1] + 1)),
        BAD_TERM_PTR,
    ),
    "lexical_doc_id_past_n_docs": (
        LEX, _edit_payload(lambda a: setitem(a["doc_ids"], -1, len(a["doc_norms"]))),
        "doc ids must lie in",
    ),
    "lexical_doc_id_repeated": (
        LEX, _edit_payload(lambda a: setitem(_shared_postings(a), 1, _shared_postings(a)[0])),
        NOT_RISING,
    ),
    "lexical_doc_ids_out_of_order": (
        LEX,
        _edit_payload(lambda a: setitem(
            _shared_postings(a), slice(None), _shared_postings(a)[::-1]
        )),
        NOT_RISING,
    ),
    "lexical_unaligned_payload": (LEX, _unaligned, "not a multiple of 8"),
    "lexical_tf_zero": (LEX, _edit_payload(lambda a: setitem(a["tf"], 0, 0)), BAD_TF),
    "lexical_tf_minus_one": (LEX, _edit_payload(lambda a: setitem(a["tf"], 0, -1)), BAD_TF),
    "lexical_duplicate_term": (LEX, _edit_terms(lambda t: [t[0], *t[:-1]]), NOT_RISING_TERMS),
    "lexical_terms_out_of_order": (
        LEX, _edit_terms(lambda t: [t[1], t[0], *t[2:]]), NOT_RISING_TERMS
    ),
    "lexical_empty_first_term": (
        LEX, _edit_terms(lambda t: [b"", *t[1:]]), "the first term is empty"
    ),
    "lexical_nul_in_a_term": (
        LEX, _edit_terms(lambda t: [t[0][:1] + b"\0" + t[0][1:], *t[1:]]),
        "NUL-separated terms, expected n_terms",
    ),
    "lexical_terms_not_utf8": (
        LEX, _edit_terms(lambda t: [b"\xff" + t[0][1:], *t[1:]]), "terms are not UTF-8"
    ),
    "lexical_term_id_repeated": (
        LEX, _edit_payload(lambda a: setitem(a["term_ids"], 1, a["term_ids"][0])),
        "term_ids must be a permutation",
    ),
    "lexical_n_terms_one_more": (
        LEX, _edit_header(lambda h: h.update(n_terms=h["n_terms"] + 1)), "payload is"
    ),
    "lexical_term_bytes_one_less": (
        LEX, _edit_header(lambda h: h.update(term_bytes=h["term_bytes"] - 1)), "payload is"
    ),
    "lexical_version_3": (
        LEX, _lexical_version_3, "unsupported desksearch-lexical-index version 3"
    ),
    "lexical_negative_doc_norm": (
        LEX, _edit_payload(lambda a: setitem(a["doc_norms"], 0, -1.0)), "non-negative"
    ),
    "lexical_nan_doc_norm": (
        LEX, _edit_payload(lambda a: setitem(a["doc_norms"], 0, np.nan)), "non-negative"
    ),
    # Each file is whole, but not of this build: only a loader told the lexical
    # index's term count or the encoder's d_model can tell.  The CLI passes them;
    # the loader tests of single files do not run these.
    "mixed_build_sidecar": (
        "weights.json", _sidecar_of_another_build, "terms of the lexical index"
    ),
    "mixed_build_vectors_dimension": (
        "vectors.bin", _vectors_one_dimension_wider, "is not the d_model"
    ),
    "vectors_version_1": (
        "vectors.bin",
        _edit_header(lambda h: h.update(version=1)),
        "unsupported desksearch-vector-index version 1",
    ),
    "vectors_byte_flipped_in_last_row": ("vectors.bin", _flip_in_last_row, "is not unit-norm"),
    "vectors_truncated": ("vectors.bin", lambda raw: raw[:-1], "payload is"),
    "vectors_unaligned_payload": ("vectors.bin", _unaligned, "not a multiple of 8"),
    "docs_missing": ("docs.jsonl", None, "No such file"),
    # doc_offsets.bin holds the file's size, so a docs.jsonl of another size
    # fails before any line is read.
    "docs_short": ("docs.jsonl", lambda raw: raw.split(b"\n")[0] + b"\n", DOCS_SIZE),
    "docs_reordered": (
        "docs.jsonl", lambda raw: b"\n".join(raw.rstrip(b"\n").split(b"\n")[::-1]), DOCS_SIZE
    ),
    "docs_reordered_same_size": (
        "docs.jsonl", lambda raw: b"\n".join(raw.split(b"\n")[-2::-1]) + b"\n", "is not doc"
    ),
    "docs_first_text_one_char_longer": ("docs.jsonl", _first_text_one_char_longer, DOCS_SIZE),
    "doc_offsets_missing": ("doc_offsets.bin", None, "No such file"),
    "doc_offsets_truncated": ("doc_offsets.bin", lambda raw: raw[:-1], "payload is"),
    "doc_offsets_not_rising": (
        "doc_offsets.bin", _edit_offsets(lambda a: setitem(a, 2, a[1])),
        "line starts must rise strictly from 0",
    ),
    # Each line but the last read without its newline, and from the one before.
    "doc_offsets_lines_end_one_byte_early": (
        "doc_offsets.bin", _edit_offsets(lambda a: np.subtract(a[1:-1], 1, out=a[1:-1])),
        "it does not end where doc_offsets.bin starts the next",
    ),
    "doc_offsets_of_another_build": (
        "doc_offsets.bin", _offsets_one_doc_fewer, "docs of the lexical index"
    ),
}


def corrupt_artifact(index_dir, fault: str) -> tuple[str, str]:
    """Apply one ARTIFACT_FAULTS edit in place; returns the file name and the
    message fragment the loader must give."""
    name, edit, message = ARTIFACT_FAULTS[fault]
    path = index_dir / name
    if edit is None:
        path.unlink()
    else:
        path.write_bytes(edit(path.read_bytes()))
    return name, message


def faults_of(prefix: str) -> list[str]:
    return sorted(f for f in ARTIFACT_FAULTS if f.startswith(prefix))
