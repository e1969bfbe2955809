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


# fault name -> (edit of the header's doc-id list, edit of the raw payload,
# a fragment of the loader's error message)
VECTOR_FILE_FAULTS = {
    "doc_ids_shorter_than_count": (lambda ids: ids[:-1], None, "doc ids for count"),
    "doc_ids_longer_than_count": (lambda ids: ids + [10**6], None, "doc ids for count"),
    "truncated_payload": (None, lambda p: p[:-8], "payload is"),
    "extra_payload": (None, lambda p: p + bytes(8), "payload is"),
    "float_id": (lambda ids: [0.5] + ids[1:], None, "integers"),
    "bool_id": (lambda ids: [True] + ids[1:], None, "integers"),
    "huge_id": (lambda ids: [2**64] + ids[1:], None, "integers"),
    "duplicate_id": (lambda ids: [ids[0], ids[0]] + ids[2:], None, "already present"),
    "non_unit_row": (None, lambda p: _scale_first_row(p, 2.0), "unit-norm"),
    "nan_row": (None, lambda p: _scale_first_row(p, float("nan")), "unit-norm"),
    "overflowing_row": (None, lambda p: _scale_first_row(p, 1e300), "unit-norm"),
}


def corrupt_vectors_file(path, fault: str) -> str:
    """Rewrite a vectors.bin in place with one header/payload inconsistency
    from VECTOR_FILE_FAULTS; returns the message fragment the loader must give."""
    edit_ids, edit_payload, message = VECTOR_FILE_FAULTS[fault]
    raw = path.read_bytes()
    newline = raw.index(b"\n")
    header, payload = json.loads(raw[:newline]), raw[newline + 1 :]
    if edit_ids is not None:
        header["doc_ids"] = edit_ids(header["doc_ids"])
    if edit_payload is not None:
        payload = edit_payload(payload)
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)
    return message


LEXICAL_DTYPES = {"term_ptr": "<i8", "doc_norms": "<f8", "doc_ids": "<i4", "tf": "<i4"}


def _lexical_arrays(raw: bytes) -> tuple[dict, dict]:
    """The header of a lexical_index.json and writable copies of its payload
    arrays, read by the layout README documents."""
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline])
    n_postings = header["n_postings"]
    counts = (len(header["terms"]) + 1, header["n_docs"], n_postings, n_postings)
    arrays, offset = {}, newline + 1
    for (name, dtype), count in zip(LEXICAL_DTYPES.items(), counts):
        arrays[name] = np.frombuffer(raw, dtype, count, offset).copy()
        offset += arrays[name].nbytes
    assert offset == len(raw)
    return header, arrays


def _edit_payload(edit):
    """An edit of lexical_index.json's payload arrays in place; the header
    line keeps its bytes."""
    def apply(raw: bytes) -> bytes:
        _, arrays = _lexical_arrays(raw)
        edit(arrays)
        return raw[: raw.index(b"\n") + 1] + b"".join(a.tobytes() for a in arrays.values())

    return apply


def _edit_header(edit):
    """An edit of an artifact's header line; the payload keeps its bytes."""
    def apply(raw: bytes) -> bytes:
        newline = raw.index(b"\n")
        header = json.loads(raw[:newline])
        edit(header)
        return json.dumps(header).encode("utf-8") + raw[newline:]

    return apply


def _shared_postings(arrays: dict) -> np.ndarray:
    """A writable view of the doc ids of the first term in two or more docs."""
    ptr = arrays["term_ptr"].tolist()
    lo, hi = next((lo, hi) for lo, hi in zip(ptr, ptr[1:]) if hi - lo > 1)
    return arrays["doc_ids"][lo:hi]


def _lexical_version_2(raw: bytes) -> bytes:
    """The same index as the version-2 file: one JSON line whose postings are
    [doc_id, tf] lists."""
    header, arrays = _lexical_arrays(raw)
    ptr = arrays["term_ptr"].tolist()
    rows = np.column_stack((arrays["doc_ids"], arrays["tf"])).tolist()
    return json.dumps({
        "format": header["format"], "version": 2, "terms": header["terms"],
        "postings": [rows[lo:hi] for lo, hi in zip(ptr, ptr[1:])],
        "doc_norms": arrays["doc_norms"].tolist(),
    }).encode("utf-8")


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
    return json.dumps(header).encode("utf-8") + b"\n" + rows.tobytes()


LEX = "lexical_index.json"
NOT_COUNTS = "n_docs and n_postings must be non-negative integers"
BAD_TERM_PTR = "term_ptr must rise strictly from 0 to n_postings"
NOT_RISING = "doc ids must rise within each term"
BAD_TF = "tf must be >= 1"
WEIGHTS_MISMATCH = "crc32 mismatch in weights regenerated by numpy"

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
    "lexical_tf_zero": (LEX, _edit_payload(lambda a: setitem(a["tf"], 0, 0)), BAD_TF),
    "lexical_tf_minus_one": (LEX, _edit_payload(lambda a: setitem(a["tf"], 0, -1)), BAD_TF),
    "lexical_duplicate_term": (
        LEX, _edit_header(lambda h: setitem(h["terms"], 1, h["terms"][0])), "unique strings"
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
    "docs_missing": ("docs.jsonl", None, "No such file"),
    "docs_short": ("docs.jsonl", lambda raw: raw.split(b"\n")[0] + b"\n", "is not doc"),
    "docs_reordered": (
        "docs.jsonl", lambda raw: b"\n".join(raw.rstrip(b"\n").split(b"\n")[::-1]), "is not doc"
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
