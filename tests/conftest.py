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


def _half(raw: bytes) -> bytes:
    return raw[: len(raw) // 2]


def _edit_json(edit):
    def apply(raw: bytes) -> bytes:
        payload = json.loads(raw)
        edit(payload)
        return json.dumps(payload).encode("utf-8")

    return apply


def _shared_postings(payload):
    """The postings list of the first term that occurs in two or more docs."""
    return next(plist for plist in payload["postings"] if len(plist) > 1)


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
BAD_POSTING = "with doc ids increasing within"
WEIGHTS_MISMATCH = "crc32 mismatch in weights regenerated by numpy"

# fault name -> (file in the index directory, edit of its bytes (None deletes
# the file), a fragment of the error message)
ARTIFACT_FAULTS = {
    "weights_unknown_config_key": (
        "weights.json", _edit_json(lambda s: s["config"].update(bogus=1)), "unexpected keyword"
    ),
    "weights_sidecar_is_list": (
        "weights.json", lambda raw: b"[]", "format is not 'encoder-weights'"
    ),
    "weights_checksum_mismatch": (
        "weights.json", _edit_json(lambda s: s.update(crc32=s["crc32"] ^ 1)), WEIGHTS_MISMATCH
    ),
    "weights_checksum_missing": (
        "weights.json", _edit_json(lambda s: s.pop("crc32")), "missing key 'crc32'"
    ),
    "weights_seed_edited": (
        "weights.json",
        _edit_json(lambda s: s["config"].update(seed=s["config"]["seed"] + 1)),
        WEIGHTS_MISMATCH,
    ),
    "weights_version_1": (
        "weights.json",
        _edit_json(lambda s: s.update(version=1)),
        "unsupported encoder-weights version 1",
    ),
    # A version-2 sidecar spread the same object over indented lines.
    "weights_version_2_indented": (
        "weights.json",
        lambda raw: json.dumps({**json.loads(raw), "version": 2}, indent=2).encode("utf-8"),
        "header is not valid JSON",
    ),
    "lexical_truncated": (LEX, _half, "not valid JSON"),
    "lexical_missing_postings": (
        LEX, _edit_json(lambda p: p.pop("postings")), "missing key 'postings'"
    ),
    "lexical_postings_not_lists": (LEX, _edit_json(lambda p: p.update(postings=5)), "malformed"),
    "lexical_version_1": (LEX, _edit_json(lambda p: p.update(version=1)), "version 1"),
    "lexical_doc_id_past_n_docs": (
        LEX,
        _edit_json(lambda p: setitem(p["postings"][-1][-1], 0, len(p["doc_norms"]))),
        BAD_POSTING,
    ),
    "lexical_doc_id_repeated": (
        LEX,
        _edit_json(lambda p: setitem(_shared_postings(p), 1, _shared_postings(p)[0])),
        BAD_POSTING,
    ),
    "lexical_doc_ids_out_of_order": (
        LEX, _edit_json(lambda p: _shared_postings(p).reverse()), BAD_POSTING
    ),
    "lexical_tf_zero": (LEX, _edit_json(lambda p: setitem(p["postings"][0][0], 1, 0)), BAD_POSTING),
    "lexical_tf_huge": (
        LEX, _edit_json(lambda p: setitem(p["postings"][0][0], 1, 10**400)), BAD_POSTING
    ),
    "lexical_tf_fraction": (
        LEX, _edit_json(lambda p: setitem(p["postings"][0][0], 1, 1.5)), BAD_POSTING
    ),
    "lexical_posting_of_three": (
        LEX, _edit_json(lambda p: p["postings"][0][0].append(1)), "too many values"
    ),
    "lexical_duplicate_term": (
        LEX, _edit_json(lambda p: setitem(p["terms"], 1, p["terms"][0])), "unique strings"
    ),
    "lexical_fewer_postings_than_terms": (
        LEX, _edit_json(lambda p: p["postings"].pop()), "one non-empty postings list"
    ),
    "lexical_term_without_postings": (
        LEX, _edit_json(lambda p: setitem(p["postings"], 0, [])), "one non-empty postings list"
    ),
    "lexical_negative_doc_norm": (
        LEX, _edit_json(lambda p: setitem(p["doc_norms"], 0, -1.0)), "non-negative"
    ),
    "lexical_nan_doc_norm": (
        LEX, _edit_json(lambda p: setitem(p["doc_norms"], 0, float("nan"))), "non-negative"
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
