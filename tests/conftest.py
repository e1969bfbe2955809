from __future__ import annotations

import io
import json
import random
from operator import setitem

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


def _edit_npz(edit):
    def apply(raw: bytes) -> bytes:
        with np.load(io.BytesIO(raw)) as data:
            arrays = dict(data)
        edit(arrays)
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        return buf.getvalue()

    return apply


def _shared_postings(payload):
    """The postings list of the first term that occurs in two or more docs."""
    return next(plist for plist in payload["postings"] if len(plist) > 1)


LEX = "lexical_index.json"
BAD_POSTING = "with doc ids increasing within"

# fault name -> (file in the index directory, edit of its bytes (None deletes
# the file), a fragment of the error message)
ARTIFACT_FAULTS = {
    "weights_unknown_config_key": (
        "weights.json", _edit_json(lambda s: s["config"].update(bogus=1)), "unexpected keyword"
    ),
    "weights_sidecar_is_list": ("weights.json", lambda raw: b"[]", "not an encoder weights"),
    "weights_truncated_npz": ("weights.npz", _half, "not a readable weights archive"),
    "weights_wrong_shape": (
        "weights.npz",
        _edit_npz(lambda a: a.update(token_embedding=a["token_embedding"][:3])),
        "token_embedding has shape",
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
