from __future__ import annotations

import json
import random

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
