"""Correctness checks and the independent reference rankings they compare to.

Every check belongs to one operation (a CLI call, a query, an artifact
comparison or an oracle comparison); an operation fails when any of its
checks fails, and failures feed ``fail_ratio``.
"""

from __future__ import annotations

import json
import math
import re
import struct
import sys
from collections import Counter

SCORE_TOL = 1e-9  # acceptance criterion 6: scores agree within this
TIE_TOL = 1e-12  # oracle scores this close count as tied
_TOKEN_RE = re.compile(r"[^\W_]+")


class Checker:
    def __init__(self) -> None:
        self.ops: dict[tuple, bool] = {}  # operation key -> failed

    def check(self, key: tuple, ok: bool, what: str) -> bool:
        self.ops[key] = self.ops.get(key, False) or not ok
        if not ok:
            print(f"check failed: {key}: {what}", file=sys.stderr)
        return ok

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(self.ops.values())


def hit_list_problem(hits: list[tuple[int, float]], k: int) -> str | None:
    """Why a result list is malformed, or None: at most k hits, ordered by
    (-score, doc_id), no repeated doc id."""
    if len(hits) > k:
        return f"{len(hits)} hits for k={k}"
    if len({doc_id for doc_id, _ in hits}) != len(hits):
        return "repeated doc id"
    keys = [(-score, doc_id) for doc_id, score in hits]
    if keys != sorted(keys):
        return "not ordered by (-score, doc_id)"
    return None


def parse_search_output(text: str) -> list[tuple[int, float]]:
    """Hits from `desksearch search` stdout; raises ValueError on any line that
    is not a {doc_id, score, text} JSON object."""
    hits = []
    for line in text.splitlines():
        record = json.loads(line)
        if set(record) != {"doc_id", "score", "text"}:
            raise ValueError(f"unexpected keys {sorted(record)}")
        doc_id, score = record["doc_id"], record["score"]
        if not isinstance(doc_id, int) or not isinstance(score, float) or not isinstance(record["text"], str):
            raise ValueError(f"bad field types in {line!r}")
        hits.append((doc_id, score))
    return hits


def read_vectors(path) -> dict[int, list[float]]:
    """Parse vectors.bin (a JSON header line, then little-endian float64 rows)
    without desksearch's loader."""
    raw = path.read_bytes()
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline])
    dim = header["dimension"]
    values = struct.unpack(f"<{header['count'] * dim}d", raw[newline + 1 :])
    return {doc_id: list(values[i * dim : (i + 1) * dim]) for i, doc_id in enumerate(header["doc_ids"])}


def ranking_problem(got: list[tuple[int, float]], want: list[tuple[int, float]], k: int) -> str | None:
    """Compare an engine top-k to a longer oracle ranking with criterion 6's
    rule: same ranking, scores within SCORE_TOL, and oracle hits whose scores
    are within TIE_TOL of each other may appear in either order."""
    if len(got) != min(k, len(want)):
        return f"{len(got)} hits, oracle has {min(k, len(want))}"
    for pos, (doc_id, score) in enumerate(got):
        ref = want[pos][1]
        if abs(score - ref) > SCORE_TOL:
            return f"rank {pos}: score {score!r} vs oracle {ref!r}"
        if doc_id != want[pos][0] and not any(
            d == doc_id and abs(s - ref) <= TIE_TOL for d, s in want
        ):
            return f"rank {pos}: doc {doc_id} vs oracle doc {want[pos][0]}"
    return None


class LexicalRecount:
    """tf-idf cosine ranking recounted from the indexed document texts with
    Counters, sharing no code with desksearch (idf = log(n / (1 + df)))."""

    def __init__(self, oracles, texts: list[str]) -> None:
        self._oracles = oracles
        docs = [_TOKEN_RE.findall(text.lower()) for text in texts]
        self._ids = oracles.naive_term_ids(docs)
        df = Counter(t for doc in docs for t in set(doc))
        n = len(docs)
        self._idf = {t: math.log(n / (1 + df[t])) for t in self._ids}
        self._docs = [self._weights(Counter(doc)) for doc in docs]

    def _weights(self, tf: Counter) -> dict[int, float]:
        out = {self._ids[t]: c * self._idf[t] for t, c in tf.items() if t in self._ids}
        return {tid: w for tid, w in out.items() if w != 0.0}

    def rank(self, query: str, k: int) -> list[tuple[int, float]]:
        q = self._weights(Counter(_TOKEN_RE.findall(query.lower())))
        if not q:
            return []
        hits = []
        for doc_id, dv in enumerate(self._docs):
            score = self._oracles.sparse_cosine(q, dv)
            if score != 0.0:
                hits.append((doc_id, score))
        hits.sort(key=lambda h: (-h[1], h[0]))
        return hits[:k]
