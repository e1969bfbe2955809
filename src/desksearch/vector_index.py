"""Dense-vector store with exact cosine top-k search and hybrid score fusion.

The store is a brute-force exact scan (no approximate structures): fine for
desk-scale corpora and trivially correct against an all-pairs oracle.  Hybrid
search min-max normalizes the lexical and vector candidate scores to [0, 1]
and blends them with a configurable lexical weight.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .io_utils import atomic_write_bytes
from .lexical_index import InvertedIndex, SearchHit, search_lexical

VECTOR_FORMAT = "desksearch-vector-index"
VECTOR_VERSION = 1
UNIT_NORM_TOL = 1e-6


@dataclass(frozen=True)
class HybridConfig:
    alpha: float = 0.5  # lexical weight; 1 - alpha goes to the vector side
    k: int = 10
    candidate_factor: int = 4  # each side contributes a top-(factor * k) pool

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.candidate_factor < 1:
            raise ValueError("candidate_factor must be >= 1")


class VectorIndex:
    """doc id -> unit-norm embedding, fixed dimension, exact cosine search.

    The rows live in one contiguous (n, dimension) float64 matrix beside an
    int64 doc-id array and the row norms, which are computed once, when the
    rows arrive.  All three arrays are read-only; ``get`` returns a view.
    """

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self._ids = _frozen(np.empty(0, dtype=np.int64))
        self._matrix = _frozen(np.empty((0, dimension)))
        self._norms = _frozen(np.empty(0))

    @classmethod
    def from_arrays(cls, doc_ids, matrix: np.ndarray) -> VectorIndex:
        """Build an index from n doc ids and an (n, dimension) matrix of unit
        rows in one vectorized pass; the index keeps its own copy."""
        rows = np.asarray(matrix, dtype=float)
        if rows.ndim != 2:
            raise ValueError(f"expected an (n, dimension) matrix, got shape {rows.shape}")
        index = cls(rows.shape[1])
        index._append(doc_ids, rows)
        return index

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def doc_ids(self) -> list[int]:
        return self._ids.tolist()

    def add(self, doc_id: int, embedding: np.ndarray) -> None:
        """Append one row.  Each call copies the stored matrix, so build large
        indexes with ``from_arrays``."""
        vec = np.asarray(embedding, dtype=float)
        if vec.shape != (self.dimension,):
            raise ValueError(f"expected dimension {self.dimension}, got shape {vec.shape}")
        self._append([doc_id], vec[None, :])

    def _append(self, doc_ids, rows: np.ndarray) -> None:
        # The checks every row passes on its way in, whether by add or in bulk.
        ids = np.asarray(doc_ids)
        if ids.ndim != 1 or (
            ids.size and (ids.dtype.kind not in "iu" or not np.can_cast(ids.dtype, np.int64))
        ):
            raise ValueError("doc ids must be a flat sequence of 64-bit integers")
        if rows.shape != (len(ids), self.dimension):
            raise ValueError(
                f"expected {len(ids)} rows of dimension {self.dimension}, got shape {rows.shape}"
            )
        all_ids = np.concatenate([self._ids, ids.astype(np.int64)])
        ordered = np.sort(all_ids)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeated.size:
            raise ValueError(f"duplicate doc id {repeated[0]}: already present")
        norms = np.linalg.norm(rows, axis=1)
        off = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL))  # NaN is off too
        if off.size:
            i = off[0]
            raise ValueError(f"embedding for doc {ids[i]} is not unit-norm (|v| = {norms[i]:.6g})")
        self._ids = _frozen(all_ids)
        self._matrix = _frozen(np.concatenate([self._matrix, rows]))
        self._norms = _frozen(np.concatenate([self._norms, norms]))

    def get(self, doc_id: int) -> np.ndarray:
        pos = np.flatnonzero(self._ids == doc_id)
        if not pos.size:
            raise KeyError(doc_id)
        return self._matrix[pos[0]]

    def search(self, query: np.ndarray, k: int) -> list[SearchHit]:
        """Exact scan: cosine similarity against every stored vector, top-k by
        descending score, ties broken by ascending doc id."""
        if k < 1:
            raise ValueError("k must be >= 1")
        q = np.asarray(query, dtype=float)
        if q.shape != (self.dimension,):
            raise ValueError(f"expected dimension {self.dimension}, got shape {q.shape}")
        q_norm = float(np.linalg.norm(q))
        if q_norm == 0.0:
            raise ValueError("cannot search with a zero-norm query")
        if not np.isfinite(q_norm):
            raise ValueError("cannot search with a non-finite query")
        n = len(self._ids)
        if n == 0:
            return []
        scores = (self._matrix @ q) / (self._norms * q_norm)
        # Every row scoring at least the k-th best is a candidate, so a tie
        # across the k-th place is settled by doc id, as a full sort would.
        candidates = (
            np.flatnonzero(scores >= np.partition(scores, n - k)[n - k])
            if k < n
            else np.arange(n)
        )
        top = candidates[np.lexsort((self._ids[candidates], -scores[candidates]))[:k]]
        return [
            SearchHit(doc_id, score)
            for doc_id, score in zip(self._ids[top].tolist(), scores[top].tolist())
        ]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def minmax_normalize(hits: list[SearchHit]) -> dict[int, float]:
    """Map each hit's score into [0, 1]; a constant score list maps to all ones."""
    if not hits:
        return {}
    scores = [h.score for h in hits]
    lo, hi = min(scores), max(scores)
    if hi == lo:
        return {h.doc_id: 1.0 for h in hits}
    return {h.doc_id: (h.score - lo) / (hi - lo) for h in hits}


def search_hybrid(
    lex_index: InvertedIndex,
    vec_index: VectorIndex,
    query_tokens: list[str],
    query_embedding: np.ndarray | None,
    cfg: HybridConfig,
) -> list[SearchHit]:
    """Fuse lexical and vector rankings over a shared doc-id space.

    Each side contributes its top-(candidate_factor * k) list; scores are
    min-max normalized per side and blended as
    alpha * lexical + (1 - alpha) * vector, with a missing side contributing
    zero.  ``query_embedding=None`` (e.g. a fully out-of-vocabulary query)
    degrades to the lexical side only.
    """
    pool = cfg.candidate_factor * cfg.k
    lex_hits = search_lexical(lex_index, query_tokens, pool)
    vec_hits = (
        vec_index.search(query_embedding, pool) if query_embedding is not None else []
    )
    lex_norm = minmax_normalize(lex_hits)
    vec_norm = minmax_normalize(vec_hits)

    fused = []
    for doc_id in sorted(set(lex_norm) | set(vec_norm)):
        score = cfg.alpha * lex_norm.get(doc_id, 0.0) + (1.0 - cfg.alpha) * vec_norm.get(
            doc_id, 0.0
        )
        fused.append(SearchHit(doc_id, score))
    fused.sort(key=lambda h: (-h.score, h.doc_id))
    return fused[: cfg.k]


def save_vectors(index: VectorIndex, path: str | Path) -> None:
    """Persist as a JSON header line (dimension, count, doc ids) followed by the
    raw little-endian float64 matrix, rows in ascending doc-id order.

    The byte stream is a pure function of the stored vectors, so identical
    indexes serialize to identical files.
    """
    order = np.argsort(index._ids, kind="stable")
    header = {
        "format": VECTOR_FORMAT,
        "version": VECTOR_VERSION,
        "dimension": index.dimension,
        "count": len(order),
        "doc_ids": index._ids[order].tolist(),
    }
    matrix = index._matrix.take(order, axis=0).astype("<f8", copy=False)
    blob = json.dumps(header).encode("utf-8") + b"\n" + matrix.tobytes(order="C")
    atomic_write_bytes(path, blob)


def load_vectors(path: str | Path) -> VectorIndex:
    """Read a ``save_vectors`` file.  A header that does not match its payload
    raises ValueError naming the file, never a partial index."""
    raw = Path(path).read_bytes()
    newline = raw.find(b"\n")
    try:
        header = json.loads(raw[:newline]) if newline >= 0 else None
    except ValueError:  # undecodable or malformed JSON
        header = None
    if not isinstance(header, dict) or header.get("format") != VECTOR_FORMAT:
        raise ValueError(f"{path}: not a vector index file")
    if header.get("version") != VECTOR_VERSION:
        raise ValueError(f"{path}: unsupported vector index version {header.get('version')}")
    dimension, count, doc_ids = header.get("dimension"), header.get("count"), header.get("doc_ids")
    if not (
        type(dimension) is int and dimension >= 1 and type(count) is int and count >= 0
        and isinstance(doc_ids, list)
    ):
        raise ValueError(f"{path}: malformed header (dimension, count or doc_ids)")
    if len(doc_ids) != count:
        raise ValueError(f"{path}: header lists {len(doc_ids)} doc ids for count {count}")
    payload = len(raw) - newline - 1
    if payload != count * dimension * 8:
        raise ValueError(
            f"{path}: payload is {payload} bytes, expected {count * dimension * 8} "
            f"for {count} rows of {dimension} float64"
        )
    if not set(map(type, doc_ids)) <= {int}:  # bool and float are not ids
        raise ValueError(f"{path}: doc ids must be integers")
    matrix = np.frombuffer(raw, dtype="<f8", offset=newline + 1).reshape(count, dimension)
    try:
        return VectorIndex.from_arrays(doc_ids, matrix)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
