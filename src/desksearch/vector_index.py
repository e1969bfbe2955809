"""Dense-vector store with exact cosine top-k search and hybrid score fusion.

The store is a brute-force exact scan (no approximate structures): fine for
desk-scale corpora and trivially correct against an all-pairs oracle.  Hybrid
search min-max normalizes the lexical and vector candidate scores to [0, 1]
and blends them, as arrays over the union of the two pools, with a
configurable lexical weight.  Both rank through ``lexical_index.top_k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from pathlib import Path

import numpy as np

from .encoder import row_norms
from .io_utils import atomic_write_bytes  # noqa: F401  perfbench/layers.py wraps it here
from .io_utils import read_artifact, require_int, write_artifact
from .lexical_index import InvertedIndex, SearchHit, search_lexical, top_k

VECTOR_FORMAT = "desksearch-vector-index"
VECTOR_VERSION = 2
UNIT_NORM_TOL = 1e-6


@dataclass(frozen=True)
class HybridConfig:
    alpha: float = 0.5  # lexical weight; 1 - alpha goes to the vector side
    k: int = 10
    candidate_factor: int = 4  # each side contributes a top-(factor * k) pool

    def __post_init__(self) -> None:
        # bool is an int subclass, but true is not a weight.
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, Real):
            raise ValueError(f"alpha must be a number, got {self.alpha!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        for name in ("k", "candidate_factor"):
            require_int(name, getattr(self, name), 1)


class VectorIndex:
    """doc id -> unit-norm embedding, fixed dimension, exact cosine search.

    The rows live in one contiguous (n, dimension) float64 matrix, in strictly
    rising doc-id order, beside an int64 doc-id array and the row norms, which
    are computed once, when the rows arrive.  All three arrays are read-only;
    ``get`` returns a view.  A loaded index scans the file's rows in place.
    """

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        _install(self, np.empty(0, dtype=np.int64), np.empty((0, dimension)))

    @classmethod
    def from_arrays(cls, doc_ids, matrix: np.ndarray) -> VectorIndex:
        """Build an index from n doc ids, in any order, and an (n, dimension)
        matrix of unit rows; the index keeps its own copy, sorted by doc id."""
        rows = np.asarray(matrix, dtype=float)
        if rows.ndim != 2:
            raise ValueError(f"expected an (n, dimension) matrix, got shape {rows.shape}")
        index = cls(rows.shape[1])
        ids = np.asarray(doc_ids)
        if ids.ndim != 1 or (
            ids.size and (ids.dtype.kind not in "iu" or not np.can_cast(ids.dtype, np.int64))
        ):
            raise ValueError("doc ids must be a flat sequence of 64-bit integers")
        if len(rows) != len(ids):
            raise ValueError(
                f"expected {len(ids)} rows of dimension {index.dimension}, got shape {rows.shape}"
            )
        order = np.argsort(ids, kind="stable")
        return _install(index, ids[order].astype(np.int64, copy=False), rows.take(order, axis=0))

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def doc_ids(self) -> list[int]:
        return self._ids.tolist()

    def add(self, doc_id: int, embedding: np.ndarray) -> None:
        """Insert one row at its doc id's place.  Each call copies the stored
        matrix, so build large indexes with ``from_arrays``."""
        vec = np.asarray(embedding, dtype=float)
        if vec.shape != (self.dimension,):
            raise ValueError(f"expected dimension {self.dimension}, got shape {vec.shape}")
        require_int("doc id", doc_id, -(2**63))  # np.append would take a bool for 0 or 1
        ids = np.append(self._ids, doc_id)
        grown = VectorIndex.from_arrays(ids, np.vstack([self._matrix, vec]))
        self._ids, self._matrix, self._norms = grown._ids, grown._matrix, grown._norms

    def get(self, doc_id: int) -> np.ndarray:
        pos = np.flatnonzero(self._ids == doc_id)
        if not pos.size:
            raise KeyError(doc_id)
        return self._matrix[pos[0]]

    def search(self, query: np.ndarray, k: int) -> list[SearchHit]:
        """Exact scan: cosine similarity against every stored vector, ranked by
        ``top_k``."""
        if k < 1:
            raise ValueError("k must be >= 1")
        q = np.asarray(query, dtype=float)
        if q.shape != (self.dimension,):
            raise ValueError(f"expected dimension {self.dimension}, got shape {q.shape}")
        with np.errstate(over="ignore"):  # an overflowing query has norm inf, rejected below
            q_norm = float(np.linalg.norm(q))
        if q_norm == 0.0:
            raise ValueError("cannot search with a zero-norm query")
        if not np.isfinite(q_norm):
            raise ValueError("cannot search with a non-finite query")
        return top_k(self._ids, (self._matrix @ q) / (self._norms * q_norm), k)


def _install(index: VectorIndex, ids: np.ndarray, rows: np.ndarray) -> VectorIndex:
    """Give ``index`` int64 ``ids`` and C-contiguous float64 ``rows``, read-only
    and without a copy, once the ids rise strictly and every row is unit-norm:
    the one rule of every index.  The caller must own both arrays."""
    fall = np.flatnonzero(ids[1:] <= ids[:-1])
    if fall.size:
        before, after = ids[fall[0]], ids[fall[0] + 1]
        if before == after:
            raise ValueError(f"duplicate doc id {after}: already present")
        raise ValueError(f"doc ids must rise strictly, but {after} follows {before}")
    norms = row_norms(rows)
    off = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL))  # NaN and inf are off too
    if off.size:
        i = off[0]
        raise ValueError(f"embedding for doc {ids[i]} is not unit-norm (|v| = {norms[i]:.6g})")
    for a in (ids, rows, norms):
        a.flags.writeable = False
    index._ids, index._matrix, index._norms = ids, rows, norms
    return index


def minmax_normalize(scores: np.ndarray) -> np.ndarray:
    """Map scores into [0, 1]; constant scores (a single one too) map to ones."""
    scores = np.asarray(scores, dtype=float)
    if not scores.size:
        return scores
    lo, hi = scores.min(), scores.max()
    return np.ones_like(scores) if hi == lo else (scores - lo) / (hi - lo)


def search_hybrid(
    lex_index: InvertedIndex,
    vec_index: VectorIndex | None,
    query_tokens: list[str],
    query_embedding: np.ndarray | None,
    cfg: HybridConfig,
) -> list[SearchHit]:
    """Fuse lexical and vector rankings over a shared doc-id space.

    Each side contributes its top-(candidate_factor * k) list; scores are
    min-max normalized per side and blended over the union of the two pools as
    alpha * lexical + (1 - alpha) * vector, with a missing side contributing
    zero.  ``query_embedding=None`` (e.g. a fully out-of-vocabulary query)
    degrades to the lexical side only and reads no ``vec_index``, which may
    then be None.
    """
    pool = cfg.candidate_factor * cfg.k
    lex_hits = search_lexical(lex_index, query_tokens, pool)
    vec_hits = vec_index.search(query_embedding, pool) if query_embedding is not None else []
    # A set, not np.union1d: np.unique imports numpy.ma, about 1 MB, on first use.
    ids = np.array(sorted({h.doc_id for h in lex_hits + vec_hits}), dtype=np.int64)
    fused = np.zeros(len(ids))  # a side adds 0 for a doc outside its pool
    for weight, hits in ((cfg.alpha, lex_hits), (1.0 - cfg.alpha, vec_hits)):
        at = np.searchsorted(ids, [h.doc_id for h in hits])
        fused[at] += weight * minmax_normalize([h.score for h in hits])
    return top_k(ids, fused, cfg.k)


def save_vectors(index: VectorIndex, path: str | Path) -> None:
    """Persist as a header line (dimension, count, doc ids) followed by the
    raw little-endian float64 matrix as the index holds it, rows in rising
    doc-id order, with no sort and no copy.

    The byte stream is a pure function of the stored vectors, so identical
    indexes serialize to identical files.
    """
    # doc_ids last: load_vectors decodes the list from the end of the header line.
    fields = {"dimension": index.dimension, "count": len(index), "doc_ids": index.doc_ids}
    matrix = index._matrix.astype("<f8", copy=False)
    write_artifact(path, VECTOR_FORMAT, VECTOR_VERSION, fields, [matrix])


def load_vectors(path: str | Path, dimension: int | None = None) -> VectorIndex:
    """Read a ``save_vectors`` file; the index scans its rows in place, read-only,
    and its doc ids are one read-only int64 array that ``read_artifact``
    decodes from the header's bytes, with no Python int per id.  Beyond the
    checks of ``read_artifact``, which accepts the doc ids only as the last
    key, in the form ``save_vectors`` writes (``json.dumps`` of 64-bit
    integers), a header that does not match its rows or a given
    ``dimension``, or whose doc ids do not rise strictly, raises ValueError
    naming the file, never a partial index."""
    header, (rows,) = read_artifact(
        path, VECTOR_FORMAT, VECTOR_VERSION, ("dimension", "count"),
        lambda dim, count: [("<f8", dim * count)], int_list="doc_ids",
    )
    dim, count, ids = header["dimension"], header["count"], header["doc_ids"]
    if dim < 1:
        raise ValueError(f"{path}: malformed header (dimension)")
    if dimension is not None and dim != dimension:
        raise ValueError(f"{path}: dimension {dim} is not the d_model {dimension} of the encoder")
    if len(ids) != count:
        raise ValueError(f"{path}: header lists {len(ids)} doc ids for count {count}")
    try:
        return _install(VectorIndex(dim), ids, rows.reshape(count, dim))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
