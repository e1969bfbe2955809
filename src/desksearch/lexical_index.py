"""Inverted index over tf-idf vectors with cosine-scored top-k retrieval.

Postings are CSR arrays (compressed sparse rows), in memory and on disk:
term t's postings are rows ``term_ptr[t]:term_ptr[t + 1]`` of the flat
``doc_ids`` and ``tf`` arrays, in ascending doc-id order, so a term's df is
the length of its slice.  Scores are cosine similarities between the query's
tf-idf vector and each document's, computed by walking the query terms'
slices; documents whose score is exactly zero are omitted.  Because idf can
be negative, scores live in [-1, 1].
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import text_pipeline
from .io_utils import read_artifact, write_artifact
from .text_pipeline import Vocabulary, idf, tfidf_vectorize

INDEX_FORMAT = "desksearch-lexical-index"
INDEX_VERSION = 3
# The dtypes of the payload's arrays term_ptr, doc_norms, doc_ids and tf, in
# file order: widest first, so that each starts at an offset aligned to its
# item size once the payload itself starts 8-byte aligned.
PAYLOAD_DTYPES = ("<i8", "<f8", "<i4", "<i4")


class SearchHit(NamedTuple):
    doc_id: int
    score: float


def top_k(ids: np.ndarray, scores: np.ndarray, k: int) -> list[SearchHit]:
    """The k best (id, score) pairs by descending score, ties by ascending id.
    Every entry scoring at least the k-th best is a candidate, so a tie across
    the k-th place is settled by id, as a full sort would settle it."""
    n = len(scores)
    top = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k]) if k < n else np.arange(n)
    top = top[np.lexsort((ids[top], -scores[top]))[:k]]
    return [SearchHit(i, s) for i, s in zip(ids[top].tolist(), scores[top].tolist())]


@dataclass(eq=False)
class Postings:
    """CSR postings: ``term_ptr`` (int64, n_terms + 1) delimits each term's
    rows of ``doc_ids`` and ``tf`` (int32).  ``postings[t]`` is term t's
    ``(df, 2)`` array of ``[doc_id, tf]`` rows, so ``len(postings[t])`` is its df."""

    term_ptr: np.ndarray
    doc_ids: np.ndarray
    tf: np.ndarray

    def __len__(self) -> int:
        return len(self.term_ptr) - 1

    def __getitem__(self, t: int) -> np.ndarray:
        if not 0 <= t < len(self):
            raise IndexError(f"term id {t} out of range for {len(self)} terms")
        lo, hi = self.term_ptr[t], self.term_ptr[t + 1]
        return np.column_stack((self.doc_ids[lo:hi], self.tf[lo:hi]))

    def __iter__(self):
        return (self[t] for t in range(len(self)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Postings) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("term_ptr", "doc_ids", "tf")
        )


@dataclass
class InvertedIndex:
    vocabulary: Vocabulary
    postings: Postings
    doc_norms: np.ndarray  # float64, the L2 norm of each doc's tf-idf vector


def build_index(docs: list[list[str]]) -> InvertedIndex:
    """Build vocabulary, CSR postings, and per-document tf-idf norms.

    Doc ids are dense insertion-order integers; the result is deterministic.
    """
    vocab = text_pipeline.build_vocabulary(docs)  # looked up per call: perfbench wraps it
    # One (term id, doc id, tf) triple per distinct term of each doc, in doc
    # order; a stable sort by term id keeps the doc ids rising within a term.
    triples = [
        (vocab.term_to_id[token], doc_id, tf)
        for doc_id, tokens in enumerate(docs)
        for token, tf in Counter(tokens).items()
    ]
    term_of, doc_of, tf_of = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    order = np.argsort(term_of, kind="stable")
    term_ptr = np.zeros(vocab.size + 1, dtype=np.int64)
    np.cumsum(vocab.doc_freq, out=term_ptr[1:])
    postings = Postings(term_ptr, doc_of[order].astype(np.int32), tf_of[order].astype(np.int32))

    # bincount adds each doc's squared weights one posting at a time, in
    # term-id order, as a Python loop over the postings would.
    idf_by_term = np.array([idf(tid, vocab) for tid in range(vocab.size)])
    w = postings.tf * np.repeat(idf_by_term, vocab.doc_freq)
    sq_norms = np.bincount(postings.doc_ids, weights=w * w, minlength=len(docs))
    return InvertedIndex(vocab, postings, np.sqrt(sq_norms))


def search_lexical(index: InvertedIndex, query_tokens: list[str], k: int) -> list[SearchHit]:
    """Top-k documents by cosine(tfidf(query), tfidf(doc)) via postings traversal."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query = tfidf_vectorize(query_tokens, index.vocabulary)
    query_norm = query.norm()
    if query_norm == 0.0:
        return []

    p = index.postings
    dots: dict[int, float] = {}
    for tid, q_weight in zip(query.indices, query.values):
        term_idf = idf(tid, index.vocabulary)
        lo, hi = p.term_ptr[tid], p.term_ptr[tid + 1]
        for doc_id, tf in zip(p.doc_ids[lo:hi].tolist(), p.tf[lo:hi].tolist()):
            dots[doc_id] = dots.get(doc_id, 0.0) + q_weight * (tf * term_idf)

    ids = np.fromiter(dots, dtype=np.int64, count=len(dots))
    dot = np.fromiter(dots.values(), dtype=float, count=len(dots))
    doc_norms = index.doc_norms[ids]
    keep = (dot != 0.0) & (doc_norms != 0.0)
    return top_k(ids[keep], dot[keep] / (query_norm * doc_norms[keep]), k)


def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Write the index atomically: a header line with the terms, n_docs and
    the posting count, then the PAYLOAD_DTYPES arrays, 8-byte aligned."""
    p = index.postings
    fields = {
        "terms": index.vocabulary.id_to_term(),
        "n_docs": index.vocabulary.n_docs,
        "n_postings": len(p.doc_ids),
    }
    arrays = (p.term_ptr, index.doc_norms, p.doc_ids, p.tf)
    payload = b"".join(
        a.astype(dtype, copy=False).tobytes() for a, dtype in zip(arrays, PAYLOAD_DTYPES)
    )
    write_artifact(path, INDEX_FORMAT, INDEX_VERSION, fields, payload, align=8)


def load_index(path: str | Path) -> InvertedIndex:
    """Read a ``save_index`` file; df comes from ``term_ptr``.  A bad header, a
    missing key, a value of the wrong type, a payload of the wrong length or
    arrays that do not fit the terms and docs raise ValueError naming the file."""
    header, payload = read_artifact(path, INDEX_FORMAT, INDEX_VERSION)
    try:
        terms, n_docs, n_postings = header["terms"], header["n_docs"], header["n_postings"]
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None

    def malformed(why: str) -> ValueError:
        return ValueError(f"{path}: malformed lexical index: {why}")

    if type(terms) is not list or not all(type(term) is str for term in terms):
        raise malformed("terms must be a list of strings")
    term_to_id = {term: tid for tid, term in enumerate(terms)}
    if len(term_to_id) != len(terms):
        raise malformed("terms must be unique strings")
    if not (type(n_docs) is type(n_postings) is int and n_docs >= 0 and n_postings >= 0):
        raise malformed("n_docs and n_postings must be non-negative integers")
    counts = (len(terms) + 1, n_docs, n_postings, n_postings)
    expected = sum(n * np.dtype(dtype).itemsize for n, dtype in zip(counts, PAYLOAD_DTYPES))
    if len(payload) != expected:
        raise malformed(
            f"payload is {len(payload)} bytes, expected {expected} for {len(terms)} terms, "
            f"{n_docs} docs and {n_postings} postings"
        )
    arrays, offset = [], 0
    for n, dtype in zip(counts, PAYLOAD_DTYPES):
        arrays.append(np.frombuffer(payload, dtype, n, offset))
        offset += n * arrays[-1].itemsize
    term_ptr, doc_norms, doc_ids, tf = arrays

    # Comparisons, not np.diff, so that no wrapped int64 difference looks rising.
    if term_ptr[0] != 0 or term_ptr[-1] != n_postings or not (term_ptr[1:] > term_ptr[:-1]).all():
        raise malformed(f"term_ptr must rise strictly from 0 to n_postings {n_postings}")
    if not ((doc_ids >= 0) & (doc_ids < n_docs)).all():
        raise malformed(f"doc ids must lie in [0, {n_docs})")
    term_starts = np.zeros(n_postings, dtype=bool)
    term_starts[term_ptr[1:-1]] = True
    if not ((doc_ids[1:] > doc_ids[:-1]) | term_starts[1:]).all():
        raise malformed("doc ids must rise within each term")
    if not (tf >= 1).all():
        raise malformed("tf must be >= 1")
    if not ((doc_norms >= 0.0) & (doc_norms < math.inf)).all():  # NaN fails both
        raise malformed("doc_norms must be finite non-negative floats")
    vocab = Vocabulary(term_to_id, np.diff(term_ptr).tolist(), n_docs)
    return InvertedIndex(vocab, Postings(term_ptr, doc_ids, tf), doc_norms)
