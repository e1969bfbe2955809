"""Inverted index over tf-idf vectors with cosine-scored top-k retrieval.

Postings are CSR arrays (compressed sparse rows), in memory and on disk:
term t's postings are rows ``term_ptr[t]:term_ptr[t + 1]`` of the flat
``doc_ids`` and ``tf`` arrays, in ascending doc-id order, so a term's df is
the length of its slice.  Scores are cosine similarities between the query's
tf-idf vector and each document's, computed by walking the query terms'
slices; documents whose score is exactly zero are omitted.  Because idf can
be negative, scores live in [-1, 1].

On disk the terms are a sorted table, as in a Lucene terms dictionary: their
UTF-8 bytes in ascending order, NUL-separated, and ``term_ids``, the id of
each.  Ids keep their first-occurrence numbering, so the postings and the
norms do not depend on the order.  A loaded index looks a term up by
bisection in that table (``TermTable``) and builds no dict of the terms.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import text_pipeline
from .io_utils import read_artifact, write_artifact
from .text_pipeline import Vocabulary, idf, tfidf_vectorize

INDEX_FORMAT = "desksearch-lexical-index"
INDEX_VERSION = 4
# The dtypes of the payload's arrays term_ptr, doc_norms, doc_ids, tf,
# term_ids and the terms' bytes, in file order: widest first.
PAYLOAD_DTYPES = ("<i8", "<f8", "<i4", "<i4", "<i4", "u1")
HEADER_COUNTS = ("n_terms", "n_docs", "n_postings", "term_bytes")


def _layout(n_terms: int, n_docs: int, n_postings: int, term_bytes: int):
    return zip(PAYLOAD_DTYPES, (n_terms + 1, n_docs, n_postings, n_postings, n_terms, term_bytes))


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


class TermTable(Mapping):
    """A read-only term -> id mapping over terms in ascending code-point
    order: ``ids[i]`` is the id of ``terms[i]``.  ``[]`` is one bisection of
    the terms; ``get``, ``in``, ``==`` and the views are ``Mapping``'s."""

    __slots__ = ("_terms", "_ids")

    def __init__(self, terms: list[str], ids: np.ndarray) -> None:
        self._terms, self._ids = terms, ids

    def __getitem__(self, term: str) -> int:
        terms = self._terms
        i = bisect_left(terms, term)
        if i < len(terms) and terms[i] == term:
            return self._ids.item(i)
        raise KeyError(term)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self):
        return iter(self._terms)


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
    n_docs = len(docs)
    if vocab.size * n_docs > np.iinfo(np.int64).max:
        raise ValueError(f"{vocab.size} terms x {n_docs} docs overflow the int64 posting keys")
    # One key term * n_docs + doc per token; np.unique sorts the keys term-major
    # with the docs rising, and counts each (term, doc) pair's tf.
    lengths = [len(tokens) for tokens in docs]
    term_of = np.fromiter(
        map(vocab.term_to_id.__getitem__, chain.from_iterable(docs)), np.int64, sum(lengths)
    )
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
    keys, tf = np.unique(term_of * n_docs + doc_of, return_counts=True)
    term_ptr = np.zeros(vocab.size + 1, dtype=np.int64)
    np.cumsum(vocab.doc_freq, out=term_ptr[1:])
    postings = Postings(term_ptr, (keys % n_docs).astype(np.int32), tf.astype(np.int32))

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
    """Write the index atomically: a header line with the HEADER_COUNTS, then
    the PAYLOAD_DTYPES arrays, the last of them the terms' UTF-8 bytes in
    ascending order, NUL-separated; ``term_ids[i]`` is the id of the i-th.
    A term that is empty, holds NUL or is no UTF-8 (a lone surrogate) could not
    be read back: ValueError."""
    terms = index.vocabulary.id_to_term()
    order = sorted(range(len(terms)), key=terms.__getitem__)
    blob = "\0".join([terms[tid] for tid in order]).encode("utf-8")
    if not all(terms) or blob.count(b"\0") != max(len(terms) - 1, 0):
        raise ValueError("a term is empty or holds NUL")
    p = index.postings
    counts = (len(terms), index.vocabulary.n_docs, len(p.doc_ids), len(blob))
    arrays = (p.term_ptr, index.doc_norms, p.doc_ids, p.tf, np.array(order, dtype=np.int32),
              np.frombuffer(blob, "u1"))
    write_artifact(
        path, INDEX_FORMAT, INDEX_VERSION, dict(zip(HEADER_COUNTS, counts)),
        [a.astype(dtype, copy=False) for a, dtype in zip(arrays, PAYLOAD_DTYPES)],
    )


def load_index(path: str | Path) -> InvertedIndex:
    """Read a ``save_index`` file; df comes from ``term_ptr``.  Beyond the
    checks of ``read_artifact``, terms that are not UTF-8 or do not rise
    strictly, or arrays that do not fit the terms and docs raise ValueError
    naming the file."""
    header, arrays = read_artifact(path, INDEX_FORMAT, INDEX_VERSION, HEADER_COUNTS, _layout)
    n_terms, n_docs, n_postings = header["n_terms"], header["n_docs"], header["n_postings"]
    term_ptr, doc_norms, doc_ids, tf, term_ids, blob = arrays

    def malformed(why: str) -> ValueError:
        return ValueError(f"{path}: malformed lexical index: {why}")

    try:
        terms = str(blob, "utf-8").split("\0") if len(blob) else []
    except UnicodeDecodeError as exc:
        raise malformed(f"terms are not UTF-8: {exc}") from None
    if len(terms) != n_terms:
        raise malformed(f"{len(terms)} NUL-separated terms, expected n_terms {n_terms}")
    if terms and not terms[0]:
        raise malformed("the first term is empty")
    # Rising strictly, from a non-empty first term: unique and non-empty.
    if not all(map(operator.lt, terms, islice(terms, 1, None))):
        raise malformed("terms must rise strictly")
    # n_terms ids, each in range, that cover every id: a permutation.
    covered = np.zeros(n_terms, dtype=bool)
    covered[term_ids[(term_ids >= 0) & (term_ids < n_terms)]] = True
    if not covered.all():
        raise malformed(f"term_ids must be a permutation of the {n_terms} term ids")
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
    vocab = Vocabulary(TermTable(terms, term_ids), np.diff(term_ptr).tolist(), n_docs)
    return InvertedIndex(vocab, Postings(term_ptr, doc_ids, tf), doc_norms)
