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
norms do not depend on the order.  A loaded index reads that table in
place (``TermTable``): it keeps the terms as the file's bytes, finds their
bounds from the NULs, and looks a term up by bisecting 8-byte prefix keys.
No term becomes a ``str`` until the table is iterated, yet every load
still checks every term: UTF-8, the count, a non-empty first term, a
strict rise, then the ids' permutation and the postings.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
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
    """A read-only term -> id mapping over ``blob``, the UTF-8 bytes of terms
    in ascending order, NUL-separated: ``ids[i]`` is the id of the i-th term.
    The terms stay bytes, found between the NULs.  Each has an 8-byte prefix
    key, its first bytes as a big-endian integer, zero past its end, so keys
    order as the terms do.  ``[]`` encodes the probe and bisects the keys,
    then the bytes where keys tie; only iterating decodes the terms.
    ``get``, ``in``, ``==`` and the views are ``Mapping``'s."""

    __slots__ = ("_bytes", "_bounds", "_keys", "_ids")

    def __init__(self, blob, ids: np.ndarray) -> None:
        # A NUL before the first term, and 8 zero bytes after the last that
        # end it and give it a whole prefix window.  Term i lies between the
        # zero bytes at bounds[i] and bounds[i + 1]; no bytes hold no terms.
        self._bytes = b"".join((b"\0", blob, bytes(8)))
        padded = np.frombuffer(self._bytes, np.uint8)
        n_bytes = len(padded) - 9
        bounds = np.flatnonzero(padded[: n_bytes + 2] == 0) if n_bytes else np.zeros(1, np.intp)
        # Memoryviews: [] reads Python ints from them faster than from arrays.
        self._bounds = memoryview(bounds)
        self._keys = memoryview(_prefix_keys(self._bytes, bounds[:-1], bounds[1:]))
        self._ids = ids

    def rises_strictly(self) -> bool:
        """Whether each term's bytes sort after the previous term's, as the
        decoded terms would (UTF-8 byte order is code-point order): by their
        prefix keys, and each pair whose keys tie by their whole bytes."""
        keys = np.asarray(self._keys)
        if not (keys[1:] >= keys[:-1]).all():
            return False
        ties = np.flatnonzero(keys[1:] == keys[:-1]).tolist()
        return all(self._term_bytes(i) < self._term_bytes(i + 1) for i in ties)

    def _term_bytes(self, i: int) -> bytes:
        return self._bytes[self._bounds[i] + 1 : self._bounds[i + 1]]

    def __getitem__(self, term: str) -> int:
        try:  # str.encode, not term.encode: a key that is not a str is a TypeError
            probe = str.encode(term, "utf-8")
        except (TypeError, UnicodeEncodeError):  # no such key, nor a lone surrogate, is a term
            raise KeyError(term) from None
        keys, bounds = self._keys, self._bounds
        key = int.from_bytes(probe[:8].ljust(8, b"\0"), "big")
        i = bisect_left(keys, key)
        if i + 1 < len(keys) and keys[i + 1] == key:  # terms that share 8 bytes
            i = bisect_left(range(bisect_right(keys, key, i)), probe, i, key=self._term_bytes)
        if i < len(keys) and self._bytes[bounds[i] + 1 : bounds[i + 1]] == probe:
            return self._ids.item(i)
        raise KeyError(term)

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self):
        text = str(memoryview(self._bytes)[1:-8], "utf-8")
        return iter(text.split("\0") if text else ())


# _KEY_MASKS[n] keeps the high n bytes of a 64-bit key.
_KEY_MASKS = np.array([(1 << 64) - (1 << (64 - 8 * n)) for n in range(9)], dtype=np.uint64)


def _prefix_keys(padded: bytes, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """The first 8 bytes of each term of ``padded`` that lies between the
    zero bytes at ``before`` and ``after``, as one big-endian uint64, zero
    past the term's end.  Terms hold no zero byte, so the keys order as the
    terms do, a term before its extensions."""
    # Every 8 bytes from byte 1 on: unaligned, overlapping, in place.
    windows = np.ndarray((len(padded) - 8,), ">u8", padded, 1, (1,))
    keys = windows[before].astype(np.uint64)  # not take(), which copies all of windows
    kept = after - before
    kept -= 1
    keys &= _KEY_MASKS.take(np.clip(kept, 0, 8, out=kept))
    return keys


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


@dataclass(eq=False)
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
        str(blob, "utf-8")  # checked whole; only iterating the table decodes terms
    except UnicodeDecodeError as exc:
        raise malformed(f"terms are not UTF-8: {exc}") from None
    table = TermTable(blob, term_ids)
    if len(table) != n_terms:
        raise malformed(f"{len(table)} NUL-separated terms, expected n_terms {n_terms}")
    if n_terms and blob[0] == 0:
        raise malformed("the first term is empty")
    # Rising strictly, from a non-empty first term: unique and non-empty.
    if not table.rises_strictly():
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
    vocab = Vocabulary(table, np.diff(term_ptr).tolist(), n_docs)
    return InvertedIndex(vocab, Postings(term_ptr, doc_ids, tf), doc_norms)
