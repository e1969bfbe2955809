"""Inverted index over tf-idf vectors with cosine-scored top-k retrieval.

Postings map term id -> [[doc id, term frequency], ...] sorted by doc id.
Scores are cosine similarities between the query's tf-idf vector and each
document's, computed by postings traversal; documents whose score is exactly
zero are omitted.  Because idf can be negative, scores live in [-1, 1].
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .io_utils import read_artifact, write_artifact
from .text_pipeline import Vocabulary, idf, tfidf_vectorize

INDEX_FORMAT = "desksearch-lexical-index"
INDEX_VERSION = 2


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


@dataclass
class InvertedIndex:
    vocabulary: Vocabulary = field(default_factory=Vocabulary)
    postings: list[list[list[int]]] = field(default_factory=list)  # term id -> [[doc id, tf], ...]
    doc_norms: list[float] = field(default_factory=list)  # L2 norm of each doc's tf-idf vector


def build_index(docs: list[list[str]]) -> InvertedIndex:
    """Build vocabulary, postings, and per-document tf-idf norms in one pass.

    Doc ids are dense insertion-order integers; the result is deterministic.
    """
    from .text_pipeline import build_vocabulary

    vocab = build_vocabulary(docs)
    postings: list[list[list[int]]] = [[] for _ in range(vocab.size)]
    for doc_id, tokens in enumerate(docs):
        for token, tf in Counter(tokens).items():
            postings[vocab.term_to_id[token]].append([doc_id, tf])

    idf_by_term = [idf(tid, vocab) for tid in range(vocab.size)]
    sq_norms = [0.0] * len(docs)
    for tid, plist in enumerate(postings):
        term_idf = idf_by_term[tid]
        for doc_id, tf in plist:
            w = tf * term_idf
            sq_norms[doc_id] += w * w
    return InvertedIndex(
        vocabulary=vocab,
        postings=postings,
        doc_norms=[math.sqrt(s) for s in sq_norms],
    )


def search_lexical(index: InvertedIndex, query_tokens: list[str], k: int) -> list[SearchHit]:
    """Top-k documents by cosine(tfidf(query), tfidf(doc)) via postings traversal."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query = tfidf_vectorize(query_tokens, index.vocabulary)
    query_norm = query.norm()
    if query_norm == 0.0:
        return []

    dots: dict[int, float] = {}
    for tid, q_weight in zip(query.indices, query.values):
        term_idf = idf(tid, index.vocabulary)
        for doc_id, tf in index.postings[tid]:
            dots[doc_id] = dots.get(doc_id, 0.0) + q_weight * (tf * term_idf)

    hits = []
    for doc_id, dot in dots.items():
        doc_norm = index.doc_norms[doc_id]
        if dot == 0.0 or doc_norm == 0.0:
            continue
        hits.append(SearchHit(doc_id, dot / (query_norm * doc_norm)))
    hits.sort(key=lambda h: (-h.score, h.doc_id))
    return hits[:k]


def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Write the index as one header line with no payload (atomically)."""
    fields = {
        "terms": index.vocabulary.id_to_term(),
        "postings": index.postings,
        "doc_norms": index.doc_norms,
    }
    write_artifact(path, INDEX_FORMAT, INDEX_VERSION, fields)


def load_index(path: str | Path) -> InvertedIndex:
    """Read a ``save_index`` file; df and n_docs are derived from it.  A bad header,
    a missing key, a value of the wrong type, a posting that does not fit the
    terms and doc norms or a payload raises ValueError naming the file."""
    header, payload = read_artifact(path, INDEX_FORMAT, INDEX_VERSION)
    try:
        terms, postings, doc_norms = header["terms"], header["postings"], header["doc_norms"]
        if payload:
            raise ValueError(f"{len(payload)} bytes after the header")
        term_to_id = {term: tid for tid, term in enumerate(terms)}
        if len(term_to_id) != len(terms) or not all(type(term) is str for term in terms):
            raise ValueError("terms must be unique strings")
        if len(postings) != len(terms) or not all(postings):
            raise ValueError("each term needs one non-empty postings list")
        if not all(type(x) is float and 0.0 <= x < math.inf for x in doc_norms):
            raise ValueError("doc_norms must be finite non-negative floats")
        n_docs = len(doc_norms)
        for term, plist in zip(terms, postings):
            prev = -1
            for doc_id, tf in plist:
                if not (
                    type(doc_id) is type(tf) is int and prev < doc_id < n_docs and 0 < tf < 2**31
                ):
                    raise ValueError(
                        f"term {term!r}: [{doc_id}, {tf}] is not [doc id, 1 <= tf < 2**31] with "
                        f"doc ids increasing within [0, {n_docs})"
                    )
                prev = doc_id
        vocab = Vocabulary(term_to_id, [len(plist) for plist in postings], n_docs)
        return InvertedIndex(vocab, postings, doc_norms)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed lexical index: {exc}") from None
