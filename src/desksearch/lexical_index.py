"""Inverted index over tf-idf vectors with cosine-scored top-k retrieval.

Postings map term id -> [(doc id, term frequency), ...] sorted by doc id.
Scores are cosine similarities between the query's tf-idf vector and each
document's, computed by postings traversal; documents whose score is exactly
zero are omitted.  Because idf can be negative, scores live in [-1, 1].
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .io_utils import atomic_write_text
from .text_pipeline import Vocabulary, idf, tfidf_vectorize

INDEX_FORMAT = "desksearch-lexical-index"
INDEX_VERSION = 1


class Posting(NamedTuple):
    doc_id: int
    tf: int


class SearchHit(NamedTuple):
    doc_id: int
    score: float


@dataclass
class InvertedIndex:
    vocabulary: Vocabulary = field(default_factory=Vocabulary)
    postings: list[list[Posting]] = field(default_factory=list)  # indexed by term id
    doc_norms: list[float] = field(default_factory=list)  # L2 norm of each doc's tf-idf vector
    n_docs: int = 0


def build_index(docs: list[list[str]]) -> InvertedIndex:
    """Build vocabulary, postings, and per-document tf-idf norms in one pass.

    Doc ids are dense insertion-order integers; the result is deterministic.
    """
    from .text_pipeline import build_vocabulary

    vocab = build_vocabulary(docs)
    postings: list[list[Posting]] = [[] for _ in range(vocab.size)]
    for doc_id, tokens in enumerate(docs):
        for token, tf in Counter(tokens).items():
            postings[vocab.term_to_id[token]].append(Posting(doc_id, tf))

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
        n_docs=len(docs),
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
    """Write the index as a single versioned JSON file (atomically)."""
    payload = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "n_docs": index.n_docs,
        "terms": index.vocabulary.id_to_term(),
        "doc_freq": index.vocabulary.doc_freq,
        "postings": [[[doc_id, tf] for doc_id, tf in plist] for plist in index.postings],
        "doc_norms": index.doc_norms,
    }
    atomic_write_text(Path(path), json.dumps(payload) + "\n")


def load_index(path: str | Path) -> InvertedIndex:
    """Read a ``save_index`` file.  Malformed JSON, a missing key or a value of
    the wrong type raises ValueError naming the file."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # malformed JSON or not UTF-8
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != INDEX_FORMAT:
        raise ValueError(f"{path}: not a lexical index file")
    if payload.get("version") != INDEX_VERSION:
        raise ValueError(f"{path}: unsupported index version {payload.get('version')}")
    try:
        terms = payload["terms"]
        vocab = Vocabulary(
            term_to_id={term: tid for tid, term in enumerate(terms)},
            doc_freq=list(payload["doc_freq"]),
            n_docs=payload["n_docs"],
        )
        return InvertedIndex(
            vocabulary=vocab,
            postings=[[Posting(d, tf) for d, tf in plist] for plist in payload["postings"]],
            doc_norms=[float(x) for x in payload["doc_norms"]],
            n_docs=payload["n_docs"],
        )
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed lexical index: {exc}") from None
