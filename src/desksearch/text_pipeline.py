"""Tokenization, vocabulary building, and sparse bag-of-words / tf-idf vectors.

Weighting follows the classic convention: tf is the raw occurrence count of a
term within one document, and idf(t) = log(n / (1 + df(t))) with natural log.
No smoothing and no clamping, so idf can be zero or negative when a term
appears in (almost) every document; zero-weight entries are never stored.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain

from .io_utils import require_int

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)  # alphanumeric runs, no underscore


@dataclass(frozen=True)
class TokenizerConfig:
    lowercase: bool = True
    min_token_len: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.lowercase, bool):
            raise ValueError(f"lowercase must be true or false, got {self.lowercase!r}")
        require_int("min_token_len", self.min_token_len, 1)


def tokenize(text: str, cfg: TokenizerConfig = TokenizerConfig()) -> list[str]:
    """Split text into maximal alphanumeric runs, dropping short tokens."""
    if cfg.lowercase:
        text = text.lower()
    tokens = _TOKEN_RE.findall(text)
    if cfg.min_token_len > 1:
        tokens = [t for t in tokens if len(t) >= cfg.min_token_len]
    return tokens


@dataclass
class Vocabulary:
    """Term -> dense id mapping plus document-frequency statistics.

    Ids are assigned in first-occurrence order over the corpus that built the
    vocabulary.  ``doc_freq[i]`` is the number of documents containing the term
    with id ``i`` at least once; ``n_docs`` is the corpus size.  ``term_to_id``
    is any read-only mapping: ``build_vocabulary`` fills a dict, and
    ``lexical_index.load_index`` gives a sorted ``TermTable``.
    """

    term_to_id: Mapping[str, int] = field(default_factory=dict)
    doc_freq: list[int] = field(default_factory=list)
    n_docs: int = 0

    @property
    def size(self) -> int:
        return len(self.term_to_id)

    def id_to_term(self) -> list[str]:
        terms = [""] * self.size
        for term, tid in self.term_to_id.items():
            terms[tid] = term
        return terms


def build_vocabulary(corpus: list[list[str]]) -> Vocabulary:
    """Assign ids in first-occurrence order and count document frequencies:
    one pass over the tokens, one over each document's set of them."""
    terms = dict.fromkeys(chain.from_iterable(corpus))
    doc_freq = Counter(chain.from_iterable(map(set, corpus)))
    term_to_id = dict(zip(terms, range(len(terms))))
    return Vocabulary(term_to_id, [doc_freq[t] for t in terms], len(corpus))


@dataclass(frozen=True)
class SparseVector:
    """Sorted (term-id, weight) pairs over a fixed-dimension term space.

    Invariants: indices strictly increasing, all below ``dimension``, and no
    stored weight is zero.
    """

    dimension: int
    indices: tuple[int, ...] = ()
    values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.dimension < 0:
            raise ValueError("dimension must be non-negative")
        if len(self.indices) != len(self.values):
            raise ValueError("indices and values length mismatch")
        prev = -1
        for idx, val in zip(self.indices, self.values):
            if idx <= prev:
                raise ValueError("indices must be strictly increasing")
            if idx >= self.dimension:
                raise ValueError(f"index {idx} out of range for dimension {self.dimension}")
            if val == 0:
                raise ValueError("zero-valued entries must not be stored")
            prev = idx

    def entries(self) -> list[tuple[int, float]]:
        return list(zip(self.indices, self.values))

    def to_dict(self) -> dict[int, float]:
        return dict(zip(self.indices, self.values))

    def norm(self) -> float:
        return math.sqrt(sum(v * v for v in self.values))


def _from_pairs(dimension: int, pairs: dict[int, float]) -> SparseVector:
    items = sorted((i, w) for i, w in pairs.items() if w != 0)
    return SparseVector(
        dimension=dimension,
        indices=tuple(i for i, _ in items),
        values=tuple(w for _, w in items),
    )


def token_ids(tokens: list[str], vocab: Vocabulary) -> list[int]:
    """The ids of a document's or a query's in-vocabulary tokens, in order:
    one ``get`` per token."""
    get = vocab.term_to_id.get
    return [tid for t in tokens if (tid := get(t)) is not None]


def count_vectorize(tokens: list[str], vocab: Vocabulary) -> SparseVector:
    """Raw occurrence counts over the vocabulary; out-of-vocabulary tokens ignored."""
    return _from_pairs(vocab.size, Counter(token_ids(tokens, vocab)))


def idf(term_id: int, vocab: Vocabulary) -> float:
    """Inverse document frequency, log(n / (1 + df)).  May be zero or negative."""
    if not 0 <= term_id < vocab.size:
        raise KeyError(f"term id {term_id} not in vocabulary of size {vocab.size}")
    return math.log(vocab.n_docs / (1 + vocab.doc_freq[term_id]))


def tfidf_vectorize(tokens: list[str], vocab: Vocabulary) -> SparseVector:
    """Per-term weight tf(t, d) * idf(t); exactly-zero products are dropped."""
    counts = count_vectorize(tokens, vocab)
    pairs = {tid: tf * idf(tid, vocab) for tid, tf in counts.entries()}
    return _from_pairs(vocab.size, pairs)
