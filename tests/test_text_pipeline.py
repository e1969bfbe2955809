import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desksearch.text_pipeline import (
    SparseVector,
    TokenizerConfig,
    Vocabulary,
    build_vocabulary,
    count_vectorize,
    idf,
    tfidf_vectorize,
    tokenize,
)
from conftest import WORDS, random_corpus
from oracles import naive_term_ids, naive_tfidf


class TestTokenize:
    def test_punctuation_stripped(self):
        assert tokenize("Wow! Yummy, different, delicious.") == [
            "wow", "yummy", "different", "delicious",
        ]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_min_token_len_one_keeps_single_chars(self):
        assert tokenize("a a a", TokenizerConfig(min_token_len=1)) == ["a", "a", "a"]

    def test_min_token_len_drops_short_tokens(self):
        assert tokenize("a bb ccc", TokenizerConfig(min_token_len=2)) == ["bb", "ccc"]

    def test_no_lowercase(self):
        assert tokenize("Wow Wow", TokenizerConfig(lowercase=False)) == ["Wow", "Wow"]

    def test_underscore_is_not_alphanumeric(self):
        assert tokenize("foo_bar") == ["foo", "bar"]

    def test_digits_kept(self):
        assert tokenize("5 stars in 2019") == ["5", "stars", "in", "2019"]

    def test_invalid_min_token_len(self):
        with pytest.raises(ValueError):
            TokenizerConfig(min_token_len=0)

    @given(st.text(max_size=200))
    def test_idempotent_under_lowercasing(self, text):
        cfg = TokenizerConfig(lowercase=True)
        assert tokenize(text.lower(), cfg) == tokenize(text, cfg)

    @given(st.text(max_size=200))
    def test_deterministic(self, text):
        assert tokenize(text) == tokenize(text)


class TestVocabulary:
    def test_first_occurrence_ids_and_df(self):
        vocab = build_vocabulary([["a", "b"], ["b"]])
        assert vocab.size == 2
        assert vocab.term_to_id == {"a": 0, "b": 1}
        assert vocab.doc_freq == [1, 2]
        assert vocab.n_docs == 2

    def test_empty_corpus(self):
        vocab = build_vocabulary([])
        assert vocab.size == 0
        assert vocab.n_docs == 0

    def test_df_is_document_level(self):
        vocab = build_vocabulary([["x", "x", "x"]])
        assert vocab.doc_freq[vocab.term_to_id["x"]] == 1

    def test_id_to_term_roundtrip(self):
        vocab = build_vocabulary([["c", "a", "b"], ["a"]])
        terms = vocab.id_to_term()
        assert all(vocab.term_to_id[t] == i for i, t in enumerate(terms))


class TestSparseVector:
    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError):
            SparseVector(dimension=5, indices=(3, 1), values=(1.0, 1.0))

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            SparseVector(dimension=2, indices=(2,), values=(1.0,))

    def test_rejects_stored_zero(self):
        with pytest.raises(ValueError):
            SparseVector(dimension=2, indices=(0,), values=(0.0,))

    def test_norm(self):
        a = SparseVector(dimension=4, indices=(0, 2), values=(1.0, 2.0))
        assert a.norm() == pytest.approx(math.sqrt(5.0))


class TestCountVectorize:
    def test_counts(self):
        vocab = build_vocabulary([["a"], ["b"]])
        v = count_vectorize(["b", "a", "b"], vocab)
        assert v.entries() == [(0, 1), (1, 2)]

    def test_empty_tokens(self):
        vocab = build_vocabulary([["a"]])
        assert count_vectorize([], vocab).entries() == []

    def test_oov_ignored(self):
        vocab = build_vocabulary([["a"]])
        assert count_vectorize(["zzz"], vocab).entries() == []


class TestIdf:
    def test_df_one_below_n_gives_zero(self):
        vocab = Vocabulary(term_to_id={"t": 0}, doc_freq=[2], n_docs=3)
        assert idf(0, vocab) == 0.0

    def test_hand_value(self):
        vocab = Vocabulary(term_to_id={"t": 0}, doc_freq=[4], n_docs=10)
        assert idf(0, vocab) == pytest.approx(0.693147, abs=1e-6)

    def test_negative_idf_not_clamped(self):
        vocab = Vocabulary(term_to_id={"t": 0}, doc_freq=[3], n_docs=3)
        assert idf(0, vocab) == pytest.approx(-0.287682, abs=1e-6)

    def test_unknown_term_id(self):
        vocab = Vocabulary(term_to_id={"t": 0}, doc_freq=[1], n_docs=1)
        with pytest.raises(KeyError):
            idf(1, vocab)


class TestTfidfVectorize:
    def test_zero_product_dropped(self):
        # df(b)=1 in a 2-doc corpus: idf = log(2/2) = 0, entry disappears
        vocab = build_vocabulary([["b", "b"], ["c"]])
        v = tfidf_vectorize(["b", "b"], vocab)
        assert v.entries() == []

    def test_single_term_weight(self):
        vocab = Vocabulary(term_to_id={"a": 0}, doc_freq=[4], n_docs=10)
        v = tfidf_vectorize(["a"], vocab)
        assert v.entries() == [(0, pytest.approx(0.693147, abs=1e-6))]

    def test_empty_doc(self):
        vocab = build_vocabulary([["a"]])
        assert tfidf_vectorize([], vocab).entries() == []

    def test_weight_is_count_times_idf(self):
        rng = random.Random(7)
        corpus = random_corpus(rng, 30)
        vocab = build_vocabulary(corpus)
        for doc in corpus[:10]:
            counts = count_vectorize(doc, vocab).to_dict()
            for tid, w in tfidf_vectorize(doc, vocab).entries():
                assert w == counts[tid] * idf(tid, vocab)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_double_loop(self, seed):
        rng = random.Random(seed)
        corpus = random_corpus(rng, rng.randint(1, 100))
        vocab = build_vocabulary(corpus)
        expected = naive_tfidf(corpus)
        assert naive_term_ids(corpus) == vocab.term_to_id
        for doc, want in zip(corpus, expected):
            got = tfidf_vectorize(doc, vocab).to_dict()
            assert got.keys() == want.keys()
            for tid in want:
                assert got[tid] == pytest.approx(want[tid], abs=1e-12)


@given(st.lists(st.lists(st.sampled_from(WORDS), max_size=8), max_size=15))
def test_entries_strictly_ascending_everywhere(corpus):
    vocab = build_vocabulary(corpus)
    for doc in corpus:
        for vec in (count_vectorize(doc, vocab), tfidf_vectorize(doc, vocab)):
            assert list(vec.indices) == sorted(set(vec.indices))


def naive_vocabulary(corpus: list[list[str]]) -> tuple[list[tuple[str, int]], list[int]]:
    """Ids in first-occurrence order and each term's document frequency, one
    document and one token at a time."""
    term_to_id: dict[str, int] = {}
    doc_freq: list[int] = []
    for doc in corpus:
        seen = set()
        for token in doc:
            if token not in term_to_id:
                term_to_id[token] = len(term_to_id)
                doc_freq.append(0)
            if token not in seen:
                seen.add(token)
                doc_freq[term_to_id[token]] += 1
    return list(term_to_id.items()), doc_freq


TOKENS = st.one_of(
    st.sampled_from(WORDS[:6] + ["café", "日本", "naïve", "\U0001f600", "ß"]),
    st.text(min_size=1, max_size=4),
)


@given(st.lists(st.lists(TOKENS, max_size=12), max_size=15))
@settings(max_examples=300, deadline=None)
def test_vocabulary_matches_a_naive_loop(corpus):
    """Empty documents, tokens repeated within and across documents, and
    non-ASCII tokens: the same ids in the same insertion order, the same df."""
    vocab = build_vocabulary(corpus)
    items, doc_freq = naive_vocabulary(corpus)
    assert list(vocab.term_to_id.items()) == items
    assert vocab.doc_freq == doc_freq and vocab.n_docs == len(corpus)
