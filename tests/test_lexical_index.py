import dataclasses
import math
import random
import tempfile
from pathlib import Path

import pytest
from conftest import WORDS, corrupt_artifact, faults_of, random_corpus
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_lexical

from desksearch.lexical_index import (
    InvertedIndex,
    build_index,
    load_index,
    save_index,
    search_lexical,
)
from desksearch.text_pipeline import tokenize


def corpus_of(*texts):
    return [tokenize(t) for t in texts]


class TestBuildIndex:
    def test_two_document_example(self):
        idx = build_index([["a"], ["a", "b"]])
        a_id = idx.vocabulary.term_to_id["a"]
        b_id = idx.vocabulary.term_to_id["b"]
        assert idx.postings[a_id] == [[0, 1], [1, 1]]
        assert idx.postings[b_id] == [[1, 1]]
        assert idx.vocabulary.n_docs == 2

    def test_term_frequency_counted(self):
        idx = build_index([["x", "x", "y", "x"]])
        x_id = idx.vocabulary.term_to_id["x"]
        assert idx.postings[x_id] == [[0, 3]]

    def test_postings_sorted_by_doc_id(self):
        docs = random_corpus(random.Random(3), 40)
        idx = build_index(docs)
        for plist in idx.postings:
            ids = [doc_id for doc_id, _ in plist]
            assert ids == sorted(ids)

    def test_empty_corpus(self):
        idx = build_index([])
        assert idx.vocabulary.n_docs == 0
        assert idx.postings == []

    def test_doc_norms_match_vector_norms(self):
        # norm stored per doc must equal the tf-idf vector's own norm
        from oracles import naive_tfidf

        docs = random_corpus(random.Random(4), 25)
        idx = build_index(docs)
        vecs = naive_tfidf(docs)
        for doc_id, vec in enumerate(vecs):
            expected = math.sqrt(sum(w * w for w in vec.values()))
            assert idx.doc_norms[doc_id] == pytest.approx(expected, abs=1e-12)

    def test_rebuild_identical(self):
        docs = random_corpus(random.Random(5), 30)
        a, b = build_index(docs), build_index(docs)
        assert a.postings == b.postings
        assert a.doc_norms == b.doc_norms
        assert a.vocabulary.term_to_id == b.vocabulary.term_to_id


@pytest.fixture(scope="module")
def small_index():
    docs = corpus_of(
        "fresh basil pasta with garlic",
        "garlic bread and basil soup",
        "chocolate dessert menu",
        "pasta pasta pasta",
    )
    return build_index(docs), docs


class TestSearchLexical:
    def test_self_query_ranks_itself_first(self, small_index):
        idx, docs = small_index
        for doc_id, doc in enumerate(docs):
            hits = search_lexical(idx, doc, k=4)
            assert hits[0].doc_id == doc_id

    def test_out_of_vocabulary_query(self, small_index):
        idx, _ = small_index
        assert search_lexical(idx, ["zzzzz"], k=5) == []

    def test_empty_query(self, small_index):
        idx, _ = small_index
        assert search_lexical(idx, [], k=5) == []

    def test_k_larger_than_corpus(self, small_index):
        idx, docs = small_index
        hits = search_lexical(idx, docs[0], k=100)
        assert len(hits) <= len(docs)

    def test_k_below_one_rejected(self, small_index):
        idx, docs = small_index
        with pytest.raises(ValueError):
            search_lexical(idx, docs[0], k=0)

    def test_scores_within_cosine_range(self):
        docs = random_corpus(random.Random(6), 60)
        idx = build_index(docs)
        for doc in docs[:20]:
            for hit in search_lexical(idx, doc, k=60):
                assert -1.0 - 1e-9 <= hit.score <= 1.0 + 1e-9

    def test_descending_scores_with_doc_id_tiebreak(self):
        docs = random_corpus(random.Random(7), 60)
        idx = build_index(docs)
        for doc in docs[:20]:
            hits = search_lexical(idx, doc, k=60)
            keys = [(-h.score, h.doc_id) for h in hits]
            assert keys == sorted(keys)

    def test_top_k_is_prefix_of_full_ranking(self):
        docs = random_corpus(random.Random(8), 50)
        idx = build_index(docs)
        for doc in docs[:10]:
            full = search_lexical(idx, doc, k=50)
            assert search_lexical(idx, doc, k=5) == full[:5]

    def test_matches_brute_force_oracle(self):
        for seed in range(5):
            rng = random.Random(100 + seed)
            docs = random_corpus(rng, 80)
            idx = build_index(docs)
            for doc in docs[:15]:
                got = search_lexical(idx, doc, k=80)
                want = brute_force_lexical(docs, doc, k=80)
                assert [h.doc_id for h in got] == [d for d, _ in want]
                for (_, ws), h in zip(want, got):
                    assert h.score == pytest.approx(ws, abs=1e-9)

    def test_zero_score_docs_omitted(self):
        # doc 2 shares no terms with the query and must not appear
        docs = corpus_of("apple banana", "apple cherry", "date fig")
        idx = build_index(docs)
        hits = search_lexical(idx, ["apple"], k=10)
        assert 2 not in {h.doc_id for h in hits}

    def test_negative_idf_terms_still_match(self):
        # "the" appears in all 3 docs so idf = log(3/4) < 0, yet each matched
        # term contributes tf_q * tf_d * idf^2 >= 0 to the dot product, so
        # the docs are found and their scores stay non-negative
        docs = corpus_of("the apple", "the banana", "the cherry")
        idx = build_index(docs)
        hits = search_lexical(idx, ["the"], k=3)
        assert len(hits) == 3
        assert all(h.score > 0 for h in hits)

    def test_scores_never_negative(self):
        docs = random_corpus(random.Random(12), 80, vocab=WORDS[:8])
        idx = build_index(docs)
        for doc in docs:
            assert all(h.score >= 0 for h in search_lexical(idx, doc, k=80))


class TestPersistence:
    def test_round_trip_preserves_results(self, tmp_path):
        docs = random_corpus(random.Random(9), 40)
        idx = build_index(docs)
        path = tmp_path / "index.json"
        save_index(idx, path)
        loaded = load_index(path)
        for doc in docs[:10]:
            assert search_lexical(loaded, doc, k=40) == search_lexical(idx, doc, k=40)

    def test_round_trip_preserves_structures(self, tmp_path):
        docs = random_corpus(random.Random(10), 20)
        idx = build_index(docs)
        path = tmp_path / "index.json"
        save_index(idx, path)
        loaded = load_index(path)
        assert loaded.vocabulary.n_docs == idx.vocabulary.n_docs
        assert loaded.postings == idx.postings
        assert loaded.doc_norms == pytest.approx(idx.doc_norms, abs=0)
        assert loaded.vocabulary.term_to_id == idx.vocabulary.term_to_id
        assert loaded.vocabulary.doc_freq == idx.vocabulary.doc_freq

    @given(
        st.lists(st.lists(st.sampled_from(WORDS[:6]), max_size=6), max_size=10),
        st.integers(0, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, docs, trailing_empty):
        # Empty docs, trailing ones included, count toward n_docs with a zero norm.
        docs = docs + [[]] * trailing_empty
        idx = build_index(docs)
        with tempfile.TemporaryDirectory() as tmp:
            save_index(idx, Path(tmp) / "lexical_index.json")
            loaded = load_index(Path(tmp) / "lexical_index.json")
        for field in dataclasses.fields(InvertedIndex):
            assert getattr(loaded, field.name) == getattr(idx, field.name), field.name
        assert loaded.vocabulary.n_docs == len(docs)
        k = len(docs) + 1
        for query in [*docs, WORDS[:6], ["zzz"]]:
            assert search_lexical(loaded, query, k) == search_lexical(idx, query, k)

    def test_save_is_deterministic(self, tmp_path):
        docs = random_corpus(random.Random(11), 20)
        idx = build_index(docs)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_index(idx, p1)
        save_index(idx, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(ValueError):
            load_index(path)

    @pytest.mark.parametrize("fault", faults_of("lexical_"))
    def test_corrupt_file_rejected(self, tmp_path, fault):
        idx = build_index(random_corpus(random.Random(12), 20))
        save_index(idx, tmp_path / "lexical_index.json")
        name, message = corrupt_artifact(tmp_path, fault)
        with pytest.raises(ValueError, match=message) as exc:
            load_index(tmp_path / name)
        assert name in str(exc.value)

    def test_unknown_version_rejected(self, tmp_path):
        docs = corpus_of("a b")
        idx = build_index(docs)
        path = tmp_path / "index.json"
        save_index(idx, path)
        import json

        payload = json.loads(path.read_text())
        payload["version"] = 42
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_index(path)
