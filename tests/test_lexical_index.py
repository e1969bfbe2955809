import dataclasses
import json
import math
import random
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
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
        assert idx.postings[a_id].tolist() == [[0, 1], [1, 1]]
        assert idx.postings[b_id].tolist() == [[1, 1]]
        assert idx.vocabulary.n_docs == 2

    def test_term_frequency_counted(self):
        idx = build_index([["x", "x", "y", "x"]])
        x_id = idx.vocabulary.term_to_id["x"]
        assert idx.postings[x_id].tolist() == [[0, 3]]

    def test_postings_sorted_by_doc_id(self):
        docs = random_corpus(random.Random(3), 40)
        idx = build_index(docs)
        for plist in idx.postings:
            ids = [doc_id for doc_id, _ in plist]
            assert ids == sorted(ids)

    def test_empty_corpus(self):
        idx = build_index([])
        assert idx.vocabulary.n_docs == 0
        assert len(idx.postings) == 0 and len(idx.doc_norms) == 0

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
        assert a.doc_norms.tolist() == b.doc_norms.tolist()
        assert a.vocabulary.term_to_id == b.vocabulary.term_to_id


def tied_reference(docs, query):
    """Every (doc_id, cosine) with a nonzero score, fully sorted by (-score,
    doc_id).  Term ids follow first occurrence; each sum runs in term-id order
    from 0.0, and each product and quotient groups as search_lexical's do."""
    term_ids = {}
    for doc in docs:
        for token in doc:
            term_ids.setdefault(token, len(term_ids))
    counts = [Counter(doc) for doc in docs]
    idf = {t: math.log(len(docs) / (1 + sum(t in c for c in counts))) for t in term_ids}
    q_counts = Counter(t for t in query if t in term_ids)
    q = sorted((term_ids[t], t, q_counts[t] * idf[t]) for t in q_counts)
    q = [(t, w) for _, t, w in q if w != 0.0]
    q_norm = math.sqrt(sum(w * w for _, w in q))
    if q_norm == 0.0:
        return []
    hits = []
    for doc_id, c in enumerate(counts):
        dot = sq = 0.0
        for t, w in q:
            if t in c:
                dot = dot + w * (c[t] * idf[t])
        for t in sorted(c, key=term_ids.get):
            sq += (c[t] * idf[t]) * (c[t] * idf[t])
        norm = math.sqrt(sq)
        if dot != 0.0 and norm != 0.0:
            hits.append((doc_id, dot / (q_norm * norm)))
    return sorted(hits, key=lambda h: (-h[1], h[0]))


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

    @given(
        shapes=st.lists(st.lists(st.sampled_from(WORDS[:4]), max_size=4), min_size=1, max_size=3),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_ties_rank_as_a_full_sort(self, shapes, data):
        """Docs repeat a few token lists, so scores tie exactly; at every k the
        hits are a full (-score, doc_id) sort of the cosine recomputed here in
        the production operation order, compared bit for bit."""
        docs = data.draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=40), label="docs")
        query = data.draw(st.lists(st.sampled_from(WORDS[:5]), min_size=1, max_size=4), label="q")
        k = data.draw(st.integers(1, len(docs) + 2), label="k")
        got = search_lexical(build_index(docs), query, k)
        want = tied_reference(docs, query)[:k]
        assert [(h.doc_id, h.score.hex()) for h in got] == [(d, s.hex()) for d, s in want]


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
            got, want = getattr(loaded, field.name), getattr(idx, field.name)
            if isinstance(want, np.ndarray):
                got, want = got.tolist(), want.tolist()
            assert got == want, field.name
        assert loaded.vocabulary.n_docs == len(docs)
        k = len(docs) + 1
        for query in [*docs, WORDS[:6], ["zzz"]]:
            assert search_lexical(loaded, query, k) == search_lexical(idx, query, k)

    @pytest.mark.parametrize("docs", [[], [[]], [[], []]])
    def test_index_with_no_terms_round_trips(self, tmp_path, docs):
        save_index(build_index(docs), tmp_path / "lexical_index.json")
        loaded = load_index(tmp_path / "lexical_index.json")
        assert loaded.vocabulary.n_docs == len(docs) and len(loaded.postings) == 0
        assert loaded.doc_norms.tolist() == [0.0] * len(docs)
        assert search_lexical(loaded, ["a"], 3) == []

    def test_header_fields_and_aligned_payload(self, tmp_path):
        idx = build_index(corpus_of("b a", "a c a", "d"))
        save_index(idx, tmp_path / "lexical_index.json")
        raw = (tmp_path / "lexical_index.json").read_bytes()
        newline = raw.index(b"\n")
        assert json.loads(raw[:newline]) == {
            "format": "desksearch-lexical-index", "version": 3,
            "terms": ["b", "a", "c", "d"], "n_docs": 3, "n_postings": 5,
        }
        assert (newline + 1) % 8 == 0
        payload = raw[newline + 1 :]
        assert np.frombuffer(payload, "<i8", 5).tolist() == [0, 1, 3, 4, 5]
        assert np.frombuffer(payload, "<f8", 3, 40).tolist() == idx.doc_norms.tolist()
        assert np.frombuffer(payload, "<i4", 5, 64).tolist() == [0, 0, 1, 1, 2]
        assert np.frombuffer(payload, "<i4", 5, 84).tolist() == [1, 1, 2, 1, 1]
        assert len(payload) == 104

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
        raw = path.read_bytes()
        newline = raw.index(b"\n")
        header = {**json.loads(raw[:newline]), "version": 42}
        path.write_bytes(json.dumps(header).encode("utf-8") + raw[newline:])
        with pytest.raises(ValueError, match="unsupported desksearch-lexical-index version 42"):
            load_index(path)
