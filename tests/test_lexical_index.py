import dataclasses
import json
import math
import operator
import random
import tempfile
from collections import Counter
from collections.abc import Mapping
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from conftest import WORDS, corrupt_artifact, faults_of, random_corpus
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import brute_force_lexical, naive_postings

from desksearch.lexical_index import (
    InvertedIndex,
    Postings,
    TermTable,
    build_index,
    load_index,
    save_index,
    search_lexical,
)
from desksearch.text_pipeline import tokenize


def corpus_of(*texts):
    return [tokenize(t) for t in texts]


def postings_arrays(postings):
    """The three CSR arrays of a Postings, as lists that compare by value."""
    return [postings.term_ptr.tolist(), postings.doc_ids.tolist(), postings.tf.tolist()]


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
        p = idx.postings
        for lo, hi in zip(p.term_ptr[:-1], p.term_ptr[1:]):
            ids = p.doc_ids[lo:hi].tolist()
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

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.sampled_from("abcdefg"), max_size=8), max_size=12))
    def test_postings_match_the_naive_postings(self, docs):
        idx = build_index(docs)
        naive = naive_postings(docs)
        assert idx.postings.doc_ids.dtype == idx.postings.tf.dtype == np.int32
        assert {t: idx.postings[tid].tolist() for t, tid in idx.vocabulary.term_to_id.items()} == {
            t: [list(pair) for pair in plist] for t, plist in naive.items()
        }

    def test_posting_keys_that_overflow_int64_rejected(self, monkeypatch):
        """Each (term, doc) key is term * n_docs + doc in int64; a vocabulary
        too large for that is refused, not wrapped around."""
        import desksearch.text_pipeline as text_pipeline

        class Huge(dict):
            def __len__(self):
                return 2**62

        monkeypatch.setattr(
            text_pipeline, "build_vocabulary", lambda docs: text_pipeline.Vocabulary(Huge(), [], 2)
        )
        with pytest.raises(ValueError, match="overflow the int64 posting keys"):
            build_index([["a"], ["b"]])

    def test_rebuild_identical(self):
        docs = random_corpus(random.Random(5), 30)
        a, b = build_index(docs), build_index(docs)
        assert postings_arrays(a.postings) == postings_arrays(b.postings)
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
        assert postings_arrays(loaded.postings) == postings_arrays(idx.postings)
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
            if isinstance(want, Postings):
                got, want = postings_arrays(got), postings_arrays(want)
            elif isinstance(want, np.ndarray):
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
            "format": "desksearch-lexical-index", "version": 4,
            "n_terms": 4, "n_docs": 3, "n_postings": 5, "term_bytes": 7,
        }
        assert (newline + 1) % 8 == 0
        payload = raw[newline + 1 :]
        assert np.frombuffer(payload, "<i8", 5).tolist() == [0, 1, 3, 4, 5]
        assert np.frombuffer(payload, "<f8", 3, 40).tolist() == idx.doc_norms.tolist()
        assert np.frombuffer(payload, "<i4", 5, 64).tolist() == [0, 0, 1, 1, 2]
        assert np.frombuffer(payload, "<i4", 5, 84).tolist() == [1, 1, 2, 1, 1]
        # Ids by first occurrence are b a c d; term_ids lists them in sorted order.
        assert np.frombuffer(payload, "<i4", 4, 104).tolist() == [1, 0, 2, 3]
        assert payload[120:] == b"a\0b\0c\0d"

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


# Prefix pairs, and code points whose UTF-16 order is not their code-point
# order (U+FFFF sorts after U+10000 in UTF-16).
EDGE_TERMS = ["a", "ab", "abc", "b", "é", "éa", "\uffff", "\U00010000", "\U0001f600", "z\u2028"]
TERMS = st.one_of(
    st.sampled_from(EDGE_TERMS),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
            min_size=1, max_size=4),
)


# Terms that tie on their first 8, 16 or 32 UTF-8 bytes, end at or across a
# window edge (the 2- to 4-byte characters), or are a prefix of another.
SHARED_STEMS = [
    "", "abcdefg", "abcdefgh", "abcdefg\u00e9", "abcdefghijklmno", "abcdefghijklmnop",
    "abcdefghijklmnopqrstuvwxyz01234", "abcdefghijklmnopqrstuvwxyz012345",
]
LONG_TERMS = st.builds(
    operator.add,
    st.sampled_from(SHARED_STEMS),
    st.text(st.sampled_from(["a", "b", "\u00e9", "\u20ac", "\uffff", "\U00010000", "\U0001f600"]),
            max_size=10),
)


def python_rises(terms) -> bool:
    return all(map(operator.lt, terms, islice(terms, 1, None)))


class TestTermTable:
    @given(
        docs=st.lists(st.lists(TERMS, max_size=6), max_size=8),
        absent=st.lists(TERMS, max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_loaded_table_equals_the_built_dict(self, docs, absent):
        idx = build_index(docs)
        built = idx.vocabulary.term_to_id
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "lexical_index.json"
            save_index(idx, path)
            raw = path.read_bytes()
            loaded = load_index(path)
            save_index(loaded, path)
            assert path.read_bytes() == raw
        table = loaded.vocabulary.term_to_id
        assert isinstance(table, Mapping) and table == built and built == table
        assert len(table) == loaded.vocabulary.size == len(built)
        assert loaded.vocabulary.id_to_term() == idx.vocabulary.id_to_term()
        for term, tid in built.items():
            assert table.get(term) == table[term] == tid and term in table
            assert type(table[term]) is int
        # Stored in UTF-8 byte order, which is code-point order.
        blob = raw[-json.loads(raw[: raw.index(b"\n")])["term_bytes"] :] if built else b""
        stored = blob.split(b"\0") if blob else []
        assert stored == sorted(stored) == [t.encode("utf-8") for t in sorted(built)]
        for token in [*absent, *(t + "a" for t in built), *(t[:-1] for t in built)]:
            if token not in built:
                assert table.get(token) is None and table.get(token, -1) == -1
                assert token not in table
                with pytest.raises(KeyError):
                    table[token]

    def test_loaded_table_keeps_the_mapping_contract(self, tmp_path):
        idx = build_index([["b", "a", "c"], ["ab", "b"], ["é", "a"]])
        built = idx.vocabulary.term_to_id
        save_index(idx, tmp_path / "lexical_index.json")
        table = load_index(tmp_path / "lexical_index.json").vocabulary.term_to_id
        assert len(table.keys()) == len(table.values()) == len(table.items()) == len(built)
        assert table.keys() == built.keys() and table.items() == built.items()
        assert sorted(table.values()) == sorted(built.values()) and dict(table) == built
        assert ("a", built["a"]) in table.items() and ("a", -1) not in table.items()

    def test_non_str_keys_answer_as_the_built_dict(self, tmp_path):
        idx = build_index([["great", "5"], ["none"]])
        built = idx.vocabulary.term_to_id
        save_index(idx, tmp_path / "lexical_index.json")
        table = load_index(tmp_path / "lexical_index.json").vocabulary.term_to_id
        for key in (5, None, b"great", ("great",)):
            assert table.get(key) is built.get(key) is None
            assert table.get(key, -1) == built.get(key, -1) == -1
            assert (key in table) is (key in built) is False
            for mapping in (table, built):
                with pytest.raises(KeyError):
                    mapping[key]

    def test_lookups_bisect_the_sorted_terms(self):
        table = TermTable(b"a\0ab\0b", np.array([2, 0, 1], dtype=np.int32))
        assert dict(table.items()) == {"a": 2, "ab": 0, "b": 1}
        assert [table.get(t) for t in ("", "a", "aa", "ab", "abc", "b", "c")] == [
            None, 2, None, 0, None, 1, None
        ]
        assert table != {"a": 2, "ab": 0} and table != {"a": 2, "ab": 0, "b": 2}

    @given(st.lists(LONG_TERMS, max_size=12),
           st.sampled_from(["as drawn", "sorted", "unique", "one repeated"]))
    @example(["x", "x", "y"], "as drawn")
    @example(["", "", "a"], "as drawn")
    @settings(max_examples=400, deadline=None)
    def test_rising_check_is_the_python_one(self, terms, order):
        """Empty terms, duplicates, shared 8-, 16- and 32-byte prefixes, a
        term that is a prefix of the next, multi-byte characters across a
        window edge and single terms: the 8-byte-key check agrees with ``<``
        on the decoded terms of the blob."""
        if order == "one repeated":
            terms = sorted(terms + terms[:1])
        elif order != "as drawn":
            terms = sorted(set(terms) if order == "unique" else terms)
        blob = "\0".join(terms).encode("utf-8")
        stored = [t.decode("utf-8") for t in blob.split(b"\0")] if blob else []
        table = TermTable(blob, np.arange(len(stored), dtype=np.int32))
        assert len(table) == len(stored) and list(table) == stored
        assert table.rises_strictly() == python_rises(stored)

    @given(st.lists(st.lists(LONG_TERMS.filter(bool), max_size=6), max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_loaded_lookups_in_runs_of_shared_prefixes(self, docs):
        """Every stored term is found among neighbours that share its prefix
        key; its prefixes and extensions, "", a lone surrogate and a term
        holding NUL raise KeyError."""
        idx = build_index(docs)
        built = idx.vocabulary.term_to_id
        with tempfile.TemporaryDirectory() as tmp:
            save_index(idx, Path(tmp) / "lexical_index.json")
            table = load_index(Path(tmp) / "lexical_index.json").vocabulary.term_to_id
        for term, tid in built.items():
            assert table[term] == tid and term in table
        absent = ["", "\ud800", "a\ud800", "\0", "abcdefgh\0"]
        for term in built:
            absent += [term[:-1], term + "a", term + "\0", term + "\ud800", term[:8] + "\0"]
        for token in absent:
            if token not in built:
                assert token not in table and table.get(token) is None
                with pytest.raises(KeyError):
                    table[token]

    def test_items_pair_terms_and_ids(self, tmp_path):
        idx = build_index([["b", "a", "c"], ["ab", "b"], ["\u00e9", "a"]])
        save_index(idx, tmp_path / "lexical_index.json")
        loaded = load_index(tmp_path / "lexical_index.json")
        built, table = idx.vocabulary.term_to_id, loaded.vocabulary.term_to_id
        assert list(table.items()) == sorted(built.items())
        assert loaded.vocabulary.id_to_term() == idx.vocabulary.id_to_term()

    @pytest.mark.parametrize("term, message", [
        ("", "a term is empty or holds NUL"), ("a\0b", "a term is empty or holds NUL"),
        ("\ud800", "surrogates not allowed"),
    ])
    def test_unloadable_term_not_saved(self, tmp_path, term, message):
        with pytest.raises(ValueError, match=message):
            save_index(build_index([["x", term]]), tmp_path / "lexical_index.json")
        assert not (tmp_path / "lexical_index.json").exists()
