import json
import random
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    VECTOR_FILE_FAULTS,
    WORDS,
    corrupt_artifact,
    corrupt_vectors_file,
    faults_of,
    random_corpus,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_knn, dense_cosine, recompute_fusion

from desksearch import encoder, vector_index
from desksearch.io_utils import _int64_list, write_artifact
from desksearch.lexical_index import build_index, search_lexical
from desksearch.vector_index import (
    HybridConfig,
    VectorIndex,
    load_vectors,
    minmax_normalize,
    save_vectors,
    search_hybrid,
)


INT64 = st.integers(-(2**63), 2**63 - 1)
INT64_EDGES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_unit_vectors(seed, n, dim):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n, dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


class TestVectorIndex:
    def test_add_and_get(self):
        idx = VectorIndex(3)
        idx.add(7, unit([1.0, 2.0, 2.0]))
        assert len(idx) == 1
        assert idx.get(7) == pytest.approx(unit([1.0, 2.0, 2.0]), abs=1e-15)

    def test_duplicate_doc_id_rejected(self):
        idx = VectorIndex(2)
        idx.add(0, unit([1.0, 0.0]))
        with pytest.raises(ValueError, match="already present"):
            idx.add(0, unit([0.0, 1.0]))

    def test_wrong_dimension_rejected(self):
        idx = VectorIndex(4)
        with pytest.raises(ValueError, match="dimension"):
            idx.add(0, unit([1.0, 0.0]))

    def test_non_unit_vector_rejected(self):
        idx = VectorIndex(2)
        with pytest.raises(ValueError, match="unit-norm"):
            idx.add(0, np.array([3.0, 4.0]))

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(ValueError):
            VectorIndex(0)

    def test_self_similarity_is_one(self):
        idx = VectorIndex(8)
        vecs = random_unit_vectors(0, 5, 8)
        for i, v in enumerate(vecs):
            idx.add(i, v)
        for i, v in enumerate(vecs):
            hits = idx.search(v, k=1)
            assert hits[0].doc_id == i
            assert hits[0].score == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_vectors_score_zero(self):
        idx = VectorIndex(2)
        idx.add(0, np.array([1.0, 0.0]))
        hits = idx.search(np.array([0.0, 5.0]), k=1)
        assert hits[0].score == pytest.approx(0.0, abs=1e-12)

    def test_opposite_vectors_score_minus_one(self):
        idx = VectorIndex(2)
        idx.add(0, np.array([1.0, 0.0]))
        hits = idx.search(np.array([-2.0, 0.0]), k=1)
        assert hits[0].score == pytest.approx(-1.0, abs=1e-12)

    def test_three_vector_ordering(self):
        idx = VectorIndex(2)
        idx.add(0, unit([1.0, 0.0]))
        idx.add(1, unit([1.0, 1.0]))
        idx.add(2, unit([0.0, 1.0]))
        hits = idx.search(np.array([1.0, 0.2]), k=3)
        assert [h.doc_id for h in hits] == [0, 1, 2]

    def test_zero_norm_query_rejected(self):
        idx = VectorIndex(3)
        idx.add(0, unit([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="zero-norm"):
            idx.search(np.zeros(3), k=1)

    def test_k_below_one_rejected(self):
        idx = VectorIndex(2)
        idx.add(0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            idx.search(np.array([1.0, 0.0]), k=0)

    def test_empty_index_returns_nothing(self):
        assert VectorIndex(4).search(unit([1, 0, 0, 0]), k=3) == []

    def test_search_after_incremental_adds(self):
        # the cached matrix must refresh when vectors arrive between searches
        idx = VectorIndex(2)
        idx.add(0, np.array([1.0, 0.0]))
        assert len(idx.search(np.array([1.0, 0.0]), k=5)) == 1
        idx.add(1, np.array([0.0, 1.0]))
        assert len(idx.search(np.array([1.0, 0.0]), k=5)) == 2

    def test_matches_brute_force_oracle(self):
        vecs = random_unit_vectors(1, 1000, 16)
        idx = VectorIndex(16)
        for i, v in enumerate(vecs):
            idx.add(i, v)
        queries = random_unit_vectors(2, 20, 16)
        for q in queries:
            got = idx.search(q, k=10)
            want = brute_force_knn(dict(enumerate(vecs)), q, k=10)
            assert [h.doc_id for h in got] == [d for d, _ in want]
            for (_, ws), h in zip(want, got):
                assert h.score == pytest.approx(ws, abs=1e-9)

    def test_scores_sorted_with_doc_id_tiebreak(self):
        idx = VectorIndex(2)
        # 1 and 3 have identical embeddings: equal scores, lower id first
        idx.add(3, unit([1.0, 1.0]))
        idx.add(1, unit([1.0, 1.0]))
        idx.add(2, unit([0.0, 1.0]))
        hits = idx.search(unit([1.0, 1.0]), k=3)
        assert [h.doc_id for h in hits] == [1, 3, 2]

    def test_from_arrays_matches_incremental_adds(self):
        vecs = random_unit_vectors(3, 50, 8)
        ids = list(range(100, 0, -2))
        bulk = VectorIndex.from_arrays(ids, vecs)
        incremental = VectorIndex(8)
        for doc_id, v in zip(ids, vecs):
            incremental.add(doc_id, v)
        assert bulk.doc_ids == incremental.doc_ids == sorted(ids)
        for q in random_unit_vectors(4, 5, 8):
            assert bulk.search(q, k=7) == incremental.search(q, k=7)

    def test_from_arrays_rejects_what_add_rejects(self):
        with pytest.raises(ValueError, match="already present"):
            VectorIndex.from_arrays([4, 9, 4], random_unit_vectors(5, 3, 2))
        with pytest.raises(ValueError, match="unit-norm"):
            VectorIndex.from_arrays([0, 1], np.array([[1.0, 0.0], [3.0, 4.0]]))
        with pytest.raises(ValueError, match=r"unit-norm \(\|v\| = inf\)"):
            VectorIndex.from_arrays([0], np.array([[1e300, 0.0]]))
        with pytest.raises(ValueError, match="integers"):
            VectorIndex.from_arrays([0.0, 1.0], random_unit_vectors(6, 2, 2))
        with pytest.raises(ValueError, match="rows of dimension"):
            VectorIndex.from_arrays([0], random_unit_vectors(7, 2, 2))
        with pytest.raises(ValueError, match="matrix"):
            VectorIndex.from_arrays([0], unit([1.0, 0.0]))

    @pytest.mark.parametrize("doc_id", [True, 1.5, "1", 2**63, -(2**63) - 1])
    def test_add_rejects_an_id_that_is_no_64_bit_integer(self, doc_id):
        idx = VectorIndex(2)
        idx.add(0, unit([1.0, 0.0]))
        with pytest.raises(ValueError, match="integer"):
            idx.add(doc_id, unit([0.0, 1.0]))
        assert idx.doc_ids == [0]

    def test_stored_rows_are_read_only(self):
        idx = VectorIndex.from_arrays([5], np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            idx.get(5)[0] = 1.0
        with pytest.raises(KeyError):
            idx.get(6)

    # No rows, one row, and row counts around 1,024, 2,048 and 4,096, where a
    # norm taken in power-of-two blocks of rows would start a new block.
    @pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2051, 4095, 4096, 4097, 8195])
    @pytest.mark.parametrize("dim", [1, 3, 64])
    def test_chunked_norms_equal_linalg_norm(self, n, dim):
        rows = np.random.default_rng(n + dim).normal(size=(n, dim))
        rows *= np.logspace(-150, 150, n)[:, None] if n else 1.0  # tiny to huge rows
        got = encoder.row_norms(rows)
        # Each row's own 1-D norm, as encoder.encode takes a pooled row's.
        want = np.array([np.linalg.norm(row) for row in rows], dtype=float)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("at", [0, 1024, 1030, 4096, 4102])
    @pytest.mark.parametrize("entry", [1e200, np.nan])
    def test_row_with_a_huge_or_nan_entry_rejected(self, at, entry):
        # In the first row, at and just past row 1,024, at row 4,096, and in
        # the last row.
        rows = random_unit_vectors(30, 4103, 4)
        rows[at, 2] = entry
        with pytest.raises(ValueError, match=f"embedding for doc {at} is not unit-norm"):
            VectorIndex.from_arrays(range(len(rows)), rows)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_from_arrays_neither_aliases_nor_freezes_the_callers_array(self, order):
        rows = np.asarray(random_unit_vectors(31, 5, 3), order=order)
        idx = VectorIndex.from_arrays(range(5), rows)
        assert not np.shares_memory(idx._matrix, rows)
        assert rows.flags.writeable and idx._matrix.flags.c_contiguous
        before = rows.copy()
        rows[:] = 0.0
        assert np.array_equal(idx._matrix, before)
        with pytest.raises(ValueError):
            idx._matrix[0, 0] = 1.0

    def test_add_neither_aliases_nor_freezes_the_callers_row(self):
        row = unit([1.0, 2.0])
        idx = VectorIndex(2)
        idx.add(0, row)
        assert not np.shares_memory(idx._matrix, row) and row.flags.writeable

    def test_non_finite_query_rejected(self):
        idx = VectorIndex.from_arrays([0], np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            idx.search(np.array([np.nan, 1.0]), k=1)
        with pytest.raises(ValueError, match="non-finite"):
            idx.search(np.array([1e300, 1.0]), k=1)


# Unit rows with entries in {0, +-0.5, +-1}: with an integer query every
# product and partial sum is exact, so equal dot products are exact ties
# whatever order the matrix-vector product sums in.
DYADIC_ROWS = [sign * row for row in np.eye(4) for sign in (1.0, -1.0)] + [
    0.5 * (2.0 * np.array(signs) - 1.0) for signs in np.ndindex(2, 2, 2, 2)
]


class TestTieExactTopK:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_and_full_sort(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        matrix = np.stack(
            data.draw(st.lists(st.sampled_from(DYADIC_ROWS), min_size=n, max_size=n), label="rows")
        )
        ids = data.draw(
            st.lists(st.integers(-1000, 10**6), min_size=n, max_size=n, unique=True), label="ids"
        )
        q = np.array(
            data.draw(
                st.lists(st.integers(-3, 3), min_size=4, max_size=4).filter(any), label="q"
            ),
            dtype=float,
        )
        k = data.draw(st.integers(1, n + 2), label="k")

        bulk = VectorIndex.from_arrays(ids, matrix)
        incremental = VectorIndex(4)
        for doc_id, row in zip(ids, matrix):
            incremental.add(doc_id, row)
        got = bulk.search(q, k)
        assert incremental.search(q, k) == got

        want = brute_force_knn(dict(zip(ids, matrix.tolist())), q.tolist(), k)
        assert [h.doc_id for h in got] == [d for d, _ in want]
        for h, (_, score) in zip(got, want):
            assert abs(h.score - score) <= 1e-12

        scores = (matrix @ q) / (np.linalg.norm(matrix, axis=1) * np.linalg.norm(q))
        full = sorted(zip(ids, scores.tolist()), key=lambda h: (-h[1], h[0]))[:k]
        assert [(h.doc_id, h.score) for h in got] == full


# Docs drawn with repeats from this pool: identical docs get identical lexical
# scores, so lexical ties are exact.
HYBRID_DOCS = [["apple"], ["apple", "pie"], ["pie", "tart"], ["tart"], ["apple", "apple", "tart"]]


class TestTieExactHybrid:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_full_sort_of_readme_fusion(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        docs = data.draw(
            st.lists(st.sampled_from(HYBRID_DOCS), min_size=n, max_size=n), label="docs"
        )
        # Rows for a subset of the docs: a doc may have no embedding.
        vec_ids = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True), label="vec_ids"
        )
        rows = data.draw(
            st.lists(st.sampled_from(DYADIC_ROWS), min_size=len(vec_ids), max_size=len(vec_ids)),
            label="rows",
        )
        q_emb = np.array(
            data.draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4).filter(any), label="q"),
            dtype=float,
        )
        q_tokens = data.draw(
            st.lists(st.sampled_from(["apple", "pie", "tart", "zzz"]), min_size=1, max_size=3),
            label="q_tokens",
        )
        alpha = data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="alpha")
        factor = data.draw(st.integers(1, 3), label="candidate_factor")
        k = data.draw(st.integers(1, n + 2), label="k")

        lex = build_index(docs)
        vec = VectorIndex.from_arrays(vec_ids, np.stack(rows))
        cfg = HybridConfig(alpha=alpha, k=k, candidate_factor=factor)
        got = search_hybrid(lex, vec, q_tokens, q_emb, cfg)

        pool = factor * k
        lex_pool = [(h.doc_id, h.score) for h in search_lexical(lex, q_tokens, pool)]
        vec_pool = [(h.doc_id, h.score) for h in vec.search(q_emb, pool)]
        want = recompute_fusion(lex_pool, vec_pool, alpha, k)
        # Equal score bits, not only equal values.
        assert [(h.doc_id, h.score.hex()) for h in got] == [(d, s.hex()) for d, s in want]


class TestMinmaxNormalize:
    def test_empty_list(self):
        assert minmax_normalize(np.array([])).tolist() == []

    def test_constant_list_maps_to_ones(self):
        assert minmax_normalize(np.array([0.4, 0.4])).tolist() == [1.0, 1.0]

    def test_single_hit_maps_to_one(self):
        assert minmax_normalize(np.array([-0.2])).tolist() == [1.0]

    def test_endpoints(self):
        assert minmax_normalize(np.array([2.0, 6.0, 4.0])).tolist() == [0.0, 1.0, 0.5]

    def test_preserves_order(self):
        rng = random.Random(13)
        scores = np.array([rng.uniform(-1, 1) for _ in range(20)])
        out = minmax_normalize(scores)
        ranked_before = np.argsort(-scores, kind="stable")
        ranked_after = np.argsort(-out, kind="stable")
        assert ranked_before.tolist() == ranked_after.tolist()

    def test_range(self):
        rng = random.Random(14)
        out = minmax_normalize(np.array([rng.uniform(-5, 5) for _ in range(50)]))
        assert ((0.0 <= out) & (out <= 1.0)).all()


class TestHybridConfig:
    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            HybridConfig(alpha=1.5)
        with pytest.raises(ValueError):
            HybridConfig(alpha=-0.1)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            HybridConfig(k=0)

    def test_bad_candidate_factor(self):
        with pytest.raises(ValueError):
            HybridConfig(candidate_factor=0)

    @pytest.mark.parametrize(
        "setting",
        [{"k": 2.5}, {"k": True}, {"candidate_factor": 2.0}, {"alpha": True}, {"alpha": "0.5"}],
    )
    def test_mistyped_setting_rejected(self, setting):
        with pytest.raises(ValueError, match="must be"):
            HybridConfig(**setting)

    def test_numpy_scalars_accepted(self):
        cfg = HybridConfig(alpha=np.float64(0.25), k=np.int64(3), candidate_factor=np.int32(2))
        assert (cfg.alpha, cfg.k, cfg.candidate_factor) == (0.25, 3, 2)


def build_hybrid_fixture(seed, n_docs, dim=12):
    rng = random.Random(seed)
    docs = random_corpus(rng, n_docs)
    lex = build_index(docs)
    vecs = random_unit_vectors(seed, n_docs, dim)
    vec = VectorIndex(dim)
    for i, v in enumerate(vecs):
        vec.add(i, v)
    return docs, lex, vec


def normalized(hits):
    """doc id -> min-max normalized score of one side's hits."""
    scores = minmax_normalize(np.array([h.score for h in hits]))
    return dict(zip([h.doc_id for h in hits], scores.tolist()))


class TestSearchHybrid:
    def test_alpha_one_reduces_to_lexical_order(self):
        docs, lex, vec = build_hybrid_fixture(15, 50)
        cfg = HybridConfig(alpha=1.0, k=10)
        q = docs[0]
        q_emb = vec.get(0)
        fused = search_hybrid(lex, vec, q, q_emb, cfg)
        lex_only = search_lexical(lex, q, cfg.candidate_factor * cfg.k)
        lex_ids = [h.doc_id for h in lex_only]
        fused_lex = [h.doc_id for h in fused if h.doc_id in set(lex_ids)]
        assert fused_lex == lex_ids[: len(fused_lex)]

    def test_alpha_zero_reduces_to_vector_order(self):
        docs, lex, vec = build_hybrid_fixture(16, 50)
        cfg = HybridConfig(alpha=0.0, k=10)
        q_emb = vec.get(3)
        fused = search_hybrid(lex, vec, docs[3], q_emb, cfg)
        vec_only = vec.search(q_emb, cfg.candidate_factor * cfg.k)
        vec_ids = [h.doc_id for h in vec_only]
        fused_vec = [h.doc_id for h in fused if h.doc_id in set(vec_ids)]
        assert fused_vec == vec_ids[: len(fused_vec)]

    def test_hand_built_fusion(self):
        # two docs share the query term, two share the embedding direction;
        # fused scores come out as alpha * lexnorm + (1 - alpha) * vecnorm
        lex = build_index([["apple"], ["apple", "pie"], ["tart"], ["tart", "pie"]])
        vec = VectorIndex(2)
        vec.add(0, unit([1.0, 0.0]))
        vec.add(1, unit([1.0, 1.0]))
        vec.add(2, unit([0.0, 1.0]))
        vec.add(3, unit([-1.0, 1.0]))
        cfg = HybridConfig(alpha=0.5, k=4, candidate_factor=4)
        q_tokens, q_emb = ["apple"], np.array([1.0, 0.0])
        fused = search_hybrid(lex, vec, q_tokens, q_emb, cfg)
        lex_norm = normalized(search_lexical(lex, q_tokens, 16))
        vec_norm = normalized(vec.search(q_emb, 16))
        expected = {
            d: 0.5 * lex_norm.get(d, 0.0) + 0.5 * vec_norm.get(d, 0.0)
            for d in set(lex_norm) | set(vec_norm)
        }
        assert {h.doc_id: h.score for h in fused} == pytest.approx(expected, abs=1e-12)

    def test_matches_fusion_oracle(self):
        docs, lex, vec = build_hybrid_fixture(17, 80)
        cfg = HybridConfig(alpha=0.3, k=8)
        for qid in range(10):
            q = docs[qid]
            q_emb = vec.get(qid)
            got = search_hybrid(lex, vec, q, q_emb, cfg)
            lex_hits = [(h.doc_id, h.score) for h in search_lexical(lex, q, 32)]
            vec_hits = [(h.doc_id, h.score) for h in vec.search(q_emb, 32)]
            want = recompute_fusion(lex_hits, vec_hits, alpha=0.3, k=8)
            assert [(h.doc_id, h.score) for h in got] == pytest.approx(want, abs=1e-12)

    def test_missing_embedding_degrades_to_lexical(self):
        docs, lex, vec = build_hybrid_fixture(18, 30)
        cfg = HybridConfig(alpha=0.5, k=5)
        fused = search_hybrid(lex, vec, docs[2], None, cfg)
        lex_norm = normalized(search_lexical(lex, docs[2], 20))
        expected = sorted(
            ((d, 0.5 * s) for d, s in lex_norm.items()), key=lambda t: (-t[1], t[0])
        )[:5]
        assert [(h.doc_id, h.score) for h in fused] == pytest.approx(expected, abs=1e-12)

    def test_fused_scores_in_unit_interval(self):
        docs, lex, vec = build_hybrid_fixture(19, 60)
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            cfg = HybridConfig(alpha=alpha, k=10)
            for qid in (0, 7, 23):
                for h in search_hybrid(lex, vec, docs[qid], vec.get(qid), cfg):
                    assert 0.0 <= h.score <= 1.0 + 1e-12

    def test_returns_at_most_k(self):
        docs, lex, vec = build_hybrid_fixture(20, 40)
        cfg = HybridConfig(alpha=0.5, k=3)
        fused = search_hybrid(lex, vec, docs[0], vec.get(0), cfg)
        assert len(fused) <= 3

    def test_fully_unmatched_query_with_no_embedding(self):
        docs, lex, vec = build_hybrid_fixture(21, 10)
        cfg = HybridConfig(alpha=0.7, k=5)
        assert search_hybrid(lex, vec, ["qqqq"], None, cfg) == []


class TestPersistence:
    def test_round_trip_preserves_search(self, tmp_path):
        idx = VectorIndex(6)
        vecs = random_unit_vectors(22, 30, 6)
        for i, v in enumerate(vecs):
            idx.add(i * 3, v)  # non-contiguous ids
        path = tmp_path / "vectors.bin"
        save_vectors(idx, path)
        loaded = load_vectors(path)
        assert loaded.dimension == 6
        assert loaded.doc_ids == idx.doc_ids
        q = random_unit_vectors(23, 1, 6)[0]
        assert loaded.search(q, k=30) == idx.search(q, k=30)
        # a loaded index keeps accepting rows, and rejects a stored id
        extra = random_unit_vectors(26, 1, 6)[0]
        for index in (idx, loaded):
            index.add(1, extra)
            with pytest.raises(ValueError, match="already present"):
                index.add(3, extra)
        assert loaded.doc_ids == idx.doc_ids
        assert loaded.search(q, k=31) == idx.search(q, k=31)

    def test_round_trip_bit_exact_vectors(self, tmp_path):
        idx = VectorIndex(4)
        for i, v in enumerate(random_unit_vectors(24, 10, 4)):
            idx.add(i, v)
        path = tmp_path / "v.bin"
        save_vectors(idx, path)
        loaded = load_vectors(path)
        for i in idx.doc_ids:
            assert np.array_equal(loaded.get(i), idx.get(i))
        extra = random_unit_vectors(27, 1, 4)[0]
        loaded.add(-5, extra)
        idx.add(-5, extra)
        assert np.array_equal(loaded.get(-5), extra)
        save_vectors(loaded, tmp_path / "loaded.bin")
        save_vectors(idx, tmp_path / "direct.bin")
        assert (tmp_path / "loaded.bin").read_bytes() == (tmp_path / "direct.bin").read_bytes()

    def test_save_is_byte_deterministic(self, tmp_path):
        idx = VectorIndex(5)
        for i, v in enumerate(random_unit_vectors(25, 20, 5)):
            idx.add(i, v)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_vectors(idx, p1)
        save_vectors(idx, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_index_round_trips(self, tmp_path):
        idx = VectorIndex(3)
        path = tmp_path / "empty.bin"
        save_vectors(idx, path)
        loaded = load_vectors(path)
        assert len(loaded) == 0
        assert loaded.dimension == 3

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b'{"format": "nope", "version": 1}\n')
        with pytest.raises(ValueError):
            load_vectors(path)

    def test_dimension_argument_checked(self, tmp_path):
        path = tmp_path / "vectors.bin"
        save_vectors(VectorIndex.from_arrays([0, 1], random_unit_vectors(29, 2, 3)), path)
        assert load_vectors(path, dimension=3).dimension == 3
        with pytest.raises(ValueError, match="vectors.bin: dimension 3 is not the d_model 4"):
            load_vectors(path, dimension=4)

    @pytest.mark.parametrize("fault", sorted(VECTOR_FILE_FAULTS))
    def test_inconsistent_file_rejected(self, tmp_path, fault):
        idx = VectorIndex(3)
        for i, v in enumerate(random_unit_vectors(28, 4, 3)):
            idx.add(i * 2, v)
        path = tmp_path / "vectors.bin"
        save_vectors(idx, path)
        message = corrupt_vectors_file(path, fault)
        with pytest.raises(ValueError, match=message) as exc:
            load_vectors(path)
        assert str(path) in str(exc.value)

    @given(ids=st.lists(st.sampled_from(INT64_EDGES) | INT64, unique=True, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_any_int64_ids_round_trip(self, ids):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "vectors.bin"
            save_vectors(VectorIndex.from_arrays(ids, random_unit_vectors(35, len(ids), 3)), path)
            loaded = load_vectors(path)
        assert loaded.doc_ids == sorted(ids)
        assert loaded._ids.dtype == np.int64 and not loaded._ids.flags.writeable

    @given(ids=st.lists(st.sampled_from(INT64_EDGES) | INT64, unique=True, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_every_build_holds_and_writes_its_rows_in_rising_id_order(self, ids):
        rows = random_unit_vectors(36, len(ids), 3)
        bulk = VectorIndex.from_arrays(ids, rows)
        grown = VectorIndex(3)
        for doc_id, row in zip(ids, rows):
            grown.add(doc_id, row)
        order = sorted(range(len(ids)), key=ids.__getitem__)
        presorted = VectorIndex.from_arrays(sorted(ids), rows[order])
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / f"{name}.bin" for name in ("bulk", "grown", "presorted", "loaded")]
            for index, path in zip((bulk, grown, presorted), paths):
                save_vectors(index, path)
            loaded = load_vectors(paths[0])
            save_vectors(loaded, paths[3])
            files = [path.read_bytes() for path in paths]
        assert files == [files[0]] * 4
        for index in (bulk, grown, presorted, loaded):
            assert index.doc_ids == sorted(ids)
            for doc_id, row in zip(ids, rows):
                assert index.get(doc_id).tobytes() == row.tobytes()

    def test_save_makes_no_copy_of_the_matrix(self, tmp_path):
        idx = VectorIndex.from_arrays(range(20_000), random_unit_vectors(37, 20_000, 64))
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            save_vectors(idx, tmp_path / "vectors.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The file's bytes are one matrix and a header of under 0.2 MB; one more
        # copy of the matrix, as a sort or a tobytes makes, would pass 2 times.
        assert peak - live < 1.5 * idx._matrix.nbytes

    def test_loaded_rows_are_the_payload_read_only(self, tmp_path, monkeypatch):
        path = tmp_path / "vectors.bin"
        save_vectors(VectorIndex.from_arrays([3, 1, 2], random_unit_vectors(32, 3, 4)), path)
        payloads = []
        read_artifact = vector_index.read_artifact

        def keep_payload(*args, **kwargs):
            header, arrays = read_artifact(*args, **kwargs)
            payloads.append(arrays)
            return header, arrays

        monkeypatch.setattr(vector_index, "read_artifact", keep_payload)
        loaded = load_vectors(path)
        (rows,) = payloads[0]
        assert np.shares_memory(loaded._matrix, rows)
        assert loaded._matrix.tobytes() == path.read_bytes()[-rows.nbytes :]
        assert not loaded._matrix.flags.writeable and loaded._matrix.flags.aligned
        with pytest.raises(ValueError):
            loaded.get(1)[0] = 0.0

    def test_payload_is_aligned_and_holds_only_the_rows(self, tmp_path):
        path = tmp_path / "vectors.bin"
        vecs = random_unit_vectors(33, 3, 5)
        save_vectors(VectorIndex.from_arrays([9, 4, 6], vecs), path)
        raw = path.read_bytes()
        start = raw.index(b"\n") + 1
        assert start % 8 == 0
        assert json.loads(raw[:start]) == {
            "format": "desksearch-vector-index", "version": 2,
            "dimension": 5, "count": 3, "doc_ids": [4, 6, 9],
        }
        assert raw[start:] == vecs[[1, 2, 0]].astype("<f8").tobytes()

    @pytest.mark.parametrize("fault", faults_of("vectors_"))
    def test_corrupt_file_rejected(self, tmp_path, fault):
        save_vectors(VectorIndex.from_arrays([0, 2, 5], random_unit_vectors(34, 3, 4)),
                     tmp_path / "vectors.bin")
        name, message = corrupt_artifact(tmp_path, fault)
        with pytest.raises(ValueError, match=message) as exc:
            load_vectors(tmp_path / name)
        assert name in str(exc.value)

    @pytest.mark.parametrize(
        "fields", [{"dimension": 0, "count": 0, "doc_ids": []}, {"dimension": 2, "count": 0}]
    )
    def test_well_laid_out_malformed_header_rejected(self, tmp_path, fields):
        path = tmp_path / "vectors.bin"
        write_artifact(path, "desksearch-vector-index", 2, fields, [np.empty(0)])
        with pytest.raises(ValueError, match="vectors.bin: malformed header"):
            load_vectors(path)

    @pytest.mark.parametrize(
        "raw",
        [
            b"",
            b"no newline",
            b"[1, 2]\n",
            b"\xff\n",
            b'{"format": "desksearch-vector-index", "version": 1, "dimension": 2, '
            b'"count": "1", "doc_ids": [0]}\n',
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, raw):
        path = tmp_path / "vectors.bin"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="vectors.bin"):
            load_vectors(path)


# The list texts the id decoder must reject or read as json.loads does: any
# text over these characters, or tokens near the edges of the accepted form.
ID_TEXTS = st.text(alphabet="0123456789-+., e", max_size=40) | st.builds(
    lambda tokens, sep: sep.join(tokens),
    st.lists(st.sampled_from([
        "0", "-0", "00", "01", "-01", "+1", "1", "-1", " 1", "1 ", "", "-", "1.0", "1e3",
        "9223372036854775807", "9223372036854775808", "-9223372036854775808",
        "-9223372036854775809", "18446744073709551616", "12345678901234567890",
    ]), max_size=4),
    st.sampled_from([", ", ",", " ,", ",  ", ", , "]),
)


class TestIdDecoder:
    @given(text=ID_TEXTS)
    @settings(max_examples=500, deadline=None)
    def test_accepts_only_what_json_reads_as_int64s(self, text):
        got = _int64_list(text.encode())
        if got is not None:
            expected = json.loads("[" + text + "]")
            assert all(type(value) is int for value in expected)
            assert got.dtype == np.int64 and got.tolist() == expected

    @given(ids=st.lists(st.sampled_from(INT64_EDGES) | INT64, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_reads_every_json_dumps_of_int64s(self, ids):
        got = _int64_list(json.dumps(ids)[1:-1].encode())
        assert got is not None and got.dtype == np.int64 and got.tolist() == ids


class TestOracleAgreement:
    def test_dense_cosine_reference(self):
        a, b = np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.5, 2.0])
        idx = VectorIndex(3)
        idx.add(0, unit(b))
        got = idx.search(unit(a), k=1)[0].score
        assert got == pytest.approx(dense_cosine(a, b), abs=1e-12)
