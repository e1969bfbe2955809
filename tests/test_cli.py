import argparse
import dataclasses
import importlib.util
import json
import random
import re
import shutil
import tempfile
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import ARTIFACT_FAULTS, VECTOR_FILE_FAULTS, corrupt_artifact, corrupt_vectors_file
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_eval

from desksearch import cli, encoder, io_utils, lexical_index, searcher, vector_index
from desksearch.cli import CONFIG_KEYS, SPLIT_KEYS, load_config, main
from desksearch.dataset import Review
from desksearch.io_utils import read_artifact
from desksearch.text_pipeline import Vocabulary, token_ids, tokenize

SMALL_ENCODER = {"d_model": 16, "n_heads": 4, "n_layers": 2, "d_ff": 32, "max_seq_len": 64}

FILLER = [
    "great", "food", "service", "came", "back", "again", "cold", "slow",
    "friendly", "staff", "generous", "portions", "tiny", "overpriced", "menu",
]


def write_corpus(path, n=100, seed=0):
    rng = random.Random(seed)
    lines = []
    for i in range(n):
        text = f"marker{i:03d} " + " ".join(rng.choices(FILLER, k=6))
        record = {"text": text, "stars": (i % 5) + 1, "business_id": f"b{i % 4}"}
        lines.append(json.dumps(record))
    path.write_text("\n".join(lines) + "\n")


def write_config(path, corpus, index_dir, **extra):
    cfg = {"corpus": str(corpus), "index_dir": str(index_dir), "encoder": SMALL_ENCODER}
    cfg.update(extra)
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Corpus ingested and indexed once; shared by the read-only search tests."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus.jsonl"
    index_dir = root / "index"
    write_corpus(corpus)
    config = write_config(root / "config.json", corpus, index_dir)
    assert main(["ingest", "--config", config]) == 0
    assert main(["index", "--config", config]) == 0
    docs = {}
    for line in (index_dir / "docs.jsonl").read_text().splitlines():
        record = json.loads(line)
        docs[record["doc_id"]] = record["text"]
    return {"config": config, "index_dir": index_dir, "docs": docs}


INDEX_FILES = ("lexical_index.json", "vectors.bin", "weights.json", "docs.jsonl", "doc_offsets.bin")


def index_files(index_dir):
    """The bytes of every file that `index` writes, by name."""
    return {name: (index_dir / name).read_bytes() for name in INDEX_FILES}


@pytest.fixture
def uneven_config(tmp_path, monkeypatch):
    """The config of an index of 60 docs of 1-20 tokens, lengths in no order.
    A budget of 20 tokens cuts them into 48 chunks of 1-4 docs, so even 5
    CPUs get shares of several unequal chunks."""
    monkeypatch.setattr(encoder, "ENCODE_TOKEN_BUDGET", 20)
    rng = random.Random(3)
    source = tmp_path / "source.jsonl"
    source.write_text("".join(
        json.dumps({"text": " ".join(rng.choices(FILLER, k=rng.randint(1, 20))), "stars": 1,
                    "business_id": "b"}) + "\n"
        for _ in range(60)
    ))
    return write_config(tmp_path / "c.json", tmp_path / "x.jsonl", tmp_path / "idx",
                        index_source=str(source))


def cpus(n):
    """A stand-in for os.sched_getaffinity: a process allowed on n CPUs."""
    return lambda pid: set(range(n))


def search_lines(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    # Split on "\n" alone: a printed text may hold U+2028, which splitlines splits on.
    return code, [json.loads(line) for line in out.split("\n") if line.strip()]


class TestIngest:
    def test_split_sizes_printed(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus)
        config = write_config(tmp_path / "c.json", corpus, tmp_path / "idx")
        assert main(["ingest", "--config", config]) == 0
        sizes = json.loads(capsys.readouterr().out.strip())
        assert sizes == {"train": 70, "val": 15, "test": 15}
        for name in ("train", "val", "test"):
            assert (tmp_path / "idx" / f"{name}.jsonl").exists()

    def test_malformed_lines_reported(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        good = [
            json.dumps({"text": f"t{i}", "stars": (i % 5) + 1, "business_id": "b"})
            for i in range(20)
        ]
        corpus.write_text("\n".join(good + ["{broken", '{"stars": 9}']) + "\n")
        config = write_config(tmp_path / "c.json", corpus, tmp_path / "idx")
        assert main(["ingest", "--config", config]) == 0
        report = json.loads((tmp_path / "idx" / "distribution.json").read_text())
        assert report["loaded"] == 20
        assert report["skipped"] == 2

    @pytest.mark.parametrize("key", ["text", "business_id"])
    def test_lone_surrogate_line_skipped(self, tmp_path, capsys, key):
        """A JSON "\\ud800" escape decodes to a string no split file can hold."""
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, n=39)
        record = {"text": "fine", "stars": 3, "business_id": "b", key: "x\ud800"}
        with open(corpus, "a") as f:
            f.write(json.dumps(record) + "\n")
        config = write_config(tmp_path / "c.json", corpus, tmp_path / "idx")
        assert main(["ingest", "--config", config]) == 0
        report = json.loads((tmp_path / "idx" / "distribution.json").read_text())
        assert (report["loaded"], report["skipped"]) == (39, 1)

    def test_balanced_train_split(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, n=200)
        config = write_config(
            tmp_path / "c.json", corpus, tmp_path / "idx", split={"per_class": 5}
        )
        assert main(["ingest", "--config", config]) == 0
        sizes = json.loads(capsys.readouterr().out.strip())
        assert sizes["train"] == 25
        report = json.loads((tmp_path / "idx" / "distribution.json").read_text())
        dist = report["splits"]["train"]["distribution"]
        assert all(v == pytest.approx(0.2) for v in dist.values())

    def test_missing_corpus_fails(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", tmp_path / "nope.jsonl", tmp_path / "idx")
        assert main(["ingest", "--config", config]) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_valid_reviews_fails(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("{bad}\n{also bad}\n")
        config = write_config(tmp_path / "c.json", corpus, tmp_path / "idx")
        assert main(["ingest", "--config", config]) == 1
        assert "no valid reviews" in capsys.readouterr().err


class TestIndex:
    def test_artifacts_and_counts(self, pipeline, capsys):
        index_dir = pipeline["index_dir"]
        for name in ("lexical_index.json", "vectors.bin", "weights.json", "docs.jsonl",
                     "doc_offsets.bin"):
            assert (index_dir / name).exists()
        assert not (index_dir / "weights.npz").exists()
        # doc_offsets.bin: the start of each line of docs.jsonl, then its size.
        header, (starts,) = read_artifact(
            index_dir / "doc_offsets.bin", "desksearch-doc-offsets", 1, ("n_docs",),
            lambda n: [("<i8", n + 1)],
        )
        docs = (index_dir / "docs.jsonl").read_bytes()
        lines = docs.split(b"\n")[:-1]
        assert header == {"format": "desksearch-doc-offsets", "version": 1, "n_docs": 70}
        assert starts.tolist() == [
            sum(len(line) + 1 for line in lines[:d]) for d in range(71)
        ]
        assert len(lines) == 70 and sum(len(line) + 1 for line in lines) == len(docs)
        assert main(["index", "--config", pipeline["config"]]) == 0
        counts = json.loads(capsys.readouterr().out.strip())
        assert counts["docs"] == 70
        assert counts["vectors"] == 70
        assert counts["terms"] > 0

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, n=30)
        config = write_config(tmp_path / "c.json", corpus, tmp_path / "idx")
        assert main(["ingest", "--config", config]) == 0
        assert main(["index", "--config", config]) == 0
        first = index_files(tmp_path / "idx")
        assert main(["index", "--config", config]) == 0
        assert index_files(tmp_path / "idx") == first

    @pytest.mark.parametrize("budget", [None, 20])
    def test_each_row_is_its_doc_embedded_as_a_query(self, tmp_path, capsys, monkeypatch, budget):
        # Docs of 1-20 tokens against max_seq_len 8, so those past 8 are cut
        # and share one length group; each length twice, in shuffled order, and
        # one empty doc, so a row written to the wrong doc shows.  A budget of
        # 20 tokens also splits each group over several encoder calls.
        if budget is not None:
            monkeypatch.setattr(encoder, "ENCODE_TOKEN_BUDGET", budget)
        rng = random.Random(8)
        lengths = list(range(1, 21)) * 2
        rng.shuffle(lengths)
        texts = [" ".join(rng.choices(FILLER, k=n)) for n in lengths]
        texts.insert(5, "")
        source = tmp_path / "source.jsonl"
        source.write_text("".join(
            json.dumps({"text": text, "stars": 1, "business_id": "b"}) + "\n" for text in texts
        ))
        index_dir = tmp_path / "idx"
        config = write_config(tmp_path / "c.json", tmp_path / "x.jsonl", index_dir,
                              index_source=str(source),
                              encoder={**SMALL_ENCODER, "max_seq_len": 8})
        assert main(["index", "--config", config]) == 0
        capsys.readouterr()
        lex = lexical_index.load_index(index_dir / "lexical_index.json")
        vec = vector_index.load_vectors(index_dir / "vectors.bin")
        enc_cfg, weights = encoder.load_weights(index_dir / "weights.json")
        assert vec.doc_ids == [doc_id for doc_id in range(len(texts)) if doc_id != 5]
        for doc_id in vec.doc_ids:
            ids = token_ids(tokenize(texts[doc_id]), lex.vocabulary)
            assert np.array_equal(vec.get(doc_id), encoder.embed([ids], enc_cfg, weights)[0]), doc_id

    def test_artifacts_do_not_depend_on_the_cpu_count(
        self, uneven_config, tmp_path, capsys, monkeypatch
    ):
        start, started = threading.Thread.start, []

        def record_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", record_start)
        built = {}
        for n in (1, 2, 5):
            monkeypatch.setattr(encoder.os, "sched_getaffinity", cpus(n))
            started.clear()
            assert main(["index", "--config", uneven_config]) == 0
            assert len(started) == n - 1
            built[n] = index_files(tmp_path / "idx")
        capsys.readouterr()
        assert built[2] == built[1] and built[5] == built[1]

    def test_thread_that_cannot_start_leaves_its_share_to_the_caller(
        self, uneven_config, tmp_path, capsys, monkeypatch
    ):
        assert main(["index", "--config", uneven_config]) == 0
        want = index_files(tmp_path / "idx")

        def refuse(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(encoder.os, "sched_getaffinity", cpus(4))
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert main(["index", "--config", uneven_config]) == 0
        assert index_files(tmp_path / "idx") == want
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("error, message", [
        (ValueError("pooled representation is the zero vector"), "error: pooled"),
        (MemoryError("no room"), "error: out of memory: no room"),
    ])
    def test_worker_error_ends_in_one_error_line(
        self, uneven_config, capsys, monkeypatch, error, message
    ):
        # Only a chunk that a worker thread encodes fails; the calling thread's
        # share succeeds, so the error must travel from the worker to main.
        monkeypatch.setattr(encoder.os, "sched_getaffinity", cpus(2))
        encode, failed = encoder.encode, []

        def fail_in_worker(*args):
            if threading.current_thread() is not threading.main_thread():
                failed.append(threading.current_thread())
                raise error
            return encode(*args)

        monkeypatch.setattr(encoder, "encode", fail_in_worker)
        before = threading.active_count()
        assert main(["index", "--config", uneven_config]) == 1
        assert threading.active_count() == before
        assert len(failed) == 1 and not failed[0].is_alive()
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1, err

    def test_index_without_ingest_fails(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", tmp_path / "x.jsonl", tmp_path / "idx")
        assert main(["index", "--config", config]) == 1
        assert "ingest" in capsys.readouterr().err

    def test_empty_source_warns_but_succeeds(self, tmp_path, capsys):
        index_dir = tmp_path / "idx"
        index_dir.mkdir()
        (index_dir / "train.jsonl").write_text("")
        config = write_config(tmp_path / "c.json", tmp_path / "x.jsonl", index_dir)
        assert main(["index", "--config", config]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert json.loads(captured.out.strip()) == {"docs": 0, "terms": 0, "vectors": 0}
        for mode in ("lexical", "vector", "hybrid"):
            assert main(["search", "anything", "--mode", mode, "--config", config]) == 0
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", ""), mode


class TestSearch:
    def test_self_retrieval_all_modes(self, pipeline, capsys):
        docs = pipeline["docs"]
        for doc_id in (0, 10, 42):
            for mode in ("lexical", "vector", "hybrid"):
                code, hits = search_lines(
                    capsys,
                    ["search", docs[doc_id], "--mode", mode, "--config", pipeline["config"]],
                )
                assert code == 0
                assert hits, f"no hits for doc {doc_id} in {mode} mode"
                assert hits[0]["doc_id"] == doc_id

    def test_hybrid_alpha_one_agrees_with_lexical_top_hit(self, pipeline, capsys):
        query = pipeline["docs"][5]
        _, lex = search_lines(
            capsys, ["search", query, "--mode", "lexical", "--config", pipeline["config"]]
        )
        _, hyb = search_lines(
            capsys,
            ["search", query, "--mode", "hybrid", "--alpha", "1.0",
             "--config", pipeline["config"]],
        )
        assert hyb[0]["doc_id"] == lex[0]["doc_id"]

    def test_out_of_vocabulary_query_is_empty(self, pipeline, capsys, monkeypatch):
        # With no query embedding, nothing reads the weights or the vectors.
        def fail(*args):
            raise AssertionError("artifact loaded")

        monkeypatch.setattr(encoder, "load_weights", fail)
        monkeypatch.setattr(vector_index, "load_vectors", fail)
        for mode in ("lexical", "vector", "hybrid"):
            code, hits = search_lines(
                capsys,
                ["search", "zzgblx", "--mode", mode, "--config", pipeline["config"]],
            )
            assert code == 0
            assert hits == []

    def test_edited_vocab_size_fails_before_regenerating(
        self, pipeline, tmp_path, capsys, monkeypatch
    ):
        index_dir = tmp_path / "idx"
        shutil.copytree(pipeline["index_dir"], index_dir)
        config = write_config(tmp_path / "c.json", tmp_path / "x.jsonl", index_dir)
        sidecar = json.loads((index_dir / "weights.json").read_text())
        n_terms = sidecar["config"]["vocab_size"]
        sidecar["config"]["vocab_size"] = 200_000
        (index_dir / "weights.json").write_text(json.dumps(sidecar) + "\n")

        def fail(cfg):
            raise AssertionError("init_weights called")

        monkeypatch.setattr(encoder, "init_weights", fail)
        assert main(["search", pipeline["docs"][0], "--mode", "vector", "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {index_dir / 'weights.json'}: vocab_size 200000 is not the {n_terms} terms "
            "of the lexical index\n"
        )

    def test_sidecar_too_large_to_draw_fails_naming_it(self, pipeline, tmp_path, capsys):
        index_dir = tmp_path / "idx"
        shutil.copytree(pipeline["index_dir"], index_dir)
        config = write_config(tmp_path / "c.json", tmp_path / "x.jsonl", index_dir)
        sidecar = json.loads((index_dir / "weights.json").read_text())
        sidecar["config"]["d_ff"] = 2**40  # an ffn_in of d_model * 2**40 float64s
        (index_dir / "weights.json").write_text(json.dumps(sidecar) + "\n")
        assert main(["search", pipeline["docs"][0], "--mode", "vector", "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(
            f"error: {index_dir / 'weights.json'}: cannot draw the weights it describes: "
        ), captured.err

    def test_snippet_truncation_and_full_flag(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        long_text = "marker999 " + "repeatedly " * 20
        records = [{"text": long_text, "stars": 3, "business_id": "b"}] * 4
        corpus.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        config = write_config(
            tmp_path / "c.json", corpus, tmp_path / "idx",
            split={"train": 98, "val": 1, "test": 1},
        )
        assert main(["ingest", "--config", config]) == 0
        assert main(["index", "--config", config]) == 0
        capsys.readouterr()
        _, hits = search_lines(
            capsys, ["search", "marker999", "--mode", "lexical", "--config", config]
        )
        assert len(hits[0]["text"]) == 80
        _, hits = search_lines(
            capsys,
            ["search", "marker999", "--mode", "lexical", "--full", "--config", config],
        )
        assert hits[0]["text"] == long_text

    def test_k_flag_limits_results(self, pipeline, capsys):
        query = "great food service"
        _, hits = search_lines(
            capsys,
            ["search", query, "--mode", "lexical", "--k", "2", "--config", pipeline["config"]],
        )
        assert len(hits) == 2

    def test_missing_index_fails(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", tmp_path / "x.jsonl", tmp_path / "idx")
        assert main(["search", "anything", "--config", config]) == 1
        assert "index" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", sorted(VECTOR_FILE_FAULTS))
    def test_inconsistent_vectors_file_fails_cleanly(self, pipeline, tmp_path, capsys, fault):
        index_dir = tmp_path / "idx"
        shutil.copytree(pipeline["index_dir"], index_dir)
        config = write_config(tmp_path / "c.json", tmp_path / "x.jsonl", index_dir)
        corrupt_vectors_file(index_dir / "vectors.bin", fault)
        query = pipeline["docs"][0]
        assert main(["search", query, "--mode", "vector", "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
        assert "vectors.bin" in lines[0]

    @pytest.mark.parametrize("fault", sorted(ARTIFACT_FAULTS))
    def test_corrupt_artifact_fails_cleanly(self, pipeline, tmp_path, capsys, fault):
        index_dir = tmp_path / "idx"
        shutil.copytree(pipeline["index_dir"], index_dir)
        config = write_config(tmp_path / "c.json", tmp_path / "x.jsonl", index_dir)
        name, message = corrupt_artifact(index_dir, fault)
        query = pipeline["docs"][0]
        assert main(["search", query, "--mode", "vector", "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
        assert name in lines[0] and message in lines[0], lines[0]

    def test_hits_match_library_path(self, pipeline, capsys):
        index_dir = pipeline["index_dir"]
        lex = lexical_index.load_index(index_dir / "lexical_index.json")
        vec = vector_index.load_vectors(index_dir / "vectors.bin")
        enc_cfg, weights = encoder.load_weights(index_dir / "weights.json")
        for query in (pipeline["docs"][3], "great food service", "slow staff zzgblx"):
            tokens = tokenize(query)
            embedding = encoder.embed([token_ids(tokens, lex.vocabulary)], enc_cfg, weights)[0]
            expected = {
                "vector": vec.search(embedding, 10),
                "hybrid": vector_index.search_hybrid(
                    lex, vec, tokens, embedding, vector_index.HybridConfig()
                ),
            }
            for mode, library_hits in expected.items():
                _, hits = search_lines(
                    capsys, ["search", query, "--mode", mode, "--config", pipeline["config"]]
                )
                assert [(h["doc_id"], h["score"]) for h in hits] == [
                    (h.doc_id, h.score) for h in library_hits
                ]

    def test_one_embedding_serves_every_search_of_a_searcher(self, pipeline, monkeypatch):
        load_vectors, reads = vector_index.load_vectors, []

        def read_vectors(*args):
            reads.append(args)
            return load_vectors(*args)

        monkeypatch.setattr(vector_index, "load_vectors", read_vectors)
        index = searcher.Searcher(pipeline["index_dir"])
        tokens = tokenize(pipeline["docs"][3])
        embedding = index.embed(tokens)
        for mode in searcher.MODES:
            for cfg in (vector_index.HybridConfig(k=3), vector_index.HybridConfig(0.2, 7)):
                assert index.rank(tokens, embedding, mode, cfg) == index.search(tokens, mode, cfg)
        assert len(reads) == 1  # the vectors are read once, by the first search that embeds
        unknown = "mode must be one of lexical, vector, hybrid, got 'fuzzy'"
        with pytest.raises(ValueError, match=unknown):
            index.search(tokens, "fuzzy", vector_index.HybridConfig())
        with pytest.raises(ValueError, match=unknown):
            index.rank(tokens, embedding, "fuzzy", vector_index.HybridConfig())

    def test_a_held_searcher_draws_the_layers_once(self, pipeline, monkeypatch):
        # 20 vector and 20 hybrid searches draw the layers once, and find
        # what a fresh Searcher finds with layers drawn for its one search.
        draw_layers, draws = encoder._draw_layers, []

        def count_draws(cfg):
            draws.append(cfg)
            return draw_layers(cfg)

        monkeypatch.setattr(encoder, "_held", None)
        monkeypatch.setattr(encoder, "_draw_layers", count_draws)
        cfg = vector_index.HybridConfig()
        queries = [(tokenize(pipeline["docs"][i]), mode)
                   for i in range(20) for mode in ("vector", "hybrid")]
        index = searcher.Searcher(pipeline["index_dir"])
        held = [index.search(tokens, mode, cfg) for tokens, mode in queries]
        assert len(draws) == 1 and all(held)
        for (tokens, mode), hits in zip(queries, held):
            monkeypatch.setattr(encoder, "_held", None)
            assert searcher.Searcher(pipeline["index_dir"]).search(tokens, mode, cfg) == hits
        assert len(draws) == 1 + len(queries)

    def test_search_embeds_the_query_as_the_full_weights_do(self, pipeline, capsys, monkeypatch):
        # The search path draws only the query's distinct token rows; the
        # vector it scans with must still be embed's with every row drawn.
        index_dir = pipeline["index_dir"]
        lex = lexical_index.load_index(index_dir / "lexical_index.json")
        enc_cfg, weights = encoder.load_weights(index_dir / "weights.json")
        tables, queries = [], []
        load_weights, vector_search = encoder.load_weights, vector_index.VectorIndex.search

        def load_rows(*args):
            loaded = load_weights(*args)
            tables.append(loaded[1].token_embedding)
            return loaded

        def search(self, query, k):
            queries.append(query)
            return vector_search(self, query, k)

        monkeypatch.setattr(encoder, "load_weights", load_rows)
        monkeypatch.setattr(vector_index.VectorIndex, "search", search)
        # A doc, repeated tokens, and more tokens than max_seq_len keeps: the
        # markers past it are in the vocabulary but must not be drawn.
        markers = [f"marker{i:03d}" for i in range(100)]
        for query in (pipeline["docs"][3], "staff great great staff zzgblx",
                      " ".join(FILLER * 5 + markers)):
            ids = token_ids(tokenize(query), lex.vocabulary)
            code, _ = search_lines(
                capsys, ["search", query, "--mode", "vector", "--config", pipeline["config"]]
            )
            assert code == 0
            assert len(tables[-1]) == len(set(ids[: enc_cfg.max_seq_len])) < enc_cfg.vocab_size
            assert np.array_equal(queries[-1], encoder.embed([ids], enc_cfg, weights)[0])
        assert len(ids) > enc_cfg.max_seq_len and len(tables[-1]) == len(FILLER) < len(set(ids))

    @pytest.mark.parametrize("mode", ["vector", "hybrid"])
    def test_query_weights_are_freed_before_the_vectors_are_read(
        self, pipeline, capsys, monkeypatch, mode
    ):
        # The query's own weights and token rows, kept alive across the read
        # of vectors.bin, changed which pages that read faults in (hundreds
        # more per cold vector search, when every search drew its layers).
        load_weights, load_vectors = encoder.load_weights, vector_index.load_vectors
        refs, reads = [], []

        def load_rows(*args):
            loaded = load_weights(*args)
            refs.append(weakref.ref(loaded[1]))
            return loaded

        def read_vectors(*args):
            assert refs and refs[-1]() is None, "the query's weights are still alive"
            reads.append(args)
            return load_vectors(*args)

        monkeypatch.setattr(encoder, "load_weights", load_rows)
        monkeypatch.setattr(vector_index, "load_vectors", read_vectors)
        code, hits = search_lines(
            capsys, ["search", pipeline["docs"][3], "--mode", mode, "--config", pipeline["config"]]
        )
        assert code == 0 and hits and len(refs) == len(reads) == 1

    def test_search_starts_no_thread(self, pipeline, capsys, monkeypatch):
        # A query is one chunk, so even with many CPUs cold search encodes it
        # in the calling thread and prints what it prints with threads allowed.
        query = pipeline["docs"][7]
        argvs = [["search", query, "--mode", mode, "--config", pipeline["config"]]
                 for mode in ("lexical", "vector", "hybrid")]
        index_dir = pipeline["index_dir"]
        lex = lexical_index.load_index(index_dir / "lexical_index.json")
        ids = token_ids(tokenize(query), lex.vocabulary)
        want = [search_lines(capsys, argv) for argv in argvs]
        def embed_query():  # as search embeds it, from the query's own token rows
            loaded = encoder.load_weights(index_dir / "weights.json", lex.vocabulary.size, ids)
            return encoder.embed([ids], *loaded)[0]

        want_row = embed_query()

        def refuse(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(encoder.os, "sched_getaffinity", cpus(8))
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert [search_lines(capsys, argv) for argv in argvs] == want
        assert all(code == 0 and hits for code, hits in want)
        assert np.array_equal(embed_query(), want_row)

    def test_text_with_unicode_line_separators(self, tmp_path, capsys):
        # json.dumps leaves U+2028 and U+0085 unescaped; str.splitlines splits on them.
        corpus = tmp_path / "corpus.jsonl"
        texts = [f"marker{i} one\u2028two\x85three" for i in range(5)]
        records = [{"text": t, "stars": 3, "business_id": "b"} for t in texts]
        corpus.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        config = write_config(
            tmp_path / "c.json", corpus, tmp_path / "idx", split={"train": 98, "val": 1, "test": 1}
        )
        assert main(["ingest", "--config", config]) == 0
        assert main(["index", "--config", config]) == 0
        capsys.readouterr()
        for mode in ("lexical", "vector", "hybrid"):
            code, hits = search_lines(
                capsys, ["search", "marker2 two", "--mode", mode, "--full", "--config", config]
            )
            assert code == 0
            assert hits and all(h["text"] in texts for h in hits)

    def test_search_reads_only_the_hits_lines(self, pipeline, capsys, monkeypatch):
        # Neither docs.jsonl nor any other file is read whole for a snippet:
        # the reads of docs.jsonl are exactly the hits' lines, in hit order.
        docs_path = pipeline["index_dir"] / "docs.jsonl"
        lines = docs_path.read_bytes().split(b"\n")
        read_bytes, read_text, real_open = Path.read_bytes, Path.read_text, open
        reads = []

        class Recorded:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def read(self, n=-1):
                reads.append(self.f.read(n))
                return reads[-1]

            def __getattr__(self, name):
                return getattr(self.f, name)

        def guarded(read):
            def apply(path, *args, **kwargs):
                assert path.name != "docs.jsonl", "docs.jsonl read whole"
                return read(path, *args, **kwargs)
            return apply

        monkeypatch.setattr(Path, "read_bytes", guarded(read_bytes))
        monkeypatch.setattr(Path, "read_text", guarded(read_text))
        monkeypatch.setattr(searcher, "open", lambda *a: Recorded(real_open(*a)), raising=False)
        for mode in ("lexical", "vector", "hybrid"):
            reads.clear()
            code, hits = search_lines(
                capsys, ["search", "great food service", "--mode", mode, "--k", "3",
                         "--config", pipeline["config"]],
            )
            assert code == 0 and len(hits) == 3
            assert reads == [lines[hit["doc_id"]] + b"\n" for hit in hits], mode

    def test_unknown_mode_rejected_by_parser(self, pipeline):
        with pytest.raises(SystemExit) as exc:
            main(["search", "q", "--mode", "fuzzy", "--config", pipeline["config"]])
        assert exc.value.code == 2


# Texts that a split on str line boundaries, or an unescaped newline, would cut.
TEXTS = st.text(st.sampled_from(["a", "é", "\U0001f600", "\u2028", "\x85", "\n", "\r", '"', "\\"]),
                max_size=6)


class TestDocTexts:
    @given(texts=st.lists(TEXTS, max_size=12), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_seeks_return_what_the_whole_file_split_returns(self, texts, data):
        ids = data.draw(st.lists(st.integers(0, len(texts) - 1), max_size=8) if texts
                        else st.just([]), label="ids")
        with tempfile.TemporaryDirectory() as tmp:
            index_dir = Path(tmp)
            searcher.write_docs(index_dir, [Review(text, 3, "b") for text in texts])
            lines = (index_dir / "docs.jsonl").read_bytes().split(b"\n")
            assert searcher._doc_texts(index_dir, len(texts), ids) == [
                json.loads(lines[doc_id])["text"] for doc_id in ids
            ] == [texts[doc_id] for doc_id in ids]

    def test_no_hits_read_no_file(self, tmp_path):
        assert searcher._doc_texts(tmp_path / "missing", 5, []) == []

    def test_doc_id_past_the_docs_rejected(self, tmp_path):
        searcher.write_docs(tmp_path, [Review("one", 3, "b")])
        with pytest.raises(ValueError, match="line 2 is not doc 1: no such line"):
            searcher._doc_texts(tmp_path, 1, [0, 1])


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    missing = str(tmp_path / "missing.jsonl")
    main(["eval", missing])  # builds the parser, if no earlier call did

    def refuse(*args, **kwargs):
        raise AssertionError("the parser was built again")

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", refuse)
    assert main(["eval", missing]) == 1
    assert "cannot read predictions" in capsys.readouterr().err
    # A parse leaves nothing behind for the next one.
    parser = cli.build_parser()
    assert parser.parse_args(["search", "q", "--full", "--k", "3"]).full
    args = parser.parse_args(["search", "q"])
    assert not args.full and args.k is None and args.mode == "hybrid"


def test_token_ids_look_each_token_up_once():
    class GetOnly(dict):
        def __contains__(self, term):
            raise AssertionError("in")

        def __getitem__(self, term):
            raise AssertionError("[]")

    vocab = Vocabulary(GetOnly(b=0, a=1), [1, 1], 2)
    assert token_ids(["a", "zz", "b", "a"], vocab) == [1, 0, 1]


class TestEval:
    def write_predictions(self, path, pairs):
        lines = [json.dumps({"y_true": t, "y_pred": p}) for t, p in pairs]
        path.write_text("\n".join(lines) + "\n")

    def test_perfect_predictions(self, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        self.write_predictions(preds, [(i % 5, i % 5) for i in range(50)])
        config = write_config(tmp_path / "c.json", tmp_path / "x.jsonl", tmp_path / "idx")
        assert main(["eval", str(preds), "--config", config]) == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["accuracy"] == 1.0
        assert out["weighted_f1"] == pytest.approx(1.0, abs=1e-12)

    def test_hand_case(self, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        self.write_predictions(preds, [(0, 0), (0, 1), (1, 1), (1, 1)])
        config = write_config(
            tmp_path / "c.json", tmp_path / "x.jsonl", tmp_path / "idx", n_classes=2
        )
        assert main(["eval", str(preds), "--config", config]) == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["accuracy"] == pytest.approx(0.75, abs=1e-6)
        assert out["weighted_f1"] == pytest.approx(0.733333, abs=1e-6)

    def test_report_files_written(self, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        self.write_predictions(preds, [(i % 5, (i + 1) % 5) for i in range(25)])
        config = write_config(tmp_path / "c.json", tmp_path / "x.jsonl", tmp_path / "idx")
        assert main(["eval", str(preds), "--config", config]) == 0
        for name in ("report.json", "confusion.csv", "confusion_normalized.csv"):
            assert (tmp_path / "idx" / name).exists()
        report = json.loads((tmp_path / "idx" / "report.json").read_text())
        assert len(report["per_class"]) == 5

    def test_class_count_too_large_to_allocate_fails(self, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        self.write_predictions(preds, [(0, 0), (1, 0)])
        config = write_config(
            tmp_path / "c.json", tmp_path / "x.jsonl", tmp_path / "idx", n_classes=16777216
        )
        assert main(["eval", str(preds), "--config", config]) == 1  # a 2 PiB confusion matrix
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: out of memory: "), captured.err

    def test_empty_predictions_fail(self, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        preds.write_text("\n\n")
        config = write_config(tmp_path / "c.json", tmp_path / "x.jsonl", tmp_path / "idx")
        assert main(["eval", str(preds), "--config", config]) == 1
        assert "no predictions" in capsys.readouterr().err

    def test_out_of_range_label_names_line(self, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        self.write_predictions(preds, [(0, 0), (0, 7)])
        config = write_config(tmp_path / "c.json", tmp_path / "x.jsonl", tmp_path / "idx")
        assert main(["eval", str(preds), "--config", config]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "out of range" in err

    def test_malformed_record_names_line(self, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        preds.write_text('{"y_true": 0, "y_pred": 0}\nnot json\n')
        config = write_config(tmp_path / "c.json", tmp_path / "x.jsonl", tmp_path / "idx")
        assert main(["eval", str(preds), "--config", config]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("label", [1.7, True, "3", None])
    def test_non_integer_label_names_line(self, tmp_path, capsys, label):
        preds = tmp_path / "preds.jsonl"
        self.write_predictions(preds, [(0, 0), (label, 1)])
        config = write_config(tmp_path / "c.json", tmp_path / "x.jsonl", tmp_path / "idx")
        assert main(["eval", str(preds), "--config", config]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "y_true must be an integer" in err

    def test_integer_valued_float_label_accepted(self, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        self.write_predictions(preds, [(1.0, 1), (2, 2.0)])
        config = write_config(tmp_path / "c.json", tmp_path / "x.jsonl", tmp_path / "idx")
        assert main(["eval", str(preds), "--config", config]) == 0
        assert json.loads(capsys.readouterr().out)["accuracy"] == 1.0

    def test_raw_line_separators_inside_a_record_are_no_line_break(self, tmp_path, capsys):
        """json.dumps(..., ensure_ascii=False) writes U+2028, U+2029 and U+0085
        as raw characters, which str.splitlines splits at; only \\n, \\r\\n
        and \\r end a line."""
        config = write_config(tmp_path / "c.json", tmp_path / "x.jsonl", tmp_path / "idx")
        pairs = [(0, 0), (1, 2), (3, 3)]
        plain = tmp_path / "plain.jsonl"
        self.write_predictions(plain, pairs)
        assert main(["eval", str(plain), "--config", config]) == 0
        expected = capsys.readouterr().out
        for note in ("a\u2028b", "a\u2029b", "a\x85b"):
            lines = [
                json.dumps({"y_true": t, "y_pred": p, **({"note": note} if i == 1 else {})},
                           ensure_ascii=False)
                for i, (t, p) in enumerate(pairs)
            ]
            assert note in lines[1]
            preds = tmp_path / "noted.jsonl"
            preds.write_text("\n".join(lines) + "\n", encoding="utf-8")
            assert main(["eval", str(preds), "--config", config]) == 0
            assert capsys.readouterr().out == expected
            preds.write_text("\n".join([*lines, "not json"]) + "\n", encoding="utf-8")
            assert main(["eval", str(preds), "--config", config]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {preds}: line 4: bad record: Expecting value"), err

    def eval_matches_naive_eval(self, tmp_path, capsys, lines: list[str]) -> None:
        """eval of ``lines``, each ended by a newline, for 12 classes gives
        naive_eval's exit code, stdout, stderr and files."""
        preds, out_dir = tmp_path / "preds.jsonl", tmp_path / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        preds.write_text("".join(line + "\n" for line in lines))
        config = write_config(tmp_path / "c.json", tmp_path / "x.jsonl", out_dir, n_classes=12)
        code = main(["eval", str(preds), "--config", config])
        out, err = capsys.readouterr()
        files = {f.name: f.read_bytes() for f in out_dir.iterdir()} if out_dir.exists() else {}
        assert (code, out, err, files) == naive_eval(preds, 12)

    DUMPS_LINES = [json.dumps({"y_true": i % 12, "y_pred": i * 7 % 12}) for i in range(30)]

    def test_json_dumps_lines_skip_the_json_loop(self, tmp_path, capsys, monkeypatch):
        """A file of json.dumps lines is decoded in bulk, out-of-range labels
        included: io_utils.json_lines never runs."""
        def refuse(*args, **kwargs):
            raise AssertionError("io_utils.json_lines ran")

        monkeypatch.setattr(io_utils, "json_lines", refuse)
        self.eval_matches_naive_eval(tmp_path, capsys, self.DUMPS_LINES)
        for k in (0, 13, 29):
            for pair in ((12, 3), (3, 12), (2**63 - 1, 99), (0, 10**18)):
                lines = list(self.DUMPS_LINES)
                lines[k] = json.dumps({"y_true": pair[0], "y_pred": pair[1]})
                self.eval_matches_naive_eval(tmp_path, capsys, lines)

    @pytest.mark.parametrize("k", [0, 13, 29])
    @pytest.mark.parametrize("pair", [(1, 2), (12, 3)])
    def test_one_other_line_takes_the_json_loop(self, tmp_path, capsys, monkeypatch, k, pair):
        """One line in another form, first, in the middle or last, sends the
        whole file through io_utils.json_lines, with the same outcome."""
        calls, json_lines = [], io_utils.json_lines

        def recorded(lines, *args, **kwargs):
            calls.append(len(lines))
            return json_lines(lines, *args, **kwargs)

        monkeypatch.setattr(io_utils, "json_lines", recorded)
        lines = list(self.DUMPS_LINES)
        lines[k] = json.dumps({"y_true": pair[0], "y_pred": pair[1]}, separators=(",", ":"))
        self.eval_matches_naive_eval(tmp_path, capsys, lines)
        assert calls == [30]

    @pytest.mark.parametrize("n_classes", [5, 12])
    def test_bulk_eval_holds_the_labels_not_the_file(self, tmp_path, capsys, n_classes):
        """One eval of 200k json.dumps lines peaks under 40 traced bytes per
        line and 1 MiB: the labels take 16, and no file-sized temporary fits.
        Five classes give 27-byte lines, the shortest; twelve give some of 28
        and 29 bytes, so that the labels fill less than their array."""
        n, rng = 200_000, random.Random(31)
        preds, labels = tmp_path / "preds.jsonl", range(n_classes)
        self.write_predictions(preds, zip(rng.choices(labels, k=n), rng.choices(labels, k=n)))
        config = write_config(
            tmp_path / "c.json", tmp_path / "x.jsonl", tmp_path / "idx", n_classes=n_classes
        )
        tracemalloc.start()
        try:
            code = main(["eval", str(preds), "--config", config])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and capsys.readouterr().err == ""
        assert peak < 40 * n + 2**20

    def test_missing_predictions_file(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", tmp_path / "x.jsonl", tmp_path / "idx")
        assert main(["eval", str(tmp_path / "nope.jsonl"), "--config", config]) == 1


class TestConfig:
    def test_flag_overrides_config_k(self, pipeline, capsys):
        _, hits = search_lines(
            capsys,
            ["search", "great food", "--mode", "lexical", "--k", "1",
             "--config", pipeline["config"]],
        )
        assert len(hits) == 1

    def test_invalid_config_json_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["ingest", "--config", str(bad)]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_config_must_be_an_object(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert main(["ingest", "--config", str(bad)]) == 1
        assert "invalid configuration: config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, key",
        [({"batch_size": 16}, "batch_size"), ({"split": {"trian": 80}}, "trian"),
         ({"weights": "index/weights.json"}, "weights")],
    )
    def test_unknown_key_rejected(self, tmp_path, capsys, extra, key):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, n=10)
        config = write_config(tmp_path / "c.json", corpus, tmp_path / "idx", **extra)
        assert main(["ingest", "--config", config]) == 1
        assert f"invalid configuration: unknown key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "idx").exists()

    def test_readme_config_example_is_the_defaults(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
        path = tmp_path / "example.json"
        path.write_text(example)
        cfg = load_config(str(path), argparse.Namespace())
        default = load_config(None, argparse.Namespace())
        assert cfg.source_path == default.source_path
        assert dataclasses.replace(cfg, index_source=None) == default
        # ...and it lists every accepted key.
        raw = json.loads(example)
        assert set(raw) == set(CONFIG_KEYS) and set(raw["split"]) == set(SPLIT_KEYS)
        assert set(raw["encoder"]) == set(default.encoder_params)
        assert set(raw["tokenizer"]) == {f.name for f in dataclasses.fields(default.tokenizer)}

    @pytest.mark.parametrize(
        "key, value",
        [("k", 2.5), ("k", True), ("candidate_factor", 1.5), ("candidate_factor", True),
         ("alpha", True), ("alpha", "0.5"),
         ("seed", 2.5), ("seed", "7"), ("seed", True), ("n_classes", 2.5),
         *(pytest.param(section, {name: value}, id=f"{section}.{name}-{value}")
           for section, name, value in [
               ("encoder", "d_model", 64.0), ("encoder", "max_seq_len", 2.5),
               ("encoder", "n_layers", True), ("tokenizer", "lowercase", "no"),
               ("tokenizer", "min_token_len", 1.0), ("split", "per_class", 2.5),
           ])],
    )
    def test_mistyped_search_setting_rejected(self, pipeline, tmp_path, capsys, key, value):
        config = write_config(
            tmp_path / "c.json", tmp_path / "x.jsonl", pipeline["index_dir"], **{key: value}
        )
        assert main(["search", "great food", "--mode", "lexical", "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        if isinstance(value, dict):  # a nested setting: the error names its field
            (key,) = value
            key = SPLIT_KEYS.get(key, key)
        assert captured.err.startswith(f"error: invalid configuration: {key} must be"), captured.err

    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (["index"], "index_dir", 5),
            (["search", "great food"], "index_dir", 5),
            (["ingest"], "corpus", ["a"]),
            (["index"], "index_source", True),
        ],
        ids=["index-index_dir", "search-index_dir", "ingest-corpus", "index-index_source"],
    )
    def test_mistyped_path_setting_rejected(self, tmp_path, monkeypatch, capsys, argv, key, value):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({key: value}))
        assert main([*argv, "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: invalid configuration: {key} must be a path string, got {value!r}\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "p.jsonl", "--k", "5"],
            ["ingest", "--alpha", "0.3"],
            ["search", "q", "--seed", "7"],
        ],
        ids=["eval-k", "ingest-alpha", "search-seed"],
    )
    def test_flag_outside_its_subcommand_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_invalid_alpha_flag_fails(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", tmp_path / "x.jsonl", tmp_path / "idx")
        assert main(["search", "q", "--alpha", "1.5", "--config", config]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_invalid_encoder_params_fail(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, n=10)
        config = write_config(tmp_path / "c.json", corpus, tmp_path / "idx")
        raw = json.loads(Path(config).read_text())
        raw["encoder"] = {"d_model": 10, "n_heads": 3}
        Path(config).write_text(json.dumps(raw))
        assert main(["ingest", "--config", config]) == 1
        assert "invalid configuration" in capsys.readouterr().err


def test_demo_runs_end_to_end(tmp_path, capsys):
    script = Path(__file__).parents[1] / "scripts" / "run_demo.py"
    spec = importlib.util.spec_from_file_location("run_demo", script)
    run_demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_demo)
    run_demo.demo(tmp_path)  # a CLI step that exits nonzero raises SystemExit
    assert sorted(p.name for p in (tmp_path / "index").iterdir()) == [
        "confusion.csv", "confusion_normalized.csv", "distribution.json", "doc_offsets.bin",
        "docs.jsonl", "lexical_index.json", "report.json", "test.jsonl", "train.jsonl", "val.jsonl",
        "vectors.bin", "weights.json",
    ]
