import json
import random
import shutil
from pathlib import Path

import pytest
from conftest import VECTOR_FILE_FAULTS, corrupt_vectors_file

from desksearch.cli import main

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


def search_lines(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line.strip()]


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
        for name in ("lexical_index.json", "vectors.bin", "weights.npz", "docs.jsonl"):
            assert (index_dir / name).exists()
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
        first = {
            name: (tmp_path / "idx" / name).read_bytes()
            for name in ("lexical_index.json", "vectors.bin")
        }
        assert main(["index", "--config", config]) == 0
        for name, payload in first.items():
            assert (tmp_path / "idx" / name).read_bytes() == payload

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

    def test_out_of_vocabulary_query_is_empty(self, pipeline, capsys):
        for mode in ("lexical", "vector"):
            code, hits = search_lines(
                capsys,
                ["search", "zzgblx", "--mode", mode, "--config", pipeline["config"]],
            )
            assert code == 0
            assert hits == []

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

    def test_unknown_mode_rejected_by_parser(self, pipeline):
        with pytest.raises(SystemExit) as exc:
            main(["search", "q", "--mode", "fuzzy", "--config", pipeline["config"]])
        assert exc.value.code == 2


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
