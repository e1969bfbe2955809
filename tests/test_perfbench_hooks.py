"""The benchmark's traced runs wrap desksearch functions by name; a renamed or
dropped name would only break ``perfbench/run.py --trace 1``, or zero its
metrics without an error, so check here that every name it wraps still exists,
that a traced build still reaches the encoder's spans and counts every byte it
writes, and that a traced search
still counts each query term's df as its postings scanned."""

import json
import types
from pathlib import Path

import pytest

import desksearch.cli as cli
from desksearch import (
    dataset, encoder, io_utils, lexical_index, metrics, text_pipeline, vector_index,
)


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import layers
    import tracing

    return layers, tracing


def installed_tracer(perfbench):
    layers, tracing = perfbench
    ds = types.SimpleNamespace(
        cli=cli, dataset=dataset, encoder=encoder, io_utils=io_utils,
        lexical_index=lexical_index, metrics=metrics, text_pipeline=text_pipeline,
        vector_index=vector_index,
    )
    tracer = tracing.Tracer()
    layers.install(tracer, ds)  # getattr raises AttributeError for a missing name
    return tracer


def test_every_wrapped_name_exists(perfbench):
    tracer = installed_tracer(perfbench)
    # install only records the wrappers; nothing is patched until tracer.begin.
    assert tracer._patches
    for owner, attr, original, _wrapper in tracer._patches:
        assert callable(original) and getattr(owner, attr) is original, attr


def test_traced_index_reports_encoder_spans(perfbench, tmp_path):
    _, tracing = perfbench
    source = tmp_path / "source.jsonl"
    source.write_text("".join(
        json.dumps({"text": text, "stars": 1, "business_id": "b"}) + "\n"
        for text in ("great food", "slow service and cold food", "great staff", "")
    ))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"index_dir": str(tmp_path / "idx"), "index_source": str(source)}))
    tracer = installed_tracer(perfbench)
    tracer.begin(tracing.BUILD)
    try:
        assert cli.main(["index", "--config", str(config)]) == 0
    finally:
        tracer.end()
    for span in ("encoder.encode", "encoder.self_attention", "encoder.swiglu_ffn",
                 "encoder.positional_encoding", "text_pipeline.build_vocabulary",
                 "lexical_index.build_index"):
        assert tracer.layer_value(span, tracing.BUILD, "incl") > 0, span
    assert tracer.layer_value("encoder.encode_calls", tracing.BUILD, "count") > 0
    # Every artifact index writes goes through the wrapped atomic write.
    written = sum(p.stat().st_size for p in (tmp_path / "idx").iterdir())
    assert tracer.layer_value("io_utils.bytes_written", tracing.BUILD, "count") == written


def test_traced_eval_reports_the_metrics_spans(perfbench, tmp_path):
    """eval must reach the metrics functions through their module, where
    perfbench wraps them, or their spans read 0 with no error."""
    _, tracing = perfbench
    preds = tmp_path / "p.jsonl"
    preds.write_text("".join(
        json.dumps({"y_true": i % 5, "y_pred": i * 3 % 5}) + "\n" for i in range(50)
    ))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"index_dir": str(tmp_path / "out")}))
    tracer = installed_tracer(perfbench)
    tracer.begin(tracing.BUILD)
    try:
        assert cli.main(["eval", str(preds), "--config", str(config)]) == 0
    finally:
        tracer.end()
    for span in ("metrics.confusion_counts", "metrics.compute_report",
                 "metrics.confusion_to_csv"):
        assert tracer.layer_value(span, tracing.BUILD, "incl") > 0, span


def test_traced_searches_count_the_query_terms_postings(perfbench):
    """perfbench counts postings as len(index.postings[t]); through a lexical
    search and through the lexical side of a hybrid search, that must be the
    sum of the query terms' df."""
    _, tracing = perfbench
    docs = [text_pipeline.tokenize(text) for text in (
        "great food", "slow service and cold food", "great staff", "", "food food food",
    )]
    lex = lexical_index.build_index(docs)
    query = ["food", "great", "food", "zzz"]
    df_sum = sum(sum(term in doc for doc in docs) for term in {"food", "great"})
    tracer = installed_tracer(perfbench)
    searches = (
        lambda: lexical_index.search_lexical(lex, query, 3),
        lambda: vector_index.search_hybrid(lex, None, query, None, vector_index.HybridConfig(k=3)),
    )
    for search in searches:
        tracer.begin(tracing.QUERY)
        try:
            assert search()
        finally:
            tracer.end()
    counts = [tracer.counts[(op, "lexical_index.postings_scanned")] for op in tracer.ops]
    assert counts == [df_sum, df_sum] == [5, 5]


def test_traced_search_reports_the_load_spans(perfbench, tmp_path):
    """cold_search's load and token metrics come from the wrappers perfbench
    puts on the loaders' and cli's module attributes; a search path that bound
    those names at import would read 0 there, with no error."""
    _, tracing = perfbench
    source = tmp_path / "source.jsonl"
    source.write_text("".join(
        json.dumps({"text": text, "stars": 1, "business_id": "b"}) + "\n"
        for text in ("great food", "slow service and cold food", "great staff")
    ))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"index_dir": str(tmp_path / "idx"), "index_source": str(source)}))
    assert cli.main(["index", "--config", str(config)]) == 0
    loads = ("lexical_index.load_index", "encoder.load_weights", "vector_index.load_vectors")
    for mode in ("lexical", "vector", "hybrid"):
        tracer = installed_tracer(perfbench)
        tracer.begin(tracing.QUERY)
        try:
            assert cli.main(["search", "great food", "--mode", mode, "--config", str(config)]) == 0
        finally:
            tracer.end()
        # A lexical search reads neither the weights nor the vectors.
        reached = loads[:1] if mode == "lexical" else loads
        for span in loads:
            assert (tracer.layer_value(span, tracing.QUERY, "incl") > 0) == (span in reached), span
        assert tracer.layer_value("text_pipeline.tokens", tracing.QUERY, "count") == 2, mode
