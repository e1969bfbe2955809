"""The benchmark's traced runs wrap desksearch functions by name; a renamed or
dropped name would only break ``perfbench/run.py --trace 1``, or zero its
metrics without an error, so check here that every name it wraps still exists,
that a traced build still reaches the encoder's spans and that a traced search
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
