"""The benchmark's traced runs wrap desksearch functions by name; a renamed or
dropped name would only break ``perfbench/run.py --trace 1``, so check here
that every name it wraps still exists."""

import types
from pathlib import Path

import desksearch.cli as cli
from desksearch import (
    dataset, encoder, io_utils, lexical_index, metrics, text_pipeline, vector_index,
)


def test_every_wrapped_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import layers
    import tracing

    ds = types.SimpleNamespace(
        cli=cli, dataset=dataset, encoder=encoder, io_utils=io_utils,
        lexical_index=lexical_index, metrics=metrics, text_pipeline=text_pipeline,
        vector_index=vector_index,
    )
    tracer = tracing.Tracer()
    layers.install(tracer, ds)  # getattr raises AttributeError for a missing name
    # install only records the wrappers; nothing is patched until tracer.begin.
    assert tracer._patches
    for owner, attr, original, _wrapper in tracer._patches:
        assert callable(original) and getattr(owner, attr) is original, attr
