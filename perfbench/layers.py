"""Which desksearch functions the traced run wraps, the per-layer metrics it
derives from them, and the end-to-end metric each one should move.

Set-up builds (ingest, index, eval) run in both workloads, so BUILD-phase
metrics exist on both; QUERY-phase metrics come from the timed query loop.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from tracing import BUILD, QUERY, Tracer


class Layer(NamedTuple):
    metric: str
    unit: str
    source: str  # span or count name
    phase: str  # BUILD: per set-up build; QUERY: per query
    stat: str  # "incl" or "self" span time in ms, or "count"
    moves: str  # the end-to-end metric (and workload) it should move


BOTH = "warm_query and cold_search"
LAYERS = [
    Layer("dataset.load_reviews_ms", "ms", "dataset.load_reviews", BUILD, "incl", f"ingest_s, index_s on {BOTH}"),
    Layer("dataset.split_ms", "ms", "dataset.split", BUILD, "incl", f"ingest_s on {BOTH}"),
    Layer("dataset.write_reviews_ms", "ms", "dataset.write_reviews", BUILD, "incl", f"ingest_s on {BOTH}"),
    Layer("dataset.reviews_loaded", "count", "dataset.reviews_loaded", BUILD, "count", f"ingest_s on {BOTH}"),
    Layer("dataset.reviews_skipped", "count", "dataset.reviews_skipped", BUILD, "count", f"ingest_s on {BOTH}"),
    Layer("text_pipeline.tokenize_total_ms", "ms", "text_pipeline.tokenize", BUILD, "incl", f"index_s on {BOTH}"),
    Layer("text_pipeline.tokens_total", "count", "text_pipeline.tokens", BUILD, "count", f"index_s on {BOTH}"),
    Layer("text_pipeline.build_vocabulary_ms", "ms", "text_pipeline.build_vocabulary", BUILD, "incl", f"index_s on {BOTH}"),
    Layer("text_pipeline.tokenize_ms", "ms", "text_pipeline.tokenize", QUERY, "incl", "query_p50_ms on warm_query"),
    Layer("text_pipeline.tokens", "count", "text_pipeline.tokens", QUERY, "count", "query_p50_ms on warm_query"),
    Layer("lexical_index.build_index_ms", "ms", "lexical_index.build_index", BUILD, "self", f"index_s on {BOTH}"),
    Layer("lexical_index.save_index_ms", "ms", "lexical_index.save_index", BUILD, "incl", f"index_s on {BOTH}"),
    Layer("lexical_index.file_bytes", "bytes", "lexical_index.file_bytes", BUILD, "count", f"index_bytes on {BOTH}; query_p50_ms on cold_search"),
    Layer("lexical_index.load_index_ms", "ms", "lexical_index.load_index", QUERY, "incl", "query_p50_ms, query_p90_ms on cold_search"),
    Layer("lexical_index.search_ms", "ms", "lexical_index.search_lexical", QUERY, "incl", "lexical_p50_ms, hybrid_p50_ms on warm_query"),
    Layer("lexical_index.postings_scanned", "count", "lexical_index.postings_scanned", QUERY, "count", "lexical_p50_ms, hybrid_p50_ms on warm_query"),
    Layer("encoder.encode_total_ms", "ms", "encoder.encode", BUILD, "incl", f"index_s on {BOTH}"),
    Layer("encoder.self_attention_total_ms", "ms", "encoder.self_attention", BUILD, "incl", f"index_s on {BOTH}"),
    Layer("encoder.swiglu_ffn_total_ms", "ms", "encoder.swiglu_ffn", BUILD, "incl", f"index_s on {BOTH}"),
    Layer("encoder.positional_encoding_total_ms", "ms", "encoder.positional_encoding", BUILD, "incl", f"index_s on {BOTH}"),
    Layer("encoder.encode_self_total_ms", "ms", "encoder.encode", BUILD, "self", f"index_s on {BOTH}"),
    Layer("encoder.encode_calls_total", "count", "encoder.encode_calls", BUILD, "count", f"index_s on {BOTH}"),
    Layer("encoder.tokens_encoded_total", "count", "encoder.tokens_encoded", BUILD, "count", f"index_s on {BOTH}"),
    Layer("encoder.encode_ms", "ms", "encoder.encode", QUERY, "incl", "vector_p50_ms, hybrid_p50_ms on warm_query"),
    Layer("encoder.self_attention_ms", "ms", "encoder.self_attention", QUERY, "incl", "vector_p50_ms, hybrid_p50_ms on warm_query"),
    Layer("encoder.swiglu_ffn_ms", "ms", "encoder.swiglu_ffn", QUERY, "incl", "vector_p50_ms, hybrid_p50_ms on warm_query"),
    Layer("encoder.positional_encoding_ms", "ms", "encoder.positional_encoding", QUERY, "incl", "vector_p50_ms, hybrid_p50_ms on warm_query"),
    Layer("encoder.encode_self_ms", "ms", "encoder.encode", QUERY, "self", "vector_p50_ms, hybrid_p50_ms on warm_query"),
    Layer("encoder.encode_calls", "count", "encoder.encode_calls", QUERY, "count", "vector_p50_ms, hybrid_p50_ms on warm_query"),
    Layer("encoder.tokens_encoded", "count", "encoder.tokens_encoded", QUERY, "count", "vector_p50_ms, hybrid_p50_ms on warm_query"),
    Layer("encoder.init_weights_ms", "ms", "encoder.init_weights", BUILD, "incl", f"index_s on {BOTH}"),
    Layer("encoder.save_weights_ms", "ms", "encoder.save_weights", BUILD, "incl", f"index_s on {BOTH}"),
    Layer("encoder.load_weights_ms", "ms", "encoder.load_weights", QUERY, "incl", "query_p50_ms on cold_search"),
    Layer("vector_index.add_total_ms", "ms", "vector_index.add", BUILD, "incl", f"index_s on {BOTH}"),
    Layer("vector_index.add_ms", "ms", "vector_index.add", QUERY, "incl", "vector_p50_ms, hybrid_p50_ms on cold_search (through load_vectors)"),
    Layer("vector_index.save_vectors_ms", "ms", "vector_index.save_vectors", BUILD, "incl", f"index_s on {BOTH}"),
    Layer("vector_index.file_bytes", "bytes", "vector_index.file_bytes", BUILD, "count", f"index_s, index_bytes on {BOTH}"),
    Layer("vector_index.load_vectors_ms", "ms", "vector_index.load_vectors", QUERY, "self", "vector_p50_ms, hybrid_p50_ms on cold_search"),
    Layer("vector_index.search_ms", "ms", "vector_index.search", QUERY, "incl", "vector_p50_ms, hybrid_p50_ms on warm_query"),
    Layer("vector_index.rows_scanned", "count", "vector_index.rows_scanned", QUERY, "count", "vector_p50_ms, hybrid_p50_ms on warm_query"),
    Layer("vector_index.fusion_ms", "ms", "vector_index.search_hybrid", QUERY, "self", "hybrid_p50_ms on warm_query"),
    Layer("metrics.confusion_counts_ms", "ms", "metrics.confusion_counts", BUILD, "incl", f"eval_s on {BOTH}"),
    Layer("metrics.compute_report_ms", "ms", "metrics.compute_report", BUILD, "incl", f"eval_s on {BOTH}"),
    Layer("metrics.confusion_to_csv_ms", "ms", "metrics.confusion_to_csv", BUILD, "incl", f"eval_s on {BOTH}"),
    Layer("cli.ingest_self_ms", "ms", "cli.ingest", BUILD, "self", f"ingest_s on {BOTH}"),
    Layer("cli.index_self_ms", "ms", "cli.index", BUILD, "self", f"index_s on {BOTH}"),
    Layer("cli.eval_self_ms", "ms", "cli.eval", BUILD, "self", f"eval_s on {BOTH}"),
    Layer("cli.search_self_ms", "ms", "cli.search", QUERY, "self", "query_p50_ms on cold_search"),
    Layer("io_utils.write_ms", "ms", "io_utils.write", BUILD, "incl", f"ingest_s, index_s on {BOTH}"),
    Layer("io_utils.bytes_written", "bytes", "io_utils.bytes_written", BUILD, "count", f"ingest_s, index_s, index_bytes on {BOTH}"),
]

# Traced minus untraced end-to-end numbers, measured in the same traced run.
OVERHEAD = [
    ("trace.setup_overhead_s", "s"),
    ("trace.index_overhead_s", "s"),
    ("trace.query_p50_overhead_ms", "ms"),
]


def _count_loaded(tracer: Tracer, _span, _parent, _args, result) -> None:
    tracer.count("dataset.reviews_loaded", len(result.reviews))
    tracer.count("dataset.reviews_skipped", result.skipped)


def _count_tokens(tracer: Tracer, _span, _parent, _args, result) -> None:
    tracer.count("text_pipeline.tokens", len(result))


def _file_bytes(name: str):
    def after(tracer: Tracer, _span, _parent, args, _result) -> None:
        tracer.count(name, os.path.getsize(args[1]))
    return after


def _count_postings(tracer: Tracer, _span, parent, args, result) -> None:
    index, query_tokens = args[0], args[1]
    term_ids = {index.vocabulary.term_to_id.get(t) for t in query_tokens} - {None}
    tracer.count("lexical_index.postings_scanned", sum(len(index.postings[t]) for t in term_ids))
    tracer.pools[parent].update(hit.doc_id for hit in result)


def _count_rows(tracer: Tracer, _span, parent, args, result) -> None:
    tracer.count("vector_index.rows_scanned", len(args[0]))
    tracer.pools[parent].update(hit.doc_id for hit in result)


def _count_fused(tracer: Tracer, span, _parent, _args, result) -> None:
    pool = tracer.pools.pop(span, set())
    tracer.count("vector_index.fused_pool", len(pool))
    tracer.count("vector_index.hits_returned", len(result))


def _count_encoded(tracer: Tracer, _span, _parent, args, _result) -> None:
    tracer.count("encoder.encode_calls", 1)
    tracer.count("encoder.tokens_encoded", len(args[0]))


def _count_written(tracer: Tracer, _span, _parent, args, _result) -> None:
    tracer.count("io_utils.bytes_written", len(args[1]))


def install(tracer: Tracer, ds) -> None:
    """Register a wrapper for every public function the layer table names.

    Names that a module imported from another (``cli.tokenize``,
    ``vector_index.search_lexical``, ``vector_index.atomic_write_bytes``) are
    wrapped where the caller looks them up.
    """
    wrap = tracer.wrap
    wrap(ds.dataset, "load_reviews", "dataset.load_reviews", _count_loaded)
    wrap(ds.dataset, "split", "dataset.split")
    wrap(ds.dataset, "write_reviews", "dataset.write_reviews")
    wrap(ds.text_pipeline, "tokenize", "text_pipeline.tokenize", _count_tokens)
    wrap(ds.cli, "tokenize", "text_pipeline.tokenize", _count_tokens)
    wrap(ds.text_pipeline, "build_vocabulary", "text_pipeline.build_vocabulary")
    wrap(ds.lexical_index, "build_index", "lexical_index.build_index")
    wrap(ds.lexical_index, "save_index", "lexical_index.save_index", _file_bytes("lexical_index.file_bytes"))
    wrap(ds.lexical_index, "load_index", "lexical_index.load_index")
    wrap(ds.lexical_index, "search_lexical", "lexical_index.search_lexical", _count_postings)
    wrap(ds.vector_index, "search_lexical", "lexical_index.search_lexical", _count_postings)
    wrap(ds.encoder, "encode", "encoder.encode", _count_encoded)
    wrap(ds.encoder, "positional_encoding", "encoder.positional_encoding")
    wrap(ds.encoder, "self_attention", "encoder.self_attention")
    wrap(ds.encoder, "swiglu_ffn", "encoder.swiglu_ffn")
    wrap(ds.encoder, "init_weights", "encoder.init_weights")
    wrap(ds.encoder, "save_weights", "encoder.save_weights")
    wrap(ds.encoder, "load_weights", "encoder.load_weights")
    wrap(ds.vector_index.VectorIndex, "add", "vector_index.add")
    wrap(ds.vector_index.VectorIndex, "search", "vector_index.search", _count_rows)
    wrap(ds.vector_index, "save_vectors", "vector_index.save_vectors", _file_bytes("vector_index.file_bytes"))
    wrap(ds.vector_index, "load_vectors", "vector_index.load_vectors")
    wrap(ds.vector_index, "search_hybrid", "vector_index.search_hybrid", _count_fused)
    wrap(ds.metrics, "confusion_counts", "metrics.confusion_counts")
    wrap(ds.metrics, "compute_report", "metrics.compute_report")
    wrap(ds.metrics, "confusion_to_csv", "metrics.confusion_to_csv")
    # One span per CLI call, named after the subcommand: its self time is
    # argument parsing, configuration and the command's own code.
    wrap(ds.cli, "main", lambda args: f"cli.{args[0][0]}")
    wrap(ds.io_utils, "atomic_write_bytes", "io_utils.write", _count_written)
    wrap(ds.vector_index, "atomic_write_bytes", "io_utils.write", _count_written)


def candidates_per_hit(tracer: Tracer) -> float:
    """Fused candidate pool over hits returned, summed over traced hybrid queries."""
    totals = {name: 0.0 for name in ("vector_index.fused_pool", "vector_index.hits_returned")}
    for (op, name), value in tracer.counts.items():
        if name in totals and tracer.ops[op] == QUERY:
            totals[name] += value
    hits = totals["vector_index.hits_returned"]
    return totals["vector_index.fused_pool"] / hits if hits else 0.0
