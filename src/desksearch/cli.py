"""Command-line pipeline: ingest -> index -> search, plus metrics evaluation.

Configuration comes from a JSON file (--config) with flag overrides on top;
flags win.  Machine-readable output goes to stdout as JSON-lines, diagnostics
to stderr.  Exit code 0 on success, nonzero on any validation or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dataset, encoder, lexical_index, metrics, vector_index
from .io_utils import atomic_write_text
from .text_pipeline import TokenizerConfig, tokenize

SNIPPET_LEN = 80

LEXICAL_FILE = "lexical_index.json"
VECTOR_FILE = "vectors.bin"
WEIGHTS_FILE = "weights.npz"
DOCS_FILE = "docs.jsonl"


class CliError(Exception):
    """Validation or I/O failure that should abort with a nonzero exit."""


@dataclass
class RunConfig:
    corpus: str = "corpus.jsonl"
    index_dir: str = "index"
    weights: str | None = None  # default: <index_dir>/weights.npz
    index_source: str | None = None  # default: <index_dir>/train.jsonl
    seed: int = 0
    k: int = 10
    alpha: float = 0.5
    n_classes: int = 5
    batch_size: int = 16
    candidate_factor: int = 4
    tokenizer: TokenizerConfig = field(default_factory=TokenizerConfig)
    encoder_params: dict = field(
        default_factory=lambda: {
            "d_model": 64,
            "n_heads": 4,
            "n_layers": 2,
            "d_ff": 128,
            "max_seq_len": 128,
        }
    )
    split_spec: dataset.SplitSpec = field(default_factory=dataset.SplitSpec)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

    @property
    def weights_path(self) -> Path:
        return Path(self.weights) if self.weights else Path(self.index_dir) / WEIGHTS_FILE

    @property
    def source_path(self) -> Path:
        return (
            Path(self.index_source)
            if self.index_source
            else Path(self.index_dir) / "train.jsonl"
        )


def load_config(path: str | None, overrides: argparse.Namespace) -> RunConfig:
    """Merge defaults, the JSON config file, and command-line flags (flags win)."""
    raw: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config {path}: {exc}") from exc

    def flag(name: str, fallback):
        value = getattr(overrides, name, None)
        return value if value is not None else raw.get(name, fallback)

    try:
        seed = flag("seed", 0)
        split_raw = dict(raw.get("split", {}))
        encoder_params = {**RunConfig().encoder_params, **raw.get("encoder", {})}
        # Shape-check the encoder parameters now, before any subcommand runs.
        encoder.EncoderConfig(vocab_size=1, seed=0, **encoder_params)
        return RunConfig(
            corpus=raw.get("corpus", "corpus.jsonl"),
            index_dir=raw.get("index_dir", "index"),
            weights=raw.get("weights"),
            index_source=raw.get("index_source"),
            seed=seed,
            k=flag("k", 10),
            alpha=flag("alpha", 0.5),
            n_classes=raw.get("n_classes", 5),
            batch_size=raw.get("batch_size", 16),
            candidate_factor=raw.get("candidate_factor", 4),
            tokenizer=TokenizerConfig(**raw.get("tokenizer", {})),
            encoder_params=encoder_params,
            split_spec=dataset.SplitSpec(
                train_pct=split_raw.get("train", 70),
                val_pct=split_raw.get("val", 15),
                test_pct=split_raw.get("test", 15),
                per_class_train=split_raw.get("per_class"),
                seed=seed,
            ),
        )
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid configuration: {exc}") from exc


def _doc_token_ids(
    tokens: list[str], vocab, max_seq_len: int
) -> list[int]:
    ids = [vocab.term_to_id[t] for t in tokens if t in vocab.term_to_id]
    return ids[:max_seq_len]


def _embed_docs(
    token_lists: list[list[str]],
    vocab,
    enc_cfg: encoder.EncoderConfig,
    weights: encoder.EncoderWeights,
    batch_size: int,
) -> dict[int, np.ndarray]:
    """Embed documents in deterministic doc-id order, chunked by batch_size.

    Documents with no in-vocabulary tokens get no embedding.
    """
    out: dict[int, np.ndarray] = {}
    for start in range(0, len(token_lists), batch_size):
        for doc_id in range(start, min(start + batch_size, len(token_lists))):
            ids = _doc_token_ids(token_lists[doc_id], vocab, enc_cfg.max_seq_len)
            if ids:
                out[doc_id] = encoder.encode(ids, enc_cfg, weights)
    return out


def cmd_ingest(cfg: RunConfig) -> int:
    try:
        result = dataset.load_reviews(cfg.corpus)
    except OSError as exc:
        raise CliError(f"cannot read corpus {cfg.corpus}: {exc}") from exc
    if not result.reviews:
        raise CliError(f"corpus {cfg.corpus} contains no valid reviews")

    bundle = dataset.split(result.reviews, cfg.split_spec)
    if cfg.split_spec.per_class_train is not None:
        bundle.train = dataset.balanced_resample(
            bundle.train, cfg.split_spec.per_class_train, cfg.split_spec.seed
        )

    out_dir = Path(cfg.index_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    splits = {"train": bundle.train, "val": bundle.validation, "test": bundle.test}
    for name, reviews in splits.items():
        dataset.write_reviews(reviews, out_dir / f"{name}.jsonl", name)

    report = {
        "loaded": len(result.reviews),
        "skipped": result.skipped,
        "splits": {
            name: {
                "size": len(reviews),
                "distribution": dataset.class_distribution(reviews) if reviews else {},
            }
            for name, reviews in splits.items()
        },
    }
    atomic_write_text(out_dir / "distribution.json", json.dumps(report, indent=2) + "\n")
    print(json.dumps({name: len(reviews) for name, reviews in splits.items()}))
    return 0


def cmd_index(cfg: RunConfig) -> int:
    source = cfg.source_path
    if not source.exists():
        raise CliError(f"no ingested corpus at {source}; run `desksearch ingest` first")
    result = dataset.load_reviews(source)
    docs = result.reviews
    token_lists = [tokenize(r.text, cfg.tokenizer) for r in docs]

    out_dir = Path(cfg.index_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lex = lexical_index.build_index(token_lists)
    lexical_index.save_index(lex, out_dir / LEXICAL_FILE)

    d_model = cfg.encoder_params["d_model"]
    vec = vector_index.VectorIndex(d_model)
    if lex.vocabulary.size == 0:
        print("warning: empty corpus, indexes contain no terms or vectors", file=sys.stderr)
    else:
        enc_cfg = encoder.EncoderConfig(
            vocab_size=lex.vocabulary.size, seed=cfg.seed, **cfg.encoder_params
        )
        weights = encoder.init_weights(enc_cfg)
        encoder.save_weights(enc_cfg, weights, cfg.weights_path)
        embeddings = _embed_docs(
            token_lists, lex.vocabulary, enc_cfg, weights, cfg.batch_size
        )
        doc_ids = sorted(embeddings)
        vec = vector_index.VectorIndex.from_arrays(
            doc_ids, np.array([embeddings[d] for d in doc_ids]).reshape(len(doc_ids), d_model)
        )
    vector_index.save_vectors(vec, out_dir / VECTOR_FILE)

    doc_lines = [
        json.dumps({"doc_id": i, "text": r.text, "stars": r.stars}, ensure_ascii=False)
        for i, r in enumerate(docs)
    ]
    atomic_write_text(out_dir / DOCS_FILE, "\n".join(doc_lines) + ("\n" if doc_lines else ""))

    print(
        json.dumps(
            {"docs": len(docs), "terms": lex.vocabulary.size, "vectors": len(vec)}
        )
    )
    return 0


def _load_doc_texts(index_dir: Path) -> dict[int, str]:
    texts: dict[int, str] = {}
    docs_path = index_dir / DOCS_FILE
    if docs_path.exists():
        for line in docs_path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                record = json.loads(line)
                texts[record["doc_id"]] = record["text"]
    return texts


def _query_embedding(
    query_tokens: list[str], lex, weights_path: Path
) -> np.ndarray | None:
    enc_cfg, weights = encoder.load_weights(weights_path)
    ids = _doc_token_ids(query_tokens, lex.vocabulary, enc_cfg.max_seq_len)
    if not ids:
        return None
    return encoder.encode(ids, enc_cfg, weights)


def cmd_search(cfg: RunConfig, query: str, mode: str, full_text: bool) -> int:
    index_dir = Path(cfg.index_dir)
    lex_path = index_dir / LEXICAL_FILE
    if not lex_path.exists():
        raise CliError(f"no index at {lex_path}; run `desksearch index` first")
    lex = lexical_index.load_index(lex_path)
    query_tokens = tokenize(query, cfg.tokenizer)

    try:
        if mode == "lexical":
            hits = lexical_index.search_lexical(lex, query_tokens, cfg.k)
        elif mode == "vector":
            embedding = _query_embedding(query_tokens, lex, cfg.weights_path)
            if embedding is None:
                hits = []
            else:
                vec = vector_index.load_vectors(index_dir / VECTOR_FILE)
                hits = vec.search(embedding, cfg.k)
        else:  # hybrid
            embedding = _query_embedding(query_tokens, lex, cfg.weights_path)
            vec = vector_index.load_vectors(index_dir / VECTOR_FILE)
            hits = vector_index.search_hybrid(
                lex,
                vec,
                query_tokens,
                embedding,
                vector_index.HybridConfig(
                    alpha=cfg.alpha, k=cfg.k, candidate_factor=cfg.candidate_factor
                ),
            )
    except OSError as exc:
        raise CliError(f"cannot load index artifacts: {exc}") from exc

    texts = _load_doc_texts(index_dir)
    for hit in hits:
        text = texts.get(hit.doc_id, "")
        if not full_text:
            text = text[:SNIPPET_LEN]
        print(
            json.dumps(
                {"doc_id": hit.doc_id, "score": hit.score, "text": text},
                ensure_ascii=False,
            )
        )
    return 0


def cmd_eval(cfg: RunConfig, predictions_path: str) -> int:
    try:
        lines = Path(predictions_path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CliError(f"cannot read predictions {predictions_path}: {exc}") from exc

    pairs: list[tuple[int, int]] = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            y_true, y_pred = int(record["y_true"]), int(record["y_pred"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise CliError(f"{predictions_path}: line {line_no}: bad record: {exc}") from exc
        for label in (y_true, y_pred):
            if not 0 <= label < cfg.n_classes:
                raise CliError(
                    f"{predictions_path}: line {line_no}: label {label} out of range "
                    f"for {cfg.n_classes} classes"
                )
        pairs.append((y_true, y_pred))
    if not pairs:
        raise CliError(f"{predictions_path} contains no predictions")

    cm = metrics.confusion_counts(pairs, cfg.n_classes)
    report = metrics.compute_report(cm)
    out_dir = Path(cfg.index_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_dir / "report.json", report.to_json() + "\n")
    atomic_write_text(out_dir / "confusion.csv", metrics.confusion_to_csv(cm))
    atomic_write_text(
        out_dir / "confusion_normalized.csv", metrics.confusion_to_csv(cm, normalized=True)
    )
    print(json.dumps({"accuracy": report.accuracy, "weighted_f1": report.weighted_f1}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="desksearch",
        description="Desk-scale hybrid lexical + vector search engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--seed", type=int, help="override the configured seed")
        p.add_argument("--k", type=int, help="number of results to return")
        p.add_argument("--alpha", type=float, help="lexical weight for hybrid fusion")

    p_ingest = sub.add_parser("ingest", help="split a review corpus into train/val/test")
    common(p_ingest)

    p_index = sub.add_parser("index", help="build lexical and vector indexes")
    common(p_index)

    p_search = sub.add_parser("search", help="query the indexes")
    common(p_search)
    p_search.add_argument("query")
    p_search.add_argument(
        "--mode", choices=("lexical", "vector", "hybrid"), default="hybrid"
    )
    p_search.add_argument(
        "--full", action="store_true", help="print full document text, not snippets"
    )

    p_eval = sub.add_parser("eval", help="score a predictions file")
    common(p_eval)
    p_eval.add_argument("predictions")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "index":
            return cmd_index(cfg)
        if args.command == "search":
            return cmd_search(cfg, args.query, args.mode, args.full)
        return cmd_eval(cfg, args.predictions)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
