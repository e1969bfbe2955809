"""Command-line pipeline: ingest -> index -> search, plus metrics evaluation.

Configuration comes from a JSON file (--config) with flag overrides on top;
flags win.  Machine-readable output goes to stdout as JSON-lines, diagnostics
to stderr.  Exit code 0 on success, nonzero on any validation or I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import dataset, encoder, io_utils, lexical_index, metrics, vector_index
from .io_utils import atomic_write_text, require_int
from .searcher import LEXICAL_FILE, MODES, VECTOR_FILE, WEIGHTS_FILE, Searcher, write_docs
from .text_pipeline import TokenizerConfig, token_ids, tokenize

SNIPPET_LEN = 80

# Bytes per confusion-matrix cell that eval holds at its peak: the counts and
# their bincount, the row-normalized copy, and each CSV as text and as UTF-8
# bytes.  Peak RSS grew 26.1-26.4 bytes per cell for K = 500..2000; the rest is
# headroom for cells longer than "0" and "0.0".
EVAL_BYTES_PER_CELL = 32


class CliError(Exception):
    """Validation or I/O failure that should abort with a nonzero exit."""


@dataclass
class RunConfig:
    corpus: str = "corpus.jsonl"
    index_dir: str = "index"
    index_source: str | None = None  # default: <index_dir>/train.jsonl
    seed: int = 0
    n_classes: int = 5
    search: vector_index.HybridConfig = field(default_factory=vector_index.HybridConfig)
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
        require_int("n_classes", self.n_classes, 2)
        for name in ("corpus", "index_dir", "index_source"):  # a null index_source is the default
            value = getattr(self, name)
            if not isinstance(value, str) and (value is not None or name != "index_source"):
                raise ValueError(f"{name} must be a path string, got {value!r}")

    @property
    def source_path(self) -> Path:
        return Path(self.index_source or Path(self.index_dir) / "train.jsonl")


# Config keys that map one to one onto a RunConfig or HybridConfig field.
PLAIN_KEYS = ("corpus", "index_dir", "index_source", "n_classes")
SEARCH_KEYS = tuple(f.name for f in fields(vector_index.HybridConfig))
CONFIG_KEYS = (*PLAIN_KEYS, "seed", *SEARCH_KEYS, "split", "encoder", "tokenizer")
# "split" key -> SplitSpec field
SPLIT_KEYS = {
    "train": "train_pct", "val": "val_pct", "test": "test_pct", "per_class": "per_class_train"
}


def _known_keys(section: object, allowed, where: str) -> dict:
    if not isinstance(section, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ValueError(f"unknown key {', '.join(map(repr, unknown))} in {where}")
    return section


def load_config(path: str | None, overrides: argparse.Namespace) -> RunConfig:
    """Merge defaults, the JSON config file, and command-line flags (flags win).

    Unknown keys are rejected, so a misspelt setting cannot be silently ignored.
    """
    raw: object = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8 or JSON
            raise CliError(f"cannot read config {path}: {exc}") from exc

    def flag(name: str, fallback=None):
        value = getattr(overrides, name, None)
        return value if value is not None else raw.get(name, fallback)

    try:
        _known_keys(raw, CONFIG_KEYS, "config")
        split_raw = _known_keys(raw.get("split", {}), SPLIT_KEYS, "split")
        seed = flag("seed", 0)
        encoder_params = {**RunConfig().encoder_params, **raw.get("encoder", {})}
        # Check the encoder parameters and the seed now, before any subcommand runs.
        encoder.EncoderConfig(vocab_size=1, seed=seed, **encoder_params)
        return RunConfig(
            **{key: raw[key] for key in PLAIN_KEYS if key in raw},
            seed=seed,
            search=vector_index.HybridConfig(
                **{key: value for key in SEARCH_KEYS if (value := flag(key)) is not None}
            ),
            tokenizer=TokenizerConfig(**raw.get("tokenizer", {})),
            encoder_params=encoder_params,
            split_spec=dataset.SplitSpec(
                **{SPLIT_KEYS[key]: value for key, value in split_raw.items()}, seed=seed
            ),
        )
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid configuration: {exc}") from exc


def cmd_ingest(cfg: RunConfig) -> int:
    try:
        result = dataset.load_reviews(cfg.corpus)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read corpus {cfg.corpus}: {exc}") from exc
    if not result.reviews:
        raise CliError(f"corpus {cfg.corpus} contains no valid reviews")

    bundle = dataset.split(result.reviews, cfg.split_spec)

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
    try:
        docs = dataset.load_reviews(source).reviews
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read corpus {source}: {exc}") from exc
    token_lists = [tokenize(r.text, cfg.tokenizer) for r in docs]

    out_dir = Path(cfg.index_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lex = lexical_index.build_index(token_lists)
    lexical_index.save_index(lex, out_dir / LEXICAL_FILE)

    if lex.vocabulary.size == 0:
        print("warning: empty corpus, indexes contain no terms or vectors", file=sys.stderr)
        vec = vector_index.VectorIndex(cfg.encoder_params["d_model"])
    else:
        enc_cfg = encoder.EncoderConfig(
            vocab_size=lex.vocabulary.size, seed=cfg.seed, **cfg.encoder_params
        )
        weights = encoder.init_weights(enc_cfg)
        encoder.save_weights(enc_cfg, weights, out_dir / WEIGHTS_FILE)
        # Every term comes from some doc, so at least one doc is embedded.
        id_lists = [token_ids(tokens, lex.vocabulary) for tokens in token_lists]
        doc_ids = [doc_id for doc_id, ids in enumerate(id_lists) if ids]
        vec = vector_index.VectorIndex.from_arrays(
            doc_ids, encoder.embed([id_lists[doc_id] for doc_id in doc_ids], enc_cfg, weights)
        )
    vector_index.save_vectors(vec, out_dir / VECTOR_FILE)

    write_docs(out_dir, docs)

    print(
        json.dumps(
            {"docs": len(docs), "terms": lex.vocabulary.size, "vectors": len(vec)}
        )
    )
    return 0


def cmd_search(cfg: RunConfig, query: str, mode: str, full_text: bool) -> int:
    searcher = Searcher(cfg.index_dir)
    tokens = tokenize(query, cfg.tokenizer)
    try:
        hits = searcher.search(tokens, mode, cfg.search)
        texts = searcher.texts(hits)
    except OSError as exc:
        raise CliError(f"cannot load index artifacts: {exc}") from exc

    for hit, text in zip(hits, texts):
        if not full_text:
            text = text[:SNIPPET_LEN]
        print(io_utils.encode_json({"doc_id": hit.doc_id, "score": hit.score, "text": text}))
    return 0


def _out_of_range(path: str, line_no: int, y_true: int, y_pred: int, n_classes: int) -> CliError:
    label = y_pred if 0 <= y_true < n_classes else y_true
    return CliError(f"{path}: line {line_no}: label {label} out of range for {n_classes} classes")


def cmd_eval(cfg: RunConfig, predictions_path: str) -> int:
    try:
        labels = io_utils.label_pairs(predictions_path)  # json.dumps's exact form, in bulk
        lines = io_utils.read_lines(predictions_path) if labels is None else []
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read predictions {predictions_path}: {exc}") from exc

    n_classes, ys_true, ys_pred, line_no = cfg.n_classes, [], [], 0
    if labels is not None and int(labels.max()) >= n_classes:  # so n_classes fits int64
        line_no = int(np.argmax(labels.max(axis=1) >= n_classes))
        raise _out_of_range(predictions_path, line_no + 1, *labels[line_no].tolist(), n_classes)
    try:
        for line_no, record in io_utils.json_lines(lines) if labels is None else ():
            y_true = dataset.parse_label(record["y_true"], "y_true")
            y_pred = dataset.parse_label(record["y_pred"], "y_pred")
            if not 0 <= y_true < n_classes > y_pred >= 0:  # both labels in range
                raise _out_of_range(predictions_path, line_no, y_true, y_pred, n_classes)
            ys_true.append(y_true)
            ys_pred.append(y_pred)
    except io_utils.JSONLineError as exc:
        raise CliError(f"{predictions_path}: line {exc.line_no}: bad record: {exc.error}") from exc
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise CliError(f"{predictions_path}: line {line_no}: bad record: {exc}") from exc
    if labels is None and not ys_true:
        raise CliError(f"{predictions_path} contains no predictions")

    # Before any label becomes int64 (one past int64 fits only a matrix that
    # cannot) and before any file is written.
    io_utils.require_memory(
        EVAL_BYTES_PER_CELL * n_classes**2,
        f"confusion matrices and CSVs for n_classes {n_classes}",
    )
    if labels is None:
        labels = np.array([ys_true, ys_pred], dtype=np.int64).T
    cm = metrics.confusion_counts(labels, n_classes)
    report = metrics.compute_report(cm)
    out_dir = Path(cfg.index_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_dir / "report.json", json.dumps(report, indent=2) + "\n")
    atomic_write_text(out_dir / "confusion.csv", metrics.confusion_to_csv(cm))
    atomic_write_text(
        out_dir / "confusion_normalized.csv", metrics.confusion_to_csv(cm, normalized=True)
    )
    print(json.dumps({"accuracy": report["accuracy"], "weighted_f1": report["weighted_f1"]}))
    return 0


@functools.cache  # one parser per process: building it costs more than a parse
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="desksearch",
        description="Desk-scale hybrid lexical + vector search engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, seed: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON configuration file")
        if seed:
            p.add_argument("--seed", type=int, help="override the configured seed")
        return p

    command("ingest", "split a review corpus into train/val/test", seed=True)
    command("index", "build lexical and vector indexes", seed=True)

    p_search = command("search", "query the indexes")
    p_search.add_argument("--k", type=int, help="number of results to return")
    p_search.add_argument("--alpha", type=float, help="lexical weight for hybrid fusion")
    p_search.add_argument("query")
    p_search.add_argument("--mode", choices=MODES, default="hybrid")
    p_search.add_argument(
        "--full", action="store_true", help="print full document text, not snippets"
    )

    command("eval", "score a predictions file").add_argument("predictions")

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
    except (CliError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
