"""An index directory, opened once and searched any number of times.

The module owns the directory's file names and its doc store (``docs.jsonl``
and ``doc_offsets.bin``).  It calls the loaders and searches through their
modules, never through names bound at import: the benchmark's traced runs
wrap them there.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from . import encoder, io_utils, lexical_index, vector_index
from .dataset import Review
from .lexical_index import SearchHit
from .text_pipeline import token_ids
from .vector_index import HybridConfig

LEXICAL_FILE = "lexical_index.json"
VECTOR_FILE = "vectors.bin"
WEIGHTS_FILE = "weights.json"
DOCS_FILE = "docs.jsonl"
OFFSETS_FILE = "doc_offsets.bin"
OFFSETS_FORMAT = "desksearch-doc-offsets"
OFFSETS_VERSION = 1
MODES = ("lexical", "vector", "hybrid")


class Searcher:
    """The index in ``index_dir``.  Opening it reads the lexical index; the
    first search that embeds a query reads the vectors, checked against the
    sidecar's ``d_model``, once that query's weights are gone: alive across
    the read, they made a cold search fault in hundreds more fresh pages.
    Each embedding reads and checks the sidecar and draws the query's token
    rows; the layers are drawn once per process per config, kept read-only
    by ``encoder.load_weights``, and checked against every sidecar read."""

    def __init__(self, index_dir: str | Path):
        self.index_dir = Path(index_dir)
        path = self.index_dir / LEXICAL_FILE
        if not path.exists():
            raise FileNotFoundError(f"no index at {path}; run `desksearch index` first")
        self.lex = lexical_index.load_index(path)
        self._vec: vector_index.VectorIndex | None = None

    def search(self, tokens: list[str], mode: str, cfg: HybridConfig) -> list[SearchHit]:
        """The top ``cfg.k`` hits for the query ``tokens`` in ``mode``."""
        embedding = self.embed(tokens) if mode in ("vector", "hybrid") else None
        return self.rank(tokens, embedding, mode, cfg)

    def embed(self, tokens: list[str]) -> np.ndarray | None:
        """The query's embedding from its own token rows and the process's
        layers; the query's weights are dropped on return.  None if no token
        is in the vocabulary."""
        ids = token_ids(tokens, self.lex.vocabulary)
        if not ids:
            return None
        weights = encoder.load_weights(self.index_dir / WEIGHTS_FILE, self.lex.vocabulary.size, ids)
        return encoder.embed([ids], *weights)[0]

    def rank(self, tokens: list[str], embedding: np.ndarray | None, mode: str,
             cfg: HybridConfig) -> list[SearchHit]:
        """As ``search``, given the query's ``embed``, which may serve many calls."""
        if mode not in MODES:
            raise ValueError(f"mode must be one of {', '.join(MODES)}, got {mode!r}")
        if mode == "lexical":
            return lexical_index.search_lexical(self.lex, tokens, cfg.k)
        if embedding is not None and self._vec is None:
            self._vec = vector_index.load_vectors(self.index_dir / VECTOR_FILE, len(embedding))
        if mode == "hybrid":
            return vector_index.search_hybrid(self.lex, self._vec, tokens, embedding, cfg)
        return self._vec.search(embedding, cfg.k) if embedding is not None else []

    def texts(self, hits: list[SearchHit]) -> list[str]:
        """The text of each hit's doc, from the doc store."""
        return _doc_texts(self.index_dir, self.lex.vocabulary.n_docs, [hit.doc_id for hit in hits])


def write_docs(out_dir: Path, docs: list[Review]) -> None:
    """Write doc d's record as line d of ``docs.jsonl``, then the byte where
    each line starts, and the file's size, to ``doc_offsets.bin``."""
    blob = io_utils.write_json_lines(out_dir / DOCS_FILE, {
        "doc_id": range(len(docs)),
        "text": [r.text for r in docs],
        "stars": [r.stars for r in docs],
    })
    # Line d starts after the d-th newline: JSON escapes a text's newlines,
    # and no other character's UTF-8 bytes hold 0x0A.
    starts = np.zeros(len(docs) + 1, dtype="<i8")
    starts[1:] = np.flatnonzero(np.frombuffer(blob, np.uint8) == 0x0A) + 1
    io_utils.write_artifact(
        out_dir / OFFSETS_FILE, OFFSETS_FORMAT, OFFSETS_VERSION, {"n_docs": len(docs)}, [starts]
    )


def _load_offsets(path: Path, n_docs: int) -> np.ndarray:
    """The ``n_docs + 1`` line starts of a ``doc_offsets.bin`` written for the
    lexical index's ``n_docs``; beyond the checks of ``read_artifact``, another
    doc count or starts that do not rise strictly from 0 raise ValueError
    naming the file."""
    header, (starts,) = io_utils.read_artifact(
        path, OFFSETS_FORMAT, OFFSETS_VERSION, ("n_docs",), lambda n: [("<i8", n + 1)]
    )
    if header["n_docs"] != n_docs:
        raise ValueError(
            f"{path}: n_docs {header['n_docs']} is not the {n_docs} docs of the lexical index"
        )
    if starts[0] != 0 or not (starts[1:] > starts[:-1]).all():
        raise ValueError(f"{path}: line starts must rise strictly from 0")
    return starts


def _doc_texts(index_dir: Path, n_docs: int, doc_ids: list[int]) -> list[str]:
    """The text of each listed doc.  Doc d is the line of ``docs.jsonl`` from
    byte ``starts[d]`` to ``starts[d + 1]``, the ``doc_offsets.bin`` entries;
    only those lines are read, and each must be the record of its doc, or
    ValueError names the file.  An empty list reads no file."""
    if not doc_ids:
        return []
    offsets_path, docs_path = index_dir / OFFSETS_FILE, index_dir / DOCS_FILE
    starts = _load_offsets(offsets_path, n_docs)
    texts = []
    with open(docs_path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size != starts[-1]:
            raise ValueError(
                f"{docs_path}: {size} bytes, but {offsets_path} ends its last line at byte "
                f"{starts[-1]}"
            )
        for doc_id in doc_ids:
            try:
                if not 0 <= doc_id < n_docs:
                    raise ValueError("no such line")
                f.seek(starts[doc_id])
                line = f.read(starts[doc_id + 1] - starts[doc_id])
                if not line.endswith(b"\n"):
                    raise ValueError(f"it does not end where {OFFSETS_FILE} starts the next")
                record = json.loads(line)
                if record["doc_id"] != doc_id or not isinstance(record["text"], str):
                    raise ValueError("doc_id or text does not match")
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                raise ValueError(
                    f"{docs_path}: line {doc_id + 1} is not doc {doc_id}: {exc}"
                ) from exc
            texts.append(record["text"])
    return texts
