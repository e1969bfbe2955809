"""Seeded input generators: the review corpus, the query mix and the
predictions file.  The same seed always gives byte-identical inputs."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

N_DOCS = 10_000
N_PREDICTIONS = 100_000
N_CLASSES = 5
MODES = ("lexical", "vector", "hybrid")


def write_corpus(path: Path, seed: int, words: list[str], n_docs: int = N_DOCS) -> None:
    """The acceptance-criterion-10 corpus: a unique marker token plus eight
    common words per review.  Seed 12 reproduces that test's file exactly."""
    rng = random.Random(seed)
    with open(path, "w") as f:
        for i in range(n_docs):
            text = f"m{i:05d} " + " ".join(rng.choices(words, k=8))
            record = {"text": text, "stars": (i % 5) + 1, "business_id": f"b{i % 50}"}
            f.write(json.dumps(record) + "\n")


def prediction_pairs(seed: int, n: int = N_PREDICTIONS) -> list[tuple[int, int]]:
    """(true, predicted) labels of a noisy rating classifier that is right 70%
    of the time (the demo's predictor), over uniformly drawn true labels."""
    rng = random.Random(f"{seed}:predictions")
    pairs = []
    for _ in range(n):
        y_true = rng.randrange(N_CLASSES)
        y_pred = y_true if rng.random() < 0.7 else rng.randrange(N_CLASSES)
        pairs.append((y_true, y_pred))
    return pairs


def write_predictions(path: Path, seed: int) -> None:
    """The eval input: one {"y_true", "y_pred"} JSON object per line."""
    pairs = prediction_pairs(seed)
    path.write_text("".join(json.dumps({"y_true": t, "y_pred": p}) + "\n" for t, p in pairs))


@dataclass(frozen=True)
class Query:
    text: str
    mode: str
    marker_doc: int | None  # doc id that a lexical search must rank first


def make_queries(seed: int, words: list[str], markers: dict[str, int], n: int) -> list[Query]:
    """n queries (a multiple of 30), modes interleaved lexical/vector/hybrid.

    Every mode gets the same mix of query shapes, in fixed proportions so that
    a new seed changes which words are drawn but not how long the queries are:
    - 30%: one indexed marker token (df = 1) plus 0-3 common words;
    - 60%: 1-12 common words (long postings, long encoder sequences);
    - 10%: 1-3 tokens in no document (empty lexical side, no query embedding).
    """
    if n % 30:
        raise ValueError("the query count must be a multiple of 30")
    rng = random.Random(f"{seed}:queries")
    per_mode = n // len(MODES)
    n_marker, n_common, n_oov = per_mode * 3 // 10, per_mode * 6 // 10, per_mode // 10
    shapes = []
    for _ in MODES:
        mode_shapes = (
            [("marker", j * 4 // n_marker) for j in range(n_marker)]
            + [("common", 1 + j * 12 // n_common) for j in range(n_common)]
            + [("oov", 1 + j * 3 // n_oov) for j in range(n_oov)]
        )
        rng.shuffle(mode_shapes)
        shapes.append(mode_shapes)
    marker_tokens = sorted(markers)
    queries = []
    for i in range(n):
        mode = MODES[i % len(MODES)]
        kind, size = shapes[i % len(MODES)][i // len(MODES)]
        if kind == "marker":
            marker = rng.choice(marker_tokens)
            tokens = rng.choices(words, k=size)
            tokens.insert(rng.randint(0, size), marker)
            queries.append(Query(" ".join(tokens), mode, markers[marker]))
        elif kind == "common":
            queries.append(Query(" ".join(rng.choices(words, k=size)), mode, None))
        else:
            oov = [f"q{rng.randrange(10**6):06d}x" for _ in range(size)]
            queries.append(Query(" ".join(oov), mode, None))
    return queries
