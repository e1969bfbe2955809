"""Print one sha256 over the hit lists an index returns, to check that two
versions of desksearch rank bit-identically.

Usage: python scripts/hit_digest.py INDEX_DIR

The queries are drawn with a fixed seed from the index's own terms, plus
tokens that are in no document (some queries hold only those).  Each query is
searched at every k in KS in lexical, vector and hybrid mode, hybrid at every
alpha in ALPHAS.  The script prints the number of hit lists and the sha256 of
each list's doc ids and ``float.hex`` scores, taken in grid order, then a
second line with the sha256 of the doc ids alone.  Run it once per version on
the same index directory with that version's ``src`` on PYTHONPATH, and compare
the lines: a change that keeps every score keeps both, and one that moves only
scores keeps the second.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import random
from pathlib import Path

from desksearch.searcher import Searcher
from desksearch.vector_index import HybridConfig

N_QUERIES = 1500
SEED = 20240301
KS = (1, 10, 40, 3000)
ALPHAS = (0.0, 0.3, 0.5, 1.0)
UNSEEN_SHARE = 0.1  # chance that a query token is in no document


def make_queries(terms: list[str], n: int, seed: int) -> list[list[str]]:
    """n token lists of 1-6 tokens, each an index term or, with probability
    UNSEEN_SHARE, one of five tokens in no document."""
    unseen = [f"unseen{i}" for i in range(5)]
    if set(unseen) & set(terms):
        raise SystemExit("error: the index holds a token reserved for unseen queries")
    rng = random.Random(seed)
    return [
        [rng.choice(unseen) if rng.random() < UNSEEN_SHARE else rng.choice(terms)
         for _ in range(rng.randint(1, 6))]
        for _ in range(n)
    ]


def hit_lists(index_dir: Path):
    """Yield (label, hits) for every query x k x mode (x alpha) of the grid."""
    searcher = Searcher(index_dir)
    terms = searcher.lex.vocabulary.id_to_term()
    for qi, tokens in enumerate(make_queries(terms, N_QUERIES, SEED)):
        # Embedded as `desksearch search` embeds it, once for the whole grid.
        rank = functools.partial(searcher.rank, tokens, searcher.embed(tokens))
        for k in KS:
            yield f"{qi} lexical k={k}", rank("lexical", HybridConfig(k=k))
            yield f"{qi} vector k={k}", rank("vector", HybridConfig(k=k))
            for alpha in ALPHAS:
                yield f"{qi} hybrid k={k} alpha={alpha}", rank("hybrid", HybridConfig(alpha, k))


def digest_lines(index_dir: Path) -> tuple[str, str]:
    """The two lines the script prints for INDEX_DIR: over ids and scores,
    then over ids alone."""
    full, ids_only, count = hashlib.sha256(), hashlib.sha256(), 0
    for label, hits in hit_lists(index_dir):
        ids = [str(h.doc_id) for h in hits]
        scored = [f"{i}:{float(h.score).hex()}" for i, h in zip(ids, hits)]
        full.update(f"{label}: {' '.join(scored)}\n".encode())
        ids_only.update(f"{label}: {' '.join(ids)}\n".encode())
        count += 1
    return (
        f"{count} hit lists, sha256 {full.hexdigest()}",
        f"{count} hit lists, doc ids only, sha256 {ids_only.hexdigest()}",
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("index_dir", type=Path)
    print(*digest_lines(parser.parse_args().index_dir), sep="\n")


if __name__ == "__main__":
    main()
