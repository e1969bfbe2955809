"""Print the lines of every byte-identity gate on the benchmark's corpus, to
check in one command that two versions of desksearch rank, answer and run the
offline pipeline byte-identically.

Usage: python scripts/gates.py

In a temporary directory, which it removes, the script writes the seed-5
10k-review corpus and predictions file with ``perfbench/inputs.py``, on the
words of ``tests/conftest.WORDS``, and runs ``ingest``, ``index`` and ``eval``
on them with seed 3 through ``pipeline_digest.run_pipeline``.  It prints
``hit_digest.py``'s and ``cli_digest.py``'s two lines each for the index that
built (a full line, then one over the doc ids alone), then
``pipeline_digest.py``'s lines for those inputs.  Run it once per version with
that version's ``src`` first on PYTHONPATH, and compare the two outputs with
``diff``.  A change that moves only scores may change the two full lines and
must keep the rest.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import cli_digest  # this script's directory is on sys.path
import hit_digest
import pipeline_digest

ROOT = Path(__file__).resolve().parent.parent
sys.path += [str(ROOT / "perfbench"), str(ROOT / "tests")]

import inputs  # noqa: E402  perfbench/inputs.py
from conftest import WORDS  # noqa: E402

CORPUS_SEED = 5
INDEX_SEED = 3


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp).resolve()
        corpus, predictions, work = tmp / "corpus.jsonl", tmp / "predictions.jsonl", tmp / "work"
        inputs.write_corpus(corpus, CORPUS_SEED, WORDS)
        inputs.write_predictions(predictions, CORPUS_SEED)
        work.mkdir()
        pipeline = pipeline_digest.digests(corpus, predictions, INDEX_SEED, work)
        print(*hit_digest.digest_lines(work / "index"), sep="\n")
        print(*cli_digest.digest_lines(work / "index"), sep="\n")
        print(pipeline, end="")


if __name__ == "__main__":
    main()
