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

Then it runs ``eval`` alone on a copy of the predictions file with each
line re-serialized by ``json.dumps(..., separators=(",", ":"))``, a form that
``eval`` decodes line by line rather than in bulk.  If any of that run's
``eval`` digests differs from the canonical file's, it exits 1 naming the
first that differs; if they agree, it prints nothing for them.

Then it runs ``ingest`` and ``index`` alone on a seeded corpus of hard
text (``write_hard_corpus``), whose reviews hold every character that JSON
escapes or that a line split might cut at, and prints their
``pipeline_digest.py`` lines with each name under ``hard/``.

Last, it runs ``ingest`` and ``index`` alone on a seeded corpus that looks
like reviews (``write_review_corpus``): Zipf-distributed words, log-normal
lengths past the encoder's ``max_seq_len``, words that go with the stars.
It prints ``hit_digest.py``'s two lines for that index, each after
``reviews: ``, then the two commands' ``pipeline_digest.py`` lines with each
name under ``reviews/``.

After every other line, it runs ``ingest`` alone on a seeded corpus that
mixes valid lines with every kind of line that ``ingest`` skips
(``write_mixed_corpus``), and prints its ``pipeline_digest.py`` lines with
each name under ``mixed/``.
"""

from __future__ import annotations

import json
import math
import random
import sys
import tempfile
from itertools import accumulate
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
HARD_SEED = 11
HARD_DOCS = 1_000
REVIEW_SEED = 13
REVIEW_DOCS = 2_000
REVIEW_LEXICON = 30_000  # pseudo-words, ranked for the Zipf draw
ZIPF_EXPONENT = 1.1
MEDIAN_WORDS = 60  # of the log-normal review length
STAR_SHARES = (0.15, 0.08, 0.11, 0.22, 0.44)  # of reviews with 1..5 stars
MIXED_SEED = 17
MIXED_LINES = 600
SYLLABLES = [c + v for c in "bcdfghjklmnprstvwz" for v in "aeiou"] + ["qu", "th", "sh", "ch"]
# What json.dumps escapes (a quote, a backslash, control characters), what it
# writes raw with ensure_ascii=False (U+007F, U+0085, U+2028 and U+2029, a
# BOM, accented, CJK and astral characters), and the text of an escape and of
# a line template's slot.
HARD_CHARS = [
    '"', "\\", "\t", "\n", "\r", "\x00", "\x1f", "\x7f", "\x85", "\u2028", "\u2029",
    "\ufeff", "é", "ß", "日本", "\U0001f600", "\\u00e9", "%s",
]


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
        # The same predictions in another form must give byte-identical eval output.
        loose, loose_work = tmp / "loose.jsonl", tmp / "loose"
        loose.write_text("".join(json.dumps(json.loads(line), separators=(",", ":")) + "\n"
                                 for line in predictions.read_text().splitlines()))
        loose_work.mkdir()
        want = eval_digests(pipeline)
        got = eval_digests(pipeline_digest.digests(corpus, loose, INDEX_SEED, loose_work, ("eval",)))
        for name in sorted(want.keys() | got.keys()):
            if want.get(name) != got.get(name):
                sys.exit(f"eval of {loose.name}, the predictions re-serialized with "
                         f'separators=(",", ":"), differs from eval of the canonical file at {name}')
        hard, hard_work = tmp / "hard.jsonl", tmp / "hard"
        write_hard_corpus(hard, HARD_SEED, WORDS)
        hard_work.mkdir()
        lines = pipeline_digest.digests(hard, predictions, INDEX_SEED, hard_work, ("ingest", "index"))
        print(under("hard/", lines), end="")
        reviews, reviews_work = tmp / "reviews.jsonl", tmp / "reviews"
        write_review_corpus(reviews, REVIEW_SEED)
        reviews_work.mkdir()
        lines = pipeline_digest.digests(
            reviews, predictions, INDEX_SEED, reviews_work, ("ingest", "index")
        )
        print(*(f"reviews: {line}" for line in hit_digest.digest_lines(reviews_work / "index")),
              sep="\n")
        print(under("reviews/", lines), end="")
        mixed, mixed_work = tmp / "mixed.jsonl", tmp / "mixed"
        write_mixed_corpus(mixed, MIXED_SEED, WORDS)
        mixed_work.mkdir()
        lines = pipeline_digest.digests(mixed, predictions, INDEX_SEED, mixed_work, ("ingest",))
        print(under("mixed/", lines), end="")


def under(prefix: str, lines: str) -> str:
    """``pipeline_digest`` lines with ``prefix`` before each name."""
    return "".join(line.replace("  ", "  " + prefix, 1) + "\n" for line in lines.splitlines())


def write_hard_corpus(path: Path, seed: int, words: list[str], n_docs: int = HARD_DOCS) -> None:
    """``n_docs`` reviews whose text is 1 to 12 words and whose business_id
    is one of 13 ids, each followed by 0 to 2 of ``HARD_CHARS``; one
    ``json.dumps`` line each, every other line with ``ensure_ascii=False``."""
    rng = random.Random(seed)

    def hard(word: str) -> str:
        return word + "".join(rng.choices(HARD_CHARS, k=rng.randint(0, 2)))

    with open(path, "w", encoding="utf-8") as f:
        for i in range(n_docs):
            text = " ".join(hard(rng.choice(words)) for _ in range(rng.randint(1, 12)))
            business_id = hard(f"b{i % 13}")
            record = {"text": text, "stars": (i % 5) + 1, "business_id": business_id}
            f.write(json.dumps(record, ensure_ascii=bool(i % 2)) + "\n")


def write_review_corpus(path: Path, seed: int, n_docs: int = REVIEW_DOCS) -> None:
    """``n_docs`` reviews that look like real ones, one ``json.dumps`` line
    each.  The words are ``REVIEW_LEXICON`` pseudo-words of 2 to 5
    syllables, one in eight an older word with a syllable added, so runs of
    terms share 8-byte prefixes.  A review is a unique marker token
    (``r00000``, ...) then a log-normal number of words (median
    ``MEDIAN_WORDS``, about one review in ten longer than 128) drawn by Zipf
    rank, with 0 to 3 of its star value's three words, and the stars drawn
    with ``STAR_SHARES``."""
    rng = random.Random(seed)
    ranked: list[str] = []
    seen: set[str] = set()
    while len(ranked) < REVIEW_LEXICON:
        if ranked and rng.random() < 1 / 8:
            word = rng.choice(ranked) + rng.choice(SYLLABLES)
        else:
            word = "".join(rng.choices(SYLLABLES, k=rng.randint(2, 5)))
        if word not in seen:
            seen.add(word)
            ranked.append(word)
    rng.shuffle(ranked)
    cum_weights = list(accumulate(1 / rank**ZIPF_EXPONENT for rank in range(1, len(ranked) + 1)))
    star_words = {stars: ranked[-3 * stars:][:3] for stars in range(1, 6)}
    with open(path, "w", encoding="utf-8") as f:
        for i in range(n_docs):
            stars = rng.choices(range(1, 6), weights=STAR_SHARES)[0]
            n_words = max(1, round(rng.lognormvariate(math.log(MEDIAN_WORDS), 0.6)))
            words = rng.choices(ranked, cum_weights=cum_weights, k=n_words)
            for _ in range(rng.randint(0, 3)):
                words.insert(rng.randint(0, len(words)), rng.choice(star_words[stars]))
            text = " ".join([f"r{i:05d}", *words])
            record = {"text": text, "stars": stars, "business_id": f"b{rng.randrange(200)}"}
            f.write(json.dumps(record) + "\n")


# Lines that ingest skips whole: blank ones, bad JSON, values that are no
# object, and objects that miss a key.
SKIPPED_LINES = [
    "", " \t ", '{"text": "cut short', "not json", '["x", 5, "b"]', '"x"', "null", "7",
    '{"stars": 5, "business_id": "b"}', '{"text": "x", "business_id": "b"}',
    '{"text": "x", "stars": 5}',
]
# JSON values that make a review line skipped, by the field they stand in for.
SKIPPED_VALUES = [
    *(("stars", value) for value in ("true", "5.5", '"5"', "0", "6", "1e400")),
    ("text", "3"), ("text", '["x"]'), ("business_id", "null"),
    ("text", '"x \\ud800"'), ("business_id", '"b\\udfff"'),  # lone surrogates
]


def write_mixed_corpus(path: Path, seed: int, words: list[str], n_lines: int = MIXED_LINES) -> None:
    """``n_lines`` lines, each ended by ``\\n``, ``\\r\\n`` or a lone ``\\r``.
    About half are valid reviews, one in ten of them with its stars written
    as ``5.0``, which ``ingest`` reads as 5.  The rest are one of
    ``SKIPPED_LINES`` or a review with one field's value taken from
    ``SKIPPED_VALUES``, in equal shares."""
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8", newline="") as f:
        for i in range(n_lines):
            text = " ".join(rng.choices(words, k=rng.randint(1, 10)))
            fields = {"text": json.dumps(text), "stars": str(i % 5 + 1), "business_id": f'"b{i % 9}"'}
            draw = rng.random()
            if draw < 0.25:
                line = rng.choice(SKIPPED_LINES)
            else:
                if draw < 0.5:
                    fields.update([rng.choice(SKIPPED_VALUES)])
                elif draw < 0.55:
                    fields["stars"] += ".0"
                line = "{" + ", ".join(f'"{name}": {value}' for name, value in fields.items()) + "}"
            f.write(line + rng.choice(("\n", "\r\n", "\r")))


def eval_digests(lines: str) -> dict[str, str]:
    """The sha256 of each ``eval`` output among ``pipeline_digest`` lines, by name."""
    pairs = (line.split("  ", 1) for line in lines.splitlines())
    return {name: digest for digest, name in pairs if name.startswith("eval")}


if __name__ == "__main__":
    main()
