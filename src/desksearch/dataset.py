"""Review ingestion and the balanced/unbalanced split protocol.

Input is JSON-lines with fields text (string), stars (integer 1..5), and
business_id (string).  Malformed lines are skipped and counted, never fatal.
A ``Review`` is an immutable named tuple ``(text, stars, business_id)`` that
checks its fields whenever one is built.
Splitting shuffles with a seeded RNG and cuts train/val/test by percentage
(any rounding remainder goes to train); val and test keep the natural class
imbalance.  With ``per_class_train`` set, split balances the train cut with
balanced_resample and the spec's seed.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from . import io_utils
from .io_utils import require_int

STAR_VALUES = (1, 2, 3, 4, 5)


class _ReviewFields(NamedTuple):
    text: str
    stars: int
    business_id: str


class Review(_ReviewFields):
    """A review: an immutable named tuple whose fields are checked however
    it is built, by position, by keyword or through ``_make`` and ``_replace``."""

    __slots__ = ()

    def __new__(cls, text: str, stars: int, business_id: str) -> Review:
        if not isinstance(text, str) or not isinstance(business_id, str):
            raise ValueError("text and business_id must be strings")
        # True == 1 and 5.0 == 5, but a split file would hold true and 5.0.
        if type(stars) is not int or stars not in STAR_VALUES:
            raise ValueError(f"stars must be an integer in 1..5, got {stars!r}")
        return tuple.__new__(cls, (text, stars, business_id))

    @classmethod
    def _make(cls, iterable) -> Review:  # and so _replace: both check, as Review() does
        return cls(*iterable)


@dataclass(frozen=True)
class SplitSpec:
    train_pct: int = 70
    val_pct: int = 15
    test_pct: int = 15
    per_class_train: int | None = None  # None: leave the train split unbalanced
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("train_pct", "val_pct", "test_pct"):
            require_int(name, getattr(self, name), 1)
        if self.train_pct + self.val_pct + self.test_pct != 100:
            raise ValueError("split proportions must sum to 100")
        if self.per_class_train is not None:
            require_int("per_class_train", self.per_class_train, 1)
        require_int("seed", self.seed, 0)


@dataclass
class DatasetBundle:
    train: list[Review]
    validation: list[Review]
    test: list[Review]


@dataclass
class LoadResult:
    reviews: list[Review]
    skipped: int


def parse_label(value: object, name: str) -> int:
    """A class label read from JSON: an int or an integer-valued float (5.0);
    a bool, a string or a fractional float is not a label."""
    if type(value) is int:  # a bool's type is bool, not int
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def load_reviews(path: str | Path) -> LoadResult:
    """Read reviews from a JSON-lines file (``io_utils.read_lines``), skipping
    and counting blank and bad lines."""
    lines = io_utils.read_lines(path)
    reviews: list[Review] = []
    for _, record in io_utils.json_lines(lines, skip_bad=True):
        try:
            text, business_id = record["text"], record["business_id"]
            review = Review(text, parse_label(record["stars"], "stars"), business_id)
            # No split file can hold a lone surrogate (a JSON "\ud800"): a ValueError.
            (text + business_id).encode("utf-8")
        except (KeyError, TypeError, ValueError, RecursionError):
            continue
        reviews.append(review)
    return LoadResult(reviews=reviews, skipped=len(lines) - len(reviews))


def class_distribution(reviews: list[Review]) -> dict[int, float]:
    """Proportion of reviews per star value, over the classes present."""
    if not reviews:
        raise ValueError("class distribution of an empty review list is undefined")
    counts = Counter(r.stars for r in reviews)
    n = len(reviews)
    return {stars: counts[stars] / n for stars in sorted(counts)}


def balanced_resample(reviews: list[Review], per_class: int, seed: int) -> list[Review]:
    """Draw exactly per_class reviews for every star value 1..5, without
    replacement, via a seeded shuffle.  Deterministic given (input order, seed)."""
    if per_class < 1:
        raise ValueError("per_class must be positive")
    by_class: dict[int, list[Review]] = {stars: [] for stars in STAR_VALUES}
    for review in reviews:
        by_class[review.stars].append(review)
    for stars in STAR_VALUES:
        if len(by_class[stars]) < per_class:
            raise ValueError(
                f"class {stars} has only {len(by_class[stars])} reviews, "
                f"need {per_class}"
            )
    rng = random.Random(seed)
    sample: list[Review] = []
    for stars in STAR_VALUES:
        pool = by_class[stars]
        rng.shuffle(pool)
        sample.extend(pool[:per_class])
    return sample


def split(reviews: list[Review], spec: SplitSpec) -> DatasetBundle:
    """Seeded shuffle, then cut by percentage with the remainder going to
    train; with ``per_class_train`` set, the train cut is then balanced."""
    if not reviews:
        raise ValueError("cannot split an empty review list")
    n = len(reviews)
    n_val = n * spec.val_pct // 100
    n_test = n * spec.test_pct // 100
    n_train = n - n_val - n_test

    shuffled = list(reviews)
    random.Random(spec.seed).shuffle(shuffled)
    train = shuffled[:n_train]
    if spec.per_class_train is not None:
        train = balanced_resample(train, spec.per_class_train, spec.seed)
    return DatasetBundle(
        train=train,
        validation=shuffled[n_train : n_train + n_val],
        test=shuffled[n_train + n_val :],
    )


def write_reviews(reviews: list[Review], path: str | Path, split_name: str) -> None:
    """Write one split as JSON-lines with an added ``split`` field."""
    io_utils.write_json_lines(path, {
        "text": [r.text for r in reviews],
        "stars": [r.stars for r in reviews],
        "business_id": [r.business_id for r in reviews],
        "split": [split_name] * len(reviews),
    })
