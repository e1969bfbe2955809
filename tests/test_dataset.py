import json
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desksearch.dataset import (
    Review,
    SplitSpec,
    balanced_resample,
    class_distribution,
    load_reviews,
    split,
    write_reviews,
)


def make_reviews(n, stars_of=None, rng_seed=0):
    rng = random.Random(rng_seed)
    out = []
    for i in range(n):
        stars = stars_of(i) if stars_of else rng.randint(1, 5)
        out.append(Review(text=f"review {i}", stars=stars, business_id=f"b{i % 7}"))
    return out


def write_jsonl(path, records):
    lines = []
    for rec in records:
        lines.append(rec if isinstance(rec, str) else json.dumps(rec))
    path.write_text("\n".join(lines) + "\n")


class TestReview:
    def test_stars_out_of_range(self):
        with pytest.raises(ValueError):
            Review(text="x", stars=6, business_id="b")
        with pytest.raises(ValueError):
            Review(text="x", stars=0, business_id="b")

    def test_valid(self):
        r = Review(text="Wow! Yummy, try the lobster.", stars=5, business_id="b1")
        assert r.stars == 5

    # True == 1 and 5.0 == 5, but a split file would hold true or 5.0, which
    # load_reviews reads back as no review or as another value's type.
    @pytest.mark.parametrize("stars", [True, False, 5.0, 3.0, np.int64(3), "3", None])
    def test_stars_must_be_an_int(self, stars):
        with pytest.raises(ValueError, match="^stars must be an integer in 1..5, got "):
            Review(text="good food", stars=stars, business_id="b")

    @pytest.mark.parametrize("text, business_id", [(3, "b"), (None, "b"), ("x", 7), ("x", b"b")])
    def test_text_and_business_id_must_be_strings(self, text, business_id):
        with pytest.raises(ValueError, match="^text and business_id must be strings$"):
            Review(text=text, stars=3, business_id=business_id)

    @pytest.mark.parametrize("field, value", [("text", "y"), ("stars", 4), ("business_id", "c")])
    def test_fields_cannot_be_reassigned(self, field, value):
        review = Review("x", 3, "b")
        with pytest.raises(AttributeError):
            setattr(review, field, value)
        assert review == Review("x", 3, "b")

    def test_positional_and_keyword_construction_agree(self):
        by_position = Review("good food", 4, "b1")
        by_keyword = Review(business_id="b1", text="good food", stars=4)
        assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
        assert (by_keyword.text, by_keyword.stars, by_keyword.business_id) == ("good food", 4, "b1")

    def test_copies_are_checked_as_construction_is(self):
        review = Review("x", 3, "b")
        assert review._replace(stars=5) == Review("x", 5, "b")
        with pytest.raises(ValueError, match="^stars must be an integer in 1..5, got True$"):
            review._replace(stars=True)
        with pytest.raises(ValueError, match="^text and business_id must be strings$"):
            Review._make([None, 3, "b"])

    def test_load_reviews_returns_reviews(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        write_jsonl(path, [{"text": "ok", "stars": 5.0, "business_id": "a"},
                           {"text": "fine", "stars": 2, "business_id": "b"}])
        reviews = load_reviews(path).reviews
        assert [type(r) for r in reviews] == [Review, Review]
        assert reviews == [Review("ok", 5, "a"), Review("fine", 2, "b")]
        assert type(reviews[0].stars) is int


class TestSplitSpec:
    def test_must_sum_to_100(self):
        with pytest.raises(ValueError):
            SplitSpec(train_pct=70, val_pct=15, test_pct=16)

    def test_positive_parts(self):
        with pytest.raises(ValueError):
            SplitSpec(train_pct=100, val_pct=0, test_pct=0)

    def test_per_class_train_positive_when_set(self):
        with pytest.raises(ValueError):
            SplitSpec(per_class_train=0)


class TestLoadReviews:
    def test_valid_lines(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        write_jsonl(
            path,
            [
                {"text": "Wow! Yummy, try the lobster.", "stars": 5, "business_id": "a"},
                {"text": "Meh.", "stars": 2, "business_id": "b"},
            ],
        )
        result = load_reviews(path)
        assert result.skipped == 0
        assert [r.stars for r in result.reviews] == [5, 2]
        assert result.reviews[0].text == "Wow! Yummy, try the lobster."

    def test_out_of_range_stars_skipped(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        write_jsonl(
            path,
            [
                {"text": "ok", "stars": 6, "business_id": "a"},
                {"text": "ok", "stars": 3, "business_id": "a"},
            ],
        )
        result = load_reviews(path)
        assert result.skipped == 1
        assert len(result.reviews) == 1

    def test_malformed_json_skipped_and_counted(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        write_jsonl(
            path,
            [
                "{not json",
                {"text": "fine", "stars": 4, "business_id": "a"},
                '{"text": "no stars", "business_id": "a"}',
                '{"text": 3, "stars": 4, "business_id": "a"}',
            ],
        )
        result = load_reviews(path)
        assert result.skipped == 3
        assert len(result.reviews) == 1

    def test_integer_valued_float_stars_accepted(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        write_jsonl(path, [{"text": "x", "stars": 5.0, "business_id": "a"}])
        result = load_reviews(path)
        assert result.reviews[0].stars == 5

    def test_fractional_and_bool_stars_skipped(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        write_jsonl(
            path,
            [
                {"text": "x", "stars": 4.5, "business_id": "a"},
                {"text": "x", "stars": True, "business_id": "a"},
            ],
        )
        assert load_reviews(path).skipped == 2

    def test_blank_lines_counted(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        path.write_text('\n{"text": "x", "stars": 1, "business_id": "a"}\n\n')
        result = load_reviews(path)
        assert result.skipped == 2
        assert len(result.reviews) == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        result = load_reviews(path)
        assert result.reviews == [] and result.skipped == 0

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load_reviews(tmp_path / "nope.jsonl")


class TestClassDistribution:
    def test_uniform(self):
        reviews = make_reviews(10, stars_of=lambda i: (i % 5) + 1)
        dist = class_distribution(reviews)
        assert dist == {1: 0.2, 2: 0.2, 3: 0.2, 4: 0.2, 5: 0.2}

    def test_single_class(self):
        reviews = make_reviews(4, stars_of=lambda i: 3)
        assert class_distribution(reviews) == {3: 1.0}

    def test_sums_to_one(self):
        dist = class_distribution(make_reviews(137, rng_seed=1))
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            class_distribution([])


class TestBalancedResample:
    def test_exact_per_class_counts(self):
        reviews = make_reviews(200, stars_of=lambda i: (i % 5) + 1)
        sample = balanced_resample(reviews, per_class=10, seed=0)
        assert len(sample) == 50
        dist = class_distribution(sample)
        assert dist == {s: 0.2 for s in range(1, 6)}

    def test_deterministic(self):
        reviews = make_reviews(100, stars_of=lambda i: (i % 5) + 1)
        a = balanced_resample(reviews, per_class=5, seed=7)
        b = balanced_resample(reviews, per_class=5, seed=7)
        assert a == b

    def test_seed_changes_selection(self):
        reviews = make_reviews(300, stars_of=lambda i: (i % 5) + 1)
        a = balanced_resample(reviews, per_class=20, seed=0)
        b = balanced_resample(reviews, per_class=20, seed=1)
        assert a != b

    def test_without_replacement(self):
        reviews = make_reviews(100, stars_of=lambda i: (i % 5) + 1)
        sample = balanced_resample(reviews, per_class=15, seed=3)
        seen = [(r.text, r.stars) for r in sample]
        assert len(seen) == len(set(seen))

    def test_deficient_class_named_in_error(self):
        # only 2 three-star reviews available
        reviews = make_reviews(42, stars_of=lambda i: 3 if i < 2 else [1, 2, 4, 5][i % 4])
        with pytest.raises(ValueError, match="class 3"):
            balanced_resample(reviews, per_class=5, seed=0)

    def test_per_class_must_be_positive(self):
        with pytest.raises(ValueError):
            balanced_resample(make_reviews(50, stars_of=lambda i: (i % 5) + 1), 0, 0)

    @given(st.integers(1, 6), st.lists(st.integers(1, 5), max_size=120),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_order_is_a_seeded_index_shuffle_per_class(self, per_class, extra, seed):
        stars = extra + [1, 2, 3, 4, 5] * per_class
        reviews = make_reviews(len(stars), stars_of=stars.__getitem__)
        before = list(reviews)
        rng, want = random.Random(seed), []
        for value in range(1, 6):
            members = [r for r in reviews if r.stars == value]
            order = list(range(len(members)))
            rng.shuffle(order)
            want += [members[i] for i in order[:per_class]]
        assert balanced_resample(reviews, per_class, seed) == want
        assert reviews == before


class TestSplit:
    def test_sizes_100(self):
        bundle = split(make_reviews(100), SplitSpec(seed=0))
        assert (len(bundle.train), len(bundle.validation), len(bundle.test)) == (70, 15, 15)

    def test_sizes_101_remainder_to_train(self):
        bundle = split(make_reviews(101), SplitSpec(seed=0))
        assert (len(bundle.train), len(bundle.validation), len(bundle.test)) == (71, 15, 15)

    def test_tiny_input(self):
        bundle = split(make_reviews(3), SplitSpec(seed=0))
        # 15% of 3 floors to 0: everything lands in train
        assert (len(bundle.train), len(bundle.validation), len(bundle.test)) == (3, 0, 0)

    def test_partition_no_loss_no_overlap(self):
        reviews = make_reviews(97)
        bundle = split(reviews, SplitSpec(seed=5))
        combined = bundle.train + bundle.validation + bundle.test
        assert sorted(r.text for r in combined) == sorted(r.text for r in reviews)

    def test_deterministic(self):
        reviews = make_reviews(60)
        a = split(reviews, SplitSpec(seed=9))
        b = split(reviews, SplitSpec(seed=9))
        assert a.train == b.train and a.validation == b.validation and a.test == b.test

    def test_seed_changes_assignment(self):
        reviews = make_reviews(200)
        a = split(reviews, SplitSpec(seed=0))
        b = split(reviews, SplitSpec(seed=1))
        assert a.train != b.train

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            split([], SplitSpec())

    @given(st.integers(1, 400), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_order_is_a_seeded_index_shuffle(self, n, seed):
        reviews = make_reviews(n, rng_seed=seed)
        before = list(reviews)
        order = list(range(n))
        random.Random(seed).shuffle(order)
        bundle = split(reviews, SplitSpec(seed=seed))
        assert bundle.train + bundle.validation + bundle.test == [reviews[i] for i in order]
        assert reviews == before

    @given(st.integers(10, 400), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, n, seed):
        reviews = make_reviews(n)
        bundle = split(reviews, SplitSpec(seed=seed))
        assert len(bundle.validation) == n * 15 // 100
        assert len(bundle.test) == n * 15 // 100
        assert len(bundle.train) + len(bundle.validation) + len(bundle.test) == n
        combined = bundle.train + bundle.validation + bundle.test
        assert sorted(r.text for r in combined) == sorted(r.text for r in reviews)

    @given(st.integers(1, 8), st.lists(st.integers(1, 5), max_size=200),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_per_class_train_balances_the_train_cut(self, per_class, extra, seed):
        """The spec's per_class_train is applied by split itself: the train
        cut resampled with the spec's seed, val and test as without it."""
        stars = extra + [1, 2, 3, 4, 5] * (2 * per_class)
        reviews = make_reviews(len(stars), stars_of=stars.__getitem__)
        plain = split(reviews, SplitSpec(seed=seed))
        try:
            want = balanced_resample(plain.train, per_class, seed)
        except ValueError:  # a class short of per_class in the train cut
            with pytest.raises(ValueError, match="has only"):
                split(reviews, SplitSpec(per_class_train=per_class, seed=seed))
            return
        balanced = split(reviews, SplitSpec(per_class_train=per_class, seed=seed))
        assert balanced.train == want
        assert sorted(Counter(r.stars for r in balanced.train).values()) == [per_class] * 5
        assert balanced.validation == plain.validation and balanced.test == plain.test


class TestWriteReviews:
    def test_round_trip_with_split_field(self, tmp_path):
        reviews = make_reviews(5)
        path = tmp_path / "train.jsonl"
        write_reviews(reviews, path, split_name="train")
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        for line, review in zip(lines, reviews):
            record = json.loads(line)
            assert record["split"] == "train"
            assert record["text"] == review.text
            assert record["stars"] == review.stars

    def test_written_file_reloads(self, tmp_path):
        reviews = make_reviews(8)
        path = tmp_path / "out.jsonl"
        write_reviews(reviews, path, split_name="test")
        result = load_reviews(path)
        assert result.skipped == 0
        assert result.reviews == reviews

    def test_empty_list_writes_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_reviews([], path, split_name="val")
        assert path.read_text() == ""

    def test_byte_identical_reruns(self, tmp_path):
        reviews = make_reviews(20)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_reviews(reviews, p1, split_name="train")
        write_reviews(reviews, p2, split_name="train")
        assert p1.read_bytes() == p2.read_bytes()


def test_full_protocol_end_to_end(tmp_path):
    # load -> split -> balance train -> write: the whole pipeline is seeded,
    # so rerunning from the same file produces byte-identical outputs
    path = tmp_path / "corpus.jsonl"
    records = [
        {"text": f"review number {i}", "stars": (i % 5) + 1, "business_id": f"b{i % 3}"}
        for i in range(100)
    ]
    write_jsonl(path, records)

    def run(out_dir):
        out_dir.mkdir()
        loaded = load_reviews(path)
        bundle = split(loaded.reviews, SplitSpec(seed=42))
        train = balanced_resample(bundle.train, per_class=10, seed=42)
        write_reviews(train, out_dir / "train.jsonl", split_name="train")
        write_reviews(bundle.validation, out_dir / "val.jsonl", split_name="val")
        write_reviews(bundle.test, out_dir / "test.jsonl", split_name="test")

    run(tmp_path / "run1")
    run(tmp_path / "run2")
    for name in ("train.jsonl", "val.jsonl", "test.jsonl"):
        assert (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()
    train = load_reviews(tmp_path / "run1" / "train.jsonl").reviews
    assert class_distribution(train) == {s: 0.2 for s in range(1, 6)}
