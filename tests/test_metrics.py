import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import metrics_from_pairs

from desksearch.metrics import (
    ConfusionMatrix,
    accuracy,
    compute_report,
    confusion_counts,
    confusion_to_csv,
    f1,
    precision,
    recall,
    row_normalize,
    weighted_f1,
)

# 4 samples over 2 classes: pairs are (true, predicted), 0-indexed
HAND_PAIRS = [(0, 0), (0, 1), (1, 1), (1, 1)]


@pytest.fixture
def hand_cm():
    return confusion_counts(HAND_PAIRS, n_classes=2)


def random_pairs(rng, n, k):
    return [(rng.randrange(k), rng.randrange(k)) for _ in range(n)]


class TestConfusionMatrix:
    def test_counting(self, hand_cm):
        assert hand_cm.counts.tolist() == [[1, 1], [0, 2]]
        assert hand_cm.total == 4
        assert hand_cm.n_classes == 2

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            confusion_counts([(0, 2)], n_classes=2)
        with pytest.raises(ValueError, match="out of range"):
            confusion_counts([(-1, 0)], n_classes=2)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(np.zeros((2, 3), dtype=int))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(np.zeros((1, 1), dtype=int))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(np.array([[1, -1], [0, 2]]))

    @pytest.mark.parametrize("counts", [
        pytest.param([[1.5, 0], [0, 1.9]], id="float"),
        pytest.param([[True, False], [False, True]], id="bool"),
        pytest.param(np.array([[1, 0], [0, 1]], dtype=object), id="object"),
        pytest.param([[2**64, 0], [0, 1]], id="past-uint64"),
        pytest.param([[2**63, 0], [0, 1]], id="past-int64"),
        pytest.param(np.array([[2**63, 0], [0, 1]], dtype=np.uint64), id="past-int64-uint64"),
    ])
    def test_counts_that_are_no_int64_integers_rejected(self, counts):
        with pytest.raises(ValueError, match=r"^confusion matrix counts must be integers from 0 "
                                             r"to 2\*\*63 - 1$"):
            ConfusionMatrix(counts)

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.uint16, np.uint64])
    def test_integer_counts_of_any_width_become_int64(self, dtype):
        cm = ConfusionMatrix(np.array([[3, 0], [1, 2]], dtype=dtype))
        assert cm.counts.dtype == np.int64 and cm.counts.tolist() == [[3, 0], [1, 2]]

    # Each count fits int64, but the sums that every metric reads would wrap.
    @pytest.mark.parametrize("counts", [[[2**62, 2**62], [0, 1]], [[2**62, 2**62], [2**62, 2**62]]])
    def test_total_past_int64_is_an_error_for_every_metric(self, counts):
        cm = ConfusionMatrix(np.array(counts))
        for metric in (lambda cm: cm.total, accuracy, lambda cm: precision(cm, 0),
                       lambda cm: recall(cm, 1), lambda cm: f1(cm, 0), weighted_f1,
                       compute_report):
            with pytest.raises(ValueError, match=r"^confusion matrix counts must sum to at most "
                                                 r"2\*\*63 - 1$"):
                metric(cm)

    def test_total_at_int64_max_is_exact(self):
        cm = ConfusionMatrix(np.array([[2**62, 2**62 - 1], [0, 0]]))
        assert cm.total == 2**63 - 1
        assert compute_report(cm)["accuracy"] == 2**62 / (2**63 - 1)

    def test_total_equals_pair_count(self):
        rng = random.Random(0)
        pairs = random_pairs(rng, 333, 5)
        assert confusion_counts(pairs, 5).total == 333


class TestRowNormalize:
    def test_hand_case(self, hand_cm):
        assert row_normalize(hand_cm).tolist() == [[0.5, 0.5], [0.0, 1.0]]

    def test_zero_support_row_stays_zero(self):
        cm = ConfusionMatrix(np.array([[2, 0], [0, 0]]))
        assert row_normalize(cm).tolist() == [[1.0, 0.0], [0.0, 0.0]]

    def test_row_sum_past_int64_is_summed_as_floats(self):
        cm = ConfusionMatrix(np.array([[2**62, 2**62], [0, 1]]))
        assert row_normalize(cm).tolist() == [[0.5, 0.5], [0.0, 1.0]]

    def test_rows_sum_to_one_or_zero(self):
        rng = random.Random(1)
        cm = confusion_counts(random_pairs(rng, 100, 4), 4)
        sums = row_normalize(cm).sum(axis=1)
        for s in sums:
            assert s == pytest.approx(1.0, abs=1e-12) or s == 0.0


class TestAccuracy:
    def test_hand_case(self, hand_cm):
        assert accuracy(hand_cm) == pytest.approx(0.75, abs=1e-12)

    def test_perfect(self):
        cm = confusion_counts([(0, 0), (1, 1), (2, 2)], 3)
        assert accuracy(cm) == 1.0

    def test_all_wrong(self):
        cm = confusion_counts([(0, 1), (1, 0)], 2)
        assert accuracy(cm) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(ConfusionMatrix(np.zeros((2, 2), dtype=int)))


class TestPrecisionRecall:
    def test_hand_values(self, hand_cm):
        assert precision(hand_cm, 0) == pytest.approx(1.0, abs=1e-12)
        assert recall(hand_cm, 0) == pytest.approx(0.5, abs=1e-12)
        assert precision(hand_cm, 1) == pytest.approx(2 / 3, abs=1e-12)
        assert recall(hand_cm, 1) == pytest.approx(1.0, abs=1e-12)

    def test_never_predicted_class_gets_zero_precision(self):
        cm = confusion_counts([(0, 0), (1, 0)], 2)
        assert precision(cm, 1) == 0.0

    def test_no_support_class_gets_zero_recall(self):
        cm = confusion_counts([(0, 0), (0, 1)], 2)
        assert recall(cm, 1) == 0.0

    def test_class_out_of_range(self, hand_cm):
        with pytest.raises(ValueError):
            precision(hand_cm, 2)
        with pytest.raises(ValueError):
            recall(hand_cm, -1)


class TestF1:
    def test_hand_values(self, hand_cm):
        assert f1(hand_cm, 0) == pytest.approx(2 / 3, abs=1e-12)
        assert f1(hand_cm, 1) == pytest.approx(0.8, abs=1e-12)

    def test_zero_when_both_zero(self):
        # class 1 never true and never predicted
        cm = ConfusionMatrix(np.array([[3, 0], [0, 0]]))
        assert f1(cm, 1) == 0.0

    def test_harmonic_mean_bound(self):
        rng = random.Random(2)
        cm = confusion_counts(random_pairs(rng, 200, 3), 3)
        for q in range(3):
            assert f1(cm, q) <= max(precision(cm, q), recall(cm, q)) + 1e-12


class TestWeightedF1:
    def test_hand_value(self, hand_cm):
        # supports 2 and 2: (2 * 2/3 + 2 * 0.8) / 4
        assert weighted_f1(hand_cm) == pytest.approx(0.733333, abs=1e-6)

    def test_perfect(self):
        cm = confusion_counts([(0, 0)] * 3 + [(1, 1)] * 7, 2)
        assert weighted_f1(cm) == pytest.approx(1.0, abs=1e-12)

    def test_bounded_by_class_extremes(self):
        rng = random.Random(3)
        for _ in range(20):
            pairs = random_pairs(rng, 150, 5)
            cm = confusion_counts(pairs, 5)
            f1s = [f1(cm, q) for q in range(5)]
            w = weighted_f1(cm)
            assert min(f1s) - 1e-12 <= w <= max(f1s) + 1e-12


class TestOracleAgreement:
    def test_matches_per_pair_oracle(self):
        rng = random.Random(4)
        for trial in range(30):
            k = rng.choice([2, 3, 5])
            pairs = random_pairs(rng, rng.randrange(20, 300), k)
            cm = confusion_counts(pairs, k)
            want = metrics_from_pairs(pairs, k)
            assert accuracy(cm) == want["accuracy"]
            for q in range(k):
                assert precision(cm, q) == pytest.approx(want["precision"][q], abs=1e-12)
                assert recall(cm, q) == pytest.approx(want["recall"][q], abs=1e-12)
                assert f1(cm, q) == pytest.approx(want["f1"][q], abs=1e-12)
            assert weighted_f1(cm) == pytest.approx(want["weighted_f1"], abs=1e-12)

    def test_pair_order_invariance(self):
        rng = random.Random(5)
        pairs = random_pairs(rng, 120, 4)
        shuffled = pairs.copy()
        rng.shuffle(shuffled)
        a, b = confusion_counts(pairs, 4), confusion_counts(shuffled, 4)
        assert np.array_equal(a.counts, b.counts)


class TestReport:
    def test_hand_report(self, hand_cm):
        report = compute_report(hand_cm)
        assert report["accuracy"] == pytest.approx(0.75, abs=1e-12)
        assert report["weighted_f1"] == pytest.approx(0.733333, abs=1e-6)
        assert [row["support"] for row in report["per_class"]] == [2, 2]
        assert all(type(row["support"]) is int for row in report["per_class"])
        # report.json's key order.
        assert list(report) == ["accuracy", "weighted_f1", "per_class", "degenerate_classes"]
        assert [list(row) for row in report["per_class"]] == [
            ["class", "precision", "recall", "f1", "support"]
        ] * 2
        assert report["degenerate_classes"] == []

    def test_degenerate_classes_flagged(self):
        # class 2 never appears on either axis
        cm = confusion_counts([(0, 0), (1, 1)], 3)
        report = compute_report(cm)
        assert report["degenerate_classes"] == [2]

    def test_to_json_round_trips(self, hand_cm):
        payload = json.loads(json.dumps(compute_report(hand_cm), indent=2))
        assert payload["accuracy"] == pytest.approx(0.75)
        assert len(payload["per_class"]) == 2
        assert payload["per_class"][1]["precision"] == pytest.approx(2 / 3)


def wide_cm():
    """K = 40 from 300 pairs, none of true class 7: a larger K with a zero row."""
    pairs = [p for p in random_pairs(random.Random(11), 300, 40) if p[0] != 7]
    return confusion_counts(pairs, 40)


class TestCsv:
    def test_raw_counts(self, hand_cm):
        lines = confusion_to_csv(hand_cm).splitlines()
        assert lines[0] == "true\\pred,0,1"
        assert lines[1] == "0,1,1"
        assert lines[2] == "1,0,2"
        cm = wide_cm()
        lines = confusion_to_csv(cm).splitlines()
        assert lines[0] == "true\\pred," + ",".join(str(q) for q in range(40))
        assert lines[8] == "7," + ",".join(["0"] * 40)
        assert lines[1:] == [
            ",".join([str(q)] + [str(int(x)) for x in row]) for q, row in enumerate(cm.counts)
        ]

    def test_normalized(self, hand_cm):
        lines = confusion_to_csv(hand_cm, normalized=True).splitlines()
        assert lines[1] == "0,0.5,0.5"
        assert lines[2] == "1,0.0,1.0"
        cm = wide_cm()
        lines = confusion_to_csv(cm, normalized=True).splitlines()
        assert lines[8] == "7," + ",".join(["0.0"] * 40)
        assert lines[1:] == [
            ",".join([str(q)] + [repr(float(x)) for x in row])
            for q, row in enumerate(row_normalize(cm))
        ]

    def test_parses_back_to_same_counts(self):
        rng = random.Random(6)
        for cm in (confusion_counts(random_pairs(rng, 80, 3), 3), wide_cm()):
            lines = confusion_to_csv(cm).splitlines()[1:]
            parsed = [[int(c) for c in line.split(",")[1:]] for line in lines]
            assert parsed == cm.counts.tolist()


def reference_files(counts: list[list[int]]) -> tuple[str, str]:
    """``report.json``'s text without its newline and the normalized CSV, one
    class at a time in pure Python, as ``oracles.naive_eval`` builds them."""
    k = len(counts)
    supports = [sum(row) for row in counts]
    predicted = [sum(row[q] for row in counts) for q in range(k)]
    per_class, weighted_num = [], 0.0
    for q in range(k):
        tp = counts[q][q]
        prec = tp / predicted[q] if predicted[q] else 0.0
        rec = tp / supports[q] if supports[q] else 0.0
        f1_q = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        weighted_num += supports[q] * f1_q
        per_class.append(
            {"class": q, "precision": prec, "recall": rec, "f1": f1_q, "support": supports[q]}
        )
    report = {
        "accuracy": sum(counts[q][q] for q in range(k)) / sum(supports),
        "weighted_f1": weighted_num / sum(supports),
        "per_class": per_class,
        "degenerate_classes": [q for q in range(k) if supports[q] == 0 or predicted[q] == 0],
    }
    rows = [["true\\pred", *map(str, range(k))]]
    rows += [
        [str(t), *(repr(counts[t][p] / supports[t] if supports[t] else 0.0) for p in range(k))]
        for t in range(k)
    ]
    return json.dumps(report, indent=2), "".join(",".join(row) + "\n" for row in rows)


@given(
    k=st.integers(2, 64),
    top=st.sampled_from([1, 10, 1000, 10**9]),
    zero_share=st.sampled_from([0.0, 0.3, 0.9]),
    empty_share=st.sampled_from([0.0, 0.2, 0.6]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_report_and_normalized_csv_match_a_pure_python_reference(
    k, top, zero_share, empty_share, seed
):
    """Counts up to ``top`` with a share of zero cells, and a share of the
    classes with an empty row or column: the report's text and the
    normalized CSV equal the per-class reference, bit for bit."""
    rng = random.Random(seed)
    counts = [[0 if rng.random() < zero_share else rng.randint(0, top) for _ in range(k)]
              for _ in range(k)]
    for q in range(k):
        if rng.random() < empty_share:
            counts[q] = [0] * k
        if rng.random() < empty_share:
            for row in counts:
                row[q] = 0
    if not any(map(any, counts)):
        counts[rng.randrange(k)][rng.randrange(k)] = top
    cm = ConfusionMatrix(np.array(counts))
    assert (json.dumps(compute_report(cm), indent=2), confusion_to_csv(cm, normalized=True)) == (
        reference_files(counts)
    )
