"""The one JSON-lines codec of io_utils against the json module and the
naive per-line loops of tests/oracles.py: decoded values, encoded lines,
how ingest splits and skips lines, and how eval reads or rejects them."""

import contextlib
import io
import json
import os
import threading
from collections import Counter
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_eval, naive_load_reviews

from desksearch import io_utils
from desksearch.cli import main
from desksearch.dataset import STAR_VALUES, LoadResult, Review, load_reviews, write_reviews
from desksearch.io_utils import (
    JSONLineError,
    encode_json,
    json_lines,
    read_lines,
    write_json_lines,
)
from desksearch.metrics import confusion_counts
from desksearch.searcher import DOCS_FILE, _doc_texts, write_docs

SURROGATES = st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)
TEXT = st.text(st.characters() | SURROGATES | st.sampled_from("\u2028\u0085\x0c\r\n\"\\"))
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | TEXT,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=12,
)
# Fragments json.loads treats specially: non-finite numbers, an int past the
# 4,300-digit conversion limit, duplicate keys, surrogate escapes, a BOM,
# extra data and values cut short.
FRAGMENTS = st.sampled_from([
    "NaN", "-Infinity", "Infinity", "1" * 4301, "-0", "1e400", '{"a": 1, "a": 2}',
    '"\\ud800"', '"\\udc00\\ud800x"', '["\\ud83d\\ude00"]', "\ufeff{}", "{} {}", "[1, 2",
    '{"a"', "tru", "", '"a\nb"', "1 2", "[]]", '{"y_true": 1}x',
])
PADDING = st.text(st.sampled_from(" \t\r\n"), max_size=3)


def outcome(decode, text):
    """A decoded value as its type and repr (which tells 1, 1.0 and True
    apart, and shows NaN), or the exception's type and message."""
    try:
        value = decode(text)
    except Exception as exc:  # the exception is the outcome
        return "raised", type(exc), str(exc)
    return "value", type(value), repr(value)


def line_outcome(text):
    """``outcome`` of a file whose one line is ``text``, read by ``json_lines``:
    the value of line 1, or the ``json.loads`` error that its ``JSONLineError``
    carries; None for a blank line, which it skips."""
    try:
        records = list(json_lines([text]))
    except JSONLineError as exc:
        assert exc.line_no == 1
        return "raised", type(exc.error), str(exc.error)
    if not records:
        return None
    [(line_no, value)] = records
    assert line_no == 1
    return "value", type(value), repr(value)


def loads_outcome(text):
    """``outcome`` of ``json.loads(text)``; None for a blank line."""
    return outcome(json.loads, text) if text.strip() else None


@st.composite
def json_documents(draw):
    value, ascii_only = draw(JSON_VALUES), draw(st.booleans())
    body = draw(st.just(json.dumps(value, ensure_ascii=ascii_only)) | FRAGMENTS | TEXT)
    if draw(st.booleans()):
        body = draw(PADDING) + body + draw(PADDING)
    if draw(st.integers(0, 9)) == 0:
        body = "\ufeff" + body
    if draw(st.integers(0, 9)) == 0:
        body += draw(FRAGMENTS | st.sampled_from(["x", "1", ",", "}"]))
    if body and draw(st.integers(0, 4)) == 0:  # cut short
        body = body[: draw(st.integers(0, len(body) - 1))]
    return body


class TestDecodeJson:
    @settings(max_examples=200, deadline=None)
    @given(json_documents())
    def test_matches_json_loads(self, text):
        assert line_outcome(text) == loads_outcome(text)

    @settings(max_examples=200, deadline=None)
    @given(TEXT)
    def test_matches_json_loads_on_any_string(self, text):
        assert line_outcome(text) == loads_outcome(text)

    # "x" and "]": no value starts the line, so the scanner raises StopIteration.
    @pytest.mark.parametrize("text", ['{"a": 1}', "  [1]", "[1]\r\n", "\ufeff1", "1 x", "x", "]"])
    def test_hand_cases(self, text):
        assert line_outcome(text) == loads_outcome(text)


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES)
def test_encode_json_matches_json_dumps(value):
    assert encode_json(value) == json.dumps(value, ensure_ascii=False)


# Any text UTF-8 can hold, with what json.dumps escapes or writes raw drawn
# often: quotes, backslashes, control characters, U+007F, U+0085, U+2028,
# U+2029, astral characters and the "%" of the writer's own template.
WRITABLE_TEXT = st.text(
    st.characters(exclude_categories=("Cs",))
    | st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\r", "\x7f", "\x85", "\u2028", "\u2029",
                       "\U0001f600", "%"])
)
REVIEWS = st.lists(st.builds(Review, WRITABLE_TEXT, st.sampled_from(STAR_VALUES), WRITABLE_TEXT),
                   max_size=8)
SPLIT_NAMES = st.sampled_from(["train", "val", "test"])


def dumps_lines(records) -> bytes:
    """Each record as its ``json.dumps(..., ensure_ascii=False)`` line, in UTF-8."""
    return "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records).encode()


def review_record(review, split_name):
    return {"text": review.text, "stars": review.stars, "business_id": review.business_id,
            "split": split_name}


class TestWriteJsonLines:
    @settings(max_examples=200, deadline=None)
    @given(REVIEWS, SPLIT_NAMES)
    def test_split_file_is_json_dumps_lines_that_load_back(self, tmp_path_factory, reviews,
                                                          split_name):
        path = tmp_path_factory.mktemp("split") / f"{split_name}.jsonl"
        write_reviews(reviews, path, split_name)
        assert path.read_bytes() == dumps_lines(review_record(r, split_name) for r in reviews)
        assert load_reviews(path) == LoadResult(reviews, 0)

    @settings(max_examples=200, deadline=None)
    @given(REVIEWS)
    def test_doc_store_is_json_dumps_lines(self, tmp_path_factory, reviews):
        root = tmp_path_factory.mktemp("docs")
        write_docs(root, reviews)
        records = ({"doc_id": i, "text": r.text, "stars": r.stars} for i, r in enumerate(reviews))
        assert (root / DOCS_FILE).read_bytes() == dumps_lines(records)
        ids = list(range(len(reviews)))
        assert _doc_texts(root, len(reviews), ids) == [r.text for r in reviews]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**63 - 1) | st.just(2**63 - 1), WRITABLE_TEXT,
                              st.sampled_from(STAR_VALUES)), max_size=8))
    def test_any_int64_doc_id(self, tmp_path_factory, docs):
        path = tmp_path_factory.mktemp("docs") / DOCS_FILE
        keys = ("doc_id", "text", "stars")
        blob = write_json_lines(path, {key: [doc[i] for doc in docs] for i, key in enumerate(keys)})
        assert blob == path.read_bytes() == dumps_lines(dict(zip(keys, doc)) for doc in docs)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(WRITABLE_TEXT, st.booleans(), max_size=4), st.data())
    def test_any_keys_and_columns(self, tmp_path_factory, int_keys, data):
        n = data.draw(st.integers(0, 5), label="records")
        columns = {
            key: data.draw(st.lists(st.integers(-(2**70), 2**70) if is_int else WRITABLE_TEXT,
                                    min_size=n, max_size=n), label=f"column {key!r}")
            for key, is_int in int_keys.items()
        }
        path = tmp_path_factory.mktemp("any") / "records.jsonl"
        write_json_lines(path, columns)
        records = (dict(zip(columns, row)) for row in zip(*columns.values()))
        assert path.read_bytes() == dumps_lines(records)

    @settings(max_examples=100, deadline=None)
    @given(REVIEWS, SPLIT_NAMES, st.data())
    def test_lone_surrogate_fails_as_json_dumps_lines_do(self, tmp_path_factory, reviews,
                                                         split_name, data):
        text = data.draw(WRITABLE_TEXT, label="text")
        at = data.draw(st.integers(0, len(text)), label="at")
        text = text[:at] + data.draw(SURROGATES, label="surrogate") + text[at:]
        reviews.insert(data.draw(st.integers(0, len(reviews)), label="index"),
                       Review(text, 3, "b"))
        with pytest.raises(UnicodeEncodeError) as expected:
            dumps_lines(review_record(r, split_name) for r in reviews)
        path = tmp_path_factory.mktemp("split") / "train.jsonl"
        with pytest.raises(UnicodeEncodeError) as raised:
            write_reviews(reviews, path, split_name)
        assert str(raised.value) == str(expected.value)
        assert not path.exists() and not list(path.parent.iterdir())

    @pytest.mark.parametrize("values", [[1, True], [False], [5.0], [1, "a"], [None], [b"x"]])
    def test_column_of_another_type_rejected(self, tmp_path, values):
        with pytest.raises(TypeError, match="^v values must be all str or all int, got "):
            write_json_lines(tmp_path / "f.jsonl", {"s": ["x"] * len(values), "v": values})
        assert not list(tmp_path.iterdir())

    def test_columns_of_two_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_json_lines(tmp_path / "f.jsonl", {"a": [1, 2], "b": ["x"]})
        assert not list(tmp_path.iterdir())


def test_nested_too_deep_raises_as_json_loads_does():
    text = "[" * 100_000
    assert line_outcome(text) == loads_outcome(text)


# Lines of record files: good records, blank and whitespace-only lines, raw
# line separators that only str.splitlines splits at, and bad records.
GOOD_REVIEW = st.builds(
    lambda text, stars, business: json.dumps(
        {"text": text, "stars": stars, "business_id": business}, ensure_ascii=False
    ),
    st.text(st.sampled_from("ab \u2028\u2029\u0085é")),
    st.sampled_from([1, 2, 3, 4, 5, 5.0]),
    st.sampled_from(["b1", "b\u20282"]),
)
BAD_REVIEW = st.sampled_from([
    "{not json",
    '{"text": "x", "business_id": "b"}',
    '{"text": 3, "stars": 4, "business_id": "b"}',
    '{"text": "x", "stars": 6, "business_id": "b"}',
    '{"text": "x", "stars": 4.5, "business_id": "b"}',
    '{"text": "x", "stars": true, "business_id": "b"}',
    '{"text": "\\ud800", "stars": 1, "business_id": "b"}',
    "[1, 2]",
    '"text"',
    "\ufeff{}",
    '{"text": "x", "stars": 1, "business_id": "b"} extra',
    '  {"text": "padded", "stars": 2, "business_id": "b"}  ',
    "NaN",
])
GOOD_PREDICTION = st.builds(
    lambda t, p, note: json.dumps(
        {"y_true": t, "y_pred": p, **({"note": note} if note is not None else {})},
        ensure_ascii=False,
    ),
    st.integers(0, 4),
    st.sampled_from([0, 1, 2, 3, 4, 2.0]),
    st.none() | st.sampled_from(["a\u2028b", "c\u0085d", "\u2029"]),
)
BAD_PREDICTION = st.sampled_from([
    "not json", '{"y_true": 0}', '{"y_true": 1.7, "y_pred": 0}', '{"y_true": 0, "y_pred": "3"}',
    '{"y_true": 0, "y_pred": 7}', '{"y_true": -1, "y_pred": 0}', '{"y_true": true, "y_pred": 0}',
    '{"y_true": 0, "y_pred": 0', "[0, 0]", "\ufeff{}", '{"y_true": 0, "y_pred": 0} {}',
])
BLANK = st.sampled_from(["", " ", "\t ", " \x0c ", "\u2028"])
NEWLINE = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def record_file(draw, good, bad, bad_weight):
    lines = draw(st.lists(st.one_of(good, good, BLANK, *[bad] * bad_weight), max_size=12))
    parts = [line + draw(NEWLINE) for line in lines]
    if lines and draw(st.booleans()):  # no newline after the last line
        parts[-1] = lines[-1]
    return "".join(parts)


class TestReadLines:
    @pytest.mark.parametrize(
        "text, lines",
        [
            ("", []),
            ("a", ["a"]),
            ("a\n", ["a"]),
            ("a\r\nb\rc\n\n", ["a", "b", "c", ""]),
            ("\n", [""]),
            ("a\u2028b\x85c\x0cd\n", ["a\u2028b\x85c\x0cd"]),
            ("\r\r\n", ["", ""]),
        ],
    )
    def test_splits_at_newlines_only(self, tmp_path, text, lines):
        path = tmp_path / "f.jsonl"
        path.write_bytes(text.encode("utf-8"))
        assert read_lines(path) == lines

    def test_invalid_utf8_raises_as_open_does(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_bytes(b'{"a": 1}\n' * 2000 + b"\xff\n")
        with pytest.raises(UnicodeDecodeError) as expected:
            with open(path, encoding="utf-8") as f:
                f.read()
        with pytest.raises(UnicodeDecodeError) as raised:
            read_lines(path)
        assert str(raised.value) == str(expected.value)


class TestLoadReviewsAgainstNaiveLoop:
    @settings(max_examples=200, deadline=None)
    @given(record_file(GOOD_REVIEW, BAD_REVIEW, 1))
    def test_same_reviews_and_skip_count(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("load") / "corpus.jsonl"
        path.write_bytes(text.encode("utf-8"))
        result = load_reviews(path)
        got = [(r.text, r.stars, r.business_id) for r in result.reviews]
        assert (got, result.skipped) == naive_load_reviews(path)

    def test_invalid_utf8_error_is_that_of_read_lines(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        record = json.dumps({"text": "good food", "stars": 4, "business_id": "b"}) + "\n"
        path.write_bytes(record.encode() * 400 + b"\xff\n")
        with pytest.raises(UnicodeDecodeError) as expected:
            read_lines(path)
        with pytest.raises(UnicodeDecodeError) as raised:
            load_reviews(path)
        assert str(raised.value) == str(expected.value)
        assert raised.value.start == len(record) * 400  # the bad byte's offset in the file


def run_eval(path, n_classes=5):
    """(exit code, stdout, stderr, files written by name) of ``desksearch
    eval`` on ``path``."""
    config = path.parent / "c.json"
    out_dir = path.parent / "out"
    config.write_text(json.dumps({"index_dir": str(out_dir), "n_classes": n_classes}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", str(path), "--config", str(config)])
    files = {f.name: f.read_bytes() for f in out_dir.iterdir()} if out_dir.exists() else {}
    return code, out.getvalue(), err.getvalue(), files


class TestEvalAgainstNaiveLoop:
    @settings(max_examples=200, deadline=None)
    @given(
        record_file(GOOD_PREDICTION, BAD_PREDICTION, 1)
        | record_file(GOOD_PREDICTION, BAD_PREDICTION, 0)
    )
    def test_same_metrics_or_error_line(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("eval") / "predictions.jsonl"
        path.write_bytes(text.encode("utf-8"))
        assert run_eval(path) == naive_eval(path, 5)


def pair_line(y_true, y_pred) -> str:
    """A line of the form that ``io_utils.label_pairs`` decodes in bulk."""
    return json.dumps({"y_true": y_true, "y_pred": y_pred}) + "\n"


LONGEST_PAIR = pair_line(2**63 - 1, 2**63 - 1)
# Every width from 1 to 19 digits, and the largest label there is.
WIDE_LABEL = st.integers(0, 9) | st.integers(10, 2**63 - 1) | st.sampled_from(
    [10**width - 1 for width in range(1, 19)] + [10**18, 2**63 - 1]
)
# Each way a line can leave the bulk form (README, "eval"), as a replacement
# for the line; without its newline, a line before the last joins the next one.
DEVIATIONS = {
    "blank line": lambda t, p: "\n" + pair_line(t, p),
    "crlf": lambda t, p: pair_line(t, p)[:-1] + "\r\n",
    "bom": lambda t, p: "\ufeff" + pair_line(t, p),
    "spacing": lambda t, p: json.dumps({"y_true": t, "y_pred": p}, separators=(",", ":")) + "\n",
    "key order": lambda t, p: json.dumps({"y_pred": p, "y_true": t}) + "\n",
    "float": lambda t, p: json.dumps({"y_true": float(t), "y_pred": p}) + "\n",
    "leading zero": lambda t, p: pair_line(t, p).replace('"y_pred": ', '"y_pred": 0'),
    "no final newline": lambda t, p: pair_line(t, p)[:-1],
    "past int64": lambda t, p: pair_line(t, 2**63),
    # A cut line: y_pred has two digits, so that its last stands where "}" was.
    "no closing brace": lambda t, p: pair_line(t, p + 10).replace("}", ""),
}


class TestLabelPairsAcrossBlocks:
    """``io_utils.label_pairs`` reading through a 64-byte buffer, one byte past
    the longest line it decodes, so that lines straddle every block edge."""

    BLOCK = 64

    def test_the_block_is_one_byte_past_the_longest_line(self):
        assert len(LONGEST_PAIR) == self.BLOCK - 1
        assert io_utils.LABEL_BLOCK > len(LONGEST_PAIR)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(WIDE_LABEL, WIDE_LABEL), min_size=1, max_size=40))
    def test_canonical_lines_decode_as_json_loads_does(self, tmp_path_factory, pairs):
        path = tmp_path_factory.mktemp("pairs") / "predictions.jsonl"
        path.write_text("".join(pair_line(t, p) for t, p in pairs))
        with patch.object(io_utils, "LABEL_BLOCK", self.BLOCK):
            labels = io_utils.label_pairs(path)
        expected = [[record["y_true"], record["y_pred"]]
                    for record in map(json.loads, path.read_text().splitlines())]
        assert labels.dtype == np.int64 and labels.tolist() == expected
        assert labels.T.flags.c_contiguous  # each column in one run, as confusion_counts reads it

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=6, max_size=30),
        st.sampled_from(["first", "middle", "last"]),
        st.sampled_from([None, *DEVIATIONS]),
    )
    def test_one_deviation_in_any_block_gives_naive_eval(
        self, tmp_path_factory, pairs, where, deviation
    ):
        lines = [pair_line(t, p) for t, p in pairs]
        at = {"first": 0, "middle": len(lines) // 2, "last": len(lines) - 1}[where]
        if deviation is not None:
            lines[at] = DEVIATIONS[deviation](*pairs[at])
        path = tmp_path_factory.mktemp("eval") / "predictions.jsonl"
        path.write_bytes("".join(lines).encode("utf-8"))
        with patch.object(io_utils, "LABEL_BLOCK", self.BLOCK):
            assert (io_utils.label_pairs(path) is None) == (deviation is not None)
            assert run_eval(path, 12) == naive_eval(path, 12)

    def test_a_file_with_no_final_newline_is_not_read(self, tmp_path, monkeypatch):
        """Its last byte alone rules it out: label_pairs reads no block."""
        path = tmp_path / "predictions.jsonl"
        path.write_text("".join(pair_line(i % 5, i * 3 % 5) for i in range(40))[:-1])
        reads = []

        class CountingFile(io.FileIO):
            def readinto(self, buffer):
                reads.append(len(buffer))
                return super().readinto(buffer)

        monkeypatch.setattr(io_utils, "open", lambda p, mode, buffering: CountingFile(p, mode),
                            raising=False)
        assert io_utils.label_pairs(path) is None
        assert reads == []
        monkeypatch.undo()
        assert run_eval(path) == naive_eval(path, 5)

    @pytest.mark.parametrize("change", [-27, 27])
    def test_a_file_whose_size_changes_while_read_is_not_decoded(
        self, tmp_path, monkeypatch, change
    ):
        """A file that grew (its opening size reads smaller) or shrank since it
        was opened; eval then reads it whole."""
        path = tmp_path / "predictions.jsonl"
        path.write_text("".join(pair_line(i % 5, i * 3 % 5) for i in range(40)))
        fstat = os.fstat
        monkeypatch.setattr(
            io_utils.os, "fstat", lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + change)
        )
        with patch.object(io_utils, "LABEL_BLOCK", self.BLOCK):
            assert io_utils.label_pairs(path) is None
            assert run_eval(path) == naive_eval(path, 5)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_named_pipe_is_read_once(self, tmp_path):
        """A pipe is no regular file: label_pairs leaves it unread, and eval
        reads it whole, once."""
        text = "".join(pair_line(i % 5, i * 3 % 5) for i in range(40))
        regular, pipe = tmp_path / "regular" / "p.jsonl", tmp_path / "pipe" / "p.jsonl"
        regular.parent.mkdir(), pipe.parent.mkdir()
        regular.write_text(text)
        os.mkfifo(pipe)
        results = []
        threads = [threading.Thread(target=pipe.write_text, args=(text,), daemon=True),
                   threading.Thread(target=lambda: results.append(run_eval(pipe)), daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert results == [run_eval(regular)]


class TestConfusionCounts:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 6),
        st.lists(st.tuples(
            st.integers(-2, 7) | st.sampled_from([2**63, -(2**70)]), st.integers(-2, 7)
        ), max_size=30),
    )
    def test_counts_or_names_the_first_pair_out_of_range(self, k, pairs):
        bad = [(t, p) for t, p in pairs if not (0 <= t < k and 0 <= p < k)]
        if bad:
            with pytest.raises(ValueError) as raised:
                confusion_counts(pairs, k)
            assert str(raised.value) == f"label pair {bad[0]} out of range for {k} classes"
        else:
            counts = Counter(pairs)
            expected = [[counts[(t, p)] for p in range(k)] for t in range(k)]
            assert confusion_counts(pairs, k).counts.tolist() == expected

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 6), st.lists(st.tuples(st.integers(-2, 7), st.integers(-2, 7)),
                                       max_size=30))
    def test_list_row_major_and_column_major_count_alike(self, k, pairs):
        row_major = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
        column_major = np.asfortranarray(row_major)
        assert row_major.flags.c_contiguous and column_major.flags.f_contiguous
        outcomes = []
        for labels in (pairs, row_major, column_major):
            try:
                outcomes.append(confusion_counts(labels, k).counts.tolist())
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_empty_list_counts_nothing(self):
        cm = confusion_counts([], 3)
        assert cm.counts.shape == (3, 3) and cm.counts.dtype == np.int64 and cm.total == 0
