"""The CLI's input boundary: whatever bytes a config, corpus or predictions
file or an artifact's header line holds, `desksearch` either succeeds or
exits 1 with one `error:` line, and never raises."""

import contextlib
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_eval

from desksearch import encoder, metrics, searcher
from desksearch.cli import SPLIT_KEYS, main
from desksearch.dataset import load_reviews
from desksearch.io_utils import write_artifact

SMALL_ENCODER = {"d_model": 16, "n_heads": 4, "n_layers": 2, "d_ff": 32, "max_seq_len": 64}
WORDS = ["great", "food", "slow", "staff", "menu", "tiny"]
DEEP = "[" * 100_000  # json raises RecursionError on it
ARTIFACTS = ("lexical_index.json", "vectors.bin", "weights.json", "doc_offsets.bin")


def run(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)``'s exit code, stdout and stderr, held to the boundary's
    contract: exit 0, or exit 1 with exactly one line on stderr, `error: ...`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), code
    if code == 1:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, err
        assert err.getvalue().endswith("\n"), err
    return code, out.getvalue(), err.getvalue()


def review(i: int) -> str:
    return json.dumps({"text": f"doc{i} {WORDS[i % 6]} {WORDS[i % 4]}", "stars": i % 5 + 1,
                       "business_id": f"b{i % 3}"})


def write_config(path: Path, **fields) -> str:
    path.write_text(json.dumps({"encoder": SMALL_ENCODER, **fields}))
    return str(path)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A small corpus, ingested and indexed once: the corpus and its index
    directory."""
    root = tmp_path_factory.mktemp("built")
    corpus = root / "corpus.jsonl"
    corpus.write_text("".join(review(i) + "\n" for i in range(20)))
    config = write_config(root / "c.json", corpus=str(corpus), index_dir=str(root / "idx"))
    assert run(["ingest", "--config", config])[0] == 0
    assert run(["index", "--config", config])[0] == 0
    return {"corpus": corpus, "index_dir": root / "idx"}


class TestDeepJson:
    """A line of 100,000 `[` at each place the CLI decodes JSON."""

    def test_config_file(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(DEEP)
        code, _, err = run(["eval", str(tmp_path / "p.jsonl"), "--config", str(config)])
        assert code == 1 and err.startswith(f"error: cannot read config {config}: maximum ")

    def test_corpus_line_is_skipped_and_counted(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join([review(0) + "\n", DEEP + "\n", review(1) + "\n"]))
        result = load_reviews(corpus)
        assert (len(result.reviews), result.skipped) == (2, 1)
        config = write_config(tmp_path / "c.json", corpus=str(corpus), index_source=str(corpus),
                              index_dir=str(tmp_path / "idx"))
        assert run(["ingest", "--config", config])[0] == 0
        distribution = json.loads((tmp_path / "idx" / "distribution.json").read_text())
        assert (distribution["loaded"], distribution["skipped"]) == (2, 1)
        code, out, _ = run(["index", "--config", config])
        assert code == 0 and json.loads(out)["docs"] == 2

    def test_predictions_line(self, tmp_path):
        preds = tmp_path / "p.jsonl"
        preds.write_text('{"y_true": 1, "y_pred": 1}\n' + DEEP + "\n")
        config = write_config(tmp_path / "c.json", index_dir=str(tmp_path / "out"))
        code, _, err = run(["eval", str(preds), "--config", config])
        assert code == 1 and err.startswith(f"error: {preds}: line 2: bad record: maximum ")

    def test_artifact_header_line(self, built, tmp_path):
        index_dir = tmp_path / "idx"
        shutil.copytree(built["index_dir"], index_dir)
        path = index_dir / "lexical_index.json"
        raw = path.read_bytes()
        path.write_bytes(DEEP.encode() + raw[raw.index(b"\n"):])
        config = write_config(tmp_path / "c.json", index_dir=str(index_dir))
        code, _, err = run(["search", "great", "--config", config])
        assert code == 1 and err.startswith(f"error: {path}: header is not valid JSON: maximum")

    @pytest.mark.parametrize("where", ["whole header", "key before doc_ids"])
    def test_vectors_header_line(self, built, tmp_path, where):
        index_dir = tmp_path / "idx"
        shutil.copytree(built["index_dir"], index_dir)
        path = index_dir / "vectors.bin"
        raw = path.read_bytes()
        end = raw.index(b"\n")
        line = DEEP.encode() if where == "whole header" else raw[:end].replace(
            b'"count"', b'"deep": ' + (DEEP + "]" * len(DEEP)).encode() + b', "count"'
        )
        path.write_bytes(line + raw[end:])
        config = write_config(tmp_path / "c.json", index_dir=str(index_dir))
        code, _, err = run(["search", "great", "--mode", "vector", "--config", config])
        assert code == 1 and err.startswith(f"error: {path}: header is not valid JSON: maximum")

    def test_docs_line(self, built, tmp_path):
        index_dir = tmp_path / "idx"
        shutil.copytree(built["index_dir"], index_dir)
        n_docs = len((index_dir / "docs.jsonl").read_bytes().splitlines())
        line = (DEEP + "\n").encode()
        (index_dir / "docs.jsonl").write_bytes(line * n_docs)
        starts = np.arange(n_docs + 1, dtype="<i8") * len(line)
        write_artifact(index_dir / searcher.OFFSETS_FILE, searcher.OFFSETS_FORMAT,
                       searcher.OFFSETS_VERSION, {"n_docs": n_docs}, [starts])
        config = write_config(tmp_path / "c.json", index_dir=str(index_dir))
        code, _, err = run(["search", "great", "--config", config, "--k", "1"])
        assert code == 1 and ": line " in err and ": maximum recursion" in err
        assert err.startswith(f"error: {index_dir / 'docs.jsonl'}: line "), err


class TestBillionLayers:
    """A config or sidecar asking for 10**9 layers fails before any layer is
    drawn, rather than drawing small arrays until memory runs out."""

    @pytest.fixture(autouse=True)
    def no_layer_drawn(self, monkeypatch):
        def refuse(**arrays):
            raise AssertionError("a layer was drawn")

        monkeypatch.setattr(encoder, "LayerWeights", refuse)

    def test_init_weights(self):
        cfg = encoder.EncoderConfig(vocab_size=10, seed=0, **{**SMALL_ENCODER, "n_layers": 10**9})
        with pytest.raises(MemoryError, match="bytes of weights exceed the .* physical memory"):
            encoder.init_weights(cfg)
        with pytest.raises(MemoryError, match="physical memory"):
            encoder.init_weights(cfg, [3])

    def test_index_config(self, built, tmp_path):
        config = write_config(tmp_path / "c.json", index_source=str(built["corpus"]),
                              index_dir=str(tmp_path / "idx"),
                              encoder={**SMALL_ENCODER, "n_layers": 10**9})
        code, _, err = run(["index", "--config", config])
        assert code == 1 and err.startswith("error: out of memory: "), err

    def test_weights_sidecar(self, built, tmp_path):
        index_dir = tmp_path / "idx"
        shutil.copytree(built["index_dir"], index_dir)
        sidecar = json.loads((index_dir / "weights.json").read_text())
        sidecar["config"]["n_layers"] = 10**9
        (index_dir / "weights.json").write_text(json.dumps(sidecar) + "\n")
        config = write_config(tmp_path / "c.json", index_dir=str(index_dir))
        code, _, err = run(["search", "great", "--mode", "vector", "--config", config])
        assert code == 1 and err.startswith(
            f"error: {index_dir / 'weights.json'}: cannot draw the weights it describes: "
        ), err


def test_weights_limit_is_physical_memory_where_sysconf_tells_it(monkeypatch):
    cfg = encoder.EncoderConfig(vocab_size=10, seed=0, **SMALL_ENCODER)
    monkeypatch.setattr(encoder.os, "sysconf", lambda name: 64)  # 4,096 bytes
    with pytest.raises(MemoryError, match="exceed the 4096 bytes of physical memory"):
        encoder.init_weights(cfg)
    monkeypatch.setattr(encoder.os, "sysconf_names", {})  # as where sysconf cannot tell
    assert len(encoder.init_weights(cfg).layers) == 2


def test_confusion_limit_is_physical_memory_where_sysconf_tells_it(monkeypatch):
    # 16 bytes per cell: the K x K matrix and the bincount it is filled from.
    monkeypatch.setattr(encoder.os, "sysconf", lambda name: 64)  # 4,096 bytes
    with pytest.raises(MemoryError, match="4624 bytes of confusion matrix and bincount for "
                                          "n_classes 17 exceed the 4096 bytes of physical"):
        metrics.confusion_counts([(0, 1)], 17)
    assert metrics.confusion_counts([(0, 1)], 16).total == 1
    monkeypatch.setattr(encoder.os, "sysconf_names", {})  # as where sysconf cannot tell
    assert metrics.confusion_counts([(0, 1)], 17).total == 1


def test_eval_outputs_limit_is_physical_memory_where_sysconf_tells_it(tmp_path, monkeypatch):
    # 17 classes: the matrix and bincount take 4,624 bytes and fit in 6,400;
    # the matrices and CSVs of eval, at 32 bytes per cell, take 9,248 and do not.
    preds = tmp_path / "p.jsonl"
    preds.write_text('{"y_true": 16, "y_pred": 0}\n')
    out_dir = tmp_path / "out"
    config = write_config(tmp_path / "c.json", index_dir=str(out_dir), n_classes=17)
    monkeypatch.setattr(encoder.os, "sysconf", lambda name: 80)  # 6,400 bytes
    assert metrics.confusion_counts([(16, 0)], 17).total == 1
    code, out, err = run(["eval", str(preds), "--config", config])
    assert (code, out) == (1, "") and not out_dir.exists()
    assert err == ("error: out of memory: 9248 bytes of confusion matrices and CSVs for "
                   "n_classes 17 exceed the 6400 bytes of physical memory\n"), err


def test_class_count_past_int64_is_out_of_memory_naming_it(tmp_path):
    # numpy cannot even shape a 2**63 x 2**63 matrix; the check comes first.
    preds = tmp_path / "p.jsonl"
    preds.write_text('{"y_true": 1, "y_pred": 0}\n')
    config = write_config(tmp_path / "c.json", index_dir=str(tmp_path / "out"), n_classes=2**63)
    code, _, err = run(["eval", str(preds), "--config", config])
    assert code == 1 and err.startswith("error: out of memory: "), err
    assert f"for n_classes {2**63} exceed the " in err, err


@pytest.mark.parametrize("command, what", [
    ("ingest", "corpus"), ("index", "corpus"), ("eval", "predictions"), ("config", "config"),
])
def test_a_file_that_is_not_utf8_is_named_with_the_bad_bytes_offset(tmp_path, command, what):
    bad = tmp_path / "bad.jsonl"
    line = review(0).encode()
    bad.write_bytes(line + b"\n" + line.replace(b"doc0", b"d\xffc0") + b"\n")
    offset = len(line) + 1 + line.index(b"doc0") + 1
    config = write_config(tmp_path / "c.json", corpus=str(bad), index_source=str(bad),
                          index_dir=str(tmp_path / "out"))
    argv = {"ingest": ["ingest", "--config", config], "index": ["index", "--config", config],
            "eval": ["eval", str(bad), "--config", config],
            "config": ["eval", str(bad), "--config", str(bad)]}[command]
    code, _, err = run(argv)
    assert code == 1 and err.startswith(f"error: cannot read {what} {bad}: "), err
    assert f"can't decode byte 0xff in position {offset}: " in err, err

# Integers are small or beyond 2**63: an accepted size then costs little, or
# is refused for want of memory before anything is drawn.
INTS = st.integers(-2, 6) | st.integers(2**63, 2**200)
SCALARS = (
    st.none() | st.booleans() | INTS | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.5, 1.0, 5.0, 1e300]) | st.text(max_size=4)
)
JSON = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.text(max_size=3), inner, max_size=3
    ), max_leaves=6,
)
# Config keys, each with values it accepts; any other value may replace one.
VALID = {
    "n_classes": [2, 5], "seed": [0, 3, 2**63], "alpha": [0.0, 0.5, 1], "k": [1, 3, 2**63],
    "candidate_factor": [1, 2**63],
    "split": [{}, {"train": 98, "val": 1, "test": 1}, {"per_class": 1}],
    "encoder": [SMALL_ENCODER, {"d_model": 4, "n_heads": 2, "n_layers": 1, "d_ff": 4},
                {"max_seq_len": 1}, {"max_seq_len": 2**63}],
    "tokenizer": [{"lowercase": False}, {"min_token_len": 5}, {"min_token_len": 2**63}],
}
SECTION_KEYS = {
    "split": list(SPLIT_KEYS),
    "encoder": list(SMALL_ENCODER), "tokenizer": ["lowercase", "min_token_len"],
}


def mostly(good: st.SearchStrategy, odd: st.SearchStrategy) -> st.SearchStrategy:
    """``good`` three times in four, else ``odd``."""
    return st.sampled_from([good] * 3 + [odd]).flatmap(lambda s: s)


def values(valid: list) -> st.SearchStrategy:
    return mostly(st.sampled_from(valid), JSON)


@st.composite
def configs(draw) -> object:
    """Mostly a valid config; else one with one key, or one key of a
    section, set to any value; or any JSON value at all.  A path key gets no
    string, so that nothing is written outside the test's directory."""
    raw = draw(st.fixed_dictionaries({}, optional={
        key: st.sampled_from(valid) for key, valid in VALID.items()
    }))
    how = draw(st.sampled_from(["valid", "valid", "one key", "any value"]))
    if how == "any value":
        return draw(JSON)
    if how == "one key":
        key = draw(st.sampled_from([*VALID, "corpus", "index_dir", "index_source", "other"]))
        value = draw(JSON.filter(lambda v: not isinstance(v, str)))
        if key in SECTION_KEYS and draw(st.booleans()):
            value = {**raw.get(key, {}), draw(st.sampled_from(SECTION_KEYS[key])): value}
        raw[key] = value
    return raw


@st.composite
def damaged(draw, lines: list[str], ends: st.SearchStrategy = st.just(b"\n")) -> bytes:
    """The UTF-8 of ``lines``, each followed by an end drawn from ``ends``:
    as they are, with one line nested far too deeply or cut short, or with
    bytes that are no UTF-8 somewhere in the file."""
    blobs = [line.encode() for line in lines]
    how = draw(st.sampled_from(["none", "none", "none", "deep", "cut", "bad bytes"]))
    if how in ("deep", "cut") and blobs:
        i = draw(st.integers(0, len(blobs) - 1))
        blobs[i] = (draw(st.sampled_from([DEEP, "{" + '"a":' * 2000])).encode() + blobs[i]
                    if how == "deep" else blobs[i][: draw(st.integers(0, len(blobs[i])))])
    blob = b"".join(line + draw(ends) for line in blobs)
    if how == "bad bytes":
        at = draw(st.integers(0, len(blob)))
        blob = blob[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + blob[at:]
    return blob


FUZZ = settings(max_examples=60, deadline=None)


@FUZZ
@given(data=st.data(), raw=configs(),
       command=st.sampled_from(["ingest", "index", "search", "eval"]))
def test_any_config_file(built, data, raw, command):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if isinstance(raw, dict):
            raw = {"corpus": str(built["corpus"]), "index_dir": str(work / "idx"),
                   "index_source": str(built["corpus"]), **raw}
        config = work / "c.json"
        config.write_bytes(data.draw(damaged([json.dumps(raw)], st.just(b""))))
        argv = {"ingest": [], "index": [], "eval": [str(work / "p.jsonl")],
                "search": ["great food", "--mode", data.draw(st.sampled_from(
                    ["lexical", "vector", "hybrid"]))]}[command]
        if command == "search":
            shutil.copytree(built["index_dir"], work / "idx")
        if command == "eval":
            (work / "p.jsonl").write_text('{"y_true": 1, "y_pred": 0}\n')
        run([command, *argv, "--config", str(config)])


RECORD = st.fixed_dictionaries({}, optional={
    "text": values(["great food", "", "slow staff menu"]), "stars": values([1, 5, 5.0]),
    "business_id": values(["b"]),
})


@FUZZ
@given(data=st.data(), lines=st.lists(mostly(
    st.integers(0, 30).map(review),
    st.one_of(RECORD.map(json.dumps), JSON.map(json.dumps), st.sampled_from(["", " "])),
), max_size=8))
def test_any_corpus_file(data, lines):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        corpus = work / "corpus.jsonl"
        corpus.write_bytes(data.draw(damaged(lines, st.sampled_from([b"\n", b"\r\n", b"\r"]))))
        config = write_config(work / "c.json", corpus=str(corpus), index_dir=str(work / "idx"),
                              index_source=str(corpus))
        code = run(["index", "--config", config])[0]
        if run(["ingest", "--config", config])[0] == 0:
            assert code == 0  # what ingest reads, index reads too


PREDICTION = st.fixed_dictionaries({}, optional={
    "y_true": values([0, 4, 2.0]), "y_pred": values([1, 3.0]),
})
# A label's JSON text: mostly one in range for 2 or 5 classes; else one that
# is out of range, past int64, or no integer label at all.
LABEL = mostly(st.sampled_from(["0", "1", "3", "4", "2.0", "-0", "1E0"]), st.sampled_from([
    "-1", "5", str(2**63), str(-(2**64)), "1.7", "true", "null", '"3"', "NaN", "-Infinity",
    "1e400", "[0]",
]))


@st.composite
def prediction_lines(draw) -> str:
    """One line of a predictions file: a record, with a duplicate or a missing
    key, spaces or tabs around it, a BOM, extra data after it or nested too
    deeply; or a line that str.strip finds blank though JSON allows no such
    whitespace; or any JSON value."""
    how = draw(st.sampled_from(["record"] * 6 + ["blank", "any"]))
    if how == "blank":
        return draw(st.text(st.sampled_from(" \t\x0c\x0b\xa0\x1c\u2028\u3000"), max_size=3))
    if how == "any":
        return draw(st.one_of(PREDICTION.map(json.dumps), JSON.map(json.dumps)))
    keys = draw(st.sampled_from(
        [["y_true", "y_pred"]] * 4
        + [["y_pred", "y_true"], ["y_true"], ["y_pred"], [], ["y_true", "y_pred", "y_true"],
           ["y_true", "y_pred", "y_pred"], ["y_pred", "y_true", "y_pred"]]
    ))
    line = "{" + ", ".join(f'"{key}": {draw(LABEL)}' for key in keys) + "}"
    for edit in draw(st.lists(st.sampled_from(["pad", "bom", "extra", "deep"]), max_size=2)):
        if edit == "pad":
            pad = st.text(st.sampled_from(" \t"), min_size=1, max_size=2)
            line = draw(pad | st.just("")) + line + draw(pad)
        elif edit == "bom":
            line = "\ufeff" + line
        elif edit == "extra":
            line += draw(st.sampled_from([" {}", "x", ",", " 1", "}"]))
        else:
            line = "[" * 5000 + line + "]" * 5000
    return line


# A label as json.dumps writes it: mostly in range for 2 or 5 classes, else
# one of several digits, past n_classes, or past int64.
DUMPS_LABEL = st.integers(0, 4) | st.integers(0, 2**64) | st.sampled_from([10, 2**63 - 1, 2**63])
DUMPS_LINE = st.tuples(DUMPS_LABEL, DUMPS_LABEL).map(
    lambda p: json.dumps({"y_true": p[0], "y_pred": p[1]}))
# Edits of one json.dumps line that leave every other byte of the file in
# json.dumps's form, so that only a check of the whole file tells them apart.
DUMPS_EDITS = ["none", "leading zero", "minus zero", "digit in key", "no final newline", "crlf",
               "cr", "two records", "repeated key", "non-ascii", "replace a byte", "drop a byte"]


@st.composite
def dumps_file(draw) -> bytes:
    """json.dumps lines, each ended by a newline, with one of DUMPS_EDITS
    made to one of them."""
    lines = [line.encode() + b"\n" for line in draw(st.lists(DUMPS_LINE, min_size=1, max_size=6))]
    i, edit = draw(st.integers(0, len(lines) - 1)), draw(st.sampled_from(DUMPS_EDITS))
    line = lines[i]
    if edit == "leading zero":
        line = line.replace(b": ", b": 0", 1)
    elif edit == "minus zero":
        line = re.sub(rb": [0-9]+", b": -0", line, count=1)
    elif edit == "digit in key":
        line = line.replace(b'"y_true"', b'"y_1true"')
    elif edit in ("crlf", "cr"):
        line = line[:-1] + (b"\r\n" if edit == "crlf" else b"\r")
    elif edit == "two records":
        line = line[:-1] + line
    elif edit == "repeated key":  # json.loads keeps the last y_pred
        line = line[:-2] + b', "y_pred": 1}\n'
    elif edit in ("replace a byte", "drop a byte"):  # of the line, not its newline
        at = draw(st.integers(0, len(line) - 2))
        byte = draw(st.sampled_from(list(b'0123456789 ,:"{}_')).map(lambda b: bytes([b])))
        line = line[:at] + (byte if edit == "replace a byte" else b"") + line[at + 1 :]
    elif edit == "non-ascii":
        at = draw(st.integers(0, len(line) - 1))
        char = draw(st.sampled_from(["\xe9", "\xa0", "\u0661", "\uff11"]))  # \u0661 is a digit
        line = line[:at] + char.encode() + line[at:]
    lines[i] = line
    blob = b"".join(lines)
    return blob[:-1] if edit == "no final newline" else blob


@settings(max_examples=400, deadline=None)
@given(
    data=st.data(),
    lines=st.lists(mostly(DUMPS_LINE, prediction_lines()), max_size=6),
    n_classes=st.sampled_from([2, 5, 5, 2**63]) | INTS,
    dumps=st.booleans(),
)
def test_any_predictions_file(data, lines, n_classes, dumps):
    """eval gives what the naive loop of tests/oracles.py gives: the same exit
    code, stdout, stderr and files.  Half the files are json.dumps lines with
    at most one line edited (``dumps_file``), as eval decodes in bulk; the
    other half are any lines, ended by any line end."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        preds = work / "p.jsonl"
        ends = st.sampled_from([b"\n", b"\r\n", b"\r"])
        preds.write_bytes(data.draw(dumps_file() if dumps else damaged(lines, ends)))
        out_dir = work / "out"
        config = write_config(work / "c.json", index_dir=str(out_dir), n_classes=n_classes)
        code, out, err = run(["eval", str(preds), "--config", config])
        files = {f.name: f.read_bytes() for f in out_dir.iterdir()} if out_dir.exists() else {}
        if n_classes < 2:
            expected = (1, "", f"error: invalid configuration: n_classes must be an integer "
                               f">= 2, got {n_classes}\n", {})
        else:
            expected = naive_eval(preds, n_classes)
        assert (code, out, err, files) == expected


@FUZZ
@given(data=st.data(), name=st.sampled_from(ARTIFACTS),
       mode=st.sampled_from(["lexical", "vector", "hybrid"]))
def test_any_artifact_header_line(built, data, name, mode):
    with tempfile.TemporaryDirectory() as tmp:
        index_dir = Path(tmp) / "idx"
        shutil.copytree(built["index_dir"], index_dir)
        path = index_dir / name
        raw = path.read_bytes()
        end = raw.index(b"\n")
        header = json.loads(raw[:end])
        # One key of the header, or of the sidecar's encoder config, is set to
        # any value or dropped; or the whole header is any JSON value.
        target = header["config"] if name == "weights.json" and data.draw(st.booleans()) else header
        key = data.draw(st.sampled_from(sorted(target)) | st.text(max_size=3))
        edit = data.draw(st.sampled_from(["set", "drop", "replace"]))
        if edit == "set":
            target[key] = data.draw(JSON)
        elif edit == "drop":
            target.pop(key, None)
        else:
            header = data.draw(JSON)
        path.write_bytes(data.draw(damaged([json.dumps(header)], st.just(b""))) + raw[end:])
        config = write_config(Path(tmp) / "c.json", index_dir=str(index_dir))
        run(["search", "great food doc3", "--mode", mode, "--config", config])


ID_CHARS = "0123456789-+., e"


@st.composite
def id_list_bytes(draw, ids: bytes) -> bytes:
    """The bytes inside a vectors.bin's doc-id list, ``ids``, rewritten as
    json.dumps never writes them: one byte inserted, replaced or deleted, the
    values joined by another separator, one value swapped for a token near
    the edges of the form, or any text of the characters a list of numbers
    uses."""
    how = draw(st.sampled_from(["insert", "replace", "delete", "join", "token", "any"]))
    at = draw(st.integers(0, len(ids)))
    if how in ("insert", "replace", "delete"):
        byte = draw(st.sampled_from(ID_CHARS)).encode()
        return ids[:at] + (b"" if how == "delete" else byte) + ids[at + (how != "insert"):]
    tokens = ids.split(b", ")
    if how == "join":
        return draw(st.sampled_from([b",", b" ,", b",  ", b", , "])).join(tokens)
    if how == "token":
        tokens[at % len(tokens)] = draw(st.sampled_from([
            b"-0", b"00", b"+1", b"1.0", b"1e3", b"", b"-", b"9223372036854775808",
            b"-9223372036854775809", b"-9223372036854775808", b"9223372036854775807",
        ]))
        return b", ".join(tokens)
    return draw(st.text(ID_CHARS, max_size=40)).encode()


@FUZZ
@given(data=st.data(), mode=st.sampled_from(["lexical", "vector", "hybrid"]))
def test_any_vectors_id_list(built, data, mode):
    with tempfile.TemporaryDirectory() as tmp:
        index_dir = Path(tmp) / "idx"
        shutil.copytree(built["index_dir"], index_dir)
        path = index_dir / "vectors.bin"
        raw = path.read_bytes()
        end = raw.index(b"\n")
        line = raw[:end].rstrip(b" ")
        start = line.index(b'"doc_ids": [') + len(b'"doc_ids": [')
        text = data.draw(id_list_bytes(line[start:-2]))
        line = line[:start] + text + b"]}"
        path.write_bytes(line + b" " * (-(len(line) + 1) % 8) + raw[end:])
        config = write_config(Path(tmp) / "c.json", index_dir=str(index_dir))
        code, _, _ = run(["search", "great food doc3", "--mode", mode, "--config", config])
        if code == 0 and mode != "lexical":  # only a list that JSON reads as integers loads
            assert all(type(i) is int for i in json.loads(b"[" + text + b"]"))
