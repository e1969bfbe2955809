"""Independent brute-force reference implementations used to cross-check the
package.  Everything here works on plain lists/dicts and recomputes from first
principles; nothing calls into desksearch's production code paths."""

from __future__ import annotations

import json
import math
import os
import re


def naive_term_ids(corpus: list[list[str]]) -> dict[str, int]:
    ids: dict[str, int] = {}
    for doc in corpus:
        for token in doc:
            if token not in ids:
                ids[token] = len(ids)
    return ids


def naive_tfidf(corpus: list[list[str]]) -> list[dict[int, float]]:
    """Double-loop tf-idf: for every document and every vocabulary term, count
    occurrences by scanning and weigh by log(n / (1 + df))."""
    ids = naive_term_ids(corpus)
    n = len(corpus)
    vectors: list[dict[int, float]] = []
    for doc in corpus:
        weights: dict[int, float] = {}
        for term, tid in ids.items():
            tf = sum(1 for token in doc if token == term)
            if tf == 0:
                continue
            df = sum(1 for other in corpus if term in other)
            w = tf * math.log(n / (1 + df))
            if w != 0.0:
                weights[tid] = w
        vectors.append(weights)
    return vectors


def naive_query_tfidf(
    query: list[str], corpus: list[list[str]], ids: dict[str, int]
) -> dict[int, float]:
    n = len(corpus)
    weights: dict[int, float] = {}
    for term, tid in ids.items():
        tf = sum(1 for token in query if token == term)
        if tf == 0:
            continue
        df = sum(1 for other in corpus if term in other)
        w = tf * math.log(n / (1 + df))
        if w != 0.0:
            weights[tid] = w
    return weights


def sparse_cosine(a: dict[int, float], b: dict[int, float]) -> float:
    norm_a = math.sqrt(sum(v * v for v in a.values()))
    norm_b = math.sqrt(sum(v * v for v in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    dot = sum(v * b[i] for i, v in sorted(a.items()) if i in b)
    return dot / (norm_a * norm_b)


def brute_force_lexical(
    corpus: list[list[str]], query: list[str], k: int
) -> list[tuple[int, float]]:
    """Materialize every document's tf-idf vector and rank by cosine directly."""
    ids = naive_term_ids(corpus)
    doc_vectors = naive_tfidf(corpus)
    q = naive_query_tfidf(query, corpus, ids)
    hits = []
    for doc_id, dv in enumerate(doc_vectors):
        score = sparse_cosine(q, dv)
        if score != 0.0:
            hits.append((doc_id, score))
    hits.sort(key=lambda h: (-h[1], h[0]))
    return hits[:k]


def dense_cosine(a: list[float], b: list[float]) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return dot / (na * nb)


def brute_force_knn(
    vectors: dict[int, list[float]], query: list[float], k: int
) -> list[tuple[int, float]]:
    """All-pairs cosine scan over every stored vector."""
    hits = [(doc_id, dense_cosine(list(vec), list(query))) for doc_id, vec in vectors.items()]
    hits.sort(key=lambda h: (-h[1], h[0]))
    return hits[:k]


def recompute_fusion(
    lex_hits: list[tuple[int, float]],
    vec_hits: list[tuple[int, float]],
    alpha: float,
    k: int,
) -> list[tuple[int, float]]:
    """From-scratch re-evaluation of the min-max + weighted-sum fusion rule."""

    def norm(hits: list[tuple[int, float]]) -> dict[int, float]:
        if not hits:
            return {}
        scores = [s for _, s in hits]
        lo, hi = min(scores), max(scores)
        if hi == lo:
            return {d: 1.0 for d, _ in hits}
        return {d: (s - lo) / (hi - lo) for d, s in hits}

    lex_n, vec_n = norm(lex_hits), norm(vec_hits)
    fused = [
        (d, alpha * lex_n.get(d, 0.0) + (1 - alpha) * vec_n.get(d, 0.0))
        for d in set(lex_n) | set(vec_n)
    ]
    fused.sort(key=lambda h: (-h[1], h[0]))
    return fused[:k]


def metrics_from_pairs(pairs: list[tuple[int, int]], n_classes: int) -> dict:
    """Recount accuracy and weighted F1 from raw label pairs, one pair at a time."""
    correct = sum(1 for t, p in pairs if t == p)
    acc = correct / len(pairs)

    weighted_num = 0.0
    total_support = 0
    per_precision, per_recall, per_f1 = {}, {}, {}
    for q in range(n_classes):
        tp = sum(1 for t, p in pairs if t == q and p == q)
        fp = sum(1 for t, p in pairs if t != q and p == q)
        fn = sum(1 for t, p in pairs if t == q and p != q)
        support = sum(1 for t, _ in pairs if t == q)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per_precision[q], per_recall[q], per_f1[q] = prec, rec, f1
        weighted_num += support * f1
        total_support += support
    return {
        "accuracy": acc,
        "weighted_f1": weighted_num / total_support,
        "precision": per_precision,
        "recall": per_recall,
        "f1": per_f1,
    }


def naive_postings(corpus: list[list[str]]) -> dict[str, list[tuple[int, int]]]:
    """Each term's (doc id, tf) pairs in ascending doc order, counted token by token."""
    postings: dict[str, list[tuple[int, int]]] = {}
    for doc_id, doc in enumerate(corpus):
        for token in doc:
            plist = postings.setdefault(token, [])
            if plist and plist[-1][0] == doc_id:
                plist[-1] = (doc_id, plist[-1][1] + 1)
            else:
                plist.append((doc_id, 1))
    return postings


def _label(value: object) -> int | None:
    """A JSON class label: an int, or an integer-valued float; else None."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    return None


def _file_lines(path) -> list[str]:
    """The lines of a text file as ``open()`` iterates them, ends included."""
    with open(path, encoding="utf-8") as f:
        return list(f)


def _is_utf8(text: str) -> bool:
    """False for a string with a lone surrogate (from a JSON "\\ud800" escape)."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def naive_load_reviews(path) -> tuple[list[tuple[str, int, str]], int]:
    """(text, stars, business_id) of each good review line, and the number of
    blank or bad lines, one ``json.loads`` per line of ``open()``'s iteration."""
    reviews, skipped = [], 0
    for line in _file_lines(path):
        try:
            record = json.loads(line) if line.strip() else None
        except ValueError:
            record = None
        if not isinstance(record, dict) or not {"text", "stars", "business_id"} <= record.keys():
            skipped += 1
            continue
        text, stars, business_id = record["text"], _label(record["stars"]), record["business_id"]
        if (
            not isinstance(text, str)
            or not isinstance(business_id, str)
            or not _is_utf8(text + business_id)
            or stars not in (1, 2, 3, 4, 5)
        ):
            skipped += 1
            continue
        reviews.append((text, stars, business_id))
    return reviews, skipped


# Bytes per confusion-matrix cell that eval checks against physical memory.
EVAL_BYTES_PER_CELL = 32


def naive_eval(path, n_classes: int) -> tuple[int, str, str, dict[str, bytes]]:
    """What ``desksearch eval`` must give for a predictions file and a valid
    ``n_classes``: its exit code, stdout, stderr and the files it writes, by
    name.  The file is decoded whole; its lines end at ``\n``, ``\r\n`` or
    ``\r``, are numbered from 1 and are skipped when blank (``str.strip``).
    Each other line is checked in turn: ``json.loads``, the ``y_true`` key
    and type, the ``y_pred`` key and type, then both ranges.  Then the file
    must hold a prediction, and the matrices and CSVs must fit in physical
    memory."""

    def error(message: str) -> tuple[int, str, str, dict[str, bytes]]:
        return 1, "", f"error: {message}\n", {}

    try:
        with open(path, "rb") as f:
            text = f.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        return error(f"cannot read predictions {path}: {exc}")
    lines = re.split("\r\n|\r|\n", text)
    if lines[-1] == "":  # what follows the last line end, or an empty file
        lines.pop()
    pairs = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            labels = []
            for name in ("y_true", "y_pred"):
                label = _label(record[name])
                if label is None:
                    raise ValueError(f"{name} must be an integer, got {record[name]!r}")
                labels.append(label)
        except (TypeError, KeyError, ValueError, RecursionError) as exc:
            return error(f"{path}: line {line_no}: bad record: {exc}")
        for label in labels:
            if not 0 <= label < n_classes:
                return error(
                    f"{path}: line {line_no}: label {label} out of range for {n_classes} classes"
                )
        pairs.append(tuple(labels))
    if not pairs:
        return error(f"{path} contains no predictions")
    need = EVAL_BYTES_PER_CELL * n_classes**2
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 0 < have < need:
        return error(
            f"out of memory: {need} bytes of confusion matrices and CSVs for n_classes "
            f"{n_classes} exceed the {have} bytes of physical memory"
        )

    k = n_classes
    counts = [[0] * k for _ in range(k)]
    for t, p in pairs:
        counts[t][p] += 1
    supports = [sum(row) for row in counts]
    predicted = [sum(row[q] for row in counts) for q in range(k)]
    m = metrics_from_pairs(pairs, k)
    report = {
        "accuracy": m["accuracy"],
        "weighted_f1": m["weighted_f1"],
        "per_class": [
            {"class": q, "precision": m["precision"][q], "recall": m["recall"][q],
             "f1": m["f1"][q], "support": supports[q]}
            for q in range(k)
        ],
        "degenerate_classes": [q for q in range(k) if supports[q] == 0 or predicted[q] == 0],
    }

    def csv(cell) -> bytes:
        rows = [["true\\pred", *map(str, range(k))]]
        rows += [[str(t), *(cell(t, p) for p in range(k))] for t in range(k)]
        return "".join(",".join(row) + "\n" for row in rows).encode()

    files = {
        "report.json": (json.dumps(report, indent=2) + "\n").encode(),
        "confusion.csv": csv(lambda t, p: str(counts[t][p])),
        "confusion_normalized.csv": csv(
            lambda t, p: repr(counts[t][p] / supports[t] if supports[t] else 0.0)
        ),
    }
    stdout = json.dumps({"accuracy": m["accuracy"], "weighted_f1": m["weighted_f1"]}) + "\n"
    return 0, stdout, "", files
