"""desksearch benchmark: one command, two workloads, every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload warm_query --seed 1 --seconds 20 --trace 0

Each run builds the seeded 10k-review corpus four times (ingest, index and
eval through the in-process CLI), interleaved with one closed-loop client
that runs queries for ``--seconds`` in all:

- warm_query: library calls against artifacts loaded once during set-up;
- cold_search: one in-process ``desksearch search`` per query, which re-reads
  every artifact (from the OS page cache; caches are never dropped).

``--trace 1`` wraps desksearch's public functions in timing spans, traces
every other set-up build and query, and reports the per-layer metrics plus
the tracing overhead.  Every time is scaled to a reference host speed,
measured all along the run (see speed.py).  The last stdout line is the JSON
result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib.util
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import checks
import inputs
import layers
import speed
from speed import SpeedMeter
from tracing import BUILD, QUERY, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOADS = ("warm_query", "cold_search")
K, ALPHA, CANDIDATE_FACTOR = 10, 0.5, 4
ROUNDS = 4  # set-up builds per run, each followed by a share of the timed loop
STAGE_REPEATS = 3  # timings of ingest and eval per build
# Distinct queries per workload (a multiple of 30, see inputs.make_queries).
# The loop replays them over the whole run, and the latency percentiles are
# taken over every timed query; cold_search's set is small enough for several
# passes.
QUERY_SET = {"warm_query": 300, "cold_search": 30}
ORACLE_SAMPLES_PER_MODE = 3
CROSS_PATH_SAMPLES = 6  # warm_query: queries repeated through the CLI
COLD_NOTE = (
    "cold_search re-reads artifacts from the OS page cache, not from the storage "
    "device; the benchmark does not drop caches"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Program:
    """desksearch's modules plus the test suite's word list and oracles."""

    cli: object
    dataset: object
    encoder: object
    io_utils: object
    lexical_index: object
    metrics: object
    text_pipeline: object
    vector_index: object
    words: list[str]
    oracles: object


def _load_file_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_program() -> Program:
    src, tests = ROOT / "src", ROOT / "tests"
    for needed in (src / "desksearch" / "cli.py", tests / "conftest.py", tests / "oracles.py"):
        if not needed.is_file():
            raise BenchError(f"{needed.relative_to(ROOT)} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import desksearch.cli as cli
    from desksearch import (
        dataset, encoder, io_utils, lexical_index, metrics, text_pipeline, vector_index,
    )

    return Program(
        cli=cli, dataset=dataset, encoder=encoder, io_utils=io_utils,
        lexical_index=lexical_index, metrics=metrics, text_pipeline=text_pipeline,
        vector_index=vector_index,
        words=_load_file_module("perfbench_conftest", tests / "conftest.py").WORDS,
        oracles=_load_file_module("perfbench_oracles", tests / "oracles.py"),
    )


# -- library and CLI access ---------------------------------------------------


@dataclass
class Library:
    """Artifacts loaded once through the library API (the warm path)."""

    ds: Program
    lex: object
    vec: object
    enc_cfg: object
    weights: object

    @classmethod
    def load(cls, ds: Program, index_dir: Path) -> Library:
        enc_cfg, weights = ds.encoder.load_weights(index_dir / "weights.npz")
        return cls(
            ds,
            ds.lexical_index.load_index(index_dir / "lexical_index.json"),
            ds.vector_index.load_vectors(index_dir / "vectors.bin"),
            enc_cfg,
            weights,
        )

    def embed(self, tokens: list[str]):
        term_to_id = self.lex.vocabulary.term_to_id
        ids = [term_to_id[t] for t in tokens if t in term_to_id][: self.enc_cfg.max_seq_len]
        return self.ds.encoder.encode(ids, self.enc_cfg, self.weights) if ids else None

    def search(self, query: inputs.Query) -> list[tuple[int, float]]:
        ds = self.ds
        tokens = ds.text_pipeline.tokenize(query.text)
        if query.mode == "lexical":
            hits = ds.lexical_index.search_lexical(self.lex, tokens, K)
        elif query.mode == "vector":
            embedding = self.embed(tokens)
            hits = [] if embedding is None else self.vec.search(embedding, K)
        else:
            hits = ds.vector_index.search_hybrid(
                self.lex, self.vec, tokens, self.embed(tokens),
                ds.vector_index.HybridConfig(alpha=ALPHA, k=K, candidate_factor=CANDIDATE_FACTOR),
            )
        return [(hit.doc_id, hit.score) for hit in hits]


def cli_call(ds: Program, argv: list[str]) -> tuple[int, str, float]:
    """Run ``desksearch <argv>`` in-process; return exit code, stdout, seconds."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = ds.cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def cli_search(ds: Program, config: Path, query: inputs.Query) -> tuple[int, str]:
    code, out, _ = cli_call(ds, ["search", query.text, "--mode", query.mode, "--config", str(config)])
    return code, out


def write_config(path: Path, **fields) -> Path:
    path.write_text(json.dumps({"seed": 0, "k": K, "alpha": ALPHA,
                                "candidate_factor": CANDIDATE_FACTOR, **fields}))
    return path


# -- set-up -------------------------------------------------------------------


@dataclass(frozen=True)
class Timing:
    """A measured interval: its wall seconds less the calibration kernel's
    time inside it, and where it lies on the perf_counter clock, for scaling
    to reference speed."""

    seconds: float
    start: float
    stop: float

    def scaled(self, meter: SpeedMeter) -> float:
        return self.seconds * meter.factor(self.start, self.stop)


@dataclass
class Build:
    number: int
    index_dir: Path
    search_config: Path
    stage_argv: dict[str, list[str]]
    timings: dict[str, list[Timing]]
    index_bytes: int
    queries: list[inputs.Query]
    library: Library | None = None


def run_stage(ds: Program, meter: SpeedMeter, checker: checks.Checker, key: tuple,
              argv: list[str], want) -> Timing:
    """Run one CLI stage; it must exit 0 and print one JSON object for which
    ``want`` holds."""
    busy = meter.busy
    start = time.perf_counter()
    code, out, elapsed = cli_call(ds, argv)
    try:
        summary = json.loads(out)
    except json.JSONDecodeError:
        summary = None
    checker.check(key, code == 0, f"exit code {code}")
    checker.check(key, out.count("\n") == 1 and isinstance(summary, dict) and want(summary),
                  f"unexpected stdout {out[:200]!r}")
    return Timing(elapsed - (meter.busy - busy), start, start + elapsed)


def stage_expectations(ds: Program, seed: int) -> dict:
    """What each stage must print for this seed; eval is recounted by the oracle."""
    n_val = n_test = inputs.N_DOCS * 15 // 100
    n_train = inputs.N_DOCS - n_val - n_test
    oracle = ds.oracles.metrics_from_pairs(inputs.prediction_pairs(seed), inputs.N_CLASSES)
    return {
        "ingest": lambda s: s == {"train": n_train, "val": n_val, "test": n_test},
        "index": lambda s: s.get("docs") == n_train and s.get("vectors") == n_train
        and s.get("terms", 0) > 0,
        "eval": lambda s: all(
            isinstance(s.get(name), float) and abs(s[name] - oracle[name]) <= 1e-12
            for name in ("accuracy", "weighted_f1")),
    }


def setup_build(ds: Program, meter: SpeedMeter, work: Path, seed: int, workload: str,
                checker: checks.Checker, number: int, expect: dict) -> Build:
    """Generate the inputs, then ingest, index and eval through the CLI;
    warm_query also loads the artifacts and runs one query per mode."""
    busy = meter.busy
    start = time.perf_counter()
    work.mkdir(parents=True)
    corpus, predictions = work / "corpus.jsonl", work / "predictions.jsonl"
    inputs.write_corpus(corpus, seed, ds.words)
    inputs.write_predictions(predictions, seed)
    split_dir, index_dir = work / "split", work / "index"
    ingest_cfg = write_config(work / "ingest.json", corpus=str(corpus), index_dir=str(split_dir))
    index_cfg = write_config(work / "index.json", index_dir=str(index_dir),
                             index_source=str(split_dir / "train.jsonl"))
    eval_cfg = write_config(work / "eval.json", index_dir=str(split_dir))
    stage_argv = {
        "ingest": ["ingest", "--config", str(ingest_cfg)],
        "index": ["index", "--config", str(index_cfg)],
        "eval": ["eval", str(predictions), "--config", str(eval_cfg)],
    }
    timings = {}
    for command, argv in stage_argv.items():
        timings[f"{command}_s"] = [
            run_stage(ds, meter, checker, (command, number), argv, expect[command])]
        if command == "index":
            index_bytes = sum(p.stat().st_size for p in index_dir.iterdir())

    texts = read_texts(index_dir)
    markers = {text.split()[0]: doc_id for doc_id, text in enumerate(texts)}
    queries = inputs.make_queries(seed, ds.words, markers, QUERY_SET[workload])
    build = Build(number, index_dir, write_config(work / "search.json", index_dir=str(index_dir)),
                  stage_argv, timings, index_bytes, queries)
    if workload == "warm_query":
        build.library = Library.load(ds, index_dir)
        for query in queries[: len(inputs.MODES)]:
            build.library.search(query)
    stop = time.perf_counter()
    build.timings["setup_s"] = [Timing(stop - start - (meter.busy - busy), start, stop)]
    return build


def read_texts(index_dir: Path) -> list[str]:
    """The indexed texts by doc id.  Builds do not keep them, so that the
    heap the garbage collector walks is the same size in every round."""
    return [json.loads(line)["text"] for line in
            (index_dir / "docs.jsonl").read_text(encoding="utf-8").splitlines()]


def repeat_short_stages(ds: Program, meter: SpeedMeter, build: Build, checker: checks.Checker,
                        expect: dict) -> None:
    """Time ingest and eval again: they take a fraction of a second and their
    timings jump, so one timing per build is too few for a steady minimum."""
    for repeat in range(1, STAGE_REPEATS):
        for command in ("ingest", "eval"):
            build.timings[f"{command}_s"].append(run_stage(
                ds, meter, checker, (command, build.number, repeat), build.stage_argv[command],
                expect[command]))


def check_artifacts(builds: list[Build], checker: checks.Checker) -> None:
    """Every set-up build of one seed writes byte-identical index files."""
    first = builds[0]
    for build in builds[1:]:
        key = ("artifacts", build.number)
        for name in ("lexical_index.json", "vectors.bin"):
            same = (build.index_dir / name).read_bytes() == (first.index_dir / name).read_bytes()
            checker.check(key, same, f"{name} differs from the first set-up build")


# -- the timed loop -----------------------------------------------------------


@dataclass
class Sample:
    round: int
    index: int
    query: inputs.Query
    timing: Timing
    traced: bool
    output: object = None
    error: str | None = None
    hits: list[tuple[int, float]] = field(default_factory=list)


def timed_loop(seconds: float, queries: list[inputs.Query], run_one, meter: SpeedMeter,
               tracer: Tracer | None, round_no: int, i: int) -> list[Sample]:
    """One closed-loop client: the next query starts when the last returns,
    going on through the query list from position i and wrapping at its end.
    With a tracer, every other query is traced, with calibration paused."""
    samples = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        query = queries[i % len(queries)]
        traced = tracer is not None and (i + i // len(queries)) % 2 == 1  # alternates per pass too
        if traced:
            meter.paused = True
            tracer.begin(QUERY)
        output, error = None, None
        busy = meter.busy
        start = time.perf_counter()
        try:
            output = run_one(query)
        except Exception as exc:  # counted as a failed operation, the run goes on
            error = repr(exc)
        elapsed = time.perf_counter() - start
        if traced:
            tracer.end()
            meter.paused = False
        timing = Timing(elapsed - (meter.busy - busy), start, start + elapsed)
        samples.append(Sample(round_no, i, query, timing, traced, output, error))
        i += 1
    return samples


def check_samples(ds: Program, samples: list[Sample], workload: str, build: Build,
                  library: Library, checker: checks.Checker) -> None:
    """Per-query checks, then the warm/cold cross-check on the same queries."""
    for s in samples:
        key = ("query", s.index)
        if not checker.check(key, s.error is None, f"raised {s.error}"):
            continue
        if workload == "cold_search":
            code, out = s.output
            if not checker.check(key, code == 0, f"exit code {code}"):
                continue
            try:
                s.hits = checks.parse_search_output(out)
            except (ValueError, TypeError) as exc:
                checker.check(key, False, f"bad search output: {exc}")
                continue
        else:
            s.hits = s.output
        problem = checks.hit_list_problem(s.hits, K)
        checker.check(key, problem is None, f"{s.query}: {problem}")
        if s.query.mode == "lexical" and s.query.marker_doc is not None:
            checker.check(key, bool(s.hits) and s.hits[0][0] == s.query.marker_doc,
                          f"{s.query}: marker doc not first in {s.hits[:3]}")

    # The other path must return the same hits for the same query and mode.
    if workload == "cold_search":
        expected = {}
        for s in samples:
            if s.error is None and s.query not in expected:
                expected[s.query] = library.search(s.query)
        pairs = [(s, expected[s.query]) for s in samples if s.error is None]
    else:
        pairs = []
        for s in samples[:CROSS_PATH_SAMPLES]:
            code, out = cli_search(ds, build.search_config, s.query)
            pairs.append((s, checks.parse_search_output(out) if code == 0 else None))
    for s, other in pairs:
        checker.check(("query", s.index), other == s.hits,
                      f"{s.query}: {workload} hits {s.hits} vs other path {other}")


def check_oracles(ds: Program, samples: list[Sample], build: Build, library: Library,
                  seed: int, checker: checks.Checker) -> None:
    """A seeded sample of queries per mode against exhaustive references."""
    rng = random.Random(f"{seed}:oracle")
    texts = read_texts(build.index_dir)
    recount = checks.LexicalRecount(ds.oracles, texts)
    stored = checks.read_vectors(build.index_dir / "vectors.bin")
    everything = len(texts)
    pool = CANDIDATE_FACTOR * K
    first_runs = {s.query: s for s in reversed(samples) if s.error is None}
    for mode in inputs.MODES:
        candidates = [s for s in first_runs.values() if s.query.mode == mode]
        for s in rng.sample(candidates, min(ORACLE_SAMPLES_PER_MODE, len(candidates))):
            key = ("oracle", s.index)
            lexical = recount.rank(s.query.text, everything)
            if mode != "lexical":
                embedding = library.embed(ds.text_pipeline.tokenize(s.query.text))
                vector = [] if embedding is None else ds.oracles.brute_force_knn(
                    stored, embedding.tolist(), everything)
            if mode == "lexical":
                want = lexical
            elif mode == "vector":
                want = vector
            else:
                want = ds.oracles.recompute_fusion(lexical[:pool], vector[:pool], ALPHA, everything)
            problem = checks.ranking_problem(s.hits, want, K)
            checker.check(key, problem is None, f"{s.query}: {problem}")


# -- metrics ------------------------------------------------------------------


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def wall(timing: Timing) -> float:
    return timing.seconds


def query_metrics(samples: list[Sample], seconds) -> dict[str, float]:
    """Latency percentiles over every timed query; ``seconds`` maps a
    Timing to the seconds to use."""
    ms = [seconds(s.timing) * 1e3 for s in samples]
    out = {"query_p50_ms": statistics.median(ms), "query_p90_ms": percentile(ms, 90),
           "query_p99_ms": percentile(ms, 99)}
    for mode in inputs.MODES:
        out[f"{mode}_p50_ms"] = statistics.median(
            v for v, s in zip(ms, samples) if s.query.mode == mode)
    return out


def build_metrics(builds: list[Build], seconds) -> dict[str, float]:
    """The median over the run's timings of set-up and of each stage."""
    out = {name: statistics.median(seconds(t) for b in builds for t in b.timings[name])
           for name in ("setup_s", "ingest_s", "index_s", "eval_s")}
    out["index_bytes"] = statistics.median(b.index_bytes for b in builds)
    return out


UNITS = {"setup_s": "s", "ingest_s": "s", "index_s": "s", "eval_s": "s", "index_bytes": "bytes",
         "peak_rss_mb": "MB", "query_p50_ms": "ms", "query_p90_ms": "ms", "query_p99_ms": "ms",
         "lexical_p50_ms": "ms", "vector_p50_ms": "ms", "hybrid_p50_ms": "ms",
         "fail_ratio": "failed/attempted", "vector_index.candidates_per_hit": "ratio"}
UNITS.update({layer.metric: layer.unit for layer in layers.LAYERS})
UNITS.update(dict(layers.OVERHEAD))


def layer_report(tracer: Tracer, meter: SpeedMeter, traced: list[Build], untraced: list[Build],
                 samples: list[Sample]) -> dict[str, float]:
    """Per-layer values; span times are scaled by the whole run's factor."""
    factor = meter.run_factor()
    out = {layer.metric: tracer.layer_value(layer.source, layer.phase, layer.stat)
           * (factor if layer.unit == "ms" else 1.0) for layer in layers.LAYERS}
    out["vector_index.candidates_per_hit"] = layers.candidates_per_hit(tracer)
    scaled = functools.partial(Timing.scaled, meter=meter)
    on, off = build_metrics(traced, scaled), build_metrics(untraced, scaled)
    out["trace.setup_overhead_s"] = on["setup_s"] - off["setup_s"]
    out["trace.index_overhead_s"] = on["index_s"] - off["index_s"]
    out["trace.query_p50_overhead_ms"] = (
        query_metrics([s for s in samples if s.traced], scaled)["query_p50_ms"]
        - query_metrics([s for s in samples if not s.traced], scaled)["query_p50_ms"])
    return out


def expected_metrics(trace: bool) -> dict[str, str]:
    """The metric names and units BENCHMARK.json promises for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit(), "seed": seed, "cold": COLD_NOTE}


def git_commit() -> str:
    """HEAD's commit id read from .git without running git (the checkout may
    not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# -- driver -------------------------------------------------------------------


def run(ds: Program, workload: str, seed: int, seconds: float, trace: bool,
        work: Path) -> tuple[dict, checks.Checker]:
    want = expected_metrics(trace)
    env = environment(seed)
    checker = checks.Checker()
    expect = stage_expectations(ds, seed)
    tracer = None
    if trace:
        tracer = Tracer()
        layers.install(tracer, ds)

    # Rounds of (set-up build, query chunk) spread every metric's samples
    # over the whole run, so that a slow spell on a shared host falls on all
    # of them alike instead of on whichever phase it happens to overlap.
    # The speed meter samples the host's speed all along; traced set-ups and
    # queries pause it, so that no span includes its kernel.
    builds, traced_builds, samples = [], [], []
    with SpeedMeter() as meter:
        for n in range(ROUNDS):
            gc.collect()
            traced = trace and n % 2 == 0
            if traced:
                meter.paused = True
                tracer.begin(BUILD)
            build = setup_build(ds, meter, work / f"build{n}", seed, workload, checker, n, expect)
            if traced:
                tracer.end()
                meter.paused = False
            repeat_short_stages(ds, meter, build, checker, expect)
            (traced_builds if traced else builds).append(build)
            if workload == "warm_query":
                run_one = build.library.search
            else:
                run_one = functools.partial(cli_search, ds, build.search_config)
            gc.collect()
            samples += timed_loop(seconds / ROUNDS, build.queries, run_one, meter, tracer, n,
                                  len(samples))
            build.library = None

    every_build = sorted(builds + traced_builds, key=lambda b: b.number)
    check_artifacts(every_build, checker)
    build = every_build[0]
    library = Library.load(ds, build.index_dir)
    check_samples(ds, samples, workload, build, library, checker)
    check_oracles(ds, samples, build, library, seed, checker)

    untraced = [s for s in samples if not s.traced]
    if trace:
        values = layer_report(tracer, meter, traced_builds, builds, samples)
        tracer.write(WORK_ROOT / f"trace-{workload}.jsonl",
                     {"workload": workload, "seed": seed, "environment": env})
    else:
        scaled = functools.partial(Timing.scaled, meter=meter)
        values = {**build_metrics(builds, scaled), **query_metrics(untraced, scaled),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    values["fail_ratio"] = checker.failed / checker.attempted

    # The unscaled wall-clock figures and the host's speed in each round, so
    # that a reader can see how much scaling did.
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "queries": len(samples), "environment": env,
        "speed": {"reference_ms": speed.REFERENCE_MS, "kernel_samples": len(meter.seconds),
                  "run_factor": meter.run_factor()},
        "wall": {**build_metrics(builds, wall), **query_metrics(untraced, wall)},
        "rounds": [{**{name: statistics.median(t.seconds for t in v) for name, v in b.timings.items()},
                    "factor": meter.factor(b.timings["setup_s"][0].start, b.timings["setup_s"][0].stop)}
                   for b in every_build],
    }
    print(f"# {json.dumps(report)}")
    moves = {layer.metric: f"  (should move {layer.moves})" for layer in layers.LAYERS}
    for name in sorted(values):
        print(f"{name:40s} {values[name]!r:>24} {UNITS[name]}{moves.get(name, '')}")
    missing = {name: unit for name, unit in want.items() if UNITS.get(name) != unit or name not in values}
    if missing:
        raise BenchError(f"metrics missing or with other units than BENCHMARK.json: {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in want.items()}, checker


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        ds = load_program()
        WORK_ROOT.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
        try:
            metrics, checker = run(ds, args.workload, args.seed, args.seconds, bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
