"""Fresh-process figures for two versions of desksearch, on what the
benchmark under perfbench/ does not run: one command per process, at sizes
past its own.

Usage: python scripts/stagebench.py SRC_A SRC_B

SRC_A and SRC_B are two ``src`` directories, say the parent's and a change's.
In a temporary directory, which it removes, the script writes the seed-5
predictions files of 100k and 1M lines from ``perfbench/inputs.py``'s
``prediction_pairs`` (in the form ``inputs.write_predictions`` writes), and
the seed-5 10k-review corpus on the words of ``tests/conftest.WORDS``, which
SRC_A's ``ingest`` splits once with seed 3.  Then it times these commands:

- ``eval_100k`` and ``eval_1m``: ``eval`` of each predictions file, 5 classes;
- ``index_10k``: ``index`` of that split's train file, seed 3.

Each run of a command is a fresh child process that imports desksearch from
its side's ``src``, runs the command through ``cli.main`` and reports the
command's wall seconds and the process's ``ru_maxrss`` and ``ru_minflt``
(which include starting Python and importing numpy).  Another child writes
the inputs, so that this process stays smaller than any child: on Linux, a
child's ``ru_maxrss`` starts from its parent's peak.  Children keep their
bytecode in the temporary directory, and each side runs a command once,
untimed, before its timed runs, so that no timed run compiles a module:
compiling moves the allocator's thresholds, and with them the page faults of
the rest of the run.  Then the sides alternate, A B then B A, for
``PAIRS`` (5) pairs per command.  The script prints one JSON
object: the host's core count and the Python and numpy versions, and per
command and side every run, with the median and range of each figure, and
the pairs where B read lower than A.  It holds no bound: a change commits
its output in its BENCH file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEED = 5
INDEX_SEED = 3
PAIRS = 5  # timed runs per command and side
PREDICTIONS = {"eval_100k": 100_000, "eval_1m": 1_000_000}
FIGURES = ("wall_s", "maxrss_mb", "minflt")

# One command in a fresh process: argv is the src directory, then the CLI's.
CHILD = """
import contextlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from desksearch.cli import main
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:])
wall = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"code": code, "wall_s": wall, "maxrss_mb": usage.ru_maxrss / 1024,
                  "minflt": usage.ru_minflt}))
"""


def run(src: str, argv: list[str], cwd: Path) -> dict:
    """One command in a fresh process, with its bytecode kept under
    ``cwd``; its figures, or an exit naming it."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run([sys.executable, "-c", CHILD, src, *argv], cwd=cwd, capture_output=True,
                          text=True, env={**env, "PYTHONPYCACHEPREFIX": str(cwd / "pycache")})
    result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
    if result.get("code") != 0:
        sys.exit(f"{src}: {' '.join(argv)} failed: {proc.stderr.strip() or result}")
    return {name: result[name] for name in FIGURES}


def summary(runs: list[dict]) -> dict:
    return {name: {"median": statistics.median(r[name] for r in runs),
                   "min": min(r[name] for r in runs), "max": max(r[name] for r in runs)}
            for name in FIGURES}


def write_inputs(tmp: str) -> None:
    """Write the predictions files and the corpus into ``tmp``, then print
    the numpy version as JSON."""
    sys.path += [str(ROOT / "perfbench"), str(ROOT / "tests")]
    import inputs  # perfbench/inputs.py
    import numpy
    from conftest import WORDS

    for name, n in PREDICTIONS.items():
        Path(tmp, f"{name}.jsonl").write_text("".join(
            json.dumps({"y_true": t, "y_pred": p}) + "\n"
            for t, p in inputs.prediction_pairs(SEED, n)))
    inputs.write_corpus(Path(tmp, "corpus.jsonl"), SEED, WORDS)
    print(json.dumps(numpy.__version__))


def write_config(path: Path, **fields) -> str:
    path.write_text(json.dumps(fields))
    return str(path)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    args = parser.parse_args()
    sides = {"a": str(Path(args.src_a).resolve()), "b": str(Path(args.src_b).resolve())}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        writer = subprocess.run(
            [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
             "import stagebench; stagebench.write_inputs(sys.argv[2])",
             str(ROOT / "scripts"), str(tmp)], capture_output=True, text=True, check=True)
        commands = {
            name: {side: ["eval", str(tmp / f"{name}.jsonl"), "--config", write_config(
                tmp / f"{name}_{side}.json", index_dir=str(tmp / f"eval_{side}"), n_classes=5)]
                for side in sides}
            for name in PREDICTIONS
        }
        corpus, split = tmp / "corpus.jsonl", tmp / "split"
        run(sides["a"], ["ingest", "--config", write_config(
            tmp / "ingest.json", corpus=str(corpus), index_dir=str(split), seed=INDEX_SEED)], tmp)
        commands["index_10k"] = {side: ["index", "--config", write_config(
            tmp / f"index_{side}.json", index_dir=str(tmp / f"index_{side}"),
            index_source=str(split / "train.jsonl"), seed=INDEX_SEED)] for side in sides}

        results = {}
        for name, argv in commands.items():
            runs = {side: [] for side in sides}
            for side in sides:  # untimed: writes the bytecode the timed runs read
                run(sides[side], argv[side], tmp)
            for pair in range(PAIRS):
                for side in ("a", "b") if pair % 2 == 0 else ("b", "a"):
                    runs[side].append(run(sides[side], argv[side], tmp))
            results[name] = {
                **{side: {"summary": summary(runs[side]), "runs": runs[side]} for side in sides},
                "b_lower_pairs": {figure: sum(b[figure] < a[figure]
                                              for a, b in zip(runs["a"], runs["b"]))
                                  for figure in FIGURES},
            }
    print(json.dumps({
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": json.loads(writer.stdout)},
        "sides": sides, "pairs": PAIRS, "commands": results,
    }, indent=2))


if __name__ == "__main__":
    main()
