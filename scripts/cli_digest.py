"""Print one sha256 over what a fixed set of ``desksearch search`` calls
print, to check that two versions of desksearch answer on the command line
byte-identically.

Usage: python scripts/cli_digest.py INDEX_DIR

The queries are the first N_QUERIES of ``hit_digest.make_queries``, drawn with
its seed from the index's own terms, each joined by spaces.  Each is searched
through the in-process CLI in lexical, vector and hybrid mode, each with the
default flags, with ``--full`` and with ``--k 40``.  The script prints the
number of calls and the sha256 of each call's argv, exit code, stdout and
stderr, taken in that order, where ``<index>`` and ``<config>`` stand for the
paths of INDEX_DIR and of the config file it writes in a temporary directory;
then a second line with the same sha256 taken with each hit line's ``score``
dropped from stdout.  Run it once per version on the same index directory with
that version's ``src`` on PYTHONPATH, and compare the lines.  It is the
byte-identity check for ``search``, as ``scripts/hit_digest.py`` is for the
library's rankings; a change that moves only scores keeps the second line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from hit_digest import SEED, make_queries  # this script's directory is on sys.path

from desksearch.cli import main as cli_main
from desksearch.searcher import MODES, Searcher

N_QUERIES = 60
VARIANTS = ([], ["--full"], ["--k", "40"])


def calls(index_dir: Path, config: Path):
    """Yield (argv, exit code, stdout, stderr) of every search of the grid,
    with the two paths written as placeholders."""
    def normalized(text: str) -> str:
        return text.replace(str(config), "<config>").replace(str(index_dir), "<index>")

    config.write_text(json.dumps({"index_dir": str(index_dir)}))
    terms = Searcher(index_dir).lex.vocabulary.id_to_term()
    for tokens in make_queries(terms, N_QUERIES, SEED):
        for mode in MODES:
            for variant in VARIANTS:
                argv = ["search", " ".join(tokens), "--mode", mode, *variant,
                        "--config", str(config)]
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli_main(argv)
                yield ([normalized(arg) for arg in argv], code, normalized(stdout.getvalue()),
                       normalized(stderr.getvalue()))


def without_scores(stdout: str) -> str:
    """``stdout`` with the ``score`` key dropped from each hit line."""
    hits = [json.loads(line) for line in stdout.splitlines()]
    kept = [{key: value for key, value in hit.items() if key != "score"} for hit in hits]
    return "".join(json.dumps(hit) + "\n" for hit in kept)


def digest_lines(index_dir: Path) -> tuple[str, str]:
    """The two lines the script prints for INDEX_DIR: over the calls as they
    printed, then with the scores dropped."""
    full, no_scores, count = hashlib.sha256(), hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for argv, code, stdout, stderr in calls(index_dir.resolve(), Path(tmp) / "config.json"):
            # json escapes every character, so one call's fields cannot run into the next's.
            full.update((json.dumps([argv, code, stdout, stderr]) + "\n").encode())
            dropped = without_scores(stdout)
            no_scores.update((json.dumps([argv, code, dropped, stderr]) + "\n").encode())
            count += 1
    return (
        f"{count} CLI calls, sha256 {full.hexdigest()}",
        f"{count} CLI calls, scores dropped, sha256 {no_scores.hexdigest()}",
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("index_dir", type=Path)
    print(*digest_lines(parser.parse_args().index_dir), sep="\n")


if __name__ == "__main__":
    main()
