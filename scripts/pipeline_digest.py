"""Print one sha256 per file that ``ingest``, ``index`` and ``eval`` write, and
per command's exit code and printed output, to check that two versions of
desksearch run the offline pipeline byte-identically.

Usage: python scripts/pipeline_digest.py CORPUS PREDICTIONS [--seed N]

In a temporary directory, which it removes, the script runs the in-process
CLI three times: ``ingest`` of CORPUS into ``split/``, ``index`` of
``split/train.jsonl`` into ``index/``, and ``eval`` of PREDICTIONS into
``eval/``, each with the seed N (default 0).  It prints one ``<sha256>  <name>``
line per written file, named by its path in that directory, and per command's
exit code, stdout and stderr (``ingest.exit``, ``ingest.stdout``, ...), where
``<work>`` stands for the temporary directory's path, ``<corpus>`` for CORPUS's
and ``<predictions>`` for PREDICTIONS'.  Run
it once per version on the same inputs with that version's ``src`` on
PYTHONPATH, and compare the outputs with ``diff``.  It is the byte-identity
check for the offline stages, as ``scripts/hit_digest.py`` is for rankings.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from desksearch.cli import main as cli_main


def run_pipeline(corpus: Path, predictions: Path, seed: int, work: Path,
                 commands: tuple[str, ...] = ("ingest", "index", "eval")) -> dict[str, bytes]:
    """Run the three commands, or those of them named in ``commands``, in
    ``work``; each one's exit code, stdout and stderr by name, as bytes."""
    config = work / "config.json"
    # A message naming a file names it the same way wherever the files are.
    placeholders = {str(work): "<work>", str(corpus): "<corpus>", str(predictions): "<predictions>"}
    outputs = {}
    for command, index_dir, args in (
        ("ingest", "split", []),
        ("index", "index", []),
        ("eval", "eval", [str(predictions)]),
    ):
        if command not in commands:
            continue
        config.write_text(json.dumps({
            "corpus": str(corpus), "index_dir": str(work / index_dir),
            "index_source": str(work / "split" / "train.jsonl"), "seed": seed,
        }))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main([command, *args, "--config", str(config)])
        outputs[f"{command}.exit"] = str(code).encode()
        for stream, text in (("stdout", stdout.getvalue()), ("stderr", stderr.getvalue())):
            for path in sorted(placeholders, key=len, reverse=True):  # longest first
                text = text.replace(path, placeholders[path])
            outputs[f"{command}.{stream}"] = text.encode("utf-8", "surrogatepass")
    config.unlink()
    return outputs


def digests(corpus: Path, predictions: Path, seed: int, work: Path,
            commands: tuple[str, ...] = ("ingest", "index", "eval")) -> str:
    """The lines the script prints, for the pipeline run in the empty
    directory ``work``, which keeps the files it wrote; ``commands`` as for
    ``run_pipeline``."""
    blobs = run_pipeline(corpus, predictions, seed, work, commands)
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        blobs[path.relative_to(work).as_posix()] = path.read_bytes()
    return "".join(f"{hashlib.sha256(blobs[name]).hexdigest()}  {name}\n" for name in sorted(blobs))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("corpus", type=Path)
    parser.add_argument("predictions", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        print(digests(args.corpus.resolve(), args.predictions.resolve(), args.seed, Path(tmp)),
              end="")


if __name__ == "__main__":
    main()
