"""Write bench/known_answers.json from the hn3 sources in src/.

    python3 bench/record.py

The file holds the answer every benchmark job is checked against: exit
code and SHA-256 of standard output for each CLI job, the verdicts of each
pipeline question on the ladder at n = 7, 11, 15, and the nonzero count of
the tensors each question returns in the standard frame.  Frame-changed
structures are checked against the same verdicts, which are frame
invariant.  Re-record only for an intended output change, and say why in
CHANGES.md.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from gen import ladder  # noqa: E402
from tracer import Recorder, tensor_counts  # noqa: E402
from workloads import (  # noqa: E402
    KNOWN_ANSWERS,
    PIPELINE,
    FileState,
    cli_argvs,
    run_cli,
)


def record_cli(workdir: Path) -> dict:
    # cli_argvs emits the example file first, so the later commands can read it
    return {" ".join(argv): run_cli(argv, workdir)[0] for argv in cli_argvs(random.Random(0))}


def record_library(workdir: Path) -> tuple[dict, dict]:
    answers, nnz = {}, {}
    rec = Recorder(traced=False)
    for m in (1, 2, 3):
        n = 4 * m + 3
        path = workdir / f"ladder-n{n}.json"
        path.write_text(json.dumps(ladder(m)))
        st = FileState(f"ladder-n{n}", n, path)
        answers[str(n)], nnz[str(n)] = {}, {}
        for question, fn in PIPELINE:
            rec.take_outputs()
            answers[str(n)][question] = fn(st, rec)
            nnz[str(n)][question] = tensor_counts(rec.take_outputs())[0]
    return answers, nnz


def main() -> None:
    workdir = ROOT / ".bench_work" / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    answers, nnz = record_library(workdir)
    known = {"cli": record_cli(workdir), "library": answers, "nnz": nnz}
    KNOWN_ANSWERS.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    print(f"wrote {KNOWN_ANSWERS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
