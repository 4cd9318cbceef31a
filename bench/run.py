"""The hn3 benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  hn3 is imported from ``src/``.  Every job's
answer is checked against ``bench/known_answers.json``.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, and the spans go to ``.bench_work/<workload>-seed<N>/``.
The exit code is 0 only when every job gave its known answer.

Workloads (closed loop, one client, one process):

* ``cli-example``: the ``hn3`` command as a user types it, as sequential
  subprocesses on the built-in example (lambda = 2) and on the file that
  ``example --emit`` writes.
* ``ladder-sparse``: the library pipeline on the standard-frame 4m+3
  ladder at n = 7, 11, 15.  Its tensors are 1-3% dense.
* ``frame-dense``: the same pipeline on seeded unimodular frame changes
  of the ladder, n = 7 in two frames and n = 11 in one.  Its tensors are
  mostly dense, so no sparsity shortcut can help there.

A run does whole passes over its workload until ``--seconds`` of wall
time have passed, and at least MIN_JOBS jobs, so that the p75 tail always
has at least ten jobs beyond it.  Jobs and set-up are timed in CPU seconds
of this process and its subprocesses (``tracer.cpu_clock``), not in wall
time, so that time spent waiting for a core on a shared machine does not
count.  Contention for the core's caches and execution units still
does.  A traced run
alternates untraced and traced passes.  The untraced pass gives the
baseline for the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import hn3  # noqa: E402  (fails here, before any output, without the sources)

from gen import frame_change, ladder  # noqa: E402
from tracer import Recorder, cpu_clock  # noqa: E402
from workloads import (  # noqa: E402
    COMMANDS,
    EMITTED,
    FileState,
    cli_argvs,
    cli_env,
    cli_job,
    library_pass,
    load_known,
    probe_cli,
    probe_layers,
    timed_subprocess,
)

MIN_JOBS = 40
SETUP_REPEATS = 15
P_TAIL = 75  # the reported tail percentile; MIN_JOBS leaves ten jobs beyond it

END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYER_MS = (
    "cli.python_start", "cli.import", "cli.run",
    "fileio.parse", "fileio.load", "fileio.dump",
    "liealg.levi_civita", "liealg.covariant_derivative", "liealg.validate",
    "structures.validate", "structures.product",
    "nijenhuis.fundamental", "nijenhuis.nijenhuis", "nijenhuis.associated",
    "nijenhuis.lie_derivative", "nijenhuis.braces_product",
    "connections.class", "connections.torsion", "connections.natural",
    "connections.naturality", "connections.coincidence",
    "tensor.kernel",
    "linalg.inverse", "linalg.signature",
    "reporting.to_json",
)
PER_LAYER = {
    **{f"{name}_ms": "ms" for name in LAYER_MS},
    "tensor.nnz_out": "count",
    "tensor.entries_out": "count",
    "tensor.density": "ratio",
    "cache.warm_spans": "count",
    "trace.verdicts_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def tail(samples: list[float]) -> tuple[float, int]:
    """The P_TAIL percentile (nearest rank) and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(P_TAIL / 100 * len(ordered))
    beyond = len(ordered) - rank
    if beyond < 10:
        raise ValueError(f"{len(ordered)} samples leave {beyond} beyond p{P_TAIL}, not ten")
    return ordered[rank - 1], beyond


def end_to_end_metrics(passes, setup_s: float, peak_rss_mb: float) -> tuple[dict, str]:
    """Job statistics of the untraced passes; the job rate is a median over passes."""
    seconds = [j.seconds for jobs in passes for j in jobs]
    tail_s, beyond = tail(seconds)
    values = {
        "setup_s": setup_s,
        "verdicts_per_s": statistics.median(
            len(jobs) / sum(j.seconds for j in jobs) for jobs in passes
        ),
        "job_p50_ms": statistics.median(seconds) * 1000,
        "job_tail_ms": tail_s * 1000,
        "peak_rss_mb": peak_rss_mb,
    }
    note = (
        f"job_tail_ms is p{P_TAIL} of {len(seconds)} jobs ({beyond} beyond it), "
        f"{len(passes)} passes"
    )
    return values, note


def layer_metrics(pass_spans: list[list[dict]], traced_jobs, plain_jobs) -> dict:
    """Per-pass totals of each layer's call spans, median over traced passes."""
    totals = []
    for spans in pass_spans:
        t = {name: 0.0 for name in (*LAYER_MS, "cli.python_import")}
        starts, imports = [], []
        nnz = entries = warm = 0
        for s in spans:
            dur = s["end"] - s["start"]
            if s["name"] == "cli.python_start":
                starts.append(dur)
            elif s["name"] == "cli.python_import":
                imports.append(dur)
            elif s["name"] in t:
                t[s["name"]] += dur
            nnz += s.get("nnz", 0)
            entries += s.get("entries", 0)
            warm += bool(s.get("warm"))
        row = {f"{name}_ms": t[name] * 1000 for name in LAYER_MS}
        row["cli.python_start_ms"] = statistics.median(starts) * 1000
        row["cli.import_ms"] = (statistics.median(imports) - statistics.median(starts)) * 1000
        row["tensor.nnz_out"] = nnz
        row["tensor.entries_out"] = entries
        row["tensor.density"] = nnz / entries
        row["cache.warm_spans"] = warm
        totals.append(row)
    values = {name: statistics.median(row[name] for row in totals) for name in totals[0]}
    traced_rate = len(traced_jobs) / sum(j.seconds for j in traced_jobs)
    plain_rate = len(plain_jobs) / sum(j.seconds for j in plain_jobs)
    values["trace.verdicts_per_s"] = traced_rate
    values["trace.overhead_ratio"] = plain_rate / traced_rate
    return values


def child_import_seconds() -> float:
    """CPU seconds of ``import hn3`` inside a fresh interpreter."""
    code = (
        "import time; t = time.process_time(); import hn3; "
        "print(time.process_time() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=cli_env(), check=True,
        capture_output=True, text=True,
    )
    return float(out.stdout)


class Library:
    """Pipeline workloads: structure files generated from the seed, then written."""

    def __init__(self, make_files, check_nnz: bool):
        self.make_files = make_files
        self.check_nnz = check_nnz

    def setup(self, seed: int, workdir: Path) -> float:
        imports = [child_import_seconds() for _ in range(SETUP_REPEATS)]
        gens = []
        for _ in range(SETUP_REPEATS):
            t0 = cpu_clock()
            files = self.make_files(seed)
            paths = []
            for label, n, data in files:
                path = workdir / f"{label}.json"
                path.write_text(json.dumps(data, indent=2) + "\n")
                paths.append((label, n, path))
            gens.append(cpu_clock() - t0)
        self.paths = paths
        return statistics.median(imports) + statistics.median(gens)

    def run_pass(self, rec, known, rng, workdir, probes: bool):
        # fresh manifolds every pass, so cached properties start cold
        files = [FileState(label, n, path) for label, n, path in self.paths]
        jobs = library_pass(rec, files, known, self.check_nnz)
        errors = []
        if probes:
            with rec.span("probe"):
                for st in files:
                    probe_layers(rec, st, workdir)
                smallest = min(files, key=lambda st: st.n)
                argvs = [((*cmd, str(smallest.path), "--json"), 0) for cmd in COMMANDS]
                errors = probe_cli(rec, argvs)
        return jobs, errors


class Cli:
    """The ``hn3`` command as sequential subprocesses."""

    def setup(self, seed: int, workdir: Path) -> float:
        # interpreter start plus import, as each CLI job pays it
        return statistics.median(
            timed_subprocess("import hn3") for _ in range(SETUP_REPEATS)
        )

    def run_pass(self, rec, known, rng, workdir, probes: bool):
        argvs = cli_argvs(rng)
        jobs = [cli_job(rec, argv, workdir, known) for argv in argvs]
        errors = []
        if probes:
            with rec.span("probe"):
                path = str(workdir / EMITTED)
                errors = probe_cli(
                    rec,
                    [
                        (tuple(path if a == EMITTED else a for a in argv),
                         known["cli"][" ".join(argv)]["exit"])
                        for argv in argvs
                    ],
                )
                # the library layers underneath, on the emitted example file
                st = FileState("example", 7, workdir / EMITTED)
                for job in library_pass(rec, [st], known, check_nnz=True):
                    if job.error:
                        errors.append(f"{job.key}: {job.error}")
                probe_layers(rec, st, workdir)
        return jobs, errors


def ladder_files(seed: int):
    files = [(f"ladder-n{4 * m + 3}", 4 * m + 3, ladder(m)) for m in (1, 2, 3)]
    random.Random(seed).shuffle(files)
    return files


# (m, elementary seed) of each frame-dense file.  Three files make 21 jobs
# a pass; with an odd count the median job falls inside one job type's
# samples instead of between two types of different cost.
FRAMES = ((1, 0), (1, 1), (2, 0))


def frame_files(seed: int):
    rng = random.Random(seed)
    files = [
        (f"frame-n{4 * m + 3}-p{e}", 4 * m + 3,
         frame_change(ladder(m), rng.randrange(2**32), e))
        for m, e in FRAMES
    ]
    rng.shuffle(files)
    return files


WORKLOADS = {
    "cli-example": lambda: Cli(),
    "ladder-sparse": lambda: Library(ladder_files, check_nnz=True),
    "frame-dense": lambda: Library(frame_files, check_nnz=False),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="hn3 benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if Path(hn3.__file__).resolve().parent != (SRC / "hn3").resolve():
        print(f"error: hn3 imported from {hn3.__file__}, not {SRC}", file=sys.stderr)
        return 2

    known = load_known()
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    workload = WORKLOADS[args.workload]()
    setup_s = workload.setup(args.seed, workdir)
    rng = random.Random(args.seed)
    plain = Recorder(traced=False)
    traced = Recorder(traced=True)

    plain_passes, traced_jobs, errors, pass_spans = [], [], [], []
    t0 = perf_counter()
    while True:
        jobs, errs = workload.run_pass(plain, known, rng, workdir, probes=False)
        plain_passes.append(jobs)
        errors += errs
        if args.trace:
            first = len(traced.spans)
            with traced.span("pass", index=len(pass_spans)):
                jobs, errs = workload.run_pass(traced, known, rng, workdir, probes=True)
            pass_spans.append(traced.spans[first:])
            traced_jobs += jobs
            errors += errs
            if perf_counter() - t0 >= args.seconds:
                break
        else:
            done = sum(map(len, plain_passes))
            if done >= MIN_JOBS and perf_counter() - t0 >= args.seconds:
                break

    plain_jobs = [j for jobs in plain_passes for j in jobs]
    all_jobs = plain_jobs + traced_jobs
    failed = [j for j in all_jobs if j.error]
    for j in failed[:20]:
        print(f"FAILED {j.key}: {j.error}", file=sys.stderr)
    for e in errors[:20]:
        print(f"FAILED probe: {e}", file=sys.stderr)

    if args.trace:
        values = layer_metrics(pass_spans, traced_jobs, plain_jobs)
        units = PER_LAYER
        spans_path = workdir / "spans.json"
        traced.dump(spans_path)
        warm = {}
        for s in traced.spans:
            if s.get("warm"):
                warm[s["name"]] = warm.get(s["name"], 0) + 1
        print(f"traced passes: {len(pass_spans)}; spans in {spans_path.relative_to(ROOT)}")
        print("spans on a warm cache: " + ", ".join(f"{k} x{v}" for k, v in sorted(warm.items())))
    else:
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli-example" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
        values, note = end_to_end_metrics(plain_passes, setup_s, peak_rss_mb)
        units = END_TO_END
        print(note)
    print(f"failed_frac = {len(failed) / len(all_jobs):g} ({len(failed)} of {len(all_jobs)} jobs)")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")

    correct = not failed and not errors
    result = {
        "correct": correct,
        "attempted": len(all_jobs),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
