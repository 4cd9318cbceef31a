"""Jobs, known answers and layer probes of the hn3 benchmark.

A job is one structure together with one question.  It counts as failed
when it raises, exits with an unexpected code, or answers differently
from the known answer in ``known_answers.json`` (recorded by
``record.py``).  Library jobs run the pipeline below on one structure
file, starting from a freshly loaded manifold, so the cached Levi-Civita
connection, inverse metric and braces are computed inside the timed jobs.
CLI jobs run ``hn3`` as a subprocess and compare its exit code and the
SHA-256 of its standard output.  Jobs are timed in CPU seconds
(``tracer.cpu_clock``), a CLI job's including its subprocess.

Probes run only in traced passes.  They call the public functions whose
cost the pipeline does not expose as a separate call (parsing, the
validators, the tensor kernels, dumping, report serialization, the CLI's
fixed start-up cost) so that every layer gets a span of its own.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from hn3 import (
    associated_nijenhuis,
    braces_nijenhuis_product,
    build_product,
    class_condition_alpha1,
    class_condition_alpha23,
    coincidence_check,
    covariant_derivative,
    dump_structure,
    exterior_d_eta,
    fundamental_tensor,
    load_structure,
    lower,
    metric_lie_derivative,
    natural_connection,
    naturality_report,
    nijenhuis_tensor,
    parse_structure,
    permute_args,
    raise_last,
    signature,
    structure_torsion,
    tensor_from_operator,
    validate_ac3,
    validate_hn_metric,
    validate_hypercomplex_hn,
    validate_lie_algebra,
    validate_metric,
)
from hn3.cli import run as cli_run
from hn3.tensor import postcompose, precompose

from tracer import cpu_clock, tensor_counts

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
KNOWN_ANSWERS = BENCH / "known_answers.json"

CLI_PROGRAM = "from hn3.cli import main; main()"
EMITTED = "example.json"
EMIT = ("example", "--emit", EMITTED, "--json")
COMMANDS = (
    ("validate",),
    ("classify",),
    ("connection",),
    ("product", "--alpha", "1", "--beta", "2"),
    ("compute", "--tensor", "T1"),
    ("compute", "--tensor", "LC"),
)
START_PROBES = 3  # interpreter start-up timings per traced pass


def load_known() -> dict:
    return json.loads(KNOWN_ANSWERS.read_text())


def cli_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


@dataclass
class Job:
    key: str
    seconds: float
    error: str | None  # None when the job gave its known answer
    nnz: int = 0


# ---------------------------------------------------------------------------
# Library pipeline: one structure file, questions asked in this order.

@dataclass
class FileState:
    label: str
    n: int
    path: Path
    h: object = None
    fund1: object = None
    reports: list = field(default_factory=list)


def q_validate(st: FileState, rec) -> dict:
    st.h = rec.call("fileio.load", load_structure, st.path)
    return {"signature": list(rec.call("linalg.signature", signature, st.h.metric))}


def q_classify(st: FileState, rec) -> dict:
    h = st.h
    call = partial(rec.call, cache=h.mla)
    call("liealg.levi_civita", lambda: h.mla.levi_civita)
    funds = [call("nijenhuis.fundamental", fundamental_tensor, h, a) for a in (1, 2, 3)]
    st.fund1 = funds[0]
    found = {"class1": call("connections.class", class_condition_alpha1, h, funds[0])}
    for a in (2, 3):
        found[f"class{a}"] = call(
            "connections.class", class_condition_alpha23, h, a, funds[a - 1]
        )
    for a in (1, 2, 3):
        lg = call("nijenhuis.lie_derivative", metric_lie_derivative, h, a)
        deta = call("nijenhuis.lie_derivative", exterior_d_eta, h, a)
        nij = call("nijenhuis.nijenhuis", nijenhuis_tensor, h, a)
        assoc = call("nijenhuis.associated", associated_nijenhuis, h, a)
        found[f"killing{a}"] = lg.is_zero()
        found[f"deta{a}_vanishes"] = deta.is_zero()
        found[f"normal{a}"] = nij[0].is_zero()
        found[f"associated{a}_vanishes"] = assoc[0].is_zero()
    return found


def q_connection(st: FileState, rec, alpha: int) -> dict:
    h = st.h
    t = rec.call("connections.torsion", structure_torsion, h, alpha, cache=h.mla)
    nc = rec.call("connections.natural", natural_connection, h, alpha, t, cache=h.mla)
    rep = rec.call("connections.naturality", naturality_report, nc.connection, h, alpha)
    st.reports.append(rep)
    return {"natural": rep.passed, "torsion_vanishes": t.is_zero()}


def q_coincidence(st: FileState, rec) -> dict:
    c = rec.call("connections.coincidence", coincidence_check, st.h, cache=st.h.mla)
    return {
        "verdict": c.summary().split(";")[0],
        "routes_agree": c.routes_agree,
        "common_connection": c.common_exists,
    }


def q_product(st: FileState, rec) -> dict:
    p = rec.call("structures.product", build_product, st.h)
    rep = rec.call("structures.product", validate_hypercomplex_hn, p)
    jj = rec.call("nijenhuis.braces_product", braces_nijenhuis_product, p, 1, 2, cache=p.mla)
    st.reports.append(rep)
    return {
        "hypercomplex": rep.passed,
        "extension_signature": rep.findings["extension_signature"],
        "jj12_vanishes": jj.is_zero(),
    }


PIPELINE = (
    ("validate", q_validate),
    ("classify", q_classify),
    *((f"connection{a}", partial(q_connection, alpha=a)) for a in (1, 2, 3)),
    ("coincidence", q_coincidence),
    ("product", q_product),
)


def mismatch(got, want) -> str | None:
    return None if got == want else f"answer {got!r} differs from known {want!r}"


def library_job(rec, st: FileState, question: str, fn, want, want_nnz=None) -> Job:
    """Ask one question of one structure; ``want_nnz`` also gates the output size."""
    key = f"{st.label}:{question}"
    rec.take_outputs()
    t0 = cpu_clock()
    with rec.span("job", job=key):
        try:
            answer = fn(st, rec)
            error = None
        except Exception as exc:  # the run goes on and reports the failed job
            answer, error = None, f"raised {type(exc).__name__}: {exc}"
    seconds = cpu_clock() - t0
    nnz, _ = tensor_counts(rec.take_outputs())
    if error is None:
        error = mismatch(answer, want)
    if error is None and want_nnz is not None and nnz != want_nnz:
        error = f"output tensors have {nnz} nonzeros, known {want_nnz}"
    return Job(key, seconds, error, nnz)


def library_pass(rec, files: list[FileState], known: dict, check_nnz: bool) -> list[Job]:
    jobs = []
    for st in files:
        want = known["library"][str(st.n)]
        want_nnz = known["nnz"][str(st.n)] if check_nnz else {}
        for question, fn in PIPELINE:
            jobs.append(
                library_job(rec, st, question, fn, want[question], want_nnz.get(question))
            )
    return jobs


# ---------------------------------------------------------------------------
# CLI jobs.

def cli_argvs(rng) -> list[tuple[str, ...]]:
    """One pass: emit the example file first, then every command on both inputs."""
    rest = [(*cmd, src, "--json") for cmd in COMMANDS for src in ("--example", EMITTED)]
    rng.shuffle(rest)
    return [EMIT, *rest]


def run_cli(argv: tuple[str, ...], workdir: Path) -> tuple[dict, bytes]:
    """Run ``hn3 argv`` in ``workdir``: its answer (exit code, stdout digest) and stderr."""
    proc = subprocess.run(
        [sys.executable, "-c", CLI_PROGRAM, *argv],
        cwd=workdir, env=cli_env(), capture_output=True, check=False,
    )
    answer = {"exit": proc.returncode, "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}
    return answer, proc.stderr


def cli_job(rec, argv: tuple[str, ...], workdir: Path, known: dict) -> Job:
    key = " ".join(argv)
    t0 = cpu_clock()
    with rec.span("job", job=key):
        got, stderr = run_cli(argv, workdir)
    seconds = cpu_clock() - t0
    error = mismatch(got, known["cli"][key])
    if error and stderr:
        error += f"; stderr: {stderr.decode(errors='replace')[-300:]}"
    return Job(key, seconds, error)


# ---------------------------------------------------------------------------
# Probes (traced passes only).

def probe_layers(rec, st: FileState, workdir: Path) -> None:
    """Layers the pipeline reaches only inside larger calls, on the same file."""
    fresh = rec.call("fileio.parse", parse_structure, json.loads(st.path.read_text()))
    rec.call("liealg.validate", validate_lie_algebra, fresh.mla.algebra)
    rec.call("liealg.validate", validate_metric, fresh.mla)
    rec.call("structures.validate", validate_ac3, fresh)
    rec.call("structures.validate", validate_hn_metric, fresh)
    rec.call("linalg.inverse", fresh.metric.inverse)

    h = st.h
    lc = h.mla.levi_civita
    rec.call("liealg.covariant_derivative", covariant_derivative, lc,
             tensor_from_operator(h.phi(1)))
    rec.call("liealg.covariant_derivative", covariant_derivative, lc, h.eta(1))

    # a fixed kernel sequence on the structure's own F_1, phi_1, g and g^-1
    kernel = partial(rec.call, "tensor.kernel")
    f, phi, g, g_inv = st.fund1, h.phi(1), h.metric, h.mla.metric_inverse
    kernel(precompose, f, phi, 0)
    kernel(precompose, f, phi, 2)
    kernel(permute_args, f, (1, 2, 0))
    raised = kernel(raise_last, f, g_inv)
    kernel(lower, kernel(postcompose, raised, phi), g)

    rec.call("fileio.dump", dump_structure, h, workdir / "dump.json")
    rec.call("reporting.to_json", lambda: json.dumps([r.to_json() for r in st.reports]))


def timed_subprocess(code: str) -> float:
    """CPU seconds of ``python -c code``, interpreter start-up included."""
    t0 = cpu_clock()
    subprocess.run([sys.executable, "-c", code], env=cli_env(), check=True,
                   stdout=subprocess.DEVNULL)
    return cpu_clock() - t0


def probe_cli(rec, argvs) -> list[str]:
    """Start-up cost and in-process ``hn3.cli.run``; returns exit-code mismatches."""
    for _ in range(START_PROBES):
        rec.call("cli.python_start", timed_subprocess, "pass")
        rec.call("cli.python_import", timed_subprocess, "import hn3")
    errors = []
    for argv, want_exit in argvs:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = rec.call("cli.run", cli_run, list(argv))
        if code != want_exit:
            errors.append(f"in-process {' '.join(argv)} exited {code}, known {want_exit}")
    return errors
