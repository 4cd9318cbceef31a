"""Tests of the benchmark itself: generators, answer gate, metric names."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from hn3 import parse_structure, structure_to_json, validation_reports

import run
from gen import frame_change, ladder
from tracer import Recorder
from workloads import (
    EMIT,
    FileState,
    Job,
    cli_job,
    library_pass,
    load_known,
    probe_cli,
    probe_layers,
)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def write(tmp_path: Path, name: str, data: dict) -> Path:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("m", [1, 2])
def test_ladder_round_trips_and_validates(m):
    data = ladder(m)
    h = parse_structure(data)
    assert h.dim == 4 * m + 3
    assert structure_to_json(h) == data
    assert all(r.passed for r in validation_reports(h))


@pytest.mark.parametrize("seed", [1, 2])
def test_frame_change_round_trips_and_is_dense(seed):
    standard = ladder(1)
    data = frame_change(standard, seed)
    assert structure_to_json(parse_structure(data)) == data
    assert data != standard
    # the frame-changed metric is no longer diagonal
    assert sum(v != "0" for row in data["metric"] for v in row) > 7


def test_frame_change_depends_on_seed_only():
    assert frame_change(ladder(1), 3) == frame_change(ladder(1), 3)
    assert frame_change(ladder(1), 3) != frame_change(ladder(1), 4)


@pytest.mark.parametrize("seed", [1, 2])
def test_frame_changed_structure_keeps_known_answers(tmp_path, seed):
    path = write(tmp_path, "frame", frame_change(ladder(1), seed))
    jobs = library_pass(Recorder(False), [FileState("frame-n7", 7, path)],
                        load_known(), check_nnz=False)
    assert [j.error for j in jobs] == [None] * len(jobs)


def test_wrong_known_answer_fails_the_job(tmp_path):
    known = load_known()
    known["library"]["7"]["coincidence"]["verdict"] = "D1 = D2, D1 = D3, D2 = D3"
    known["nnz"]["7"]["connection2"] += 1
    path = write(tmp_path, "ladder", ladder(1))
    jobs = library_pass(Recorder(False), [FileState("ladder-n7", 7, path)],
                        known, check_nnz=True)
    failed = {j.key for j in jobs if j.error}
    assert failed == {"ladder-n7:coincidence", "ladder-n7:connection2"}


def test_wrong_cli_digest_fails_the_job(tmp_path):
    known = load_known()
    key = " ".join(EMIT)
    assert cli_job(Recorder(False), EMIT, tmp_path, known).error is None
    known["cli"][key]["stdout_sha256"] = "0" * 64
    assert cli_job(Recorder(False), EMIT, tmp_path, known).error


def test_benchmark_json_names_the_run_script_metrics():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def test_traced_and_untraced_passes_ask_the_same_jobs(tmp_path):
    path = write(tmp_path, "ladder", ladder(1))
    known = load_known()
    plain = library_pass(Recorder(False), [FileState("ladder-n7", 7, path)], known, True)
    rec = Recorder(True)
    with rec.span("pass"):
        st = FileState("ladder-n7", 7, path)
        traced = library_pass(rec, [st], known, True)
        probe_layers(rec, st, tmp_path)
        errors = probe_cli(rec, [(("validate", str(path), "--json"), 0)])
    assert errors == []
    assert [j.key for j in traced] == [j.key for j in plain]
    assert [j.nnz for j in traced] == [j.nnz for j in plain]
    values = run.layer_metrics([rec.spans], traced, plain)
    assert set(values) == set(run.PER_LAYER)
    assert values["tensor.nnz_out"] > 0
    # the first Levi-Civita access is cold; the probes reuse the warm cache
    lc = [s for s in rec.spans if s["name"] == "liealg.levi_civita"]
    assert [s["warm"] for s in lc] == [[]]
    assert values["cache.warm_spans"] > 0


def test_end_to_end_metrics_and_tail():
    rng = random.Random(0)
    passes = [[Job(str(i), rng.uniform(0.1, 1.0), None) for i in range(21)] for _ in "ab"]
    values, note = run.end_to_end_metrics(passes, 0.5, 20.0)
    assert set(values) == set(run.END_TO_END)
    assert "p75 of 42 jobs (10 beyond it), 2 passes" in note
    assert run.tail([float(i) for i in range(100)]) == (74.0, 25)
    assert run.tail([float(i) for i in range(40)]) == (29.0, 10)
    with pytest.raises(ValueError):
        run.tail([1.0] * 39)
