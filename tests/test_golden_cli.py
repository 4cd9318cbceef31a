"""Golden command-line outputs on the example and the fixture manifolds.

Every case runs ``hn3.cli.run`` in-process with ``--json`` and compares
the exit code and the SHA-256 of standard output with ``golden_cli.json``.
The table pins the CLI JSON byte for byte, including the order of every
report, finding, tensor entry and violation, so any change to it has to
be deliberate.  Each fixture also runs moved to the fixed rational frame
``FRAME``, which is no signed permutation: those files are dense, and the
library answers them in an adapted frame, so their digests pin what the
CLI pulls back to the frame of the file (tensors, and on the fixtures
outside a class, the witness of the failed class condition).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from conftest import (
    CENTRAL_IMAGE_BRACKETS,
    DISCRIMINATOR_BRACKETS,
    SOLVABLE_BRACKETS,
    manifold_from_brackets,
)
from hn3 import (
    Matrix,
    build_product,
    builtin_example,
    dump_structure,
    flat_example,
    load_structure,
    move,
    parse_structure,
    structure_to_json,
    validate_hypercomplex_hn,
    validation_reports,
)
from hn3.cli import run
from hn3.errors import ValidationError
from hn3.structures import require_valid

GOLDEN = Path(__file__).with_name("golden_cli.json")

COMMANDS = (
    ("validate",),
    ("classify",),
    ("connection",),
    ("product", "--alpha", "1", "--beta", "2"),
    ("product", "--alpha", "2"),
    ("compute", "--tensor", "F1"),
    ("compute", "--tensor", "T1"),
    ("compute", "--tensor", "Nhat2"),
    ("compute", "--tensor", "LC"),
)

FIXTURES = ("builtin", "flat", "solvable", "central_image", "discriminator")

# a rational frame that mixes the Reeb directions into the others; each
# fixture moved to it is written as "<fixture>-moved"
FRAME = Matrix([
    [1, "1/2", 0, 0, 0, 0, 0],
    [0, 1, 0, -1, 0, 0, 0],
    [0, 0, 1, 0, "2/3", 0, 0],
    [0, 0, 0, 1, 0, 0, 1],
    [1, 0, 0, 0, 1, 0, 0],
    [0, 0, -2, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, "1/3", 1],
])
MOVED = tuple(f"{name}-moved" for name in FIXTURES)

# one phi_1 entry flipped: parseable, but the composition and metric
# identities fail at several components; moved to FRAME it is a dense
# invalid file, whose errors must still name its own components
INVALID = "phi1-flipped"
INVALID_MOVED = f"{INVALID}-moved"


def fixture_manifold(name: str):
    if name == "builtin":
        return builtin_example(2)
    if name == "flat":
        return flat_example()
    brackets = {
        "solvable": SOLVABLE_BRACKETS,
        "central_image": CENTRAL_IMAGE_BRACKETS,
        "discriminator": DISCRIMINATOR_BRACKETS,
    }[name]
    return manifold_from_brackets(brackets)


def write_inputs(directory: Path) -> dict[str, list[str]]:
    """Input arguments by name: ``--example`` and one file per fixture."""
    inputs = {"example": ["--example"]}
    for name in FIXTURES:
        path = directory / f"{name}.json"
        dump_structure(fixture_manifold(name), path)
        inputs[name] = [str(path)]
        path = directory / f"{name}-moved.json"
        dump_structure(move(fixture_manifold(name), FRAME), path)
        inputs[f"{name}-moved"] = [str(path)]
    data = structure_to_json(builtin_example(2))
    data["structures"][0]["phi"][0][1] = "1"
    path = directory / f"{INVALID}.json"
    path.write_text(json.dumps(data))
    inputs[INVALID] = [str(path)]
    path = directory / f"{INVALID_MOVED}.json"
    dump_structure(move(parse_structure(data), FRAME), path)
    inputs[INVALID_MOVED] = [str(path)]
    return inputs


def cases() -> list[tuple[str, tuple[str, ...]]]:
    names = ("example", *FIXTURES, *MOVED, INVALID_MOVED)
    out = [(name, cmd) for name in names for cmd in COMMANDS]
    return out + [(INVALID, ("validate",))]


def case_id(name: str, cmd: tuple[str, ...]) -> str:
    return " ".join((name, *cmd))


def invalid_reports_digest(inputs, monkeypatch) -> dict:
    """Every validator's report on the invalid file, violations in order.

    ``hn3 validate`` prints the four base reports; this digest also pins
    those of the product extension, which ``hn3 product`` refuses to build
    (its gate is switched off here to reach them).
    """
    import hn3.structures

    h = load_structure(inputs[INVALID][0], validate=False)
    monkeypatch.setattr(hn3.structures, "require_valid", lambda h: None)
    reports = [
        *validation_reports(h),
        validate_hypercomplex_hn(build_product(h)),
    ]
    text = json.dumps([r.to_json() for r in reports], indent=2)
    return {
        "violations": sum(len(r.violations) for r in reports),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def run_case(capsys, inputs, name, cmd) -> dict:
    capsys.readouterr()
    code = run([cmd[0], *inputs[name], *cmd[1:], "--json"])
    out = capsys.readouterr().out
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "name,cmd", cases(), ids=[case_id(n, c) for n, c in cases()]
)
def test_cli_output_matches_golden(name, cmd, inputs, golden, capsys):
    assert run_case(capsys, inputs, name, cmd) == golden[case_id(name, cmd)]


def test_invalid_file_violation_order(inputs, golden, monkeypatch):
    assert invalid_reports_digest(inputs, monkeypatch) == golden[f"{INVALID} reports"]


@pytest.mark.parametrize("cmd", COMMANDS, ids=" ".join)
def test_invalid_moved_file_fails_in_its_own_frame(cmd, inputs, capsys):
    # every command, the gated ones and validate alike, names the first
    # violation as validation in the file's own frame finds it
    path = inputs[INVALID_MOVED][0]
    with pytest.raises(ValidationError) as exc:
        require_valid(parse_structure(json.loads(Path(path).read_text())))
    capsys.readouterr()
    assert run([cmd[0], path, *cmd[1:], "--json"]) == 1
    assert capsys.readouterr().err == f"check failed: {exc.value}\n"


def test_golden_table_covers_every_case(golden):
    expected = {case_id(n, c) for n, c in cases()} | {f"{INVALID} reports"}
    assert set(golden) == expected
