"""Structure-file round trips, schema diagnostics, and the command line."""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest

from conftest import SOLVABLE_BRACKETS, manifold_from_brackets
from hn3 import (
    StructureFileError,
    ValidationError,
    dump_structure,
    load_structure,
    parse_structure,
    structure_to_json,
)
from hn3.cli import _TENSORS, main, run
from hn3.tensor import Tensor

JACOBI_BAD = {
    (1, 2, 1): 1,
    (2, 1, 1): -1,
    (2, 3, 2): 1,
    (3, 2, 2): -1,
    (3, 1, 3): 1,
    (1, 3, 3): -1,
}

# every subcommand that reads a structure file, except validate
REFUSING_COMMANDS = [
    ["classify"],
    ["connection"],
    ["product"],
    ["product", "--alpha", "1", "--beta", "2"],
    *(["compute", "--tensor", name] for name in _TENSORS),
]


def same_manifold(a, b) -> bool:
    return (
        a.mla.algebra.bracket == b.mla.algebra.bracket
        and a.metric == b.metric
        and all(
            a.phi(al) == b.phi(al) and a.xi(al) == b.xi(al) and a.eta(al) == b.eta(al)
            for al in (1, 2, 3)
        )
    )


class TestSerialization:
    def test_json_round_trip(self, builtin2):
        assert same_manifold(parse_structure(structure_to_json(builtin2)), builtin2)

    def test_fractions_survive(self, lam_family):
        h = lam_family[Fraction(5, 2)]
        data = structure_to_json(h)
        values = {e["value"] for e in data["brackets"]}
        assert "5/2" in values and "-5/2" in values
        assert same_manifold(parse_structure(data), h)

    def test_dump_and_load(self, builtin2, tmp_path):
        p = tmp_path / "builtin.json"
        dump_structure(builtin2, p)
        assert same_manifold(load_structure(p), builtin2)

    def test_load_rejects_invalid_algebra(self, builtin2, tmp_path):
        data = structure_to_json(builtin2)
        data["brackets"] = [
            {"i": i, "j": j, "k": k, "value": v} for (i, j, k), v in JACOBI_BAD.items()
        ]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match="jacobi"):
            load_structure(p)
        load_structure(p, validate=False)

    def test_load_rejects_non_json(self, tmp_path):
        p = tmp_path / "garbage.json"
        p.write_text("not json at all")
        with pytest.raises(StructureFileError, match="invalid JSON"):
            load_structure(p)


class TestSchemaErrors:
    @pytest.fixture()
    def data(self, builtin2):
        return structure_to_json(builtin2)

    def test_missing_top_level_key(self, data):
        del data["metric"]
        with pytest.raises(StructureFileError, match="missing key 'metric'") as e:
            parse_structure(data)
        assert e.value.path == "/"

    def test_float_scalar(self, data):
        data["metric"][0][0] = 1.0
        with pytest.raises(StructureFileError, match="not exact") as e:
            parse_structure(data)
        assert e.value.path == "/metric/0/0"

    def test_index_out_of_range(self, data):
        data["brackets"][0]["i"] = 9
        with pytest.raises(StructureFileError, match="out of range 1..7") as e:
            parse_structure(data)
        assert e.value.path.endswith("/i")

    def test_conflicting_duplicate(self, data):
        first = dict(data["brackets"][0])
        first["value"] = "17"
        data["brackets"].append(first)
        with pytest.raises(StructureFileError, match="conflicting duplicate"):
            parse_structure(data)

    def test_antisymmetry_partners(self, data):
        cases = [
            # both orientations present, second one not negated
            ([{"i": 1, "j": 2, "k": 7, "value": "2"}, {"i": 2, "j": 1, "k": 7, "value": "2"}],
             "/brackets/1", "are not antisymmetric partners"),
            # a bracket of a frame vector with itself
            ([{"i": 2, "j": 2, "k": 1, "value": "3"}],
             "/brackets/0", "[e_2, e_2] = 0 requires the value 0"),
        ]
        for brackets, path, says in cases:
            data["brackets"] = brackets
            with pytest.raises(StructureFileError, match="not antisymmetric") as e:
                parse_structure(data)
            assert e.value.path == path and says in str(e.value)

    def test_wrong_structure_count(self, data):
        data["structures"] = data["structures"][:2]
        with pytest.raises(StructureFileError, match="exactly three"):
            parse_structure(data)

    def test_epsilon_out_of_range(self, data):
        data["structures"][0]["epsilon"] = 2
        with pytest.raises(StructureFileError, match="epsilon must be 1 or -1"):
            parse_structure(data)

    @pytest.mark.parametrize("key", ["alpha", "epsilon"])
    @pytest.mark.parametrize("value", [True, 1.0])
    def test_alpha_and_epsilon_must_be_integers(self, data, key, value):
        # True and 1.0 both compare equal to 1
        data["structures"][0][key] = value
        with pytest.raises(StructureFileError, match=f"{key} must be") as e:
            parse_structure(data)
        assert e.value.path == f"/structures/0/{key}"

    def test_wrong_character_pattern(self, data):
        # schema-valid epsilons in the wrong pattern fail structurally,
        # not syntactically
        data["structures"][1]["epsilon"] = 1
        with pytest.raises(ValidationError):
            parse_structure(data)


def entry(data, pointer: str):
    """The container of the entry at a JSON pointer, and the entry's key in it."""
    *parents, last = pointer.strip("/").split("/")
    node = data
    for key in parents:
        node = node[int(key) if isinstance(node, list) else key]
    return node, int(last) if isinstance(node, list) else last


def put(data, pointer: str, value):
    """``data`` with the entry at a JSON pointer replaced by ``value``."""
    node, key = entry(data, pointer)
    node[key] = value
    return data


def drop(data, pointer: str):
    """``data`` without the entry at a JSON pointer."""
    node, key = entry(data, pointer)
    del node[key]
    return data


SCHEMA_ERRORS = [
    pytest.param(lambda d: [], "/", "top level must be an object", id="top-level-list"),
    pytest.param(lambda d: put(d, "/dimension", 0), "/dimension",
                 "dimension must be a positive integer", id="dimension-zero"),
    pytest.param(lambda d: put(d, "/brackets", {}), "/brackets",
                 "brackets must be a list", id="brackets-object"),
    pytest.param(lambda d: put(d, "/brackets/0", 1), "/brackets/0",
                 "entry must be an object", id="bracket-number"),
    pytest.param(lambda d: put(d, "/brackets/0/i", "1"), "/brackets/0/i",
                 "index must be an integer", id="bracket-index-string"),
    pytest.param(lambda d: drop(d, "/brackets/0/value"), "/brackets/0",
                 "missing key 'value'", id="bracket-without-value"),
    pytest.param(lambda d: put(d, "/structures/1", "phi"), "/structures/1",
                 "structure must be an object", id="structure-string"),
    pytest.param(lambda d: drop(d, "/structures/2/eta"), "/structures/2",
                 "missing key 'eta'", id="structure-without-eta"),
    pytest.param(lambda d: put(d, "/structures/1/alpha", 1), "/structures/1/alpha",
                 "duplicate structure 1", id="duplicate-alpha"),
    pytest.param(lambda d: put(d, "/structures/0/xi", ["0"] * 6), "/structures/0/xi",
                 "expected 7 entries", id="short-xi"),
]


@pytest.mark.parametrize("mutate, pointer, message", SCHEMA_ERRORS)
def test_schema_errors_exit_2_at_their_pointer(builtin2, tmp_path, capsys, mutate, pointer, message):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(mutate(structure_to_json(builtin2))))
    assert run(["validate", str(p)]) == 2
    assert capsys.readouterr().err == f"structure file error: {pointer}: {message}\n"


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def tensor_entries(reports, check, name):
    (match,) = [r for r in reports if r["check"] == check]
    return {tuple(e["indices"]): Fraction(e["value"]) for e in match["tensors"][name]}


class TestCLI:
    def test_validate_example(self, capsys):
        assert run(["validate", "--example"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    @pytest.mark.parametrize(
        "argv, code", [(["validate", "--example"], 0), (["validate"], 2), (["frobnicate"], 2)]
    )
    def test_main_exits_with_the_run_code(self, monkeypatch, capsys, argv, code):
        monkeypatch.setattr(sys, "argv", ["hn3", *argv])
        with pytest.raises(SystemExit) as e:
            main()
        assert e.value.code == code

    def test_validate_structure_file(self, builtin2, tmp_path, capsys):
        p = tmp_path / "h.json"
        dump_structure(builtin2, p)
        assert run(["validate", str(p)]) == 0

    def test_usage_errors_exit_2(self, tmp_path, capsys):
        p = tmp_path / "h.json"
        p.write_text("{}")
        assert run(["validate"]) == 2
        assert run(["validate", str(p), "--example"]) == 2
        assert run(["validate", str(p), "--lambda", "3"]) == 2
        assert run(["compute", "--example"]) == 2  # missing --tensor
        assert run(["validate", "--example", "--lambda", "zebra"]) == 2
        assert run(["validate", "--example", "--lambda=1e3"]) == 2

    def test_unreadable_and_malformed_files_exit_2(self, tmp_path, capsys):
        assert run(["validate", str(tmp_path / "absent.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2")
        assert run(["validate", str(bad)]) == 2

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b'{"dimension": ' + b"7" * 5000 + b"}"],
        ids=["not-utf8", "int-past-digit-limit"],
    )
    def test_undecodable_files_exit_2(self, tmp_path, capsys, content):
        p = tmp_path / "bad.json"
        p.write_bytes(content)
        assert run(["validate", str(p)]) == 2
        err = capsys.readouterr().err
        assert "structure file error" in err and "Traceback" not in err

    def test_exponent_notation_exits_2_at_its_path(self, builtin2, tmp_path, capsys):
        # small exponent only: large ones cost time exponential in their length
        data = structure_to_json(builtin2)
        data["metric"][0][0] = "1e3"
        p = tmp_path / "exp.json"
        p.write_text(json.dumps(data))
        assert run(["validate", str(p)]) == 2
        assert "structure file error: /metric/0/0" in capsys.readouterr().err

    def test_invalid_algebra_exits_1(self, builtin2, tmp_path, capsys):
        # a Jacobi violation, and a bracket listed in one orientation only
        # (its (j, i) partner is not implied)
        for brackets, identity in ((JACOBI_BAD, "jacobi"), ({(1, 2, 7): 2}, "antisymmetry")):
            data = structure_to_json(builtin2)
            data["brackets"] = [
                {"i": i, "j": j, "k": k, "value": v} for (i, j, k), v in brackets.items()
            ]
            p = tmp_path / "bad.json"
            p.write_text(json.dumps(data))
            assert run(["validate", str(p)]) == 1
            assert identity in capsys.readouterr().err
            # the command loads past the gate and prints every validator's report
            assert run(["validate", str(p), "--json"]) == 1
            reports = json.loads(capsys.readouterr().out)
            assert [r["status"] for r in reports] == ["fail", "pass", "pass", "pass"]
            assert {v["identity"] for v in reports[0]["violations"]} == {identity}

    @pytest.mark.parametrize("argv", REFUSING_COMMANDS, ids=" ".join)
    def test_every_command_but_validate_refuses_an_invalid_file(
        self, builtin2, tmp_path, capsys, argv
    ):
        # [e1,e2] = 2e7 without its partner; compute --tensor LC reads the
        # Levi-Civita connection of the algebra, no derived object, so the
        # load gate alone refuses it there
        data = structure_to_json(builtin2)
        data["brackets"] = [{"i": 1, "j": 2, "k": 7, "value": "2"}]
        p = tmp_path / "one_sided.json"
        p.write_text(json.dumps(data))
        assert run([*argv, str(p)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "check failed: lie algebra axioms: antisymmetry at (1,2,7): "
            "lhs = 2, rhs = 0 (1 violations in total)\n"
        )

    def test_failed_existence_exits_1(self, tmp_path, capsys):
        p = tmp_path / "solvable.json"
        dump_structure(manifold_from_brackets(SOLVABLE_BRACKETS), p)
        assert run(["connection", str(p)]) == 1
        out, err = capsys.readouterr()
        assert "does not admit a natural connection" in err
        # a check stopped by its precondition is a warning, never a pass
        assert out.count("[WARN]") == 4 and "[PASS]" not in out
        # the reports still reach stdout: every structure fails its class
        # condition, and the coincidence report names the failing ones
        code, reports = run_json(capsys, ["connection", str(p), "--json"])
        assert code == 1
        assert [r["status"] for r in reports] == ["warn"] * 4
        checks = [r["check"] for r in reports]
        assert checks == [f"naturality for structure {a}" for a in (1, 2, 3)] + [
            "coincidence of the three natural connections"
        ]
        assert "reflection identity fails" in reports[0]["warnings"][0]
        for r in reports[1:3]:
            assert "cyclic or Killing condition fails" in r["warnings"][0]
        assert "structures [1, 2, 3] fail" in reports[3]["warnings"][0]

    def test_declared_dimension_allocates_nothing_before_the_checks(
        self, tmp_path, capsys, monkeypatch
    ):
        # parsing costs time in proportion to the file, not to the declared
        # dimension: the dense constructor, which takes every component, does
        # not run before the metric fails
        def refuse(*args):
            raise AssertionError("dense tensor built while parsing")

        monkeypatch.setattr(Tensor, "__new__", staticmethod(refuse))
        p = tmp_path / "big.json"
        p.write_text(json.dumps({
            "dimension": 50,
            "brackets": [{"i": 1, "j": 50, "k": 49, "value": "1"},
                         {"i": 50, "j": 1, "k": 49, "value": "-1"}],
            "metric": [[1, 0], [0, 1]],
            "structures": [],
        }))
        assert run(["validate", str(p)]) == 2
        assert "/metric: expected 50 rows" in capsys.readouterr().err

    def test_non_natural_connection_exits_1(self, capsys, monkeypatch):
        import hn3.connections

        # a wrong closed form that is still a 3-form: the connection it builds
        # passes the round trip but not the naturality report
        torsion = hn3.connections._torsion
        monkeypatch.setattr(hn3.connections, "_torsion", lambda h, a: torsion(h, a) * 2)
        code, reports = run_json(capsys, ["connection", "--example", "--json"])
        assert code == 1
        assert [r["status"] for r in reports] == ["fail"] * 3 + ["pass"]

    def test_failed_torsion_round_trip_exits_1(self, capsys, monkeypatch):
        import hn3.connections

        monkeypatch.setattr(
            hn3.connections, "connection_torsion", lambda conn, alg: Tensor.zeros(1, 2, alg.dim)
        )
        assert run(["connection", "--example"]) == 1
        assert "check failed: torsion round-trip failed" in capsys.readouterr().err

    def test_compute_torsion_scales_with_lambda(self, capsys):
        code, one = run_json(capsys, ["compute", "--tensor", "T1", "--example",
                                      "--lambda", "1", "--json"])
        assert code == 0
        code, three = run_json(capsys, ["compute", "--tensor", "T1", "--example",
                                        "--lambda", "3", "--json"])
        assert code == 0
        t1 = tensor_entries(one, "compute T1", "T1")
        t3 = tensor_entries(three, "compute T1", "T1")
        assert t3 == {idx: 3 * v for idx, v in t1.items()}
        assert t1[(1, 2, 7)] == -1

    def test_negative_fraction_lambda_uses_equals_form(self, capsys):
        code, reports = run_json(capsys, ["compute", "--tensor", "T1", "--example",
                                          "--lambda=-7/3", "--json"])
        assert code == 0
        t1 = tensor_entries(reports, "compute T1", "T1")
        assert t1[(1, 2, 7)] == Fraction(7, 3)

    def test_compute_every_tensor_name(self, capsys):
        for name in ("F1", "F2", "F3", "N1", "N2", "N3", "Nhat1", "Nhat2",
                     "Nhat3", "T1", "T2", "T3", "LC", "braces"):
            assert run(["compute", "--tensor", name, "--example"]) == 0
            capsys.readouterr()

    @pytest.mark.parametrize(
        "command",
        ["validate", "classify", "product", "example", "compute --tensor T1", "connection"],
    )
    def test_force_only_where_a_precondition_can_fail(self, command, capsys):
        # no subcommand computes past a failed precondition: the existence
        # error names a witness of the failure instead
        assert run([*command.split(), "--example", "--force"]) == 2
        assert "unrecognized arguments: --force" in capsys.readouterr().err

    def test_failed_emit_says_writing_failed(self, tmp_path, capsys):
        assert run(["example", "--emit", str(tmp_path / "absent" / "x.json")]) == 2
        err = capsys.readouterr().err
        assert "cannot write structure file" in err and "cannot read" not in err

    def test_classify_example(self, capsys):
        code, reports = run_json(capsys, ["classify", "--example", "--json"])
        assert code == 0
        (report,) = reports
        assert all(report["findings"].values())

    def test_connection_example_reports_coincidence(self, capsys):
        code, reports = run_json(capsys, ["connection", "--example", "--json"])
        assert code == 0
        (coin,) = [r for r in reports if "coincidence" in r["check"]]
        f = coin["findings"]
        assert (f["D1=D2"], f["D1=D3"], f["D2=D3"]) == (False, True, False)
        assert f["routes_agree"] and not f["common_connection_exists"]
        assert "no unique" in f["summary"]

    def test_product_with_pairing(self, capsys):
        assert run(["product", "--example", "--alpha", "1", "--beta", "2"]) == 0

    def test_example_emit_then_validate(self, tmp_path, capsys):
        p = tmp_path / "emitted.json"
        assert run(["example", "--emit", str(p), "--lambda", "-3"]) == 0
        capsys.readouterr()
        assert run(["validate", str(p)]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
