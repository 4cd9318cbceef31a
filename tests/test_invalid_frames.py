"""Invalid structure files in a dense frame: errors name the file's own components.

``load_structure`` validates a file once, in the adapted frame that
``adapt`` moves it to, and validates it in the file's own frame only when
the frame search cannot finish or the moved manifold fails.  Seeded
mutations of a dense frame file, and hand-built files for each way the
search can stop, must give what validation in the file's frame gives:
``hn3 classify`` exits 1 with ``check failed:`` and the first violation
there, or 0 when the file is still valid, and never with a traceback.
"""

from __future__ import annotations

import copy
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from hn3 import parse_structure
from hn3.cli import run
from hn3.errors import StructureFileError, ValidationError
from hn3.structures import _adapted_frame, require_valid
from test_routes import GEN

BASE = GEN.frame_change(GEN.ladder(1), 3, 1)
VALUES = ("0", "1", "-1", "2", "1/2", "-3", "7")
CORPUS = 300


def set_bracket(data: dict, i: int, j: int, k: int, value: str) -> None:
    """Set ``c^k_ij`` to ``value`` and its partner ``c^k_ji`` to minus it."""
    for a, b, v in ((i, j, value), (j, i, str(-Fraction(value)))):
        entry = next(
            (e for e in data["brackets"] if (e["i"], e["j"], e["k"]) == (a, b, k)), None
        )
        if entry is None:
            data["brackets"].append({"i": a, "j": b, "k": k, "value": v})
        else:
            entry["value"] = v


def mutant(seed: int) -> dict:
    """``BASE`` with 1-3 entries of g, a bracket, phi_a, xi_a or eta_a set to one of ``VALUES``."""
    rng = random.Random(seed)
    data = copy.deepcopy(BASE)
    n = data["dimension"]
    for _ in range(rng.randint(1, 3)):
        value = rng.choice(VALUES)
        part = rng.choice(("metric", "brackets", "phi", "xi", "eta"))
        if part == "metric":
            data["metric"][rng.randrange(n)][rng.randrange(n)] = value
        elif part == "brackets":
            i, j = rng.sample(range(1, n + 1), 2)
            set_bracket(data, i, j, rng.randint(1, n), value)
        elif part == "phi":
            rng.choice(data["structures"])["phi"][rng.randrange(n)][rng.randrange(n)] = value
        else:
            rng.choice(data["structures"])[part][rng.randrange(n)] = value
    return data


def in_its_own_frame(data: dict) -> tuple[int, str]:
    """Exit code and stderr of ``hn3 classify`` as validation in the file's frame decides them."""
    try:
        require_valid(parse_structure(data))
    except StructureFileError as exc:
        return 2, f"structure file error: {exc}\n"
    except ValidationError as exc:
        return 1, f"check failed: {exc}\n"
    return 0, ""


def classify(tmp_path, capsys, name: str, data: dict) -> tuple[int, str]:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    code = run(["classify", str(path), "--json"])
    return code, capsys.readouterr().err


def test_mutated_frame_files_fail_in_their_own_frame(tmp_path, capsys):
    exits = Counter()
    for seed in range(CORPUS):
        data = mutant(seed)
        got = classify(tmp_path, capsys, f"mutant{seed}", data)
        assert got == in_its_own_frame(data), f"seed {seed}"
        exits[got[0]] += 1
    # both outcomes occur: most mutants are invalid, some keep the file valid
    assert exits[1] > exits[0] > 0


def without_metric_on_h() -> dict:
    """g vanishes on H = ker eta_1 ∩ ker eta_2 ∩ ker eta_3: no block vector exists."""
    data = GEN.ladder(1)
    for i in range(4):
        data["metric"][i][:4] = ["0"] * 4
    return GEN.frame_change(data, 3, 1)


def repeated_reeb() -> dict:
    """xi_2 = xi_1: the search finds H's block, but the frame it ends with is singular."""
    data = copy.deepcopy(BASE)
    data["structures"][1]["xi"] = list(data["structures"][0]["xi"])
    return data


def dimension_4() -> dict:
    """n = 4 is not of the form 4m+3, so no adapted frame exists."""
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    phi = [row[:] for row in identity]
    phi[0][1] = 1
    return {
        "dimension": 4,
        "brackets": [],
        "metric": identity,
        "structures": [
            {"alpha": a, "epsilon": e, "phi": phi, "xi": [0, 0, 0, 1], "eta": [0, 0, 0, 1]}
            for a, e in ((1, 1), (2, -1), (3, -1))
        ],
    }


@pytest.mark.parametrize(
    "build", [without_metric_on_h, repeated_reeb, dimension_4], ids=lambda f: f.__name__
)
def test_frame_search_that_cannot_finish(build, tmp_path, capsys):
    data = build()
    assert _adapted_frame(parse_structure(data)) is None
    expected = in_its_own_frame(data)
    assert expected[0] == 1
    assert classify(tmp_path, capsys, build.__name__, data) == expected
