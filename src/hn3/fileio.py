"""Reading and writing structure files.

A structure file is a JSON object with four keys:

* ``dimension``: the frame size n;
* ``brackets``: a list of ``{"i", "j", "k", "value"}`` entries giving the
  nonzero structure constants ``c^k_ij`` (1-based; an entry's (j, i)
  partner is NOT implied and must be listed too);
* ``metric``: an n x n array of scalars;
* ``structures``: three objects ``{"alpha", "epsilon", "phi", "xi",
  "eta"}`` with alpha in {1, 2, 3} and epsilon the fixed character of
  that slot: +1, -1, -1 for alpha = 1, 2, 3.

Scalars are strings ``"p/q"``, ``"p"`` or decimals such as ``"-1.5"``, or
plain JSON integers (``hn3.rational.as_scalar`` gives the grammar); floats
are rejected to keep everything exact, and so is exponent notation.
``load_structure`` gates the parsed manifold with ``structures.require_valid``,
whose validator reports are kept on the manifold, so later gates reuse them;
schema problems and mathematical invalidity are distinct failure kinds.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .errors import StructureFileError, ValidationError
from .linalg import Matrix, Vector
from .liealg import LieAlgebra, MetricLieAlgebra
from .rational import as_scalar, format_scalar
from .structures import EPSILONS, AlmostContactStructure, HN3Manifold, require_valid
from .tensor import covector


def _scalar_at(value, path: str) -> Fraction:
    if isinstance(value, float):
        raise StructureFileError("floats are not exact; write \"p/q\"", path)
    try:
        return as_scalar(value)
    except (TypeError, ValueError) as exc:
        raise StructureFileError(str(exc), path) from exc


def _index_at(value, dim: int, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise StructureFileError("index must be an integer", path)
    if not 1 <= value <= dim:
        raise StructureFileError(f"index {value} out of range 1..{dim}", path)
    return value


def _matrix_at(data, dim: int, path: str) -> Matrix:
    if not isinstance(data, list) or len(data) != dim:
        raise StructureFileError(f"expected {dim} rows", path)
    return Matrix([_vector_at(row, dim, f"{path}/{r}") for r, row in enumerate(data)])


def _vector_at(data, dim: int, path: str) -> list[Fraction]:
    if not isinstance(data, list) or len(data) != dim:
        raise StructureFileError(f"expected {dim} entries", path)
    return [_scalar_at(v, f"{path}/{i}") for i, v in enumerate(data)]


def parse_structure(data: dict) -> HN3Manifold:
    """Build the manifold from decoded JSON, checking the schema as it goes."""
    if not isinstance(data, dict):
        raise StructureFileError("top level must be an object", "/")
    for key in ("dimension", "brackets", "metric", "structures"):
        if key not in data:
            raise StructureFileError(f"missing key {key!r}", "/")
    dim = data["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise StructureFileError("dimension must be a positive integer", "/dimension")

    entries: dict[tuple[int, int, int], Fraction] = {}
    if not isinstance(data["brackets"], list):
        raise StructureFileError("brackets must be a list", "/brackets")
    for pos, entry in enumerate(data["brackets"]):
        path = f"/brackets/{pos}"
        if not isinstance(entry, dict):
            raise StructureFileError("entry must be an object", path)
        try:
            i = _index_at(entry["i"], dim, f"{path}/i")
            j = _index_at(entry["j"], dim, f"{path}/j")
            k = _index_at(entry["k"], dim, f"{path}/k")
            value = _scalar_at(entry["value"], f"{path}/value")
        except KeyError as exc:
            raise StructureFileError(f"missing key {exc.args[0]!r}", path) from exc
        key = (i, j, k)
        if i == j and value:
            raise StructureFileError(f"bracket ({i},{i},{k}) is not antisymmetric: "
                                     f"[e_{i}, e_{i}] = 0 requires the value 0", path)
        if key in entries and entries[key] != value:
            raise StructureFileError(
                f"conflicting duplicate for bracket ({i},{j},{k})", path
            )
        entries[key] = value
        partner = (j, i, k)
        if partner in entries and entries[partner] != -value:
            raise StructureFileError(
                f"brackets ({i},{j},{k}) and ({j},{i},{k}) are not antisymmetric "
                "partners",
                path,
            )
    algebra = LieAlgebra.from_nonzero(dim, entries)

    metric = _matrix_at(data["metric"], dim, "/metric")

    if not isinstance(data["structures"], list) or len(data["structures"]) != 3:
        raise StructureFileError("exactly three structures required", "/structures")
    slots: dict[int, AlmostContactStructure] = {}
    epsilons: dict[int, int] = {}
    for pos, s in enumerate(data["structures"]):
        path = f"/structures/{pos}"
        if not isinstance(s, dict):
            raise StructureFileError("structure must be an object", path)
        for key in ("alpha", "epsilon", "phi", "xi", "eta"):
            if key not in s:
                raise StructureFileError(f"missing key {key!r}", path)
        alpha, epsilon = s["alpha"], s["epsilon"]
        # exact type checks: True and 1.0 both compare equal to 1
        if type(alpha) is not int or alpha not in (1, 2, 3):
            raise StructureFileError("alpha must be 1, 2 or 3", f"{path}/alpha")
        if alpha in slots:
            raise StructureFileError(f"duplicate structure {alpha}", f"{path}/alpha")
        if type(epsilon) is not int or epsilon not in (1, -1):
            raise StructureFileError("epsilon must be 1 or -1", f"{path}/epsilon")
        phi = _matrix_at(s["phi"], dim, f"{path}/phi")
        xi = Vector(_vector_at(s["xi"], dim, f"{path}/xi"))
        eta = covector(_vector_at(s["eta"], dim, f"{path}/eta"))
        slots[alpha], epsilons[alpha] = AlmostContactStructure(phi, xi, eta), epsilon
    # the character pattern is fixed; a mismatch is invalid data, not bad syntax
    if (epsilons[1], epsilons[2], epsilons[3]) != EPSILONS:
        raise ValidationError("metric characters must be (+1, -1, -1)")
    return HN3Manifold(
        MetricLieAlgebra(algebra, metric), (slots[1], slots[2], slots[3])
    )


def load_structure(path: str | Path, validate: bool = True) -> HN3Manifold:
    """Parse a structure file; with ``validate`` re-derive all its invariants."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, huge int, deep nesting
        raise StructureFileError(f"invalid JSON: {exc}", "/") from exc
    h = parse_structure(data)
    if validate:
        require_valid(h)
    return h


def structure_to_json(h: HN3Manifold) -> dict:
    """Serialize; ``parse_structure`` of the result rebuilds an equal manifold."""
    brackets = [
        {"i": i + 1, "j": j + 1, "k": k + 1, "value": format_scalar(v)}
        for (i, j, k), v in h.mla.algebra.bracket.nonzero()
    ]
    n = h.dim
    return {
        "dimension": n,
        "brackets": brackets,
        "metric": [[format_scalar(h.metric[i, j]) for j in range(n)] for i in range(n)],
        "structures": [
            {
                "alpha": a,
                "epsilon": h.eps(a),
                "phi": [
                    [format_scalar(h.phi(a)[i, j]) for j in range(n)] for i in range(n)
                ],
                "xi": [format_scalar(x) for x in h.xi(a)],
                "eta": [format_scalar(h.eta(a)[i]) for i in range(n)],
            }
            for a in (1, 2, 3)
        ],
    }


def dump_structure(h: HN3Manifold, path: str | Path) -> None:
    Path(path).write_text(json.dumps(structure_to_json(h), indent=2) + "\n")
