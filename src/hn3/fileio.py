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
are rejected to keep everything exact, and so is exponent notation.  A JSON
integer, or a string of decimal digits after an optional ``-``, is read
straight to an int; only other strings go through ``as_scalar``.  Each
array is built once from the nonzero entries it reads, and an entry's JSON
pointer is formatted only when the entry is refused.
``load_structure`` gates the parsed manifold with ``structures.require_valid``
and then moves it to an adapted frame (``structures.adapt``), so violations
name components in the frame of the file; schema problems and mathematical
invalidity are distinct failure kinds.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .errors import StructureFileError, ValidationError
from .linalg import Matrix, Vector
from .liealg import LieAlgebra, MetricLieAlgebra
from .rational import as_scalar, format_scalar
from .structures import EPSILONS, AlmostContactStructure, HN3Manifold, adapt, require_valid
from .tensor import Tensor


def _pointer(path: str, idx: tuple) -> str:
    return "".join([path, *(f"/{i}" for i in idx)])


def _scalar_at(value, path: str, idx: tuple = ()) -> int | Fraction:
    """A JSON int, or a string of decimal digits after an optional ``-``, as an int.

    Anything else takes ``as_scalar``'s grammar.  The JSON pointer is
    ``path`` followed by ``idx`` and is formatted only for an error.
    """
    if type(value) is int:
        return value
    if type(value) is str and (
        value.isdecimal() or (value[:1] == "-" and value[1:].isdecimal())
    ):
        try:
            return int(value)
        except ValueError:  # past the digit limit: as_scalar words the error
            pass
    if isinstance(value, float):
        raise StructureFileError("floats are not exact; write \"p/q\"", _pointer(path, idx))
    try:
        return as_scalar(value)
    except (TypeError, ValueError) as exc:
        raise StructureFileError(str(exc), _pointer(path, idx)) from exc


def _index_at(value, dim: int, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise StructureFileError("index must be an integer", path)
    if not 1 <= value <= dim:
        raise StructureFileError(f"index {value} out of range 1..{dim}", path)
    return value


def _entries_at(data, dim: int, path: str, head: tuple[int, ...], out: dict) -> dict:
    """Add the nonzero entries of the list ``data`` to ``out``, keyed ``head + (i,)``."""
    if not isinstance(data, list) or len(data) != dim:
        raise StructureFileError(f"expected {dim} entries", _pointer(path, head))
    for i, v in enumerate(data):
        key = (*head, i)
        v = _scalar_at(v, path, key)
        if v:
            out[key] = v
    return out


def _matrix_at(data, dim: int, path: str) -> Matrix:
    if not isinstance(data, list) or len(data) != dim:
        raise StructureFileError(f"expected {dim} rows", path)
    entries: dict = {}
    for r, row in enumerate(data):
        _entries_at(row, dim, path, (r,), entries)
    return Matrix.from_dict((dim, dim), entries)


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

    entries: dict[tuple[int, int, int], int | Fraction] = {}  # 0-based keys
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
            value = _scalar_at(entry["value"], path, ("value",))
        except KeyError as exc:
            raise StructureFileError(f"missing key {exc.args[0]!r}", path) from exc
        key = (i - 1, j - 1, k - 1)
        if i == j and value:
            raise StructureFileError(f"bracket ({i},{i},{k}) is not antisymmetric: "
                                     f"[e_{i}, e_{i}] = 0 requires the value 0", path)
        if key in entries and entries[key] != value:
            raise StructureFileError(
                f"conflicting duplicate for bracket ({i},{j},{k})", path
            )
        entries[key] = value
        partner = (j - 1, i - 1, k - 1)
        if partner in entries and entries[partner] != -value:
            raise StructureFileError(
                f"brackets ({i},{j},{k}) and ({j},{i},{k}) are not antisymmetric "
                "partners",
                path,
            )
    algebra = LieAlgebra(dim, Tensor.from_dict(1, 2, dim, entries))

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
        xi = Vector.from_dict((dim,), _entries_at(s["xi"], dim, f"{path}/xi", (), {}))
        eta = Tensor.from_dict(0, 1, dim, _entries_at(s["eta"], dim, f"{path}/eta", (), {}))
        slots[alpha], epsilons[alpha] = AlmostContactStructure(phi, xi, eta), epsilon
    # the character pattern is fixed; a mismatch is invalid data, not bad syntax
    if (epsilons[1], epsilons[2], epsilons[3]) != EPSILONS:
        raise ValidationError("metric characters must be (+1, -1, -1)")
    return HN3Manifold(
        MetricLieAlgebra(algebra, metric), (slots[1], slots[2], slots[3])
    )


def load_structure(path: str | Path, validate: bool = True) -> HN3Manifold:
    """Parse a structure file; with ``validate`` re-derive all its invariants.

    A valid structure comes back in an adapted frame, whose ``frame`` maps
    the file's components to its own; without ``validate``, as the file has it.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, huge int, deep nesting
        raise StructureFileError(f"invalid JSON: {exc}", "/") from exc
    h = parse_structure(data)
    if validate:
        require_valid(h)
        h = adapt(h)
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
