"""Structure-file generators for the benchmark workloads.

Both generators produce structure-file JSON (plain dicts) and use only
hn3's public API, so the library under test receives nothing but files.

* ``ladder(m, lam)`` is the 4m+3 dimension ladder built from the built-in
  7-dimensional example: its 4x4 phi/metric block repeated m times, its
  3x3 Reeb block last, and ``[e_{4b+1}, e_{4b+2}] = [e_{4b+3}, e_{4b+4}]
  = lam e_n`` for every block b.
* ``frame_change(data, seed)`` moves a structure to a seeded unimodular
  integer frame ``P = S P0``.  P0 is a product of 2n elementary matrices
  ``I + s E_ij`` with s = +-1, drawn from ``elementary_seed``, so its
  inverse is an integer matrix too and no denominators appear.  S is a
  signed permutation drawn from ``seed``.
  The structure transforms as tensors do: brackets by the tensor rule,
  ``phi -> P phi P^-1``, ``xi -> P xi``, ``eta -> eta P^-1`` and
  ``g -> P^-T g P^-1``.  Validity, the class findings, the coincidence
  verdict and the metric signature are frame invariant.

  The workload seed picks only S.  Drawing P0 from it as well changes the
  library's work by up to a fifth from seed to seed (through the density
  and size of the entries), which would drown the benchmark's bounds.  A
  signed permutation only relabels the frame, so every seed gives
  different files that ask the same amount of work.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hn3 import builtin_example, format_scalar, structure_to_json

BLOCK = 4  # frame vectors per repeated block of the example
REEB = 3  # trailing Reeb directions


def _fmt_matrix(rows) -> list[list[str]]:
    return [[format_scalar(v) for v in row] for row in rows]


def ladder(m: int, lam: int | str | Fraction = 2) -> dict:
    """Structure file of the 4m+3 ladder member with bracket parameter ``lam``."""
    if m < 1:
        raise ValueError("the ladder starts at m = 1 (dimension 7)")
    base = structure_to_json(builtin_example(lam))
    n = BLOCK * m + REEB

    def place(p: int, b: int) -> int:
        # 1-based index of the example's e_p in block b of the ladder
        return BLOCK * b + p if p <= BLOCK else BLOCK * m + p - BLOCK

    def blocks(square) -> list[list[str]]:
        out = [["0"] * n for _ in range(n)]
        for b in range(m):
            for i in range(BLOCK):
                for j in range(BLOCK):
                    out[BLOCK * b + i][BLOCK * b + j] = square[i][j]
        for i in range(REEB):
            for j in range(REEB):
                out[n - REEB + i][n - REEB + j] = square[BLOCK + i][BLOCK + j]
        return out

    brackets = [
        {
            "i": place(e["i"], b),
            "j": place(e["j"], b),
            "k": place(e["k"], b),
            "value": e["value"],
        }
        for b in range(m)
        for e in base["brackets"]
    ]
    structures = [
        {
            "alpha": s["alpha"],
            "epsilon": s["epsilon"],
            "phi": blocks(s["phi"]),
            "xi": ["0"] * (BLOCK * m) + s["xi"][BLOCK:],
            "eta": ["0"] * (BLOCK * m) + s["eta"][BLOCK:],
        }
        for s in base["structures"]
    ]
    return {
        "dimension": n,
        "brackets": brackets,
        "metric": blocks(base["metric"]),
        "structures": structures,
    }


def unimodular_frame(n: int, seed: int) -> tuple[list[list[int]], list[list[int]]]:
    """Seeded integer matrix P with integer inverse: ``(P, P^-1)``."""
    rng = random.Random(seed)
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        # P <- P (I + s E_ij): column j gains s * column i
        for row in p:
            row[j] += s * row[i]
        # P^-1 <- (I - s E_ij) P^-1: row i loses s * row j
        p_inv[i] = [a - s * b for a, b in zip(p_inv[i], p_inv[j])]
    return p, p_inv


def frame_change(data: dict, seed: int, elementary_seed: int = 0) -> dict:
    """The structure file ``data`` rewritten in the frame ``S P0`` (see above)."""
    n = data["dimension"]
    p0, q0 = unimodular_frame(n, elementary_seed)
    rng = random.Random(seed)
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    # S has entry signs[i] at (i, perm[i]); S^-1 is its transpose
    p = [[signs[i] * v for v in p0[perm[i]]] for i in range(n)]
    q = [[row[perm[i]] * signs[i] for i in range(n)] for row in q0]  # P^-1

    def matrix(rows) -> list[list[Fraction]]:
        return [[Fraction(v) for v in row] for row in rows]

    def conj(a) -> list[list[Fraction]]:  # P a P^-1
        pa = [[sum(p[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        return [[sum(pa[i][k] * q[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    brackets: dict[tuple[int, int, int], Fraction] = {}
    for e in data["brackets"]:
        a, b, c, v = e["i"] - 1, e["j"] - 1, e["k"] - 1, Fraction(e["value"])
        for i in range(n):
            if not q[a][i]:
                continue
            for j in range(n):
                if not q[b][j]:
                    continue
                w = v * q[a][i] * q[b][j]
                for k in range(n):
                    if p[k][c]:
                        key = (i, j, k)
                        brackets[key] = brackets.get(key, 0) + w * p[k][c]

    g = matrix(data["metric"])
    gq = [[sum(g[a][k] * q[k][j] for k in range(n)) for j in range(n)] for a in range(n)]
    metric = [[sum(q[a][i] * gq[a][j] for a in range(n)) for j in range(n)] for i in range(n)]

    structures = []
    for s in data["structures"]:
        xi = [Fraction(v) for v in s["xi"]]
        eta = [Fraction(v) for v in s["eta"]]
        structures.append(
            {
                "alpha": s["alpha"],
                "epsilon": s["epsilon"],
                "phi": _fmt_matrix(conj(matrix(s["phi"]))),
                "xi": [format_scalar(sum(p[i][k] * xi[k] for k in range(n))) for i in range(n)],
                "eta": [format_scalar(sum(eta[k] * q[k][j] for k in range(n))) for j in range(n)],
            }
        )
    return {
        "dimension": n,
        "brackets": [
            {"i": i + 1, "j": j + 1, "k": k + 1, "value": format_scalar(v)}
            for (i, j, k), v in sorted(brackets.items())
            if v
        ],
        "metric": _fmt_matrix(metric),
        "structures": structures,
    }
