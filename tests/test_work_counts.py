"""The contraction work of each pipeline stage, as exact counts.

Time on a shared machine drifts; the work does not.  A wrapper around
``hn3.linalg.contract``, put in every module that imports it, counts per
stage the calls and the products formed: the sum of the group sizes
over the nonzeros that meet a group.  The stages are the benchmark's
library questions, in its order.  A change that lowers a count shows its
gain here exactly; one that raises a count has to say why.
"""

from __future__ import annotations

import types
from collections import Counter

import pytest

import hn3
from hn3 import (
    adapt,
    associated_nijenhuis,
    braces_nijenhuis_product,
    build_product,
    class_condition_alpha1,
    class_condition_alpha23,
    coincidence_check,
    exterior_d_eta,
    fundamental_tensor,
    linalg,
    metric_lie_derivative,
    natural_connection,
    naturality_report,
    nijenhuis_tensor,
    parse_structure,
    structure_torsion,
    validate_hypercomplex_hn,
)
from hn3.structures import require_valid
from test_routes import GEN


def pipeline(data: dict, adapted: bool = True):
    """Run the benchmark's questions on one structure file, yielding each stage's name first.

    The file is read as ``load_structure`` reads it: validated in its own
    frame, then moved to an adapted frame, the adaptation a stage of its
    own.  Without ``adapted`` every question is asked in the file's frame.
    """
    yield "validate"
    h = parse_structure(data)
    require_valid(h)
    if adapted:
        yield "adapt"
        h = adapt(h)
    yield "classify"
    funds = [fundamental_tensor(h, a) for a in (1, 2, 3)]
    class_condition_alpha1(h, funds[0])
    for a in (2, 3):
        class_condition_alpha23(h, a, funds[a - 1])
    for a in (1, 2, 3):
        metric_lie_derivative(h, a)
        exterior_d_eta(h, a)
        nijenhuis_tensor(h, a)
        associated_nijenhuis(h, a)
    for a in (1, 2, 3):
        yield f"connection{a}"
        nc = natural_connection(h, a, structure_torsion(h, a))
        naturality_report(nc.connection, h, a)
    yield "coincidence"
    coincidence_check(h)
    yield "product"
    p = build_product(h)
    validate_hypercomplex_hn(p)
    braces_nijenhuis_product(p, 1, 2)


def work_per_stage(monkeypatch, data: dict, adapted: bool = True) -> dict[str, tuple[int, int]]:
    """``{stage: (contract calls, products)}`` over one run of the pipeline."""
    calls, products = Counter(), Counter()
    stage = None
    original = linalg.contract

    def counting(*terms):
        calls[stage] += 1
        for t, pos, (_, groups, _, _) in terms:
            products[stage] += sum(len(groups.get(idx[pos], ())) for idx in t.comps)
        return original(*terms)

    for module in vars(hn3).values():
        if isinstance(module, types.ModuleType) and getattr(module, "contract", None) is original:
            monkeypatch.setattr(module, "contract", counting)
    stages = []
    for stage in pipeline(data, adapted):  # the wrapper reads ``stage`` while the stage runs
        stages.append(stage)
    return {name: (calls[name], products[name]) for name in stages}


# (contract calls, products) per stage
LADDER_7 = {
    "validate": (37, 99),
    "adapt": (0, 0),
    "classify": (31, 252),
    "connection1": (8, 36),
    "connection2": (9, 136),
    "connection3": (7, 24),
    "coincidence": (0, 0),
    "product": (23, 200),
}
LADDER_11 = {
    "validate": (37, 159),
    "adapt": (0, 0),
    "classify": (31, 504),
    "connection1": (8, 72),
    "connection2": (9, 272),
    "connection3": (7, 48),
    "coincidence": (0, 0),
    "product": (23, 340),
}
# the adapted frame's metric is diagonal here, so after the move every
# stage costs what it costs on the ladder; classify re-validates the moved
# manifold (37 calls, 99 products) before its first derived object
FRAME_7 = {
    "validate": (37, 2_719),
    "adapt": (30, 1_271),
    "classify": (68, 351),
    "connection1": (8, 36),
    "connection2": (9, 136),
    "connection3": (7, 24),
    "coincidence": (0, 0),
    "product": (23, 200),
}


@pytest.mark.parametrize(
    "data,table",
    [
        (GEN.ladder(1), LADDER_7),
        (GEN.ladder(2), LADDER_11),
        (GEN.frame_change(GEN.ladder(1), 1, 0), FRAME_7),
    ],
    ids=["ladder n=7", "ladder n=11", "frame n=7"],
)
def test_contraction_work_per_stage(monkeypatch, data, table):
    assert work_per_stage(monkeypatch, data) == table


@pytest.mark.parametrize("seed,elementary", [(1, 0), (3, 1)])
def test_the_adapted_frame_saves_most_of_the_work(monkeypatch, seed, elementary):
    # 40,756 products in the frame of the file against 4,737 in the adapted
    # one for (1, 0), the adaptation and both validations included
    data = GEN.frame_change(GEN.ladder(1), seed, elementary)
    total = [
        sum(products for _, products in work_per_stage(monkeypatch, data, adapted).values())
        for adapted in (False, True)
    ]
    assert total[0] >= 3 * total[1]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8], ids=lambda m: f"n={4 * m + 3}")
def test_ladder_work_is_affine_in_the_rung(monkeypatch, m):
    # the same contract calls on every rung and 648 more products per rung:
    # a stage that turns superlinear on the ladder fails here
    work = work_per_stage(monkeypatch, GEN.ladder(m)).values()
    assert sum(calls for calls, _ in work) == 115
    assert sum(products for _, products in work) == 747 + 648 * (m - 1)
