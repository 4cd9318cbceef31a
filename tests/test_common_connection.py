"""A natural connection common to all three structures, against a joint solve.

``Coincidence.d1_natural_for_all`` decides existence from D_1 alone: it is
the only natural connection with 3-form torsion that structure 1 admits.
The oracle asks the question directly, without that argument: it solves
for every 3-form T that makes ``LC + T/2`` natural for all three
structures at once, by Gauss-Jordan over the C(n, 3) basis 3-forms, on
the manifold in the frame it was given.  The library answers the loaded
file in its adapted frame.
"""

from __future__ import annotations

import json

import pytest

from conftest import (
    CENTRAL_IMAGE_BRACKETS,
    DISCRIMINATOR_BRACKETS,
    SOLVABLE_BRACKETS,
    manifold_from_brackets,
)
from hn3 import (
    ExistenceError,
    builtin_example,
    coincidence_check,
    load_structure,
    parse_structure,
)
from oracle import natural_skew_connections
from test_routes import GEN

FILES = {
    "ladder n=11": lambda: GEN.ladder(2),
    "ladder n=15": lambda: GEN.ladder(3),
    **{
        f"frame (7,{s},{e})": (lambda s=s, e=e: GEN.frame_change(GEN.ladder(1), s, e))
        for s, e in ((7, 0), (99, 0), (99, 1), (3, 1))
    },
    "frame (11,3,1)": lambda: GEN.frame_change(GEN.ladder(2), 3, 1),
}


@pytest.mark.parametrize("lam", [2, 1])
def test_builtin_example(lam):
    h = builtin_example(lam)
    c = coincidence_check(h)
    assert natural_skew_connections(h) == (True, 0)
    assert c.d1_natural_for_all
    # the closed-form torsions still differ, which is what common_exists reads
    assert not c.common_exists


@pytest.mark.parametrize("name", FILES)
def test_structure_files(name, tmp_path):
    data = FILES[name]()
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(data))
    h = load_structure(path)
    assert (h.frame is None) == name.startswith("ladder")
    solvable, _ = natural_skew_connections(parse_structure(data))
    assert coincidence_check(h).d1_natural_for_all == solvable


@pytest.mark.parametrize(
    "brackets",
    [SOLVABLE_BRACKETS, CENTRAL_IMAGE_BRACKETS, DISCRIMINATOR_BRACKETS],
    ids=["solvable", "central_image", "discriminator"],
)
def test_fixtures_outside_a_class(brackets):
    # no Coincidence is built: a structure fails its class condition
    h = manifold_from_brackets(brackets)
    with pytest.raises(ExistenceError):
        coincidence_check(h)
    assert natural_skew_connections(h) == (False, 0)


def test_only_structure_1_pins_the_connection():
    # n = 7: the 3-form torsions of natural connections form a plane for
    # structures 2 and 3, and a single point for structure 1 and jointly
    h = builtin_example(2)
    assert [natural_skew_connections(h, (a,)) for a in (1, 2, 3)] == [
        (True, 0), (True, 2), (True, 2)
    ]
