"""The scalar grammar of structure files, entry by entry.

``parse_structure`` reads a JSON int or a string of decimal digits (with
an optional leading ``-``) straight to an integer and hands every other
entry to ``as_scalar``.  Each string of ``tests/test_scalars.py``'s table,
plus a JSON float, a bool, null and ``"-0"``, is put in each kind of
entry: it must read as ``as_scalar`` reads it, or fail with the same
message at the entry's JSON pointer.
"""

from __future__ import annotations

import copy
from fractions import Fraction

import pytest

from hn3 import parse_structure
from hn3.errors import StructureFileError
from test_scalars import TABLE

# (entry, its value, or None with the message the file error carries)
CASES = [
    *((text, value, None if value is not None else f"not a rational number: {text!r}")
      for text, value in TABLE),
    ("-0", Fraction(0), None),
    (1.5, None, 'floats are not exact; write "p/q"'),
    (True, None, "bool is not a scalar"),
    (None, None, "exact scalar expected, got NoneType"),
]

# a two-dimensional file that parses; nothing checks its mathematics here
BASE = {
    "dimension": 2,
    "brackets": [{"i": 1, "j": 2, "k": 1, "value": "1"}],
    "metric": [["1", "0"], ["0", "-1"]],
    "structures": [
        {"alpha": a, "epsilon": e, "phi": [["0", "1"], ["1", "0"]], "xi": ["1", "0"],
         "eta": ["1", "0"]}
        for a, e in ((1, 1), (2, -1), (3, -1))
    ],
}

# (JSON pointer, where the entry sits in the file, how to read it back)
PLACES = {
    "metric": ("/metric/0/1", lambda d: d["metric"][0], 1, lambda h: h.metric[0, 1]),
    "phi": ("/structures/1/phi/1/0", lambda d: d["structures"][1]["phi"][1], 0,
            lambda h: h.phi(2)[1, 0]),
    "xi": ("/structures/2/xi/1", lambda d: d["structures"][2]["xi"], 1, lambda h: h.xi(3)[1]),
    "eta": ("/structures/0/eta/0", lambda d: d["structures"][0]["eta"], 0,
            lambda h: h.eta(1)[0]),
    "bracket": ("/brackets/0/value", lambda d: d["brackets"][0], "value",
                lambda h: h.mla.algebra.bracket[0, 1, 0]),
}


@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("entry, value, message", CASES, ids=lambda x: repr(x)[:12])
def test_entries_read_as_as_scalar_reads_them(place, entry, value, message):
    pointer, container, key, read = PLACES[place]
    data = copy.deepcopy(BASE)
    container(data)[key] = entry
    if message is None:
        assert read(parse_structure(data)) == value
        return
    with pytest.raises(StructureFileError) as info:
        parse_structure(data)
    assert info.value.path == pointer
    assert str(info.value) == f"{pointer}: {message}"
