"""Each derived object is computed once per manifold and freed with it.

A counting memo records what a manifold stores, and counting wrappers
around ``covariant_derivative`` (which builds D phi_a and d eta_a),
``postcompose`` (which applies phi_a to D phi_a for the pairing A_a that
both Nijenhuis tensors share, and runs nowhere else on these inputs),
``connection_torsion`` (the round trip that builds each natural
connection D_a) and the four validators catch any computation that
bypasses the memo.
"""

from __future__ import annotations

import types
import weakref
from collections import Counter

import pytest

import hn3
from hn3 import (
    HN3Manifold,
    LieAlgebra,
    Matrix,
    MetricLieAlgebra,
    Tensor,
    ValidationError,
    associated_nijenhuis,
    build_product,
    builtin_example,
    class_condition_alpha1,
    class_condition_alpha23,
    coincidence_check,
    dump_structure,
    exterior_d_eta,
    fundamental_tensor,
    hat_components,
    in_skew_torsion_class,
    load_structure,
    metric_lie_derivative,
    natural_connection,
    nijenhuis_tensor,
    structure_torsion,
    validate_hypercomplex_hn,
    validation_reports,
)
from hn3 import connections, liealg, nijenhuis, structures
from hn3.cli import run

ONCE_EACH = Counter({(1,): 1, (2,): 1, (3,): 1})


class CountingMemo(dict):
    """A manifold memo that counts what it stores, per build function and arguments.

    Keys are ``(build, *args)``; an argument-free build function counts under ``()``.
    """

    def __init__(self):
        super().__init__()
        self.stored: dict[str, Counter] = {}

    def __setitem__(self, key, value):
        build, *alpha = key
        self.stored.setdefault(build.__name__, Counter())[tuple(alpha)] += 1
        super().__setitem__(key, value)


VALIDATORS = ("validate_lie_algebra", "validate_metric", "validate_ac3", "validate_hn_metric")


def count_calls(monkeypatch, calls: Counter, module, name: str) -> None:
    """Replace ``module.name`` by a wrapper that counts its calls in ``calls``."""
    original = getattr(module, name)

    def wrapper(*args):
        calls[name] += 1
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)


@pytest.fixture()
def calls(monkeypatch):
    """Calls of covariant_derivative, postcompose and connection_torsion."""
    calls = Counter()
    count_calls(monkeypatch, calls, nijenhuis, "covariant_derivative")
    count_calls(monkeypatch, calls, nijenhuis, "postcompose")
    count_calls(monkeypatch, calls, connections, "connection_torsion")
    return calls


def counting_manifold():
    h = builtin_example(2)
    object.__setattr__(h, "_memo", CountingMemo())
    return h


def classify(h) -> None:
    """The classify questions, as the benchmark asks them: F passed in explicitly."""
    funds = [fundamental_tensor(h, a) for a in (1, 2, 3)]
    assert class_condition_alpha1(h, funds[0])
    for a in (2, 3):
        assert class_condition_alpha23(h, a, funds[a - 1])
    for a in (1, 2, 3):
        metric_lie_derivative(h, a)
        exterior_d_eta(h, a)
        nijenhuis_tensor(h, a)
        associated_nijenhuis(h, a)


def per_alpha(built: Counter) -> Counter:
    """Builds per structure number, whatever other arguments a key carries."""
    return Counter(args[:1] for args in built.elements())


def test_pipeline_computes_each_object_once(calls):
    h = counting_manifold()
    classify(h)
    torsions = [structure_torsion(h, a) for a in (1, 2, 3)]
    for a in (1, 2, 3):
        natural_connection(h, a, torsions[a - 1])
    # a connection is kept per torsion value, and T_3 = T_1 here
    assert calls["connection_torsion"] == 2
    coincidence_check(h)
    assert calls["connection_torsion"] == 2  # D_1 = D_3 and D_2 were reused
    assert calls["covariant_derivative"] == 6  # D phi_a and d eta_a, once each
    assert calls["postcompose"] == 3  # A_a, once each, for N_a and N̂_a
    stored = h._memo.stored
    for built in (
        "_phi_derivative",
        "fundamental_tensor",
        "_phi_pairing",
        "nijenhuis_tensor",
        "associated_nijenhuis",
        "_torsion",
    ):
        assert per_alpha(stored[built]) == ONCE_EACH, built
    assert stored["_connection_with_torsion"] == Counter((t,) for t in set(torsions))


def test_each_class_condition_is_evaluated_once(monkeypatch):
    runs = Counter()
    count_calls(monkeypatch, runs, connections, "precompose")
    count_calls(monkeypatch, runs, connections, "cyclic_sum")
    h = builtin_example(2)
    classify(h)
    # the verdicts for the memoized F_a are the ones structure_torsion reads
    assert all(in_skew_torsion_class(h, a) for a in (1, 2, 3))
    # the reflection identity precomposes F_1 twice; F_2 and F_3 are summed once
    once = Counter({"precompose": 2, "cyclic_sum": 2})
    assert runs == once
    # an equal tensor that is not the memoized one reads the same entry
    assert class_condition_alpha1(h, fundamental_tensor(h, 1) * 1)
    assert class_condition_alpha23(h, 2, fundamental_tensor(h, 2) * 1)
    assert runs == once
    # a different tensor is evaluated once, however many objects carry it
    for _ in range(2):
        assert class_condition_alpha1(h, fundamental_tensor(h, 1) * 2)
        assert class_condition_alpha23(h, 2, fundamental_tensor(h, 2) * 2)
    assert runs == Counter({"precompose": 4, "cyclic_sum": 3})
    # and evaluating a given tensor builds no F_a
    fresh = counting_manifold()
    assert class_condition_alpha1(fresh, Tensor.zeros(0, 3, fresh.dim))
    assert "fundamental_tensor" not in fresh._memo.stored


def test_coincidence_reuses_the_classified_associated_tensors(calls):
    h = builtin_example(2)
    classify(h)
    assert calls["postcompose"] == 3
    coincidence_check(h)
    assert calls["postcompose"] == 3  # A_a once per structure


def test_hat_components_reuse_the_associated_tensors(calls):
    h = counting_manifold()
    for a in (1, 2, 3):
        associated_nijenhuis(h, a)
    stored = {name: Counter(c) for name, c in h._memo.stored.items()}
    for a in (1, 2, 3):
        hat_components(h, a)
    assert calls["postcompose"] == 3  # A_a once per structure
    assert h._memo.stored == stored  # and nothing new kept on the manifold


def test_equal_torsions_share_one_connection(calls):
    h = builtin_example(2)
    own = natural_connection(h, 1)
    same = natural_connection(h, 1, own.torsion * 1)  # equal, not the same object
    assert same is own
    double = natural_connection(h, 1, own.torsion * 2)
    assert double is not own and double.torsion == own.torsion * 2
    assert natural_connection(h, 1, own.torsion * 2) is double
    # D = LC + T/2 does not depend on the structure number, and T_3 = T_1 here
    assert natural_connection(h, 3) is own
    assert calls["connection_torsion"] == 2


def test_connection_command_builds_one_connection_per_torsion(calls, capsys):
    assert run(["connection", "--example", "--json"]) == 0
    assert calls["connection_torsion"] == 2  # T_1 = T_3 on the example
    assert calls["covariant_derivative"] == 3  # D phi_a for F_1, F_2, F_3
    # no N̂_a either: the class conditions are coincidence_check's one
    # existence gate, since by the paper's theorem they hold exactly when N̂_a = 0
    assert calls["postcompose"] == 0


def test_classify_command_sums_each_fundamental_tensor_once(monkeypatch, capsys):
    sums = Counter()
    modules = {v for v in vars(hn3).values() if isinstance(v, types.ModuleType)}
    for module in modules:
        if hasattr(module, "cyclic_sum"):
            count_calls(monkeypatch, sums, module, "cyclic_sum")
    assert run(["classify", "--example", "--json"]) == 0
    # F_2 and F_3, each summed once for both its finding and its class verdict,
    # and the Jacobi sum of the validator that the memo's gate runs on --example
    assert sums["cyclic_sum"] == 3


def test_each_validator_runs_once_per_manifold(monkeypatch, tmp_path):
    runs = Counter()
    for name in VALIDATORS:
        count_calls(monkeypatch, runs, structures, name)
    path = tmp_path / "example.json"
    dump_structure(builtin_example(2), path)
    # every manifold built from here on, the loaded one included, counts its memo
    post_init = HN3Manifold.__post_init__

    def counting_post_init(self):
        post_init(self)
        object.__setattr__(self, "_memo", CountingMemo())

    monkeypatch.setattr(HN3Manifold, "__post_init__", counting_post_init)
    h = load_structure(path)
    build_product(h)
    assert all(r.passed for r in validation_reports(h))
    assert runs == Counter(dict.fromkeys(VALIDATORS, 1))
    assert h._memo.stored["validation_reports"] == Counter({(): 1})


def test_one_elimination_of_each_metric(monkeypatch, tmp_path, capsys):
    # the signature decides nondegeneracy too, so rank never runs; the base
    # and the extended metric are each diagonalized once
    runs = Counter()
    count_calls(monkeypatch, runs, Matrix, "rank")
    count_calls(monkeypatch, runs, liealg, "signature")
    path = tmp_path / "example.json"
    dump_structure(builtin_example(2), path)
    p = build_product(load_structure(path))
    assert validate_hypercomplex_hn(p).passed
    assert runs == Counter({"signature": 2})
    assert run(["example", "--json"]) == 0
    assert runs == Counter({"signature": 3})


def test_product_refuses_a_base_failing_only_jacobi():
    # [e1,e2] = e3 and [e1,e3] = e1 are antisymmetric, but the Jacobi sum
    # on (e1, e2, e3) is e3; the other validators never read the bracket
    bracket = {(1, 2, 3): 1, (2, 1, 3): -1, (1, 3, 1): 1, (3, 1, 1): -1}
    base = builtin_example(2)
    mla = MetricLieAlgebra(LieAlgebra.from_nonzero(base.dim, bracket), base.metric)
    h = HN3Manifold(mla, base.structures)
    failed = [r.check for r in validation_reports(h) if not r.passed]
    assert failed == ["lie algebra axioms"]
    with pytest.raises(ValidationError, match="jacobi"):
        build_product(h)


def test_memo_is_freed_with_the_manifold():
    h = builtin_example(2)
    d = natural_connection(h, 1)
    coincidence_check(h)
    manifold, connection = weakref.ref(h), weakref.ref(d)
    del h, d
    # plain reference counting frees both: nothing else holds the manifold
    assert manifold() is None and connection() is None


def test_no_module_level_cache():
    modules = [v for v in vars(hn3).values() if isinstance(v, types.ModuleType)]
    assert connections in modules and nijenhuis in modules
    for module in modules:
        for name, value in vars(module).items():
            assert not hasattr(value, "cache_info"), f"{module.__name__}.{name}"
