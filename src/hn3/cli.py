"""Command line interface.

Exit codes: 0 when every requested check passed (negative findings such
as non-coinciding connections still count as answered questions), 1 when
a mathematical check failed or a construction's precondition does not
hold, 2 for unusable input (bad file, bad flags), 141 (128 + SIGPIPE) when
the reader of stdout closed it early (``hn3 ... | head``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .builtin import builtin_example
from .connections import (
    ClassConditionError,
    class_condition_alpha1,
    class_condition_alpha23,
    coincidence_check,
    cyclic_sum_vanishes,
    natural_connection,
    naturality_report,
    structure_torsion,
)
from .errors import (
    ExistenceError,
    StructureFileError,
    SymmetryError,
    ValidationError,
)
from .fileio import dump_structure, load_structure
from .nijenhuis import (
    associated_nijenhuis,
    braces_nijenhuis_product,
    fundamental_tensor,
    metric_lie_derivative,
    nijenhuis_tensor,
)
from .linalg import Matrix
from .rational import ONE
from .reporting import Report
from .structures import (
    HN3Manifold,
    build_product,
    require_valid,
    validate_hypercomplex_hn,
    validation_reports,
)
from .tensor import Tensor, postcompose, precompose

_TENSORS = (
    "F1", "F2", "F3",
    "N1", "N2", "N3",
    "Nhat1", "Nhat2", "Nhat3",
    "T1", "T2", "T3",
    "LC", "braces",
)


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", nargs="?", help="structure file (JSON)")
    common.add_argument(
        "--example", action="store_true",
        help="use the built-in 7-dimensional example instead of a file",
    )
    common.add_argument(
        "--lambda", dest="lam", metavar="p/q", default=None,
        help="bracket parameter of the built-in example (default 2); "
        "write negative values as --lambda=-p/q",
    )
    common.add_argument("--json", action="store_true", help="machine-readable output")

    parser = argparse.ArgumentParser(
        prog="hn3",
        description="Exact checks for almost contact 3-structures with "
        "Hermitian-Norden metrics on Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common], help="run all structure validators")
    p_compute = sub.add_parser("compute", parents=[common], help="print one tensor")
    p_compute.add_argument("--tensor", choices=_TENSORS, required=True)
    sub.add_parser(
        "classify", parents=[common],
        help="evaluate the skew-torsion admissibility conditions",
    )
    sub.add_parser(
        "connection", parents=[common],
        help="build the three natural connections and compare them",
    )
    p_product = sub.add_parser(
        "product", parents=[common], help="check the almost hypercomplex extension"
    )
    p_product.add_argument("--alpha", type=int, choices=(1, 2, 3))
    p_product.add_argument("--beta", type=int, choices=(1, 2, 3))
    p_example = sub.add_parser(
        "example", parents=[common], help="summarize or emit the built-in example"
    )
    p_example.add_argument("--emit", metavar="PATH", help="write a structure file")
    return parser


def _resolve_input(args) -> HN3Manifold:
    use_example = args.example or args.command == "example"
    if use_example and args.file:
        raise _UsageError("give either a structure file or --example, not both")
    if not use_example and args.lam is not None:
        raise _UsageError("--lambda only applies to the built-in example")
    if use_example:
        try:
            return builtin_example(args.lam if args.lam is not None else 2)
        except (ValueError, TypeError) as exc:
            raise _UsageError(f"bad --lambda: {exc}") from exc
    if not args.file:
        raise _UsageError("a structure file or --example is required")
    # validate reports every validator itself, so it loads past the gate
    return load_structure(args.file, validate=args.command != "validate")


def _pull_back(t: Tensor, p: Matrix | None) -> Tensor:
    """``t`` read in the frame that ``p`` moved it from: ``p`` fed into each argument.

    The output of a (1,s) tensor goes through ``p^-1``; with no ``p``, ``t`` as it is.
    """
    if p is None:
        return t
    for slot in range(t.arity):
        t = precompose(t, p, slot)
    return postcompose(t, p.inverse()) if t.contra else t


def _message(h: HN3Manifold | None, exc: Exception) -> str:
    """The error's text, with a class-condition witness in the frame of the input."""
    if isinstance(exc, ClassConditionError):  # raised only once h is loaded
        return exc.text(_pull_back(exc.defect, h.frame))
    return str(exc)


def _emit(reports: list[Report], as_json: bool) -> None:
    if as_json:
        print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        print("\n".join(r.render() for r in reports))


def _cmd_validate(h: HN3Manifold, args) -> tuple[int, list[Report]]:
    """All four reports; a failure also names its first violation on stderr."""
    code = 0
    try:
        require_valid(h)
    except ValidationError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        code = 1
    return code, list(validation_reports(h))


def _cmd_compute(h: HN3Manifold, args) -> tuple[int, list[Report]]:
    name = args.tensor
    report = Report(f"compute {name}")
    if name.startswith("F"):
        t = fundamental_tensor(h, int(name[1]))
    elif name.startswith("Nhat"):
        t = associated_nijenhuis(h, int(name[4]))[1]
    elif name.startswith("N"):
        t = nijenhuis_tensor(h, int(name[1]))[1]
    elif name.startswith("T"):
        t = structure_torsion(h, int(name[1]))
    elif name == "LC":
        t = h.mla.levi_civita.gamma
    else:
        t = h.mla.braces
    report.attach_tensor(name, _pull_back(t, h.frame))
    return 0, [report]


def _cmd_classify(h: HN3Manifold, args) -> tuple[int, list[Report]]:
    report = Report("skew-torsion admissibility")
    report.findings["structure1_reflection_identity"] = class_condition_alpha1(h)
    for a in (2, 3):
        fund = fundamental_tensor(h, a)
        report.findings[f"structure{a}_cyclic_sum_vanishes"] = cyclic_sum_vanishes(h, fund)
        report.findings[f"structure{a}_reeb_killing"] = metric_lie_derivative(h, a).is_zero()
        report.findings[f"structure{a}_class_condition"] = class_condition_alpha23(h, a)
    for a in (1, 2, 3):
        report.findings[f"structure{a}_associated_nijenhuis_vanishes"] = (
            associated_nijenhuis(h, a)[0].is_zero()
        )
    return 0, [report]


def _failed_precondition(h: HN3Manifold, report: Report, exc: ExistenceError) -> Report:
    """Record a failed existence precondition in the report and on stderr."""
    message = _message(h, exc)
    print(f"check failed: {message}", file=sys.stderr)
    report.not_run(message)
    return report


def _cmd_connection(h: HN3Manifold, args) -> tuple[int, list[Report]]:
    reports: list[Report] = []
    code = 0
    for a in (1, 2, 3):
        rep = Report(f"naturality for structure {a}")
        try:
            nc = natural_connection(h, a)
        except ExistenceError as exc:
            _failed_precondition(h, rep, exc)
            code = 1
        else:
            rep = naturality_report(nc.connection, h, a)
            rep.attach_tensor(f"T{a}", _pull_back(nc.torsion, h.frame))
            if not rep.passed:
                code = 1
        reports.append(rep)
    rep = Report("coincidence of the three natural connections")
    try:
        coin = coincidence_check(h)
    except ExistenceError as exc:
        return 1, reports + [_failed_precondition(h, rep, exc)]
    for (a, b), equal in coin.torsions_equal.items():
        rep.findings[f"D{a}=D{b}"] = equal
    rep.findings["routes_agree"] = coin.routes_agree
    rep.findings["common_connection_exists"] = coin.common_exists
    rep.findings["summary"] = coin.summary()
    reports.append(rep)
    return code, reports


def _cmd_product(h: HN3Manifold, args) -> tuple[int, list[Report]]:
    p = build_product(h)
    reports = [validate_hypercomplex_hn(p)]
    if args.alpha or args.beta:
        alpha = args.alpha or args.beta
        beta = args.beta or alpha
        rep = Report(f"braces Nijenhuis pairing of J{alpha} and J{beta}")
        # the extension's change of frame is h's, with the flat direction kept
        frame = None if h.frame is None else Matrix.from_dict(
            (p.dim, p.dim), {**dict(h.frame.nonzero()), (h.dim, h.dim): ONE}
        )
        rep.attach_tensor(
            f"JJ{alpha}{beta}", _pull_back(braces_nijenhuis_product(p, alpha, beta), frame)
        )
        reports.append(rep)
    code = 0 if all(r.passed for r in reports) else 1
    return code, reports


def _cmd_example(h: HN3Manifold, args) -> tuple[int, list[Report]]:
    report = Report("built-in example")
    report.findings["dimension"] = str(h.dim)
    report.findings["metric_signature"] = "({},{},{})".format(*h.mla.metric_signature)
    report.attach_tensor("brackets", h.mla.algebra.bracket)
    if args.emit:
        try:
            dump_structure(h, Path(args.emit))
        except OSError as exc:
            raise _UsageError(f"cannot write structure file: {exc}") from exc
        report.findings["written"] = str(args.emit)
    return 0, [report]


_COMMANDS = {
    "validate": _cmd_validate,
    "compute": _cmd_compute,
    "classify": _cmd_classify,
    "connection": _cmd_connection,
    "product": _cmd_product,
    "example": _cmd_example,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    h = None
    try:
        h = _resolve_input(args)
        code, reports = _COMMANDS[args.command](h, args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StructureFileError as exc:
        print(f"structure file error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ExistenceError, SymmetryError) as exc:
        print(f"check failed: {_message(h, exc)}", file=sys.stderr)
        return 1
    _emit(reports, args.json)
    return code


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early: stdout to devnull, so the exit-time flush cannot raise
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, as if the signal had killed the process
    sys.exit(code)
