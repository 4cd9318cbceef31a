"""Check reports with exact violations and a JSON twin.

A report collects everything one check produced: componentwise violations
(index tuple, both sides of the failed identity), free-form warnings,
boolean or textual findings, and optionally tensors to display.  Its
status is ``fail`` with a violation, ``warn`` when a failed precondition
kept the check from running, and ``pass`` otherwise.  The JSON
rendering contains exactly the same data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .rational import as_scalar, format_scalar

TensorEntries = tuple[tuple[tuple[int, ...], Fraction], ...]


@dataclass(frozen=True)
class Violation:
    identity: str
    indices: tuple[int, ...]
    lhs: Fraction
    rhs: Fraction

    def render(self) -> str:
        where = ",".join(map(str, self.indices))
        return f"{self.identity} at ({where}): lhs = {self.lhs}, rhs = {self.rhs}"


@dataclass
class Report:
    check: str
    violations: list[Violation] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    findings: dict[str, bool | str] = field(default_factory=dict)
    tensors: dict[str, TensorEntries] = field(default_factory=dict)
    ran: bool = True  # False when a failed precondition stopped the check

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def status(self) -> str:
        """``fail`` on a violation, ``warn`` when the check did not run, else ``pass``."""
        if self.violations:
            return "fail"
        return "pass" if self.ran else "warn"

    def not_run(self, reason: str) -> None:
        """Record why the check could not run; its status becomes ``warn``."""
        self.warnings.append(reason)
        self.ran = False

    def require(self, identity: str, indices: tuple[int, ...], lhs, rhs) -> None:
        """Record a violation when the two sides differ (exact comparison)."""
        lhs = as_scalar(lhs)
        rhs = as_scalar(rhs)
        if lhs != rhs:
            self.violations.append(Violation(identity, tuple(indices), lhs, rhs))

    def require_equal(self, identity, index_prefix: tuple, lhs, rhs) -> None:
        """``require`` at every entry of two equally shaped arrays, row-major.

        Arrays are tensors, matrices or vectors; indices are ``index_prefix``
        plus the entry's 1-based position.  Tuples of identities and right
        sides check each identity in turn at each entry.
        """
        if isinstance(identity, str):
            identity, rhs = (identity,), (rhs,)
        # compared exactly in ints; both sides become Fractions only where they differ
        failing = [lhs.differs_at(r) for r in rhs]
        for pos in sorted(set().union(*failing)):
            idx = index_prefix + tuple(i + 1 for i in pos)
            for name, r, bad in zip(identity, rhs, failing):
                if pos in bad:
                    self.violations.append(Violation(name, idx, lhs[pos], r[pos]))

    def attach_tensor(self, name: str, t) -> None:
        self.tensors[name] = tuple(t.entries_1based())

    def to_json(self) -> dict:
        data: dict = {"check": self.check, "status": self.status}
        data["violations"] = [
            {
                "identity": v.identity,
                "indices": list(v.indices),
                "lhs": format_scalar(v.lhs),
                "rhs": format_scalar(v.rhs),
            }
            for v in self.violations
        ]
        if self.warnings:
            data["warnings"] = list(self.warnings)
        if self.findings:
            data["findings"] = dict(self.findings)
        if self.tensors:
            data["tensors"] = {
                name: [
                    {"indices": list(idx), "value": format_scalar(value)}
                    for idx, value in entries
                ]
                for name, entries in self.tensors.items()
            }
        return data

    def render(self) -> str:
        lines = [f"[{self.status.upper()}] {self.check}"]
        for v in self.violations:
            lines.append(f"    {v.render()}")
        for w in self.warnings:
            lines.append(f"    warning: {w}")
        for key, value in self.findings.items():
            lines.append(f"    {key}: {value}")
        for name, entries in self.tensors.items():
            if entries:
                for idx, value in entries:
                    where = ",".join(map(str, idx))
                    lines.append(f"    {name}[{where}] = {value}")
            else:
                lines.append(f"    {name} = 0")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
