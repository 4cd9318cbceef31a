"""Check that the tier-1 suite runs every line of every function in ``src/hn3``.

Run from anywhere, with the package on the path:

    PYTHONPATH=src python tests/line_trace.py

It runs the tier-1 suite (pytest over the repository root) in this process
under ``sys.settrace`` and records each line executed in ``src/hn3``.  The
lines that count are those that ``co_lines()`` lists for the code object of
each function, method, lambda and comprehension in the package's modules;
module and class bodies run at import and do not count.  Every such line
that never ran is printed as ``path:line``.  The exit status is pytest's
when the suite fails, else 1 when a line was missed and 0 when none was.

pytest does not collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import inspect
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hn3"


def function_lines(path: Path) -> set[int]:
    """Line numbers of every function-like code object compiled from ``path``."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED:  # not a module or class body
            # the def line counts as run once the function is called
            lines.add(code.co_firstlineno)
            lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines


def main() -> int:
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ran:
            return None
        ran[name].add(frame.f_code.co_firstlineno)
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        return int(code)
    missed = [
        f"{path.relative_to(ROOT)}:{line}"
        for name, path in files.items()
        for line in sorted(function_lines(path) - ran[name])
    ]
    print("\n".join(missed) or "every function line in src/hn3 ran")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
