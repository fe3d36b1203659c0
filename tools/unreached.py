"""List the lines of src/qsd that the tier-1 tests never run.

    python tools/unreached.py

Runs the tier-1 suite (tests/, as `python -m pytest` would) in this process
under a standard-library line tracer, sys.settrace and threading.settrace,
started before qsd is imported, so import-time lines count as run. A line
is executable when the compiled module maps an instruction to it: the
co_lines of the module's code object and of every code object nested in
it (classes, functions, lambdas, comprehensions). A line runs when the
tracer sees a line event on it, or a call of the code object that starts
there. The tool prints, for each module of src/qsd, the executable lines
that never ran, then the total, as

    bloch.py        74, 269, 420
    unreached: 32 of 1,844 executable lines

Code that the tests run in a child process (`qsd` run by subprocess) is not
traced. The coverage package is not a dependency, and this needs none:
standard library and pytest only. Tracing makes the suite slower: on a
2-core machine with Python 3.11, 32-45 s against 20 s untraced. The exit
code is pytest's.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qsd"


def executable_lines(path: Path) -> set:
    """The line numbers that path's compiled code maps an instruction to."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def _ranges(lines: list) -> str:
    """Sorted line numbers as runs: [3, 4, 5, 9] gives '3-5, 9'."""
    runs = []
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def run_traced() -> tuple:
    """(pytest's exit code, {module path: set of the line numbers that ran})."""
    modules = {str(path) for path in PACKAGE.glob("*.py")}
    known: dict = {}  # co_filename -> its module path, or None outside src/qsd
    reached: dict = {path: set() for path in modules}

    def line_tracer(frame, event, arg):
        if event == "line":
            reached[known[frame.f_code.co_filename]].add(frame.f_lineno)
        return line_tracer

    def call_tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in known:
            real = os.path.realpath(name)
            known[name] = real if real in modules else None
        if known[name] is None:
            return None
        reached[known[name]].add(frame.f_lineno)  # the code object's first line
        return line_tracer

    import pytest  # before tracing: only qsd's lines are wanted

    threading.settrace(call_tracer)
    sys.settrace(call_tracer)
    try:
        status = pytest.main(["-q", "-rfE", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, reached


def main() -> int:
    os.chdir(ROOT)
    status, reached = run_traced()
    total = missed = 0
    for path, ran in sorted(reached.items()):
        lines = executable_lines(Path(path))
        unreached = sorted(lines - ran)
        total += len(lines)
        missed += len(unreached)
        if unreached:
            print(f"{Path(path).name:<16}{_ranges(unreached)}")
    print(f"unreached: {missed:,} of {total:,} executable lines")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
