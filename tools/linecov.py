#!/usr/bin/env python3
"""List the lines of src/lengthlab that a pytest run never executes.

    python tools/linecov.py [PYTEST ARGS ...]     (default: tests)

Runs pytest in this process under sys.settrace and prints, for each
module of src/lengthlab, the executable lines (those of its code
objects, by co_lines) that no test ran, then the total.  Only the
standard library is used.  The tracer slows the tests about six-fold,
so a test that asserts its own wall time may fail under it; code that
runs only in a subprocess (`python -m lengthlab`) counts as missed.
The exit code is pytest's.
"""

import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lengthlab"


def executable_lines(path):
    """Every line number that some code object of path starts."""
    stack = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return lines


def _ranges(lines):
    """'3, 7-9, 12' for the sorted lines."""
    out, lines = [], sorted(lines)
    for i, line in enumerate(lines):
        if i and line == lines[i - 1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def run(pytest_args):
    """(pytest's exit code, {path: lines that ran}) of one traced run."""
    import pytest

    hits = {path: set() for path in sorted(SRC.glob("*.py"))}
    local_of = {}  # co_filename -> its line tracer, or None

    def line_tracer(seen):
        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in local_of:
            seen = hits.get(Path(name).resolve())
            local_of[name] = None if seen is None else line_tracer(seen)
        return local_of[name]

    sys.path.insert(0, str(SRC.parent))
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
    return code, hits


def main(argv):
    code, hits = run(argv or [str(ROOT / "tests")])
    missed_all = total = 0
    for path, seen in hits.items():
        lines = executable_lines(path)
        missed = lines - seen
        total += len(lines)
        missed_all += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)} missed: "
                  f"{_ranges(missed)}")
    print(f"{missed_all} of {total} executable lines missed "
          f"(pytest exit code {int(code)})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
