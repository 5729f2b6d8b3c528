"""Print each executable line of `src/langweave/*.py` that no test reaches.

Usage, from the root of the repository:

    python tools/unreached.py [pytest arguments]

Runs the test suite (`tests/` unless arguments are given) in this process
under a `sys.settrace` line collector, the mechanism `coverage.py` uses on
CPython 3.11.  A line is executable when the compiled module maps bytecode
to it.  The collector is installed before langweave is first imported, so
module-level lines count, and again at each test phase, because a
`RecursionError` inside a traced frame drops a trace function.  Property
tests draw from a fixed seed, so two runs of one tree print the same list.
Code that runs in a subprocess a test starts is not seen.  The last line
printed is the count; the exit status is pytest's.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "langweave"


def executable_lines(path):
    """The line numbers the compiled module at `path` maps bytecode to."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class Collector:
    """The lines reached in each traced file; a code object all of whose
    lines are reached is not traced again."""

    def __init__(self, paths):
        self.reached = {str(p): set() for p in paths}
        self.lines = {}
        self.done = set()

    def global_trace(self, frame, event, arg):
        code = frame.f_code
        if code in self.done or code.co_filename not in self.reached:
            return None
        return self.local_trace

    def local_trace(self, frame, event, arg):
        if event == "line":
            self.reached[frame.f_code.co_filename].add(frame.f_lineno)
        elif event == "return":
            code = frame.f_code
            lines = self.lines.get(code)
            if lines is None:
                lines = self.lines[code] = {line for _, _, line in code.co_lines() if line}
            if lines <= self.reached[code.co_filename]:
                self.done.add(code)
        return self.local_trace

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self):
        sys.settrace(self.global_trace)

    pytest_runtest_call = pytest_runtest_teardown = pytest_runtest_setup


def main(argv):
    paths = sorted(SRC.glob("*.py"))
    collector = Collector(paths)
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(collector.global_trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
                              *(argv or [str(ROOT / "tests")])], plugins=[collector])
    finally:
        sys.settrace(None)
    count = 0
    for path in paths:
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - collector.reached[str(path)]):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            count += 1
    print(f"{count} unreached executable line(s) in {SRC.relative_to(ROOT)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
