"""Run the Tier-1 suite under a line tracer, and fail if a line of the
package never ran.

    PYTHONPATH=src python tests/line_trace.py [pytest arguments]

The tracer is set before anything imports ``spincover``, so the lines that
run at import count too.  After the run, every line that holds bytecode in
``src/spincover/*.py`` (the ``co_lines()`` of each module's code objects,
nested ones included) must have run.  ``__main__.py`` is left out: only
the ``python -m spincover`` subprocess tests run it.  Hypothesis runs with
no deadline, since tracing slows every example.  Exits 1, listing each
unrun ``file:line``, if there is one, else with pytest's exit status.
Line tables differ between Python versions; CI runs this on 3.11.
"""

import os
import sys
import types
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spincover"
LEFT_OUT = {"__main__.py"}

ran: set[tuple[str, int]] = set()
_in_package: dict[str, bool] = {}


def _trace_line(frame, event, arg):
    ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_line


def _trace_call(frame, event, arg):
    filename = frame.f_code.co_filename
    inside = _in_package.get(filename)
    if inside is None:
        inside = _in_package[filename] = Path(os.path.realpath(filename)).parent == PACKAGE
    # The call event's line is counted too: a module's line 0, which holds
    # bytecode, gets no line event.
    return _trace_line(frame, event, arg) if inside else None


def code_lines(code: types.CodeType) -> set[int]:
    """The lines that hold bytecode of ``code`` and of the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def unrun_lines() -> list[str]:
    ran_by_file: dict[Path, set[int]] = {}
    for filename, line in ran:
        ran_by_file.setdefault(Path(os.path.realpath(filename)), set()).add(line)
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in LEFT_OUT:
            continue
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        missed = code_lines(code) - ran_by_file.get(path, set())
        unrun += [f"{path.relative_to(PACKAGE.parent.parent)}:{line}" for line in sorted(missed)]
    return unrun


class NoDeadline:
    """A pytest plugin that loads a Hypothesis profile with no deadline.
    Hypothesis is imported here, once pytest has set up its own plugins."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings

        settings.register_profile("line_trace", deadline=None)
        settings.load_profile("line_trace")


def main(argv: list[str]) -> int:
    if "spincover" in sys.modules:
        raise RuntimeError("spincover was imported before the tracer was set")
    sys.settrace(_trace_call)
    try:
        status = pytest.main(argv, plugins=[NoDeadline()])
    finally:
        sys.settrace(None)
    unrun = unrun_lines()
    if unrun:
        print(f"lines of src/spincover that never ran under the suite ({len(unrun)}):", *unrun, sep="\n")
        return 1
    print("every line of src/spincover ran under the suite")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
