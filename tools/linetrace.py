"""List the executable lines of src/wavekit that a pytest run never reaches.

Load it as a plugin from the repository root:

    python -m pytest -p tools.linetrace

pytest imports a `-p` plugin while it reads its arguments, before it loads
tests/conftest.py, and this module starts tracing when it is imported, so
the module-level lines that run when the suite imports wavekit count.
After the run it prints each executable line that no test reached, as
`path:line: source`.  Only the stdlib is used: `sys.settrace` (and
`threading.settrace` for threads the tests start) records line events in
wavekit's own files, and the executable lines are those the compiled code
objects map an instruction to.  A function's first line is left to the
enclosing scope, which runs it as the `def` or its decorator.  Lines that
run only in a child interpreter, such as a `__main__` guard, show as
unreached.  The run takes about 1.4 times as long as a plain one.
"""

import os
import sys
import threading

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))),
                       "src", "wavekit")
_reached: dict[str, set[int]] = {}  # real path -> line numbers run
_lines_of: dict[str, set[int] | None] = {}  # co_filename -> its set, None outside wavekit


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _lines_of:
        path = os.path.realpath(name)
        inside = os.path.dirname(path) == PACKAGE
        _lines_of[name] = _reached.setdefault(path, set()) if inside else None
    lines = _lines_of[name]
    if lines is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local
    return local


def _executable_lines(path: str) -> set[int]:
    with open(path, encoding="utf-8") as handle:
        code = compile(handle.read(), path, "exec")
    lines, stack = set(), [(code, True)]
    while stack:
        co, is_module = stack.pop()
        lines.update(line for _, _, line in co.co_lines()
                     if line and (is_module or line != co.co_firstlineno))
        stack.extend((const, False) for const in co.co_consts if hasattr(const, "co_lines"))
    return lines


def unreached() -> list[tuple[str, int]]:
    """(path, line) of every executable wavekit line not yet run, in order."""
    missed = []
    for entry in sorted(os.listdir(PACKAGE)):
        if entry.endswith(".py"):
            path = os.path.join(PACKAGE, entry)
            run = _reached.get(path, set())
            missed.extend((path, line) for line in sorted(_executable_lines(path) - run))
    return missed


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    missed = unreached()
    terminalreporter.write_sep("-", f"unreached lines of src/wavekit: {len(missed)}")
    root = os.path.dirname(os.path.dirname(PACKAGE))
    for path, line in missed:
        with open(path, encoding="utf-8") as handle:
            source = handle.read().splitlines()[line - 1].strip()
        terminalreporter.write_line(f"{os.path.relpath(path, root)}:{line}: {source}")


sys.settrace(_trace)
threading.settrace(_trace)
