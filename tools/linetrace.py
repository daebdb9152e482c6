"""List the executable lines of src/wavekit that a pytest run never reaches.

Every run of the suite is traced: tests/conftest.py imports this module
before it imports wavekit, and tests/test_line_reach.py, the run's last
test, fails on any line `unreached()` names outside its allow-list.  Loaded
as a plugin from the repository root, it also prints those lines:

    python -m pytest -p tools.linetrace

pytest imports a `-p` plugin while it reads its arguments, before it loads
tests/conftest.py, whose import then finds this same module.  Tracing starts
when the module is imported, so the module-level lines that run when the
suite imports wavekit count.  After the run the plugin prints each
executable line that no test reached, as `path:line: source`.  Only the
stdlib is used: `sys.settrace` (and `threading.settrace` for threads the
tests start) records line events in wavekit's own files, and the executable
lines are those the compiled code objects map an instruction to.  A
function's first line is left to the enclosing scope, which runs it as the
`def` or its decorator.  Once a code object has run all its lines, its
frames send no more line events.  Lines that run only in a child
interpreter, such as a `__main__` guard, show as unreached.  Tracing makes
a full run of the suite take about 1.3 times as long (medians of three:
68 s against 53 s, 2 vCPUs, Python 3.11.7).  Most of that is the trace
call that each of the run's 20 million Python function calls makes, not
wavekit's 2 million line events.
"""

import atexit
import os
import sys
import threading

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))),
                       "src", "wavekit")
_reached: dict[str, set[int]] = {}  # real path -> line numbers run
_lines_of: dict[str, set[int] | None] = {}  # co_filename -> its set, None outside wavekit
_pending: dict[int, tuple] = {}  # id(code) -> (code, its lines not yet run)


def _code_lines(code, is_module: bool) -> set[int]:
    """The lines code maps an instruction to.  A function's first line is
    left to the enclosing scope, which runs it as the `def` or its decorator."""
    return {line for _, _, line in code.co_lines()
            if line and (is_module or line != code.co_firstlineno)}


def _trace(frame, event, arg):
    code = frame.f_code
    lines = _lines_of.get(code.co_filename, False)
    if lines is False:  # the first frame of this file
        path = os.path.realpath(code.co_filename)
        inside = os.path.dirname(path) == PACKAGE
        lines = _lines_of[code.co_filename] = _reached.setdefault(path, set()) if inside else None
    if lines is None:
        return None
    entry = _pending.get(id(code))
    if entry is None:  # the entry keeps the code object, so its id is not reused
        entry = _pending[id(code)] = (code, _code_lines(code, code.co_name == "<module>") - lines)
    pending = entry[1]
    if not pending:  # every line of this code has run: no line events
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
            pending.discard(frame.f_lineno)
            if not pending:
                frame.f_trace_lines = False
        return local
    return local


def _executable_lines(path: str) -> set[int]:
    with open(path, encoding="utf-8") as handle:
        code = compile(handle.read(), path, "exec")
    lines, stack = set(), [(code, True)]
    while stack:
        co, is_module = stack.pop()
        lines |= _code_lines(co, is_module)
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


def describe(path: str, line: int) -> str:
    """`path:line: source`, with path relative to the repository root."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read().splitlines()[line - 1].strip()
    return f"{os.path.relpath(path, os.path.dirname(os.path.dirname(PACKAGE)))}:{line}: {source}"


def stop() -> None:
    """Stop tracing this thread and the threads started from now on."""
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    stop()
    missed = unreached()
    terminalreporter.write_sep("-", f"unreached lines of src/wavekit: {len(missed)}")
    for path, line in missed:
        terminalreporter.write_line(describe(path, line))


sys.settrace(_trace)
threading.settrace(_trace)
atexit.register(stop)  # before interpreter teardown empties this module
