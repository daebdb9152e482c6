"""Every executable line of src/wavekit is reached by the suite.

tests/conftest.py imports `tools.linetrace` before wavekit, so the whole
session runs under its line tracer, module-level lines included.  The
reach test, one case per module, runs last (conftest's collection hook puts
it there) and reads what the tracer recorded.  A line no test reaches gets
a test or is deleted.  The allow-list holds only lines that run in child
interpreters alone, and an entry the session does reach is stale and fails
too.  When the run holds less than the whole suite, the test skips and
says why.
"""

import ast
import os

import pytest

from conftest import subset_reason
from tools import linetrace

MODULES = sorted(entry for entry in os.listdir(linetrace.PACKAGE) if entry.endswith(".py"))
# (module, scope): the body of a module-level function, or of the module's
# `if __name__ == "__main__":` guard when scope is "__main__".
CHILD_ONLY = (
    ("cli.py", "run"),  # the console script's entry point: it ends the process
    ("cli.py", "__main__"),  # runs only as `python -m wavekit.cli`
)


def _body_lines(path: str, scope: str) -> set[int]:
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if (isinstance(node, ast.FunctionDef) and node.name == scope
                or isinstance(node, ast.If) and scope == "__main__"
                and ast.unparse(node.test) == "__name__ == '__main__'"):
            return {line for stmt in node.body for line in range(stmt.lineno, stmt.end_lineno + 1)}
    raise LookupError(f"{path} has no {scope}")


@pytest.mark.parametrize("module", MODULES)
def test_every_line_is_reached(request, module):
    reason = subset_reason(request.config)
    if reason:
        pytest.skip(f"line reach needs the whole suite; this run has less: {reason}")
    after = request.session.items[request.session.items.index(request.node) + 1:]
    if any(getattr(item, "originalname", None) != request.node.originalname for item in after):
        pytest.skip("a plugin reordered the run: tests come after this one")
    path = os.path.join(linetrace.PACKAGE, module)
    missed = {where for where in linetrace.unreached() if where[0] == path}
    allowed = set()
    for scope in (scope for entry, scope in CHILD_ONLY if entry == module):
        body = _body_lines(path, scope) & linetrace._executable_lines(path)
        lines = {(path, line) for line in body}
        assert [linetrace.describe(*where) for where in sorted(lines - missed)] == [], \
            f"stale allow-list entry {module} {scope}: these lines run in-process"
        allowed |= lines
    assert [linetrace.describe(*where) for where in sorted(missed - allowed)] == []


def test_tracer_reports_the_lines_that_never_ran(tmp_path, monkeypatch):
    """Module-level lines count, a def's first line belongs to the scope
    that runs the def, a line that never runs is reported, and the last
    line of a function to run is recorded."""
    package = os.path.realpath(tmp_path)
    path = os.path.join(package, "sample.py")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("def used(a):\n"       # 1: run by the module, as the def
                     "    if a:\n"          # 2
                     "        return 1\n"   # 3: never runs
                     "    return 2\n"       # 4
                     "def unused():\n"      # 5: run by the module, as the def
                     "    return 0\n"       # 6: never runs
                     "X = used(0)\n")       # 7
    assert linetrace._executable_lines(path) == {1, 2, 3, 4, 5, 6, 7}
    monkeypatch.setattr(linetrace, "PACKAGE", package)
    monkeypatch.setattr(linetrace, "_reached", {})
    namespace = {}
    with open(path, encoding="utf-8") as handle:
        exec(compile(handle.read(), path, "exec"), namespace)
    assert linetrace.unreached() == [(path, 3), (path, 6)]
    namespace["used"](1)
    assert linetrace.unreached() == [(path, 6)]
