"""Every executable line of the traced modules of src/wavekit is reached by their tests.

The test modules that reach them run once, in a child interpreter under
`tools.linetrace`, which prints each unreached line of src/wavekit as
`path:line: source`.  The allow-list of lines left unreached in a traced
module is empty: a line no test reaches gets a test or is deleted.  This
module is not in the child's run, so the child does not start itself again.
"""

import pathlib
import subprocess
import sys

import pytest

from conftest import child_env

ROOT = pathlib.Path(__file__).resolve().parents[1]
# test_scene.py reaches the one-dimension check of `metrics._doppler_grid`
# (a 2-D Doppler grid given to mf_bank) and test_numeric_rule.py `to_db`'s NaN
# refusal; test_waveforms.py and test_costas.py reach the refusals of their
# own modules.  Together they reach every line of the six.
MODULES = ("tests/test_metrics.py", "tests/test_scene.py", "tests/test_signal.py",
           "tests/test_numeric_rule.py", "tests/test_waveforms.py", "tests/test_costas.py")
TRACED = ("metrics.py", "scene.py", "signal.py", "waveforms.py", "costas.py", "errors.py")


@pytest.fixture(scope="module")
def unreached_lines():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "tools.linetrace", *MODULES],
        cwd=ROOT, capture_output=True, text=True, stdin=subprocess.DEVNULL,
        env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert "unreached lines of src/wavekit" in proc.stdout, proc.stdout[-4000:]
    return proc.stdout.splitlines()


@pytest.mark.slow
@pytest.mark.parametrize("module", TRACED)
def test_every_line_is_reached(unreached_lines, module):
    assert [line for line in unreached_lines if line.startswith(f"src/wavekit/{module}:")] == []
