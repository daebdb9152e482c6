"""Every executable line of src/wavekit/metrics.py is reached by its tests.

The test modules that reach metrics.py run in a child interpreter under
`tools.linetrace`, which prints each unreached line of src/wavekit as
`path:line: source`.  The allow-list of metrics.py lines left unreached is
empty: a line no test reaches gets a test or is deleted.  This module is not
in the child's run, so the child does not start itself again.
"""

import pathlib
import subprocess
import sys

import pytest

from conftest import child_env

ROOT = pathlib.Path(__file__).resolve().parents[1]
# test_scene.py reaches the one-dimension check of `metrics._doppler_grid`
# (a 2-D Doppler grid given to mf_bank); test_metrics.py reaches the rest.
MODULES = ("tests/test_metrics.py", "tests/test_scene.py")


@pytest.mark.slow
def test_every_metrics_line_is_reached():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "tools.linetrace", *MODULES],
        cwd=ROOT, capture_output=True, text=True, stdin=subprocess.DEVNULL,
        env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert "unreached lines of src/wavekit" in proc.stdout, proc.stdout[-4000:]
    unreached = [line for line in proc.stdout.splitlines()
                 if line.startswith("src/wavekit/metrics.py:")]
    assert unreached == []
