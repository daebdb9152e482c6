"""The bitwise contract: wavekit's outputs match tests/golden.json.

`tools/golden.py --print` runs in a child interpreter (it holds BLAS and
OpenMP to one thread before numpy loads) and reports, for each artifact,
its sha256 and a numeric summary.  On a machine whose dispatch key
golden.json holds, every sha256 must match.  On any machine, each summary
must match within golden.json's tolerance, so the test never skips.  A
change that means to alter outputs regenerates golden.json with the tool.
"""

import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "golden.json").read_text())


@pytest.fixture(scope="module")
def computed():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "golden.py"), "--print"],
                          capture_output=True, text=True, stdin=subprocess.DEVNULL,
                          env=child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_the_same_artifacts_are_made(computed):
    assert sorted(computed["artifacts"]) == sorted(GOLDEN["summaries"])


@pytest.mark.parametrize("name", sorted(GOLDEN["summaries"]))
def test_artifact_matches_golden(computed, name):
    got = computed["artifacts"][name]
    digests = GOLDEN["digests"].get(computed["key"])
    if digests is not None:
        assert got["sha256"] == digests[name]
    want = GOLDEN["summaries"][name]
    assert (got["rows"], len(got["columns"])) == (want["rows"], len(want["columns"]))
    for column, expected in zip(got["columns"], want["columns"]):
        if expected[0] == "text":
            assert column == expected
        else:
            np.testing.assert_allclose(column, expected, **GOLDEN["tolerance"])
