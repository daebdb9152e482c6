"""Import floor: wavekit and its CLI run on numpy alone, and load only what
they use.

No command and no optimizer loads scipy: Nelder-Mead and L-BFGS are
numpy loops, and the wideband Doppler curve and time-scaled echoes use a
numpy spline.  scipy stays a test oracle only.  `import wavekit` loads no
submodule, only the `optimize` command loads `wavekit.optimize`, only
`simulate` loads `wavekit.scene`, and no command loads `numpy.ma`, which
numpy's unique and median would import.

Each check runs in a fresh interpreter, since this test process has
scipy loaded already.  The child prints the scipy, wavekit and numpy.ma
modules it ended with, or runs with scipy made unimportable.
"""

import json
import subprocess
import sys

import pytest

import wavekit as wk
from conftest import child_env

LFM = {"kind": "lfm", "bandwidth_hz": 16.0, "duration_s": 1.0}
CLI_RUNS = [
    ({"command": "synth", "waveform": LFM, "sample_rate_hz": 128.0},
     ["--format", "csv,json,wav"]),
    ({"command": "analyze", "waveform": LFM, "sample_rate_hz": 128.0}, []),
    ({"command": "simulate", "waveform": LFM, "sample_rate_hz": 128.0,
      "scene": {"benchmark_bandwidth_hz": 16.0}, "dopplers_hz": [0.0, 1.0]}, []),
    ({"command": "compare", "sample_rate_hz": 128.0, "num_doppler_points": 3,
      "waveforms": [{"name": "lfm", "waveform": LFM},
                    {"name": "cw", "waveform": {"kind": "cw", "duration_s": 1.0}},
                    {"name": "costas", "waveform": {"kind": "costas_fsk", "prime": 5,
                                                    "generator": 2, "duration_s": 1.0}}]},
     []),
]
OPTIMIZE = {"command": "optimize",
               "problem": {"num_harmonics": 1, "duration_s": 1.0, "bandwidth_hz": 16.0,
                           "sample_rate_hz": 128.0, "budget": 10, "seed": 1,
                           "method": "nelder_mead", "initial": "nlfm"}}


def _modules_after(code: str) -> set:
    """Run code in a fresh interpreter; the scipy, wavekit and numpy.ma modules
    it leaves loaded."""
    script = code + ("\nimport json, sys\n"
                     "print(json.dumps(sorted(m for m in sys.modules"
                     " if m.split('.')[0] in ('scipy', 'wavekit')"
                     " or m.split('.')[:2] == ['numpy', 'ma'])))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _scipy_modules_after(code: str) -> set:
    """Run code in a fresh interpreter; the scipy modules it leaves loaded."""
    return {m for m in _modules_after(code) if m.split(".")[0] == "scipy"}


def _cli_runs(tmp_path, runs) -> str:
    """Child code that runs wavekit.cli.main once per (config, extra args)."""
    calls = []
    for i, (config, extra) in enumerate(runs):
        path = tmp_path / f"config{i}.json"
        path.write_text(json.dumps(config))
        argv = [config["command"], "--config", str(path),
                "--out", str(tmp_path / f"out{i}"), *extra]
        calls.append(f"assert main({argv!r}) == 0")
    return "from wavekit.cli import main\n" + "\n".join(calls) + "\n"


def test_import_wavekit_loads_no_scipy():
    """Nor any wavekit submodule: the namespace imports each on first use."""
    assert _modules_after("import wavekit") == {"wavekit"}


def test_import_wavekit_cli_loads_no_scipy():
    """Nor the optimizer, which only the optimize command imports."""
    loaded = _modules_after("import wavekit.cli")
    assert loaded and all(m.split(".")[0] == "wavekit" for m in loaded)
    assert "wavekit.optimize" not in loaded


def test_cli_commands_without_an_optimizer_load_no_scipy(tmp_path):
    """synth, analyze, simulate and compare load neither scipy nor
    wavekit.optimize nor numpy.ma."""
    loaded = _modules_after(_cli_runs(tmp_path, CLI_RUNS))
    assert "wavekit.cli" in loaded
    assert all(m.split(".")[0] == "wavekit" for m in loaded)
    assert "wavekit.optimize" not in loaded
    for i in range(len(CLI_RUNS)):
        assert any((tmp_path / f"out{i}").iterdir())
    assert (tmp_path / "out0" / "waveform.wav").exists()


@pytest.mark.parametrize("run", CLI_RUNS + [(OPTIMIZE, [])],
                         ids=lambda run: run[0]["command"])
def test_only_simulate_loads_the_scene_module(tmp_path, run):
    """Each command in its own interpreter."""
    loaded = _modules_after(_cli_runs(tmp_path, [run]))
    assert ("wavekit.scene" in loaded) == (run[0]["command"] == "simulate")


WIDEBAND = """
import numpy as np
import wavekit as wk
hfm = wk.synth_hfm(40.0, 80.0, 1.0, 512.0)
wk.doppler_tolerance_curve(hfm, np.linspace(0.0, 8.0, 5), mode="wideband")
scene = wk.EchoScene(echoes=(wk.Echo(0.1, 0.0, 0.0, time_scale=1.01),))
wk.simulate_returns(hfm, scene, seed=0)
"""


def test_wideband_curve_and_time_scaled_echoes_load_no_scipy():
    assert _scipy_modules_after(WIDEBAND) == set()


def _optimize_config(method: str) -> dict:
    return {**OPTIMIZE, "problem": {**OPTIMIZE["problem"], "method": method}}


@pytest.mark.parametrize("method", ["nelder_mead", "gradient_descent", "lbfgs"])
def test_optimize_from_nlfm_loads_no_scipy(tmp_path, method):
    """Nor numpy.ma; the optimize command does load wavekit.optimize."""
    loaded = _modules_after(_cli_runs(tmp_path, [(_optimize_config(method), [])]))
    assert "wavekit.optimize" in loaded
    assert all(m.split(".")[0] == "wavekit" for m in loaded)
    assert (tmp_path / "out0" / "optimize_result.json").exists()


# A meta-path finder, first in line, that refuses every scipy module, as if
# scipy were not installed.
NO_SCIPY = """
import sys
class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"No module named {name!r}")
sys.meta_path.insert(0, _NoScipy())
"""


def test_commands_run_with_scipy_unimportable(tmp_path):
    """synth, analyze, simulate, compare and an L-BFGS optimize each exit 0,
    without a traceback, in an interpreter that cannot import scipy."""
    runs = CLI_RUNS + [(_optimize_config("lbfgs"), [])]
    code = NO_SCIPY + _cli_runs(tmp_path, runs) + (
        "try:\n    import scipy\nexcept ImportError:\n    pass\n"
        "else:\n    raise SystemExit('scipy was importable')\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    for i in range(len(runs)):
        assert any((tmp_path / f"out{i}").iterdir())


def test_import_wavekit_starts_no_thread():
    """The row kernels start their threads per call: importing wavekit or its
    CLI starts none and loads no thread pool module."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, threading\nimport wavekit, wavekit.cli\n"
         "print(threading.active_count(), 'concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False"]


def test_namespace_resolves_names_and_submodules_on_first_use(monkeypatch):
    """A public name is fetched from its submodule and kept in the namespace;
    a submodule resolves as an attribute; any other name is an AttributeError."""
    from wavekit import metrics, waveforms

    monkeypatch.delattr(wk, "synth_lfm")
    monkeypatch.delattr(wk, "metrics")
    assert "synth_lfm" not in vars(wk)
    assert wk.synth_lfm is waveforms.synth_lfm
    assert vars(wk)["synth_lfm"] is waveforms.synth_lfm
    assert wk.metrics is metrics
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(wk, "no_such_name")
    assert not hasattr(wk, "DB_FLOOR")  # a submodule's unlisted name stays there


def test_dir_lists_every_public_name_and_submodule():
    names = dir(wk)
    assert names == sorted(names)
    assert set(wk.__all__) <= set(names)
    assert {"__version__", "metrics", "optimize", "signal"} <= set(names)
