"""Import floor: wavekit and its CLI load scipy only where it is called.

Only the L-BFGS optimizer (scipy.optimize) and the wideband Doppler curve
(a scipy spline) call it; Nelder-Mead is a numpy port.

Each check runs in a fresh interpreter, since this test process has
scipy loaded already.  The child prints the scipy modules it ended with.
"""

import json
import subprocess
import sys

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
                    {"name": "cw", "waveform": {"kind": "cw", "duration_s": 1.0}}]}, []),
]
NM_OPTIMIZE = {"command": "optimize",
               "problem": {"num_harmonics": 1, "duration_s": 1.0, "bandwidth_hz": 16.0,
                           "sample_rate_hz": 128.0, "budget": 10, "seed": 1,
                           "method": "nelder_mead", "initial": "nlfm"}}


def _scipy_modules_after(code: str) -> set:
    """Run code in a fresh interpreter; the scipy modules it leaves loaded."""
    script = code + ("\nimport json, sys\n"
                     "print(json.dumps(sorted(m for m in sys.modules"
                     " if m.split('.')[0] == 'scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


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
    assert _scipy_modules_after("import wavekit") == set()


def test_import_wavekit_cli_loads_no_scipy():
    assert _scipy_modules_after("import wavekit.cli") == set()


def test_cli_commands_without_an_optimizer_load_no_scipy(tmp_path):
    assert _scipy_modules_after(_cli_runs(tmp_path, CLI_RUNS)) == set()
    for i in range(len(CLI_RUNS)):
        assert any((tmp_path / f"out{i}").iterdir())
    assert (tmp_path / "out0" / "waveform.wav").exists()


def test_nelder_mead_optimize_from_nlfm_loads_no_scipy(tmp_path):
    assert _scipy_modules_after(_cli_runs(tmp_path, [(NM_OPTIMIZE, [])])) == set()
    assert (tmp_path / "out0" / "optimize_result.json").exists()


def test_lbfgs_optimize_loads_scipy_optimize_only(tmp_path):
    lbfgs = {**NM_OPTIMIZE, "problem": {**NM_OPTIMIZE["problem"], "method": "lbfgs"}}
    loaded = _scipy_modules_after(_cli_runs(tmp_path, [(lbfgs, [])]))
    assert "scipy.optimize" in loaded
    assert not {m for m in loaded
                if m.split(".")[:2] in (["scipy", "signal"], ["scipy", "interpolate"],
                                        ["scipy", "io"])}
