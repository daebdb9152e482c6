"""End-to-end CLI runs: temp configs in, CSV/JSON/WAV artifacts out."""

import json
import os
import pathlib
import re
import resource
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource
from scipy.io import wavfile

import wavekit as wk
import wavekit.cli as wk_cli
import wavekit.fileio as wk_fileio
import wavekit.metrics as wk_metrics
from wavekit import config
from wavekit.cli import main
from wavekit.config import load_mtsfm_coefficients
from wavekit.scene import _window_samples
from wavekit.signal import _MAX_SAMPLES

from conftest import child_env

SCHEMA_DIR = pathlib.Path(__file__).resolve().parents[1] / "docs" / "schemas"
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _validator(schema_name):
    contents = {p.name: json.loads(p.read_text())
                for p in SCHEMA_DIR.glob("*.schema.json")}
    resources = [Resource.from_contents(c) for c in contents.values()]
    registry = Registry().with_resources([(r.id(), r) for r in resources])
    return Draft202012Validator(contents[schema_name], registry=registry)


def _config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _csv(path):
    lines = pathlib.Path(path).read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _assert_single_header(path):
    lines = pathlib.Path(path).read_text().splitlines()
    assert lines.count(lines[0]) == 1


CW_SYNTH = {"command": "synth",
            "waveform": {"kind": "cw", "duration_s": 1.0},
            "sample_rate_hz": 1000.0}


# ----------------------------------------------------------------------- synth

def test_synth_writes_csv_json_and_wav(tmp_path):
    cfg = _config(tmp_path, CW_SYNTH)
    out = tmp_path / "out"
    assert main(["synth", "--config", cfg, "--out", str(out),
                 "--format", "csv,json,wav"]) == 0

    header, rows = _csv(out / "waveform.csv")
    assert header == ["index", "t_s", "re", "im"]
    assert len(rows) == 1000
    _assert_single_header(out / "waveform.csv")
    assert rows[0][0] == "0"
    assert float(rows[0][1]) == pytest.approx(0.0005, abs=1e-9)
    assert float(rows[0][2]) == pytest.approx(1.0 / np.sqrt(1000.0), abs=1e-6)
    assert float(rows[0][3]) == 0.0

    metrics = json.loads((out / "metrics.json").read_text())
    _validator("metrics.schema.json").validate(metrics)
    assert metrics["tbp"] == pytest.approx(2.0)  # CW: B = 2/T
    assert metrics["sample_rate_hz"] == 1000.0

    rate, data = wavfile.read(out / "waveform.wav")
    assert rate == 1000
    assert data.dtype == np.float32
    assert data.shape == (1000,)


def test_artifacts_get_the_umask_file_mode(tmp_path):
    cfg = _config(tmp_path, CW_SYNTH)
    out = tmp_path / "out"
    assert main(["synth", "--config", cfg, "--out", str(out), "--format", "csv"]) == 0
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE((out / "waveform.csv").stat().st_mode) == 0o666 & ~umask


def test_synth_format_filter_limits_outputs(tmp_path):
    cfg = _config(tmp_path, CW_SYNTH)
    out = tmp_path / "csv_only"
    assert main(["synth", "--config", cfg, "--out", str(out),
                 "--format", "csv"]) == 0
    assert (out / "waveform.csv").exists()
    assert not (out / "metrics.json").exists()
    assert not (out / "waveform.wav").exists()

    out2 = tmp_path / "json_only"
    assert main(["synth", "--config", cfg, "--out", str(out2),
                 "--format", "json"]) == 0
    assert not (out2 / "waveform.csv").exists()
    assert (out2 / "metrics.json").exists()


# --------------------------------------------------------------------- analyze

def test_analyze_bundle(tmp_path):
    cfg = _config(tmp_path, {"command": "analyze",
                             "waveform": {"kind": "cw", "duration_s": 1.0},
                             "sample_rate_hz": 256.0})
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    for name in ("spectrum.csv", "spectrogram.csv", "autocorrelation.csv",
                 "ambiguity.csv", "metrics.json"):
        assert (out / name).exists()
        if name.endswith(".csv"):
            _assert_single_header(out / name)

    header, rows = _csv(out / "spectrum.csv")
    assert header == ["f_hz", "db"]
    freqs = np.array([float(r[0]) for r in rows])
    dbs = np.array([float(r[1]) for r in rows])
    assert abs(freqs[np.argmax(dbs)]) <= 0.5  # CW line at DC
    assert dbs.max() == 0.0

    header, rows = _csv(out / "autocorrelation.csv")
    assert header == ["lag_s", "db"]
    by_lag = {float(r[0]): float(r[1]) for r in rows}
    assert by_lag[0.0] == 0.0

    header, rows = _csv(out / "ambiguity.csv")
    assert header == ["tau_s", "nu_hz", "db"]
    surface = {(float(r[0]), float(r[1])): float(r[2]) for r in rows}
    assert surface[(0.0, 0.0)] == 0.0
    for tau, nu in [(0.25, 5.0), (0.125, -2.5), (0.5, 10.0)]:
        assert surface[(tau, nu)] == pytest.approx(surface[(-tau, -nu)],
                                                   abs=1.1e-6)


# -------------------------------------------------------------------- optimize

OPT_CONFIG = {"command": "optimize",
              "problem": {"num_harmonics": 4, "duration_s": 1.0,
                          "bandwidth_hz": 64.0, "sample_rate_hz": 512.0,
                          "budget": 300, "seed": 1}}


def _problem(**keys):
    return {"command": "optimize", "problem": {**OPT_CONFIG["problem"], **keys}}


def test_optimize_bundle_and_round_trip(tmp_path):
    cfg = _config(tmp_path, OPT_CONFIG)
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0

    params = load_mtsfm_coefficients(str(out / "coefficients.json"))
    assert params.num_harmonics == 4
    # coefficients.json holds K as a JSON integer, so the property must be a Python int.
    assert type(params.num_harmonics) is int
    written = json.loads((out / "coefficients.json").read_text())["num_harmonics"]
    assert type(written) is int and written == 4
    assert params.duration_s == 1.0

    doc = json.loads((out / "optimize_result.json").read_text())
    _validator("optimize_result.schema.json").validate(doc)
    assert doc["after_metrics"]["isl_db"] < doc["before_metrics"]["isl_db"]
    assert doc["evaluations_used"] <= 300

    header, rows = _csv(out / "trace.csv")
    assert header == ["evaluation", "objective_db"]
    evals = [int(r[0]) for r in rows]
    values = [float(r[1]) for r in rows]
    assert evals == sorted(evals)
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(doc["final_objective_db"], abs=1e-6)

    # Feeding the coefficients back through analyze (same region, same
    # zero padding) must reproduce the optimizer's final metrics.
    cfg2 = _config(tmp_path, {
        "command": "analyze",
        "waveform": {"kind": "mtsfm",
                     "coefficients_file": str(out / "coefficients.json")},
        "sample_rate_hz": 512.0,
        "region": {"inner_delay_s": 2.0 / 64.0, "outer_delay_s": 0.25},
    }, name="analyze.json")
    out2 = tmp_path / "out2"
    assert main(["analyze", "--config", cfg2, "--out", str(out2)]) == 0
    metrics = json.loads((out2 / "metrics.json").read_text())
    for key in ("psl_db", "isl_db", "rms_bandwidth_hz", "p99_bandwidth_hz"):
        assert metrics[key] == pytest.approx(doc["after_metrics"][key],
                                             abs=1e-12)


def test_optimize_rerun_is_byte_identical_and_seed_changes_it(tmp_path):
    cfg = _config(tmp_path, OPT_CONFIG)
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    assert main(["optimize", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["optimize", "--config", cfg, "--out", str(out_b)]) == 0
    for name in ("trace.csv", "coefficients.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert main(["optimize", "--config", cfg, "--out", str(out_c),
                 "--seed", "5"]) == 0
    assert (out_a / "trace.csv").read_bytes() != (out_c / "trace.csv").read_bytes()
    assert json.loads((out_c / "optimize_result.json").read_text())["seed"] == 5


@pytest.mark.parametrize("formats, reports", [("csv,json", 2), ("csv", 0)])
def test_optimize_computes_each_signal_metrics_once(tmp_path, monkeypatch, formats, reports):
    """The initial design's report serves before_metrics; the final one's serves
    after_metrics and metrics.json; the bandwidth target needs no report."""
    calls = []

    def counting_report(signal, *args, **kwargs):
        calls.append(signal.samples[:4].tobytes())
        return wk.metrics_report(signal, *args, **kwargs)

    monkeypatch.setattr(wk_cli, "metrics_report", counting_report)
    cfg = _config(tmp_path, OPT_CONFIG)
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out), "--format", formats]) == 0
    assert len(calls) == len(set(calls)) == reports
    if reports:
        doc = json.loads((out / "optimize_result.json").read_text())
        assert json.loads((out / "metrics.json").read_text()) == doc["after_metrics"]


@pytest.mark.parametrize("keys", [{}, {"bandwidth_target_hz": 20.0}],
                         ids=["initial_rms_target", "numeric_target"])
def test_optimize_region_without_lags_names_the_problem(tmp_path, capsys, keys):
    cfg = _config(tmp_path, _problem(sample_rate_hz=2048.0, region=_NO_LAG, **keys))
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: problem: region contains no lag samples\n"
    assert not (tmp_path / "o").exists()


_START = {"alpha": [0.0, 0.3, 0.0, 0.0], "beta": [16.0, 0.0, 0.0, 0.0]}


@pytest.mark.parametrize("keys", [
    {"method": "lbfgs"},
    {"method": "gradient_descent"},
    {"objective": "psl"},
    {"bandwidth_target_hz": 20.0},
    {"initial": _START},
], ids=["lbfgs", "gradient_descent", "psl", "numeric_bandwidth_target", "initial_dict"])
def test_optimize_key_reaches_the_minimizer(tmp_path, keys):
    cfg = _config(tmp_path, _problem(**keys))
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    doc = json.loads((out / "optimize_result.json").read_text())
    for key in ("method", "objective", "bandwidth_target_hz"):
        assert doc[key] == keys.get(key, doc[key])
    if "initial" in keys:
        initial = wk.MtsfmParameters(_START["alpha"], _START["beta"], 1.0)
    else:
        initial = wk.default_initial_parameters(64.0, 1.0, 4, seed=1)
    problem = wk.OptimizationProblem(
        initial=initial, region=wk.default_region(64.0, 1.0), objective=doc["objective"],
        bandwidth_target_hz=doc["bandwidth_target_hz"], bandwidth_tolerance=0.1,
        penalty_weight=1.0, budget=300, seed=1, sample_rate_hz=512.0)
    result = wk.optimize_waveform(problem, doc["method"])
    assert doc["initial_objective_db"] == result.initial_objective_db
    assert doc["final_objective_db"] == result.final_objective_db
    assert doc["evaluations_used"] == result.evaluations_used
    assert doc["stop_reason"] == result.stop_reason


# -------------------------------------------------------------------- simulate

def test_simulate_bundle(tmp_path):
    cfg = _config(tmp_path, {
        "command": "simulate",
        "waveform": {"kind": "lfm", "bandwidth_hz": 64.0, "duration_s": 1.0},
        "sample_rate_hz": 512.0,
        "scene": {"benchmark_bandwidth_hz": 64.0},
        "dopplers_hz": [0.0],
    })
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0

    doc = json.loads((out / "resolvability.json").read_text())
    _validator("resolvability.schema.json").validate(doc)
    assert doc["bandwidth_hz"] == 64.0
    assert doc["margin_db"] == 6.0
    assert isinstance(doc["all_detected"], bool)
    assert len(doc["echoes"]) == 6

    # window = last delay (6 * 8/64 = 0.75 s) + pulse -> 896 samples,
    # so the lag axis holds 896 + 512 - 1 = 1407 cells.
    _, cut_rows = _csv(out / "zero_doppler_cut.csv")
    assert len(cut_rows) == 1407
    _, rd_rows = _csv(out / "range_doppler.csv")
    assert len(rd_rows) == 1407  # one Doppler row
    _assert_single_header(out / "range_doppler.csv")


def test_simulate_rejects_empty_doppler_list(tmp_path):
    cfg = _config(tmp_path, {
        "command": "simulate",
        "waveform": {"kind": "lfm", "bandwidth_hz": 64.0, "duration_s": 1.0},
        "scene": {"benchmark_bandwidth_hz": 64.0},
        "dopplers_hz": [],
    })
    assert main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 2


def test_simulate_rejects_non_numeric_doppler_list(tmp_path, capsys):
    cfg = _config(tmp_path, {
        "command": "simulate",
        "waveform": {"kind": "lfm", "bandwidth_hz": 64.0, "duration_s": 1.0},
        "scene": {"benchmark_bandwidth_hz": 64.0},
        "dopplers_hz": [0.0, "fast"],
    })
    assert main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 2
    assert "'dopplers_hz' must contain numbers" in capsys.readouterr().err


# --------------------------------------------------------------------- compare

def test_compare_bundle(tmp_path):
    cfg = _config(tmp_path, {
        "command": "compare",
        "waveforms": [
            {"name": "lfm", "waveform": {"kind": "lfm", "bandwidth_hz": 256.0,
                                         "duration_s": 1.0}},
            {"name": "p4", "waveform": {"kind": "p4", "num_chips": 256,
                                        "duration_s": 1.0}},
        ],
    })
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0

    header, rows = _csv(out / "comparison.csv")
    assert header == ["name", "psl_db", "isl_db", "rms_bandwidth_hz",
                      "p99_bandwidth_hz", "inband_energy_fraction",
                      "doppler_loss_db"]
    assert [r[0] for r in rows] == ["lfm", "p4"]
    for row in rows:
        assert all(np.isfinite(float(cell)) for cell in row[1:])

    _, curve_rows = _csv(out / "doppler_curves.csv")
    assert len(curve_rows) == 2 * 16

    doc = json.loads((out / "comparison.json").read_text())
    _validator("comparison.schema.json").validate(doc)
    assert doc["doppler_eval_hz"] == pytest.approx(0.1 * 256.0)
    assert len(doc["entries"]) == 2
    assert len(doc["entries"][0]["doppler_curve"]["loss_db"]) == 16


def test_compare_rejects_mixed_sample_rates(tmp_path):
    cfg = _config(tmp_path, {
        "command": "compare",
        "waveforms": [
            {"name": "a", "sample_rate_hz": 512.0,
             "waveform": {"kind": "lfm", "bandwidth_hz": 64.0,
                          "duration_s": 1.0}},
            {"name": "b", "sample_rate_hz": 1024.0,
             "waveform": {"kind": "lfm", "bandwidth_hz": 64.0,
                          "duration_s": 1.0}},
        ],
    })
    assert main(["compare", "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 2


# ------------------------------------------------------- keys with valid values

def _read(path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    if path.suffix == ".csv":
        return _csv(path)[1]
    return wavfile.read(path)[1]


def _peak_hz(data, rate):
    return float(np.argmax(np.abs(np.fft.rfft(data)))) * rate / data.size


_SIM64 = {"command": "simulate", "sample_rate_hz": 512.0,
          "waveform": {"kind": "lfm", "bandwidth_hz": 64.0, "duration_s": 1.0},
          "scene": {"benchmark_bandwidth_hz": 64.0}}
_COMPARE64 = {"command": "compare", "sample_rate_hz": 512.0, "waveforms": [
    {"name": kind, "waveform": {"kind": kind, "bandwidth_hz": 64.0, "duration_s": 1.0,
                                "center_freq_hz": 128.0}} for kind in ("lfm", "hfm")]}


def _synth(waveform, **keys):
    return {"command": "synth", "sample_rate_hz": 1000.0, "waveform": waveform, **keys}


@pytest.mark.parametrize("config, flags, artifact, read, expected", [
    (_synth({"kind": "costas_fsk", "duration_s": 1.0, "code": [1, 3, 4, 2, 5]}), [],
     "metrics.json", lambda m: m["bandwidth_hz"], 25.0),
    (_synth({"kind": "costas_fsk", "duration_s": 1.0, "prime": 7, "generator": 3}), [],
     "metrics.json", lambda m: m["bandwidth_hz"], 36.0),
    (_synth({"kind": "geometric_comb", "duration_s": 1.0, "bandwidth_hz": 48.0,
             "num_tones": 4, "tone_ratio": 1.5}), [],
     "metrics.json", lambda m: (m["bandwidth_hz"], m["tbp"]), (48.0, 48.0)),
    (_synth({"kind": "cw", "duration_s": 1.0}, wav_carrier_hz=100.0), ["--format", "wav"],
     "waveform.wav", lambda w: _peak_hz(w, 1000.0), 100.0),
    ({**_SIM64, "doppler_span_hz": 8.0, "num_dopplers": 5}, [],
     "range_doppler.csv", lambda rows: sorted({float(r[1]) for r in rows}),
     [-4.0, -2.0, 0.0, 2.0, 4.0]),
    ({**_SIM64, "doppler_span_hz": 8.0, "num_dopplers": 1}, [],
     "range_doppler.csv", lambda rows: sorted({r[1] for r in rows}), ["0.000000"]),
    ({**_SIM64, "dopplers_hz": [0.0], "window_s": 2.0}, [],
     "zero_doppler_cut.csv", len, 2 * 512 + 512 - 1),
    ({**_SIM64, "dopplers_hz": [0.0],
      "scene": {"benchmark_bandwidth_hz": 64.0, "first_delay_s": 0.25}}, [],
     "resolvability.json", lambda d: d["echoes"][0]["delay_s"], 0.25),
    ({**_COMPARE64, "doppler_mode": "wideband"}, [],
     "comparison.json", lambda d: d["entries"][1]["doppler_loss_db"]
     > d["entries"][0]["doppler_loss_db"] + 3.0, True),
    ({**_COMPARE64, "inband_bandwidth_hz": 32.0}, [],
     "comparison.json", lambda d: 0.4 < d["entries"][0]["inband_energy_fraction"] < 0.6, True),
], ids=["costas_code", "costas_prime_generator", "geometric_comb", "wav_carrier_hz",
        "doppler_span_and_count", "doppler_count_one", "window_s", "first_delay_s",
        "wideband_doppler_mode", "inband_bandwidth_hz"])
def test_config_key_takes_effect(tmp_path, config, flags, artifact, read, expected):
    out = tmp_path / "out"
    assert main([config["command"], "--config", _config(tmp_path, config),
                 "--out", str(out), *flags]) == 0
    assert read(_read(out / artifact)) == expected


def test_null_optional_keys_read_as_defaults(tmp_path):
    """An explicit null where a key defaults to None, or an optional subtree is
    null, gives the same artifacts as leaving the key out."""
    base = {"command": "analyze", "waveform": {"kind": "cw", "duration_s": 1.0},
            "sample_rate_hz": 256.0}
    nulls = {**base, "region": None, "spectrogram": None, "ambiguity": None}
    outs = []
    for i, doc in enumerate([base, nulls]):
        outs.append(tmp_path / f"out{i}")
        assert main(["analyze", "--config", _config(tmp_path, doc, f"c{i}.json"),
                     "--out", str(outs[-1])]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# ------------------------------------------------------------------ exit codes

def test_unknown_config_key_exits_2(tmp_path):
    cfg = _config(tmp_path, {**CW_SYNTH, "bogus": 1})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_unknown_waveform_kind_exits_2(tmp_path):
    cfg = _config(tmp_path, {"command": "synth",
                             "waveform": {"kind": "zap", "duration_s": 1.0}})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_comb_tone_ratio_below_one_is_a_waveform_error(tmp_path, capsys):
    cfg = _config(tmp_path, {"command": "synth",
                             "waveform": {"kind": "geometric_comb", "bandwidth_hz": 38.0,
                                          "duration_s": 1.0, "num_tones": 4,
                                          "tone_ratio": 0.5}})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: waveform: ") and "tone_ratio" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("waveform, key", [
    ({"kind": "cw", "duration_s": float("inf")}, "duration_s"),
    ({"kind": "lfm", "bandwidth_hz": float("nan"), "duration_s": 1.0}, "bandwidth_hz"),
    ({"kind": "cw", "duration_s": 10**400}, "duration_s"),
], ids=["infinite_duration", "nan_bandwidth", "integer_beyond_float_range"])
def test_non_finite_config_number_exits_2(tmp_path, capsys, waveform, key):
    cfg = _config(tmp_path, {"command": "synth", "waveform": waveform})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"'{key}' must be finite" in err
    assert "Traceback" not in err


_BAD_UTF8 = b'{"command": "synth", "waveform": {"kind": "cw", "duration_s": 1.0}, "x": "\xff"}'


def _coefficients_file(value):
    return {"command": "synth", "waveform": {"kind": "mtsfm", "coefficients_file": value}}


_FROM_COEFFICIENTS = _coefficients_file("coefficients.json")


def _costas_code(code):
    return {"command": "synth",
            "waveform": {"kind": "costas_fsk", "duration_s": 1.0, "code": code}}


def _initial(alpha):
    return {"command": "optimize",
            "problem": {"num_harmonics": 1, "duration_s": 1.0, "bandwidth_hz": 16.0,
                        "sample_rate_hz": 128.0, "budget": 1,
                        "initial": {"alpha": alpha, "beta": [0.0]}}}


def _dopplers(dopplers):
    return {"command": "simulate", "sample_rate_hz": 128.0,
            "waveform": {"kind": "lfm", "bandwidth_hz": 16.0, "duration_s": 1.0},
            "scene": {"benchmark_bandwidth_hz": 16.0}, "dopplers_hz": dopplers}


def _compare_name(name):
    cw = {"kind": "cw", "duration_s": 1.0}
    return {"command": "compare", "sample_rate_hz": 128.0,
            "waveforms": [{"name": "a", "waveform": cw}, {"name": name, "waveform": cw}]}


def _inline_mtsfm(beta):
    return {"command": "synth",
            "waveform": {"kind": "mtsfm", "duration_s": 1.0, "alpha": [0.1], "beta": beta}}


def _late(command, **keys):
    """A config whose error shows only after the run has computed an artifact."""
    return {"command": command, "sample_rate_hz": 2048.0,
            "waveform": {"kind": "lfm", "bandwidth_hz": 256.0, "duration_s": 1.0}, **keys}


def _comb(**keys):
    return {"command": "synth", "waveform": {"kind": "geometric_comb", "bandwidth_hz": 100.0,
                                             "duration_s": 1.0, "num_tones": 4,
                                             "tone_ratio": 1.5, **keys}}


_NO_LAG = {"inner_delay_s": 0.5001, "outer_delay_s": 0.5002}  # between two lags at 2048 Hz

# alpha's length disagrees with an external K: problem.num_harmonics, or a
# coefficients file's num_harmonics key.
_INITIAL_ALPHA_SHORT = _problem(initial={"alpha": [0.0] * 3, "beta": [0.0] * 4})
_COEFFICIENTS_K_MISMATCH = (b'{"num_harmonics": 2, "alpha": [0.1], "beta": [0.2], '
                            b'"duration_s": 1.0}')


@pytest.mark.parametrize("config, coefficients, key", [
    (b'{"command": "synth", "waveform": {"kind": "cw",', None, None),
    (_BAD_UTF8, None, None),
    (_FROM_COEFFICIENTS, b'{"alpha": [0.1], "beta": [0.2], "duration_s": 1.0, "x": "\xfe"}',
     None),
    (_FROM_COEFFICIENTS, b'{"alpha": [0.1], "beta": ', None),
    (_costas_code(["a", 2]), None, "code"),
    (_costas_code([2.9, 1.2]), None, "code"),
    (_costas_code([True, 2]), None, "code"),
    (_initial("xy"), None, "alpha"),
    (_initial(3), None, "alpha"),
    (_initial([10**400]), None, "alpha"),
    (_initial([True]), None, "alpha"),
    (_initial(["0.5"]), None, "alpha"),
    (_dopplers(["2.5", True]), None, "dopplers_hz"),
    (_dopplers([0.0, True]), None, "dopplers_hz"),
    (_inline_mtsfm(["2"]), None, "beta"),
    (_FROM_COEFFICIENTS, b'{"alpha": [0.1], "beta": [false], "duration_s": 1.0}', "beta"),
    (_compare_name("lfm,x"), None, "name"),
    (_compare_name("lfm\nx"), None, "name"),
    (_compare_name(7), None, "name"),
    (_compare_name(None), None, "name"),
    (_problem(seed=-1), None, "seed"),
    ({**_dopplers([0.0]), "seed": -1}, None, "seed"),
    ({**CW_SYNTH, "formats": [1]}, None, "formats"),
    ({**CW_SYNTH, "formats": ["csv", ["json"]]}, None, "formats"),
    (_problem(bandwidth_target_hz=float("inf")), None, "bandwidth_target_hz"),
    (_problem(bandwidth_target_hz=float("nan")), None, "bandwidth_target_hz"),
    (_problem(method=["lbfgs"]), None, None),
    (_late("synth", region=_NO_LAG), None, None),
    (_late("analyze", region=_NO_LAG), None, None),
    (_late("analyze", ambiguity={"max_delay_s": 1.5}), None, None),
    (_late("analyze", spectrogram={"overlap": 1.0}), None, None),
    (_late("analyze", spectrogram={"window_len_samples": 4096}), None, None),
    (_late("synth", wav_carrier_hz=1000.0, formats=["csv", "json", "wav"]), None, None),
    (_coefficients_file(["coefficients.json"]), None, "coefficients_file"),
    (_coefficients_file({}), None, "coefficients_file"),
    (_coefficients_file(2.5), None, "coefficients_file"),
    (_INITIAL_ALPHA_SHORT, None, None),
    (_FROM_COEFFICIENTS, _COEFFICIENTS_K_MISMATCH, None),
    (_comb(tone_ratio=1e300), None, "tone_ratio"),
    (_comb(num_tones=2000), None, "tone_ratio"),
    (_problem(initial="nlfm", nlfm_sidelobe_db=1e300), None, "nlfm_sidelobe_db"),
    ({**_dopplers([0.0]), "scene": {"echoes": [{"delay_s": 0.1, "level_db": 0.0}],
                                    "noise_level_db": 1e300}}, None, "noise_level_db"),
    ({"command": "analyze", "waveform": {"kind": "costas_fsk", "duration_s": 1e-300,
                                         "prime": 5, "generator": 2}}, None, None),
    ({**_FROM_COEFFICIENTS, "waveform": {**_FROM_COEFFICIENTS["waveform"], "duration_s": 1.0}},
     b'{"alpha": [0.1], "beta": [0.2], "duration_s": 2.0}', "duration_s"),
    ({"command": "optimize", "problem": {
        k: v for k, v in OPT_CONFIG["problem"].items() if k != "bandwidth_hz"}},
     None, "bandwidth_hz"),
    ({"command": "optimize", "problem": 5}, None, "problem"),
    (_late("analyze", spectrogram=[0.5]), None, "spectrogram"),
    ({"command": "synth", "waveform": {"kind": 3, "duration_s": 1.0}}, None, "kind"),
    ({"command": "synth", "waveform": {"kind": "mtsfm", "alpha": [0.1], "beta": [0.2]}},
     None, "duration_s"),
    ({**_dopplers([0.0]), "scene": {"echoes": {"delay_s": 0.1, "level_db": 0.0}}},
     None, "echoes"),
    ({**_compare_name("b"), "waveforms": _compare_name("b")["waveforms"][:1]}, None, "waveforms"),
    (_problem(initial="lfm"), None, "initial"),
    (b"[" * 100000, None, None),
    (_FROM_COEFFICIENTS, b"[" * 100000, None),
], ids=["truncated_config", "non_utf8_config", "non_utf8_coefficients",
        "truncated_coefficients", "costas_code_string", "costas_code_float",
        "costas_code_bool", "initial_alpha_string", "initial_alpha_number",
        "initial_alpha_beyond_float_range", "initial_alpha_bool",
        "initial_alpha_string_entry", "dopplers_string_and_bool", "dopplers_bool",
        "inline_beta_string", "coefficients_beta_bool", "compare_name_comma",
        "compare_name_newline", "compare_name_number", "compare_name_null",
        "optimize_negative_seed", "noiseless_simulate_negative_seed", "formats_number",
        "formats_nested_list", "infinite_bandwidth_target", "nan_bandwidth_target",
        "method_list", "synth_region_without_lags", "analyze_region_without_lags",
        "ambiguity_delay_beyond_duration", "spectrogram_full_overlap",
        "spectrogram_window_beyond_signal", "wav_carrier_beyond_nyquist",
        "coefficients_file_list", "coefficients_file_object", "coefficients_file_number",
        "initial_alpha_length", "coefficients_num_harmonics_mismatch",
        "comb_tone_ratio_power_overflow", "comb_num_tones_power_overflow",
        "nlfm_sidelobe_db_power_overflow",
        "noise_level_db_power_overflow", "costas_tiny_duration_huge_rate",
        "duration_disagrees_with_coefficients", "missing_required_key",
        "subtree_not_an_object", "optional_subtree_not_an_object", "kind_not_a_string", "inline_mtsfm_without_duration",
        "echoes_not_a_list", "compare_single_waveform", "unknown_initial",
        "config_nested_past_the_parser_limit", "coefficients_nested_past_the_parser_limit"])
def test_malformed_config_exits_2(tmp_path, capsys, monkeypatch, config, coefficients, key):
    monkeypatch.chdir(tmp_path)
    if coefficients is not None:
        (tmp_path / "coefficients.json").write_bytes(coefficients)
    path = tmp_path / "config.json"
    if isinstance(config, bytes):
        path.write_bytes(config)
        command = "synth"
    else:
        path.write_text(json.dumps(config))
        command = config["command"]
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert key is None or f"'{key}'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config, message", [
    ({"command": "optimize", "problem": {
        k: v for k, v in OPT_CONFIG["problem"].items() if k != "bandwidth_hz"}},
     "error: problem: missing required key 'bandwidth_hz'"),
    ({"command": "optimize", "problem": 5}, "error: 'problem' must be a JSON object"),
    ({**_dopplers([0.0]), "scene": {"echoes": [3]}}, "error: 'scene.echoes[0]' must be a JSON object"),
    (_late("analyze", ambiguity={"num_delays": 1}), "error: ambiguity: 'num_delays'"),
    (_problem(initial={"alpha": [0.1] * 4}), "error: problem.initial: missing required key 'beta'"),
], ids=["problem_key", "problem_not_an_object", "echo_not_an_object", "ambiguity_key",
        "initial_key"])
def test_config_messages_name_a_subtree_by_its_path(tmp_path, capsys, config, message):
    """A subtree's messages name it by its path from the document, as the
    readers of 'waveform', 'scene' and 'problem.initial' do, never 'config.problem';
    a subtree that is not an object is named by its quoted path."""
    assert main([config["command"], "--config", _config(tmp_path, config),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "config." not in err


@pytest.mark.parametrize("config, flags, key", [
    (OPT_CONFIG, ["--out", "o", "--seed", "-2"], "seed"),
    ({**_dopplers([0.0]), "scene": {"echoes": [{"delay_s": 0.1, "level_db": 0.0}],
                                    "noise_level_db": -30.0}},
     ["--out", "o", "--seed", "-2"], "seed"),
    ({**CW_SYNTH, "output_dir": 5}, [], "output_dir"),
    ({**CW_SYNTH, "output_dir": "o\u0000x"}, [], "output_dir"),
], ids=["optimize_seed_flag", "noisy_simulate_seed_flag", "output_dir_number", "output_dir_nul"])
def test_malformed_run_option_exits_2(tmp_path, capsys, monkeypatch, config, flags, key):
    monkeypatch.chdir(tmp_path)
    path = _config(tmp_path, config)
    assert main([config["command"], "--config", path, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{key}'" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("value", [True, 0], ids=["true", "zero"])
def test_coefficients_file_descriptor_number_exits_2(tmp_path, value):
    """open() takes an int (or bool) as a file descriptor; the reader must
    reject it first.  A child process, so that no descriptor of the test
    process can be read or closed."""
    cfg = _config(tmp_path, _coefficients_file(value))
    proc = subprocess.run(
        [sys.executable, "-m", "wavekit.cli", "synth", "--config", cfg,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, stdin=subprocess.DEVNULL, env=child_env())
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "'coefficients_file'" in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("prime", [1000000000000000003, 4099, 100003],
                         ids=["past_the_library_cap", "first_prime_past_the_sample_cap",
                              "p_100003"])
def test_costas_prime_above_the_cap_exits_2_at_once(tmp_path, prime):
    """A code of p - 1 chips past the sample cap is refused before it is
    built: trial division of the first prime would take about 5e8 steps, and
    building and checking the code of p = 100003 about 15 minutes.  A child
    process with a timeout, so that a run which starts either fails instead
    of hanging."""
    cfg = _config(tmp_path, {"command": "analyze", "waveform": {
        "kind": "costas_fsk", "prime": prime, "generator": 2, "duration_s": 1.0}})
    proc = subprocess.run(
        [sys.executable, "-m", "wavekit.cli", "analyze", "--config", cfg,
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, stdin=subprocess.DEVNULL, env=child_env(), timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "'prime'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


def test_config_prime_cap_is_the_largest_code_within_the_sample_cap(monkeypatch):
    """N chips need 4N^2 samples, so N = 4096 (prime 4097, or a 4096-entry
    code) is the largest code within the sample cap: it reaches the
    builder, and one chip more is refused before it."""
    chips = 4096
    assert 4 * chips**2 == _MAX_SAMPLES
    built = []
    monkeypatch.setattr(config, "CostasCode", lambda sequence: built.append(len(sequence)))
    monkeypatch.setattr(config, "generate_welch_costas", lambda p, g: built.append(p - 1))
    for n in (chips, chips + 1):
        for waveform in ({"prime": n + 1, "generator": 2}, {"code": [1] * n}):
            tree = config._Tree(waveform, "waveform")
            if n == chips:
                config._parse_costas_code(tree)
            else:
                key = next(iter(waveform))
                with pytest.raises(wk.ConfigError, match=re.escape(
                        f"waveform: '{key}' ({n} chips, 4N^2 samples) asks for "
                        f"{4 * n * n:.6g} samples, above the cap of {_MAX_SAMPLES}")):
                    config._parse_costas_code(tree)
    assert built == [chips, chips]


@pytest.mark.parametrize("waveform, key", [
    ({"code": list(range(1, 30011))}, "'code'"),
    ({"prime": 4099, "generator": 2}, "'prime'"),
    ({"prime": 10**18 + 3, "generator": 2}, "'prime'"),
], ids=["code_30010", "prime_4099", "prime_1e18"])
def test_costas_code_above_the_cap_exits_2_before_it_is_built(tmp_path, capsys, monkeypatch,
                                                              waveform, key):
    """A code whose 4N^2 samples exceed the cap exits 2 naming the key that set
    N, without building or verifying the code: verifying the 30010-entry list
    took seconds before its exit 2."""
    def build(*args, **kwargs):
        raise AssertionError("a Costas code was built")
    monkeypatch.setattr(config, "CostasCode", build)
    monkeypatch.setattr(config, "generate_welch_costas", build)
    cfg = _config(tmp_path, {"command": "analyze", "waveform": {
        "kind": "costas_fsk", "duration_s": 1.0, **waveform}})
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: waveform: {key} (")
    assert "chips, 4N^2 samples) asks for " in err
    assert f"above the cap of {_MAX_SAMPLES}" in err
    assert not (tmp_path / "o").exists()


_LFM = {"kind": "lfm", "bandwidth_hz": 256.0, "duration_s": 1.0}


@pytest.mark.parametrize("doc, prefix", [
    ({"command": "analyze", "waveform": {**_LFM, "duration_s": 1e12}}, "config: 'duration_s'"),
    ({"command": "synth", "waveform": _LFM, "sample_rate_hz": 1e30}, "config: 'duration_s'"),
    ({"command": "optimize", "problem": {"duration_s": 1.0, "bandwidth_hz": 256.0,
                                         "sample_rate_hz": 1e30, "budget": 1}},
     "problem: 'duration_s'"),
    ({"command": "compare", "sample_rate_hz": 1e30,
      "waveforms": [{"name": "a", "waveform": _LFM}, {"name": "b", "waveform": _LFM}]},
     "waveforms[0]: 'duration_s'"),
    ({"command": "simulate", "waveform": {**_LFM, "duration_s": 1e-9},
      "scene": {"benchmark_bandwidth_hz": 256.0}, "dopplers_hz": [0.0]},
     "scene.echoes[0].delay_s asks for 8e+09 samples"),
    ({"command": "simulate", "waveform": _LFM, "window_s": 1e6,
      "scene": {"benchmark_bandwidth_hz": 256.0}, "dopplers_hz": [0.0]},
     "window_s asks for 2.048e+09 samples"),
    ({"command": "simulate", "waveform": _LFM, "dopplers_hz": [0.0],
      "scene": {"echoes": [{"delay_s": 1e308, "level_db": 0.0}]}},
     "scene.echoes[0].delay_s asks for inf samples"),
], ids=["lfm_duration_1e12", "sample_rate_1e30", "problem_sample_rate_1e30",
        "compare_sample_rate_1e30", "duration_1e-9_default_rate", "window_1e6",
        "echo_delay_overflows"])
def test_sample_count_above_the_cap_exits_2(tmp_path, capsys, doc, prefix):
    """N = round(fs*T) above the sample cap is refused where the rate is
    resolved, naming the subtree that holds 'sample_rate_hz'.  A `simulate`
    window is refused by `simulate_returns`, naming what set it: a duration
    of 1e-9 s at the default rate, 256/T, is 256 samples, but the scene's
    first echo delay, 1/32 s, is 8e9 of them.  A delay whose sample count
    overflows to inf is refused too."""
    cfg = _config(tmp_path, doc)
    assert main([doc["command"], "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prefix}")
    assert f"above the cap of {_MAX_SAMPLES}" in err
    assert not (tmp_path / "o").exists()


def test_sample_count_at_the_cap_is_resolved():
    """The cap itself passes; one sample more is refused.  No samples are made."""
    assert config.resolve_sample_rate(1.0, 1.0, _MAX_SAMPLES, "config") == 2.0**26
    with pytest.raises(wk.ConfigError, match="^config: 'duration_s' .* above the cap"):
        config.resolve_sample_rate(1.0, 1.0, _MAX_SAMPLES + 1, "config")


_SIM_LFM = {"command": "simulate", "waveform": _LFM, "sample_rate_hz": 2048.0,
            "scene": {"benchmark_bandwidth_hz": 256.0}}
# The scene's last echo sits at 48/B = 384 samples, so the received window is
# 384 + 2048 samples and the map has 2432 + 2048 - 1 = 4479 lags.
_SIM_LAGS = int(_window_samples(2048, 2048.0, config.parse_scene(_SIM_LFM["scene"]))) + 2047


def _cap_address_space():
    """preexec_fn of a child: at most 1 GiB of address space, so that a size
    the caps miss fails to allocate rather than allocating for real.  The
    child runs with one BLAS thread (see `_ONE_BLAS_THREAD`)."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# numpy's OpenBLAS starts a thread per core when it loads, each with its own
# stack and arena; on a many-core machine that alone could exceed the 1 GiB.
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _run_capped(command, cfg, out):
    """A CLI run in a child under the 1 GiB cap, with one BLAS thread and a timeout."""
    return subprocess.run(
        [sys.executable, "-m", "wavekit.cli", command, "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, stdin=subprocess.DEVNULL,
        env={**child_env(), **_ONE_BLAS_THREAD}, preexec_fn=_cap_address_space, timeout=60)


@pytest.mark.parametrize("keys, message", [
    ({"doppler_span_hz": 40.0, "num_dopplers": 100_000_000},
     "config: 'num_dopplers' asks for 1e+08 samples"),
    ({"doppler_span_hz": 40.0, "num_dopplers": 100_000}, "dopplers_hz asks for 4.479e+08 samples"),
    ({"dopplers_hz": [0.0] * (_MAX_SAMPLES // _SIM_LAGS + 1)},
     f"dopplers_hz asks for {(_MAX_SAMPLES // _SIM_LAGS + 1) * _SIM_LAGS:.6g} samples"),
    ({"doppler_span_hz": 40.0, "num_dopplers": 201, "window_s": 2e4},
     "dopplers_hz asks for 8.23337e+09 samples"),
], ids=["num_dopplers_1e8", "num_dopplers_1e5", "dopplers_hz_one_row_over", "window_2e4_s"])
def test_simulate_map_above_the_cap_exits_2(tmp_path, keys, message):
    """A Doppler grid of more rows than the sample cap exits 2 naming
    num_dopplers before the grid is built; a matched-filter map of more
    cells (Doppler rows x lags) than the cap exits 2 from `mf_bank`, naming
    its dopplers_hz.  No traceback and no output either way.  1e8 rows is a
    3.26 TiB map and 1e5 rows a 3.3 GiB one, which the 1 GiB address-space
    cap of the child would refuse as a MemoryError if the check missed it.
    A 2e4 s window is 625 MiB of received samples, which fit the cap only
    once: with no full-window time grid beside them, no copy of them, and
    its 201 rows x 4.1e7 lags refused before `mf_bank` builds its lag axis."""
    cfg = _config(tmp_path, {**_SIM_LFM, **keys})
    out = tmp_path / "o"
    proc = _run_capped("simulate", cfg, out)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {message}, above the cap of {_MAX_SAMPLES}")
    assert not out.exists()


_CAP = f", above the cap of {_MAX_SAMPLES}"


@pytest.mark.parametrize("doc, message", [
    ({"command": "optimize", "problem": {"duration_s": 1.0, "bandwidth_hz": 64.0, "budget": 5,
                                         "initial": "nlfm", "nlfm_nbar": 100000}},
     "error: nbar must be <= 8193"),
    ({"command": "analyze", "sample_rate_hz": 256.0,
      "waveform": {"kind": "p4", "num_chips": 512, "duration_s": 1.0}},
     "error: each chip needs a sample: round('duration_s' * 'sample_rate_hz') = 256 is "
     "below 'num_chips' 512"),
    ({"command": "analyze", "sample_rate_hz": 100.0,
      "waveform": {"kind": "p4", "num_chips": 10**9, "duration_s": 1.0}},
     "error: waveform: 'num_chips' asks for 1e+09 samples" + _CAP),
    ({"command": "synth", "waveform": _LFM, "sample_rate_hz": 2048.0, "zero_pad_factor": 10**9},
     "error: zero_pad_factor asks for 2.048e+12 samples" + _CAP),
    ({"command": "analyze", "waveform": _LFM, "sample_rate_hz": 2048.0,
      "ambiguity": {"num_delays": 100000, "num_dopplers": 100000}},
     "error: num_delays * num_dopplers asks for 1.00002e+10 samples" + _CAP),
    ({"command": "synth", "waveform": {"kind": "geometric_comb", "num_tones": 10**8,
                                       "tone_ratio": 1.0000001, "bandwidth_hz": 64.0,
                                       "duration_s": 1.0}},
     "error: num_tones asks for 5.12e+10 samples" + _CAP),
    ({"command": "optimize", "problem": {"duration_s": 1.0, "bandwidth_hz": 64.0, "budget": 5,
                                         "sample_rate_hz": 512.0, "num_harmonics": 4 * 10**7}},
     "error: num_harmonics asks for 8e+07 samples" + _CAP),
    ({"command": "compare", "num_doppler_points": 10**10,
      "waveforms": [{"name": "a", "waveform": _LFM}, {"name": "b", "waveform": _LFM}]},
     "error: config: 'num_doppler_points' asks for 1e+10 samples" + _CAP),
    ({"command": "analyze", "waveform": {"kind": "p4", "num_chips": 10**400, "duration_s": 1.0}},
     "error: waveform: 'num_chips' asks for 1e308 or more samples" + _CAP),
], ids=["nlfm_nbar_1e5", "p4_512_chips_at_256_hz", "p4_1e9_chips_at_100_hz",
        "zero_pad_factor_1e9", "ambiguity_1e5_by_1e5", "comb_1e8_tones",
        "num_harmonics_4e7", "num_doppler_points_1e10", "p4_1e400_chips"])
def test_oversized_config_exits_2_under_a_memory_cap(tmp_path, doc, message):
    """Sizes past the cap exit 2 before any work, each refused by the check
    of the array it would size: a Taylor table of 8192 x (nbar - 1) cells, a
    P4 with fewer samples than chips or more chips than the cap, a 29.8 TiB
    transform, 1.53 GiB of ambiguity rows, a comb's N x tones table, 2K
    coefficients and compare's Doppler grid.  nbar 1e5 ran for over a minute,
    1e9 chips at 100 Hz asked for a 7.45 GiB grid, and each of the last six
    exited 1 with a MemoryError or an OverflowError before its check.
    A child under a 1 GiB address-space cap and a timeout, as for the map."""
    out = tmp_path / "o"
    proc = _run_capped(doc["command"], _config(tmp_path, doc), out)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(message)
    assert not out.exists()


def test_nelder_mead_budget_below_the_simplex_runs(tmp_path):
    """K = 4 gives a simplex of 2K + 1 = 9 vertices; a budget of 5 is a cap
    like any other: the run exits 0 with the best of the 5 vertices."""
    cfg = _config(tmp_path, {"command": "optimize", "problem": {
        "duration_s": 1.0, "bandwidth_hz": 64.0, "num_harmonics": 4, "budget": 5}})
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    result = json.loads((tmp_path / "o" / "optimize_result.json").read_text())
    assert (result["stop_reason"], result["converged"], result["evaluations_used"]) == \
        ("budget", False, 5)
    assert (tmp_path / "o" / "trace.csv").exists()


@pytest.mark.parametrize("doc", [lambda rows: {"dopplers_hz": [0.0] * rows},
                                 lambda rows: {"doppler_span_hz": 40.0, "num_dopplers": rows}],
                         ids=["dopplers_hz", "num_dopplers"])
def test_map_at_the_cap_is_parsed_and_one_row_more_is_refused(tmp_path, capsys, monkeypatch,
                                                              doc):
    """The most rows whose map fits the cap reach the row kernel; one more is
    refused by `mf_bank`, naming dopplers_hz.  The kernel is replaced by a
    recorder that stops the run, so no map is built."""
    class Reached(Exception):
        pass

    def record(num_rows, num_lags, nfft):
        started.append((num_rows, num_lags))
        raise Reached  # in place of the blocks of the map

    started = []
    monkeypatch.setattr(wk_metrics, "_block_rows", record)
    rows = _MAX_SAMPLES // _SIM_LAGS
    for count in (rows, rows + 1):
        cfg = _config(tmp_path, {**_SIM_LFM, **doc(count)})
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "o")]
        if count == rows:
            with pytest.raises(Reached):
                main(argv)
        else:
            assert main(argv) == 2
    assert started == [(rows, _SIM_LAGS)]
    assert capsys.readouterr().err == (f"error: dopplers_hz asks for {(rows + 1) * _SIM_LAGS:.6g}"
                                       f" samples, above the cap of {_MAX_SAMPLES}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["synth", "analyze", "compare"])
def test_seed_flag_only_on_seeded_commands(tmp_path, command):
    """Only optimize and simulate draw random numbers; elsewhere --seed is an error."""
    cfg = _config(tmp_path, {"command": command})
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--config", cfg, "--seed", "1"])
    assert excinfo.value.code == 2


def test_problem_initial_length_mismatch_names_the_subtree(tmp_path, capsys):
    cfg = _config(tmp_path, _problem(initial={"alpha": [0.0] * 4, "beta": [0.0] * 3}))
    assert main(["optimize", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "problem.initial: beta must have length num_harmonics" in capsys.readouterr().err


@pytest.mark.parametrize("config, coefficients, context", [
    (_INITIAL_ALPHA_SHORT, None, "problem.initial"),
    (_FROM_COEFFICIENTS, _COEFFICIENTS_K_MISMATCH, "coefficients file coefficients.json"),
], ids=["initial", "coefficients_file"])
def test_alpha_length_mismatch_names_the_subtree(tmp_path, capsys, monkeypatch, config,
                                                 coefficients, context):
    monkeypatch.chdir(tmp_path)
    if coefficients is not None:
        (tmp_path / "coefficients.json").write_bytes(coefficients)
    cfg = _config(tmp_path, config)
    assert main([config["command"], "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {context}: alpha must have length num_harmonics\n"


def test_command_mismatch_exits_2(tmp_path):
    cfg = _config(tmp_path, CW_SYNTH)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file_exits_3(tmp_path):
    assert main(["synth", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o")]) == 3


def test_unwritable_output_directory_exits_3(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    cfg = _config(tmp_path, CW_SYNTH)
    assert main(["synth", "--config", cfg,
                 "--out", str(blocker / "nested")]) == 3


def test_deep_output_directory_is_made(tmp_path, capsys, monkeypatch):
    """1200 missing directories, more than the interpreter's recursion limit,
    are made one walk up and one pass down.  The tree is removed level by
    level, deepest first, since a recursive removal would reach that limit."""
    monkeypatch.chdir(tmp_path)
    cfg = _config(tmp_path, CW_SYNTH)
    try:
        assert main(["synth", "--config", cfg, "--out", "a/" * 1200]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert sorted(os.listdir("a/" * 1200)) == ["metrics.json", "waveform.csv"]
    finally:
        for level in range(1200, 0, -1):
            if os.path.isdir("a/" * level):
                for name in os.listdir("a/" * level):
                    if name != "a":
                        os.unlink("a/" * level + name)
                os.rmdir("a/" * level)


def test_output_path_longer_than_path_max_exits_3_and_leaves_no_directory(tmp_path, capsys,
                                                                           monkeypatch):
    """The directories below the length limit are made, the next mkdir is
    refused as too long, and every directory the run made is removed."""
    monkeypatch.chdir(tmp_path)
    cfg = _config(tmp_path, CW_SYNTH)
    out = "a/" * (os.pathconf(tmp_path, "PC_PATH_MAX") // 2 + 1)
    assert main(["synth", "--config", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and "Traceback" not in err
    assert os.listdir(tmp_path) == ["config.json"]


def test_wav_rate_beyond_the_header_exits_3(tmp_path, capsys):
    cfg = _config(tmp_path, {"command": "synth", "sample_rate_hz": 2e9,
                             "waveform": {"kind": "cw", "duration_s": 1e-6}})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--format", "wav"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sample rate" in err
    assert "Traceback" not in err


def _nan_json(tree, args, formats):
    tree.finish()
    return {"a.csv": (("x",), ([1.0],)), "metrics.json": {"psl_db": float("nan")}}


@pytest.mark.parametrize("config, command, code, message", [
    ({"command": "synth", "sample_rate_hz": 2e9, "formats": ["csv", "json", "wav"],
      "waveform": {"kind": "cw", "duration_s": 1e-6}}, None, 3, "sample rate"),
    ({"command": "synth"}, _nan_json, 2, "JSON"),
], ids=["wav_rate_beyond_the_header", "nan_in_json"])
def test_artifact_that_cannot_be_encoded_leaves_no_output(tmp_path, capsys, monkeypatch,
                                                          config, command, code, message):
    """An artifact that cannot be encoded, listed after others that can,
    fails the run before any is published, and the --out it made goes."""
    if command is not None:
        monkeypatch.setitem(wk_cli._COMMANDS, "synth", command)
    cfg = _config(tmp_path, config)
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


class _UnreadableAfterOneBlock:
    """A column of 3 cells whose rows past the first block cannot be read.
    Before it refuses, it records the files then in the output directory."""

    def __init__(self, directory, seen):
        self.directory, self.seen = directory, seen

    def __len__(self):
        return 3

    def __getitem__(self, rows):
        if rows.start:
            self.seen.append(sorted(os.listdir(self.directory)))
            raise wk.InvalidInputError("rows past the first block cannot be read")
        return [1.0] * len(range(*rows.indices(3)))


@pytest.mark.parametrize("out", ["existing", os.path.join("new", "nested")])
def test_failure_in_the_last_artifact_leaves_out_as_it_was(tmp_path, capsys, monkeypatch, out):
    """The last artifact fails after its first block went into its temp
    file, beside the other two artifacts' complete temp files.  The run
    exits 2 and leaves the tree as it was: no artifact, no temp file, no
    directory of its own, and the file already in an existing --out kept."""
    seen = []
    column = _UnreadableAfterOneBlock(str(tmp_path / out), seen)

    def fails_in_its_last_artifact(tree, args, formats):
        tree.finish()
        return {"a.csv": (("x",), ([1.0, 2.0, 3.0],)), "b.json": {"a": 1},
                "c.csv": (("x",), (column,))}

    monkeypatch.setitem(wk_cli._COMMANDS, "synth", fails_in_its_last_artifact)
    monkeypatch.setattr(wk_fileio, "_BLOCK_ROWS", 2)
    (tmp_path / "existing").mkdir()
    (tmp_path / "existing" / "keep.txt").write_text("kept")
    cfg = _config(tmp_path, {"command": "synth"})
    before = sorted(tmp_path.rglob("*"))
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / out)]) == 2
    assert capsys.readouterr().err == "error: rows past the first block cannot be read\n"
    assert len(seen) == 1 and [n.startswith(".wavekit-") for n in seen[0]].count(True) == 3
    assert sorted(tmp_path.rglob("*")) == before


def test_os_error_while_publishing_exits_3_and_leaves_no_temp_file(tmp_path, capsys,
                                                                   monkeypatch):
    """Every rename is refused, after every temp file is complete."""
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    monkeypatch.setattr(os, "replace", refuse)
    (tmp_path / "o").mkdir()
    cfg = _config(tmp_path, CW_SYNTH)
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and "Permission denied" in err
    assert os.listdir(tmp_path / "o") == []


def test_unknown_format_exits_2(tmp_path):
    cfg = _config(tmp_path, CW_SYNTH)
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--format", "xml"]) == 2


def test_missing_subcommand_is_an_argparse_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_module_entry_point_runs(tmp_path):
    cfg = _config(tmp_path, CW_SYNTH)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "wavekit.cli", "synth", "--config", cfg,
         "--out", str(out)],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert (out / "waveform.csv").exists()
    assert (out / "metrics.json").exists()


# A child script that calls cli.run() once per case, in its own process,
# with os._exit replaced by a raise.  sys.stderr is a buffered wrapper over a
# BytesIO, so what reached the BytesIO when os._exit was called is what a
# flush had written.  An exit handler registered before each call reports
# each of its runs on fd 1, so a second run at the child's own exit shows too.
_RUN_CASES = r"""
import atexit, io, json, os, sys
import wavekit.cli as cli

class Exited(Exception):
    pass

def fake_exit(code):
    raise Exited(code, sys.stderr.buffer.getvalue().decode())

os._exit = fake_exit
results = {}
for name, argv in json.loads(sys.argv[1]).items():
    calls = []
    atexit.register(lambda name=name: (calls.append(name), os.write(1, f"ran {name}\n".encode())))
    sys.argv = ["wavekit", *argv]
    sys.stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    try:
        cli.run()
    except Exited as exc:
        results[name] = {"code": exc.args[0], "stderr": exc.args[1], "calls": len(calls)}
    sys.stderr = sys.__stderr__
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def run_cases(tmp_path_factory):
    """({case: code given to os._exit, stderr flushed by then, handler runs
    by then}, the handler runs over the child's whole life, tmp) for exits 0,
    2 and 3.  atexit._run_exitfuncs runs and clears every handler of the
    interpreter that calls it, so the cases run in a child, not under pytest."""
    tmp = tmp_path_factory.mktemp("run")
    cfg = _config(tmp, CW_SYNTH)
    bad = _config(tmp, {**CW_SYNTH, "bogus": 1}, "bad.json")
    cases = {"0": ["synth", "--config", cfg, "--out", str(tmp / "o")],
             "2": ["synth", "--config", bad, "--out", str(tmp / "o2")],
             "3": ["synth", "--config", str(tmp / "absent.json"), "--out", str(tmp / "o3")]}
    proc = subprocess.run([sys.executable, "-c", _RUN_CASES, json.dumps(cases)],
                          capture_output=True, text=True, stdin=subprocess.DEVNULL,
                          env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    results = [line for line in lines if line.startswith("{")]
    assert len(results) == 1, proc.stdout
    return json.loads(results[0]), [line for line in lines if line.startswith("ran ")], tmp


@pytest.mark.parametrize("code", [0, 2, 3])
def test_run_exits_with_mains_code_after_the_handlers_and_a_flush(run_cases, code):
    results, ran, tmp = run_cases
    case = results[str(code)]
    assert case["code"] == code
    assert case["calls"] == 1 and ran.count(f"ran {code}") == 1
    if code == 0:
        assert case["stderr"] == ""
        assert sorted(os.listdir(tmp / "o")) == ["metrics.json", "waveform.csv"]
    else:
        assert case["stderr"].startswith("error: ") and case["stderr"].endswith("\n")
    if code == 2:
        assert "bogus" in case["stderr"]


@pytest.mark.parametrize("argv, code, stream", [(["--help"], 0, "stdout"),
                                                 (["synth", "--bogus"], 2, "stderr")],
                         ids=["help", "bad_flag"])
def test_argparse_exit_leaves_through_the_normal_exit(argv, code, stream):
    """run() reaches os._exit only after main() returns; argparse's
    SystemExit leaves through the interpreter's own exit, output flushed."""
    proc = subprocess.run([sys.executable, "-m", "wavekit.cli", *argv], capture_output=True,
                          text=True, stdin=subprocess.DEVNULL, env=child_env(), timeout=60)
    assert proc.returncode == code
    assert getattr(proc, stream).startswith("usage: wavekit")


def _open_descriptors():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("command", ["synth", "analyze", "optimize", "simulate", "compare"])
def test_main_leaves_no_thread_or_descriptor_open(tmp_path, golden_tool, command):
    """What run()'s skipped teardown would otherwise close: after main()
    returns, the threads and file descriptors are those before it."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to count descriptors in")
    cfg = _config(tmp_path, golden_tool.CLI_CONFIGS[command])
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o"),
            *golden_tool.CLI_FLAGS.get(command, [])]
    threads, descriptors = threading.active_count(), _open_descriptors()
    assert main(argv) == 0
    assert threading.active_count() == threads
    assert _open_descriptors() == descriptors


def test_module_run_writes_the_bytes_main_writes(tmp_path, golden_tool):
    """`python -m wavekit.cli simulate`, which ends through run(), writes
    every artifact byte for byte as an in-process main() with the same seed."""
    cfg = _config(tmp_path, golden_tool.CLI_CONFIGS["simulate"])
    flags = golden_tool.CLI_FLAGS["simulate"]
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "main"), *flags]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "wavekit.cli", "simulate", "--config", cfg,
         "--out", str(tmp_path / "module"), *flags],
        capture_output=True, text=True, stdin=subprocess.DEVNULL, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    names = sorted(os.listdir(tmp_path / "main"))
    assert names == sorted(os.listdir(tmp_path / "module")) and len(names) == 3
    for name in names:
        assert (tmp_path / "module" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()


def _readme_configs():
    """The run configs of README's jsonc block, with their // lines stripped."""
    block = README.read_text().split("```jsonc\n", 1)[1].split("```", 1)[0]
    text = "\n".join(line for line in block.splitlines()
                     if not line.lstrip().startswith("//")).strip()
    decoder, docs = json.JSONDecoder(), []
    while text:
        doc, end = decoder.raw_decode(text)
        docs.append(doc)
        text = text[end:].strip()
    return docs


def test_readme_python_block_runs(tmp_path):
    """README's library quick start, run as written in a fresh interpreter."""
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                          cwd=tmp_path, env=child_env())
    assert proc.returncode == 0, proc.stderr


def test_readme_configs_run(tmp_path, monkeypatch):
    docs = _readme_configs()
    assert sorted(d["command"] for d in docs) == sorted(
        ["synth", "analyze", "optimize", "simulate", "compare"])
    # simulate's coefficients_file names the coefficients.json that optimize writes.
    docs.sort(key=lambda d: d["command"] != "optimize")
    monkeypatch.chdir(tmp_path)
    for doc in docs:
        path = _config(tmp_path, doc, f"{doc['command']}.json")
        assert main([doc["command"], "--config", path]) == 0, doc["command"]
