"""Digests of wavekit's outputs, and the check data of tests/test_golden.py.

Run from the repository root:

    PYTHONPATH=src python tools/golden.py          # rewrite tests/golden.json
    PYTHONPATH=src python tools/golden.py --print  # print the digests as JSON
    PYTHONPATH=src python tools/golden.py --diff   # list what moved; exit 1 if any

Each artifact is one output of a fixed run:

- every file the five commands of the `cli` benchmark workload write (the
  configs of `bench/commands.py`, copied here so the check data does not
  move when the benchmark does), run through `cli.main` in-process;
- one analysis pass per waveform kind (LFM, HFM, Costas-16, P4, the
  tapered-NLFM MTSFM start, and an N = 8192 LFM), in the shape of the
  `analysis` workload: metrics report, ambiguity surface, Doppler curves
  (the HFM's wideband one too), scene returns and matched-filter banks;
- L-BFGS, gradient-descent and Nelder-Mead runs on the ISL and PSL
  objectives with a budget of a few hundred evaluations: the trace, stop
  reason, counts and final coefficients.

For each artifact it records the sha256 of its bytes and a numeric
summary: the row count, then per column the sum, sum of squares, min and
max (a text column gives the sha256 of its values instead).  The sha256
values are keyed by the numpy version, the machine and numpy's active CPU
dispatch targets, since float64 sin/cos/exp and pocketfft need not give
the same bits elsewhere; the summaries hold on any machine within
TOLERANCE.  BLAS and OpenMP are held to one thread before numpy loads, so
the optimizer's matrix products sum in one order on any core count.

A change that means to alter an output rewrites golden.json with this
script, and its CHANGES.md entry names each changed artifact and why.
"""

import os

# Before numpy loads: one BLAS/OpenMP thread (see the module docstring).
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

import wavekit as wk  # noqa: E402
from wavekit.cli import main as cli_main  # noqa: E402

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden.json"
TOLERANCE = {"rtol": 1e-6, "atol": 1e-4}

_LFM = {"kind": "lfm", "bandwidth_hz": 256.0, "duration_s": 1.0}
_COSTAS = {"kind": "costas_fsk", "prime": 17, "generator": 3, "duration_s": 1.0}
CLI_CONFIGS = {
    "synth": {"command": "synth", "waveform": _LFM, "sample_rate_hz": 2048.0},
    "analyze": {"command": "analyze", "waveform": _COSTAS},
    "optimize": {"command": "optimize",
                 "problem": {"num_harmonics": 4, "duration_s": 1.0, "bandwidth_hz": 64.0,
                             "sample_rate_hz": 512.0, "budget": 300, "seed": 1}},
    "simulate": {"command": "simulate", "waveform": _LFM, "sample_rate_hz": 2048.0,
                 "scene": {"benchmark_bandwidth_hz": 256.0},
                 "doppler_span_hz": 40.0, "num_dopplers": 201},
    "compare": {"command": "compare", "num_doppler_points": 101,
                "waveforms": [{"name": "lfm", "waveform": _LFM},
                              {"name": "p4", "waveform": {"kind": "p4", "num_chips": 256,
                                                          "duration_s": 1.0}},
                              {"name": "costas16", "waveform": _COSTAS}]},
}
CLI_FLAGS = {"synth": ["--format", "csv,json,wav"], "optimize": ["--seed", "7"],
             "simulate": ["--seed", "7"]}

BANDWIDTH_HZ, SAMPLE_RATE_HZ, SEED = 256.0, 2048.0, 7
OPT_HARMONICS, OPT_RATE_HZ, OPT_BUDGET = 8, 512.0, 300


def dispatch_key() -> str:
    """numpy's version, the machine, and the dispatch targets numpy uses on
    this CPU, as one string."""
    umath = np._core._multiarray_umath
    active = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return f"numpy {np.__version__} {platform.machine()} {','.join(active)}"


def _column_summary(values) -> list:
    values = np.asarray(values)
    if values.dtype.kind in "biuf":
        x = values.astype(np.float64)
        return [float(x.sum()), float((x * x).sum()), float(x.min()), float(x.max())]
    return ["text", hashlib.sha256("\n".join(map(str, values)).encode()).hexdigest()]


def _record(raw: bytes, columns: list) -> dict:
    """An artifact's sha256 and numeric summary; columns share one row count
    (the longest column's, for outputs gathered from unequal arrays)."""
    return {"sha256": hashlib.sha256(raw).hexdigest(),
            "rows": max(len(c) for c in columns),
            "columns": [_column_summary(c) for c in columns]}


def _csv_columns(raw: bytes) -> list:
    try:
        return list(np.loadtxt(io.BytesIO(raw), delimiter=",", skiprows=1, ndmin=2).T)
    except ValueError:  # a text column: parse the columns one at a time
        cells = np.loadtxt(io.BytesIO(raw), delimiter=",", skiprows=1, ndmin=2, dtype=str)
    columns = []
    for column in cells.T:
        try:
            columns.append(column.astype(np.float64))
        except ValueError:
            columns.append(column)
    return columns


def _array_record(columns: list) -> dict:
    return _record(b"".join(np.ascontiguousarray(c).tobytes() for c in columns), columns)


def _json_columns(doc) -> list:
    """The numbers of a JSON document, in key order, then its strings."""
    numbers, texts = [], []
    _json_leaves(doc, numbers, texts)
    return [np.array(numbers), np.array(texts, dtype=str)]


def _json_record(doc) -> dict:
    raw = json.dumps(doc, sort_keys=True).encode()
    return _record(raw, _json_columns(json.loads(raw)))


def _json_leaves(doc, numbers: list, texts: list) -> None:
    if isinstance(doc, dict):
        for key in sorted(doc):
            _json_leaves(doc[key], numbers, texts)
    elif isinstance(doc, list):
        for item in doc:
            _json_leaves(item, numbers, texts)
    elif isinstance(doc, (bool, int, float)):
        numbers.append(float(doc))
    elif doc is not None:
        texts.append(str(doc))


def _file_columns(name: str, raw: bytes) -> list:
    if name.endswith(".csv"):
        return _csv_columns(raw)
    if name.endswith(".json"):
        return _json_columns(json.loads(raw))
    return [np.frombuffer(raw[raw.index(b"data") + 8:], dtype="<f4")]  # float32 WAV


def cli_artifacts() -> dict:
    """Every file of the five commands, written by cli.main into a temporary
    directory and read back."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for command, doc in CLI_CONFIGS.items():
            config = root / f"{command}.json"
            config.write_text(json.dumps(doc))
            out_dir = root / command
            argv = [command, "--config", str(config), "--out", str(out_dir)]
            status = cli_main(argv + CLI_FLAGS.get(command, []))
            if status != 0:
                raise RuntimeError(f"{command} exited {status}")
            for path in sorted(out_dir.iterdir()):
                raw = path.read_bytes()
                out[f"cli/{command}/{path.name}"] = _record(raw, _file_columns(path.name, raw))
    return out


def _analysis_bank() -> list:
    nlfm = wk.nlfm_initial_parameters(BANDWIDTH_HZ, 1.0, 32, SAMPLE_RATE_HZ)
    return [
        ("lfm", wk.WaveformSpec(kind="lfm", bandwidth_hz=BANDWIDTH_HZ, duration_s=1.0)),
        ("hfm", wk.WaveformSpec(kind="hfm", bandwidth_hz=BANDWIDTH_HZ, duration_s=1.0,
                                center_freq_hz=1000.0)),
        ("costas16", wk.WaveformSpec(kind="costas_fsk", bandwidth_hz=BANDWIDTH_HZ,
                                     duration_s=1.0, costas=wk.generate_welch_costas(17, 3))),
        ("p4_256", wk.WaveformSpec(kind="p4", bandwidth_hz=BANDWIDTH_HZ, duration_s=1.0,
                                   num_chips=256)),
        ("mtsfm_nlfm", wk.WaveformSpec(kind="mtsfm", bandwidth_hz=BANDWIDTH_HZ,
                                       duration_s=1.0, mtsfm=nlfm)),
        ("lfm_8192", wk.WaveformSpec(kind="lfm", bandwidth_hz=BANDWIDTH_HZ, duration_s=4.0)),
    ]


def analysis_artifacts() -> dict:
    """One pass per waveform: samples, metrics report, a 129x129 ambiguity
    surface over T/2 and 10/T, 51-point Doppler curves, and the benchmark
    scene's returns with a 101-row matched-filter bank and its report."""
    out = {}
    dopplers = np.linspace(0.0, 0.15 * BANDWIDTH_HZ, 51)
    mf_grid = np.linspace(-20.0, 20.0, 101)
    scene = wk.benchmark_scene(BANDWIDTH_HZ)
    for name, spec in _analysis_bank():
        signal = wk.synth_waveform(spec, SAMPLE_RATE_HZ)
        duration = signal.duration_s
        surface = wk.ambiguity_function(signal, duration / 2.0, 10.0 / duration, 129, 129)
        curves = [wk.doppler_tolerance_curve(signal, dopplers)]
        if signal.center_freq_hz > 0:
            curves.append(wk.doppler_tolerance_curve(signal, dopplers, mode="wideband"))
        received = wk.simulate_returns(signal, scene, SEED)
        rd_map = wk.mf_bank(received, signal, mf_grid)
        prefix = f"analysis/{name}/"
        out[prefix + "samples"] = _array_record([signal.samples.real, signal.samples.imag])
        out[prefix + "metrics"] = _json_record(
            wk.metrics_report(signal, BANDWIDTH_HZ).to_dict())
        out[prefix + "ambiguity"] = _array_record([surface.magnitude.ravel()])
        out[prefix + "doppler_curves"] = _array_record(
            [col for curve in curves
             for col in np.array([(p.peak_loss_db, p.peak_shift_s) for p in curve]).T])
        out[prefix + "received"] = _array_record([received.samples.real,
                                                  received.samples.imag])
        out[prefix + "mf_bank"] = _array_record([rd_map.magnitude_db.ravel()])
        out[prefix + "resolvability"] = _json_record(
            wk.resolvability_report(rd_map, scene, BANDWIDTH_HZ))
    return out


def optimizer_artifacts() -> dict:
    """Each minimizer on each objective: a TBP-64 design with K = 8 from the
    tapered-NLFM start, budget 300."""
    bandwidth = OPT_RATE_HZ / 8.0
    region = wk.default_region(bandwidth, 1.0)
    initial = wk.nlfm_initial_parameters(bandwidth, 1.0, OPT_HARMONICS, OPT_RATE_HZ)
    target = wk.rms_bandwidth(wk.spectrum(wk.synth_mtsfm(initial, OPT_RATE_HZ), 2))
    out = {}
    for objective in ("isl", "psl"):
        problem = wk.OptimizationProblem(
            initial=initial, region=region, objective=objective, bandwidth_target_hz=target,
            bandwidth_tolerance=0.1, penalty_weight=1.0, budget=OPT_BUDGET, seed=SEED,
            sample_rate_hz=OPT_RATE_HZ)
        for method in ("lbfgs", "gradient_descent", "nelder_mead"):
            result = wk.optimize_waveform(problem, method)
            trace = np.array(result.trace, dtype=np.float64).T
            coefficients = wk.params_to_vector(result.final)
            outcome = [result.stop_reason, str(result.converged), str(result.evaluations_used)]
            raw = b"".join([trace.tobytes(), coefficients.tobytes(),
                            "\n".join(outcome).encode()])
            out[f"optimize/{method}/{objective}"] = _record(
                raw, [trace[0], trace[1], coefficients, np.array(outcome, dtype=str)])
    return out


def compute() -> dict:
    """{"key": dispatch_key(), "artifacts": {name: record}} for this checkout."""
    return {"key": dispatch_key(),
            "artifacts": {**cli_artifacts(), **analysis_artifacts(), **optimizer_artifacts()}}


def golden_document(computed: dict) -> dict:
    """golden.json: the tolerance, the summaries, and the sha256 values under
    this machine's key."""
    artifacts = computed["artifacts"]
    return {"tolerance": TOLERANCE,
            "digests": {computed["key"]: {name: rec["sha256"] for name, rec in artifacts.items()}},
            "summaries": {name: {"rows": rec["rows"], "columns": rec["columns"]}
                          for name, rec in artifacts.items()}}


def _largest_change(got: dict, want: dict) -> str:
    """The largest absolute change between two summaries, or how their shapes
    or text columns differ."""
    if (got["rows"], len(got["columns"])) != (want["rows"], len(want["columns"])):
        return f"rows x columns {want['rows']} x {len(want['columns'])} -> " \
               f"{got['rows']} x {len(got['columns'])}"
    changes = []
    for column, expected in zip(got["columns"], want["columns"]):
        if expected[0] == "text" or column[0] == "text":
            if column != expected:
                return "a text column changed"
        else:
            changes.append(float(np.max(np.abs(np.subtract(column, expected)))))
    return f"max |delta| {max(changes, default=0.0):.3g}"


def diff(computed: dict, golden: dict) -> list:
    """One line per artifact whose sha256 (under computed's key, if golden
    has digests for it) or summary differs from golden's, or that only one
    side has."""
    artifacts = computed["artifacts"]
    digests = golden["digests"].get(computed["key"], {})
    lines = [f"{name}: only in golden.json" for name in sorted(golden["summaries"])
             if name not in artifacts]
    for name, rec in sorted(artifacts.items()):
        want = golden["summaries"].get(name)
        if want is None:
            lines.append(f"{name}: not in golden.json")
            continue
        sha_moved = digests.get(name, rec["sha256"]) != rec["sha256"]
        if want != {"rows": rec["rows"], "columns": rec["columns"]}:
            both = "sha256 and " if sha_moved else ""
            lines.append(f"{name}: {both}summary moved, {_largest_change(rec, want)}")
        elif sha_moved:
            lines.append(f"{name}: sha256 moved, summary holds")
    return lines


if __name__ == "__main__":
    computed = compute()
    if sys.argv[1:] == ["--print"]:
        print(json.dumps(computed))
    elif sys.argv[1:] == ["--diff"]:
        golden = json.loads(GOLDEN.read_text())
        if computed["key"] not in golden["digests"]:
            print(f"no sha256 values under {computed['key']!r}: summaries only")
        moved = diff(computed, golden)
        print("\n".join(moved) if moved else f"all {len(computed['artifacts'])} artifacts hold")
        sys.exit(1 if moved else 0)
    else:
        GOLDEN.write_text(json.dumps(golden_document(computed), indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(computed['artifacts'])} artifacts under {computed['key']!r} "
              f"to {GOLDEN}")
