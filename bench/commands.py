"""The `cli` workload: five `wavekit` commands, each in a fresh interpreter.

synth (LFM, csv+json+wav), analyze (Costas-16), optimize (Nelder-Mead,
budget 300, the shape of the byte-stability acceptance config), simulate
(LFM over the benchmark scene, 201 Doppler rows, about 900k CSV rows) and
compare (LFM, P4, Costas, 101 Doppler points), run one after another.

This uses the same `metrics`/`scene` code as `analysis`, but as writes
rather than in-memory compute: interpreter start-up with the scipy
imports and per-cell CSV formatting dominate.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from harness import SCHEMAS, Checks, Tracer, run_child, sha256_file

COMMANDS = ("synth", "analyze", "optimize", "simulate", "compare")
N = 2048                       # samples of every 2048 Hz, 1 s waveform below
OPT_N, OPT_BUDGET = 512, 300
MF_ROWS = 201
COMPARE_POINTS = 101

LFM = {"kind": "lfm", "bandwidth_hz": 256.0, "duration_s": 1.0}
COSTAS = {"kind": "costas_fsk", "prime": 17, "generator": 3, "duration_s": 1.0}
CONFIGS = {
    "synth": {"command": "synth", "waveform": LFM, "sample_rate_hz": 2048.0},
    "analyze": {"command": "analyze", "waveform": COSTAS},
    "optimize": {"command": "optimize",
                 "problem": {"num_harmonics": 4, "duration_s": 1.0, "bandwidth_hz": 64.0,
                             "sample_rate_hz": float(OPT_N), "budget": OPT_BUDGET,
                             "seed": 1}},
    "simulate": {"command": "simulate", "waveform": LFM, "sample_rate_hz": 2048.0,
                 "scene": {"benchmark_bandwidth_hz": 256.0},
                 "doppler_span_hz": 40.0, "num_dopplers": MF_ROWS},
    "compare": {"command": "compare", "num_doppler_points": COMPARE_POINTS,
                "waveforms": [{"name": "lfm", "waveform": LFM},
                              {"name": "p4", "waveform": {"kind": "p4", "num_chips": 256,
                                                          "duration_s": 1.0}},
                              {"name": "costas16", "waveform": COSTAS}]},
}


def _pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def _bundle(n: int) -> dict:
    """CSV row counts of the analysis bundle for an n-sample waveform, from the
    documented grids: spectrum next_pow2(4n) bins, a Hann spectrogram of
    min(256, max(16, n // 8)) samples at 75% overlap, 2n-1 lags and a
    129x129 ambiguity grid."""
    window = min(256, max(16, n // 8))
    hop = round(window * 0.25)
    frames = (n - window) // hop + 1
    return {"spectrum.csv": (["f_hz", "db"], _pow2(4 * n)),
            "spectrogram.csv": (["t_s", "f_hz", "db"], frames * window),
            "autocorrelation.csv": (["lag_s", "db"], 2 * n - 1),
            "ambiguity.csv": (["tau_s", "nu_hz", "db"], 129 * 129)}


# benchmark_scene(256 Hz): six echoes 8/B apart starting at 8/B, so the
# window is the last delay (48/B s = 384 samples) plus the pulse.
SIM_LAGS = (384 + N) + N - 1
EXPECTED_CSV = {
    "synth": {"waveform.csv": (["index", "t_s", "re", "im"], N)},
    "analyze": _bundle(N),
    "optimize": dict(_bundle(OPT_N), **{"trace.csv": (["evaluation", "objective_db"], None)}),
    "simulate": {"range_doppler.csv": (["tau_s", "nu_hz", "db"], MF_ROWS * SIM_LAGS),
                 "zero_doppler_cut.csv": (["lag_s", "db"], SIM_LAGS)},
    "compare": {"comparison.csv": (["name", "psl_db", "isl_db", "rms_bandwidth_hz",
                                    "p99_bandwidth_hz", "inband_energy_fraction",
                                    "doppler_loss_db"], 3),
                "doppler_curves.csv": (["name", "doppler_hz", "loss_db", "peak_shift_s"],
                                       3 * COMPARE_POINTS)},
}
EXPECTED_JSON = {
    "synth": {"metrics.json": "metrics.schema.json"},
    "analyze": {"metrics.json": "metrics.schema.json"},
    "optimize": {"metrics.json": "metrics.schema.json",
                 "coefficients.json": "coefficients.schema.json",
                 "optimize_result.json": "optimize_result.schema.json"},
    "simulate": {"resolvability.json": "resolvability.schema.json"},
    "compare": {"comparison.json": "comparison.schema.json"},
}


@dataclass(frozen=True)
class CliInputs:
    workdir: Path
    configs: dict
    seed: int


def make_inputs(seed: int, workdir: Path) -> CliInputs:
    configs = {}
    for name, doc in CONFIGS.items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc))
        configs[name] = path
    return CliInputs(workdir=workdir, configs=configs, seed=seed)


def _validators() -> dict:
    from jsonschema import Draft202012Validator
    from referencing import Registry, Resource
    contents = {p.name: json.loads(p.read_text()) for p in SCHEMAS.glob("*.schema.json")}
    resources = [Resource.from_contents(c) for c in contents.values()]
    registry = Registry().with_resources([(r.id(), r) for r in resources])
    return {name: Draft202012Validator(doc, registry=registry)
            for name, doc in contents.items()}


def command_args(inputs: CliInputs, name: str, out_dir: Path) -> list:
    args = [sys.executable, "-m", "wavekit.cli", name,
            "--config", str(inputs.configs[name]), "--out", str(out_dir)]
    if name == "synth":
        args += ["--format", "csv,json,wav"]
    if name in ("optimize", "simulate"):
        args += ["--seed", str(inputs.seed)]
    return args


def sequence(inputs: CliInputs, out_root: Path, tracer: Tracer) -> tuple[dict, dict]:
    """Run the five commands; returns ({command: wall s}, {command: process})."""
    times, procs = {}, {}
    for name in COMMANDS:
        with tracer.span(f"cli.{name}"):
            times[name], procs[name] = run_child(command_args(inputs, name, out_root / name))
    return times, procs


def check(checks: Checks, validators: dict, out_root: Path, procs: dict) -> dict:
    """Exit codes, schemas, CSV headers and row counts; returns artifact digests."""
    digests = {}
    for name, proc in procs.items():
        checks.expect(proc.returncode == 0,
                      f"{name}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        out_dir = out_root / name
        for fname, (header, rows) in EXPECTED_CSV[name].items():
            path = out_dir / fname
            if not path.exists():
                checks.expect(False, f"{name}: {fname} missing")
                continue
            lines = path.read_bytes().split(b"\n")
            checks.expect(lines[-1] == b"", f"{name}: {fname} lacks a final LF")
            checks.expect(lines[0].decode().split(",") == header,
                          f"{name}: {fname} header {lines[0][:80]!r}")
            count = len(lines) - 2
            ok = (1 <= count <= OPT_BUDGET) if rows is None else count == rows
            checks.expect(ok, f"{name}: {fname} has {count} rows, expected {rows}")
        for fname, schema in EXPECTED_JSON[name].items():
            path = out_dir / fname
            if not path.exists():
                checks.expect(False, f"{name}: {fname} missing")
                continue
            errors = list(validators[schema].iter_errors(json.loads(path.read_text())))
            checks.expect(not errors, f"{name}: {fname} fails {schema}: "
                          f"{errors[0].message if errors else ''}")
        if out_dir.exists():
            for path in sorted(out_dir.iterdir()):
                digests[f"{name}/{path.name}"] = sha256_file(path)
    wav = out_root / "synth" / "waveform.wav"
    if wav.exists():
        from scipy.io import wavfile
        rate, samples = wavfile.read(wav)
        checks.expect(rate == N and samples.shape == (N,) and samples.dtype == np.float32,
                      f"synth: waveform.wav is {rate} Hz, {samples.shape} {samples.dtype}")
    else:
        checks.expect(False, "synth: waveform.wav missing")
    return digests


def one_sequence(inputs, checks, tracer, validators) -> tuple[dict, Path, dict]:
    """One checked sequence; returns ({command: wall s}, output dir, digests)."""
    checks.start()
    out_root = inputs.workdir / "census"
    with tracer.op("op.cli.sequence"):
        times, procs = sequence(inputs, out_root, tracer)
    digests = check(checks, validators, out_root, procs)
    checks.finish()
    return times, out_root, digests


class Session:
    """Untraced measurement: the commands in turn, one per operation.

    A sequence of the five is checked when its last command ends; its
    artifacts must match the first sequence's byte for byte.
    """

    parts = COMMANDS
    min_operations = 3 * len(COMMANDS)

    def __init__(self, inputs: CliInputs, checks: Checks):
        self.inputs, self.checks = inputs, checks
        self.validators = _validators()
        self.digests = None
        self.procs: dict = {}
        self.count = 0

    def operation(self) -> dict:
        name = COMMANDS[self.count % len(COMMANDS)]
        out_root = self.inputs.workdir / f"seq{self.count // len(COMMANDS)}"
        self.count += 1
        if name == COMMANDS[0]:
            self.checks.start()
        elapsed, self.procs[name] = run_child(command_args(self.inputs, name,
                                                           out_root / name))
        if name == COMMANDS[-1]:
            digests = check(self.checks, self.validators, out_root, self.procs)
            self.checks.expect(self.digests in (None, digests),
                               "artifact digests differ between repeats")
            self.checks.finish()
            self.digests = self.digests or digests
            shutil.rmtree(out_root)
        return {name: elapsed}

    def record(self) -> dict:
        return {"digests": self.digests}


def census(inputs: CliInputs, checks: Checks, tracer: Tracer) -> tuple[dict, dict, Path]:
    """One traced sequence; returns (metrics, digests, its output directory)."""
    times, out_root, digests = one_sequence(inputs, checks, tracer, _validators())
    metrics = {f"cli.{name}_s": value for name, value in times.items()}
    metrics["cli.sequence_s"] = sum(times.values())
    return metrics, digests, out_root
