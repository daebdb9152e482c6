"""Per-layer probes of the traced run that no workload operation covers
alone: start-up imports, the objective's steps and the small controls,
and the CSV/JSON/WAV writers fed with the CLI's own rows.

Every call is wrapped in a span from this file; the metric is the median
(or, for the writers, the sum) of those span durations.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

import numpy as np

import wavekit as wk
from harness import IMPORT_MODULES, Checks, Tracer, parse_importtime, run_child, sha256_file
from wavekit import config, fileio

IMPORT_REPEATS = 3
FD_STEP = 1e-4


def _median_us(tracer: Tracer, name: str) -> float:
    return statistics.median(tracer.durations(name)) * 1e6


def imports(checks: Checks, tracer: Tracer) -> dict:
    """import.* from fresh interpreters: -X importtime of the CLI's start-up
    path, `import wavekit.cli`, plus a bare interpreter as the floor.

    `import wavekit` runs first inside it, so import.wavekit_s is the
    package alone and import.wavekit_cli_s what the CLI adds (config,
    fileio and scipy.io).
    """
    parsed = []
    checks.start()
    with tracer.op("op.probe.imports"):
        for _ in range(IMPORT_REPEATS):
            with tracer.span("import.interpreter"):
                _, bare = run_child([sys.executable, "-c", "pass"])
            with tracer.span("import.importtime"):
                _, proc = run_child([sys.executable, "-X", "importtime", "-c",
                                     "import wavekit.cli"])
            checks.expect(bare.returncode == 0 and proc.returncode == 0,
                          f"import probe failed: {proc.stderr[-300:]}")
            parsed.append(parse_importtime(proc.stderr))
    checks.expect(all(p["import.wavekit_s"] > 0 for p in parsed),
                  "import probe: no wavekit line in -X importtime output")
    checks.finish()
    out = {key: statistics.median(p[key] for p in parsed) for key in IMPORT_MODULES.values()}
    out["import.interpreter_s"] = statistics.median(tracer.durations("import.interpreter"))
    out["import.process_s"] = statistics.median(tracer.durations("import.importtime"))
    return out


def layers(design_inputs, cli_inputs, checks: Checks, tracer: Tracer) -> dict:
    """The objective's steps through their public twins, and the controls."""
    problem = design_inputs.problem(1)
    params = design_inputs.initial
    fs = problem.sample_rate_hz
    values, grads = set(), set()
    checks.start()
    with tracer.op("op.probe.layers"):
        for _ in range(200):
            with tracer.span("optimize.evaluate_objective"):
                values.add(wk.evaluate_objective(params, problem))
        for _ in range(5):
            with tracer.span("optimize.finite_difference_gradient"):
                grads.add(wk.finite_difference_gradient(params, problem, FD_STEP).tobytes())
        for _ in range(100):
            with tracer.span("waveforms.synth_mtsfm"):
                signal = wk.synth_mtsfm(params, fs)
            with tracer.span("metrics.autocorrelation"):
                wk.autocorrelation(signal)
            with tracer.span("signal.spectrum"):
                spec = wk.spectrum(signal, 2)
            with tracer.span("metrics.rms_bandwidth"):
                bandwidth = wk.rms_bandwidth(spec)
        for _ in range(20):
            with tracer.span("optimize.nlfm_initial_parameters"):
                wk.nlfm_initial_parameters(256.0, 1.0, 32, fs, sidelobe_db=45.0, nbar=10)
        for _ in range(200):
            with tracer.span("costas.generate_welch_costas"):
                code = wk.generate_welch_costas(17, 3)
            with tracer.span("costas.verify_costas"):
                valid = wk.verify_costas(code.sequence)
        for _ in range(20):
            for name, path in cli_inputs.configs.items():
                with tracer.span("config.load_config"):
                    config.load_config(str(path), name)
    checks.expect(len(values) == 1 and np.isfinite(next(iter(values))),
                  "evaluate_objective is not repeatable")
    checks.expect(len(grads) == 1, "finite_difference_gradient is not repeatable")
    checks.expect(abs(bandwidth - design_inputs.target_hz) <= 1e-9 * bandwidth,
                  "rms_bandwidth of the start differs from the design target")
    checks.expect(valid, "Welch Costas-16 fails verify_costas")
    checks.finish()
    return {
        "optimize.objective_us": _median_us(tracer, "optimize.evaluate_objective"),
        "optimize.fd_gradient_ms": _median_us(tracer, "optimize.finite_difference_gradient") / 1e3,
        "optimize.nlfm_initial_ms": _median_us(tracer, "optimize.nlfm_initial_parameters") / 1e3,
        "waveforms.synth_mtsfm_us": _median_us(tracer, "waveforms.synth_mtsfm"),
        "metrics.autocorrelation_us": _median_us(tracer, "metrics.autocorrelation"),
        "signal.spectrum_us": _median_us(tracer, "signal.spectrum"),
        "metrics.rms_bandwidth_us": _median_us(tracer, "metrics.rms_bandwidth"),
        "costas.welch_us": _median_us(tracer, "costas.generate_welch_costas"),
        "costas.verify_us": _median_us(tracer, "costas.verify_costas"),
        "config.load_config_ms": _median_us(tracer, "config.load_config") / 1e3,
    }


_INT = re.compile(rb"-?\d+")


def _cell_kind(cell: bytes) -> str:
    if _INT.fullmatch(cell):
        return "int"
    try:
        float(cell)
        return "float"
    except ValueError:
        return "str"


def read_rows(path: Path) -> tuple[list, list, int]:
    """(header, columns, rows) of a CLI CSV, typed as the CLI passed them:
    integers, floats, or text."""
    header, _, body = path.read_bytes().partition(b"\n")
    body = body.rstrip(b"\n")
    names = header.decode().split(",")
    kinds = [_cell_kind(c) for c in body.split(b"\n", 1)[0].split(b",")]
    if "str" in kinds:
        cells = [line.split(b",") for line in body.split(b"\n")]
        columns = [[c.decode() for c in col] if kind == "str" else np.array(col, dtype=float)
                   for col, kind in zip(zip(*cells), kinds)]
    else:
        table = np.fromstring(body.replace(b"\n", b","), sep=",").reshape(-1, len(names))
        columns = [table[:, j] for j in range(len(names))]
    columns = [col.astype(np.int64).tolist() if kind == "int" else col
               for col, kind in zip(columns, kinds)]
    return names, columns, len(columns[0])


def writers(out_root: Path, workdir: Path, checks: Checks, tracer: Tracer) -> dict:
    """Re-write every artifact of one CLI sequence through wavekit.fileio.

    The rows are read back from the CLI's own CSVs, so the writer formats
    the same cells the commands did; each re-written file must match the
    original byte for byte.
    """
    from scipy.io import wavfile
    target = workdir / "fileio"
    artifacts = sorted(p for p in out_root.glob("*/*") if p.is_file())
    cells = 0
    checks.start()
    with tracer.op("op.probe.fileio"):
        for path in artifacts:
            copy = target / f"{path.parent.name}_{path.name}"
            if path.suffix == ".csv":
                header, columns, rows = read_rows(path)
                cells += rows * len(header)
                with tracer.span("fileio.write_csv", path.name):
                    fileio.write_csv(str(copy), header, zip(*columns))
            elif path.suffix == ".json":
                doc = json.loads(path.read_text())
                with tracer.span("fileio.write_json", path.name):
                    fileio.write_json(str(copy), doc)
            elif path.suffix == ".wav":
                rate, samples = wavfile.read(path)
                with tracer.span("fileio.write_wav", path.name):
                    fileio.write_wav(str(copy), samples, rate)
            else:
                continue
            checks.expect(sha256_file(copy) == sha256_file(path),
                          f"fileio: re-written {path.parent.name}/{path.name} differs")
            copy.unlink()
    checks.finish()
    csv_s = sum(tracer.durations("fileio.write_csv"))
    return {
        "fileio.csv_cells": cells,
        "fileio.bytes_written": sum(p.stat().st_size for p in artifacts),
        "fileio.write_csv_s": csv_s,
        "fileio.cells_per_s": cells / csv_s if csv_s > 0 else 0.0,
        "fileio.write_json_ms": sum(tracer.durations("fileio.write_json")) * 1e3,
        "fileio.write_wav_ms": sum(tracer.durations("fileio.write_wav")) * 1e3,
    }
