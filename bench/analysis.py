"""The `analysis` workload: a warm, in-process pass over a waveform bank.

The bank is LFM, HFM (fc = 1 kHz), Costas-16 (Welch p = 17, g = 3),
P4-256 and the tapered-NLFM MTSFM start, all at B = 256 Hz, T = 1 s,
fs = 2048 Hz (N = 2048), plus a long-pulse LFM at TBP 1024 (T = 4 s,
N = 8192).  Per waveform the pass synthesizes it, takes the metrics
report, a 257x257 ambiguity surface, a 101-point narrowband Doppler
tolerance curve (and a wideband one when it has a carrier), simulates
the six-echo benchmark scene and a seeded noisy scene of Doppler-shifted
echoes, runs a 201-row matched-filter bank on each and reports
resolvability.

The Doppler-domain kernels of `metrics` and `scene` do nearly all the
work here.  The two pulse lengths put an algorithm swap (an FFT in place
of a matmul, a batched 2-D FFT in the filter bank) on both sides of any
size at which it starts to win.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

import wavekit as wk
from harness import Checks, Tracer

BANDWIDTH_HZ, SAMPLE_RATE_HZ = 256.0, 2048.0
DOPPLER_POINTS = 101
MF_ROWS = 201
MF_SPAN_HZ = 20.0
AMBIGUITY_GRID = 257
NOISY_ECHOES = 4
NOISE_LEVEL_DB = -30.0
NOISY_DELAYS = (0.02, 0.25)    # echo delays, as fractions of the pulse length
# A fixed window, so array sizes, and memory, do not depend on the seed.
NOISY_WINDOW = 1.0 + NOISY_DELAYS[1]


@dataclass(frozen=True)
class Entry:
    name: str
    spec: wk.WaveformSpec
    noisy_scene: wk.EchoScene


@dataclass(frozen=True)
class AnalysisInputs:
    bank: tuple
    benchmark_scene: wk.EchoScene
    doppler_grid: np.ndarray
    mf_grid: np.ndarray
    check_row: int
    seed: int


def _noisy_scene(rng, duration_s: float, mf_grid: np.ndarray) -> wk.EchoScene:
    """Echoes at seeded delays, on seeded filter-bank Dopplers, the first
    the strongest by at least 6 dB."""
    delays = np.round(rng.uniform(*NOISY_DELAYS, NOISY_ECHOES) * duration_s
                      * SAMPLE_RATE_HZ) / SAMPLE_RATE_HZ
    dopplers = mf_grid[rng.choice(mf_grid.size, NOISY_ECHOES, replace=False)]
    levels = np.concatenate([[0.0], rng.uniform(-30.0, -6.0, NOISY_ECHOES - 1)])
    echoes = tuple(wk.Echo(delay_s=float(d), doppler_hz=float(nu), level_db=float(lvl))
                   for d, nu, lvl in zip(delays, dopplers, levels))
    return wk.EchoScene(echoes=echoes, noise_level_db=NOISE_LEVEL_DB)


def make_inputs(seed: int, workdir=None) -> AnalysisInputs:
    rng = np.random.default_rng(seed)
    mf_grid = np.linspace(-MF_SPAN_HZ, MF_SPAN_HZ, MF_ROWS)
    nlfm = wk.nlfm_initial_parameters(BANDWIDTH_HZ, 1.0, 32, SAMPLE_RATE_HZ,
                                      sidelobe_db=45.0, nbar=10)
    specs = [
        ("lfm", wk.WaveformSpec(kind="lfm", bandwidth_hz=BANDWIDTH_HZ, duration_s=1.0)),
        ("hfm", wk.WaveformSpec(kind="hfm", bandwidth_hz=BANDWIDTH_HZ, duration_s=1.0,
                                center_freq_hz=1000.0)),
        ("costas16", wk.WaveformSpec(kind="costas_fsk", bandwidth_hz=BANDWIDTH_HZ,
                                     duration_s=1.0,
                                     costas=wk.generate_welch_costas(17, 3))),
        ("p4_256", wk.WaveformSpec(kind="p4", bandwidth_hz=BANDWIDTH_HZ, duration_s=1.0,
                                   num_chips=256)),
        ("mtsfm_nlfm", wk.WaveformSpec(kind="mtsfm", bandwidth_hz=BANDWIDTH_HZ,
                                       duration_s=1.0, mtsfm=nlfm)),
        ("lfm_long", wk.WaveformSpec(kind="lfm", bandwidth_hz=BANDWIDTH_HZ, duration_s=4.0)),
    ]
    bank = tuple(Entry(name, spec, _noisy_scene(rng, spec.duration_s, mf_grid))
                 for name, spec in specs)
    return AnalysisInputs(
        bank=bank, benchmark_scene=wk.benchmark_scene(BANDWIDTH_HZ),
        doppler_grid=np.linspace(0.0, 0.15 * BANDWIDTH_HZ, DOPPLER_POINTS),
        mf_grid=mf_grid, check_row=int(rng.integers(MF_ROWS)), seed=seed)


def _tag(signal: wk.SampledSignal) -> str:
    return f"N={signal.num_samples}"


def analyze(entry: Entry, inputs: AnalysisInputs, tracer: Tracer) -> dict:
    """Every analysis call for one waveform; returns the outputs."""
    with tracer.span("waveforms.synth_waveform"):
        signal = wk.synth_waveform(entry.spec, SAMPLE_RATE_HZ)
    tag = _tag(signal)
    out = {"signal": signal}
    with tracer.span("metrics.metrics_report", tag):
        out["report"] = wk.metrics_report(signal, entry.spec.bandwidth_hz)
    duration = signal.duration_s
    with tracer.span("metrics.ambiguity_function", tag):
        out["ambiguity"] = wk.ambiguity_function(signal, duration / 2.0, 10.0 / duration,
                                                 AMBIGUITY_GRID, AMBIGUITY_GRID)
    with tracer.span("metrics.doppler_tolerance_curve", f"narrowband {tag}"):
        out["curves"] = [wk.doppler_tolerance_curve(signal, inputs.doppler_grid)]
    if signal.center_freq_hz > 0:
        with tracer.span("metrics.doppler_tolerance_curve", f"wideband {tag}"):
            out["curves"].append(wk.doppler_tolerance_curve(signal, inputs.doppler_grid,
                                                            mode="wideband"))
    for key, scene, window in (("benchmark", inputs.benchmark_scene, None),
                               ("noisy", entry.noisy_scene, NOISY_WINDOW * duration)):
        with tracer.span("scene.simulate_returns", tag):
            received = wk.simulate_returns(signal, scene, inputs.seed, window_s=window)
        with tracer.span("scene.mf_bank", tag):
            rd_map = wk.mf_bank(received, signal, inputs.mf_grid)
        with tracer.span("scene.resolvability_report", tag):
            report = wk.resolvability_report(rd_map, scene, entry.spec.bandwidth_hz)
        out[key] = (scene, received, rd_map, report)
    return out


def digest(out: dict) -> str:
    """sha256 over every output of one waveform's analysis."""
    h = hashlib.sha256()
    h.update(out["signal"].samples.tobytes())
    h.update(json.dumps(out["report"].to_dict(), sort_keys=True).encode())
    h.update(out["ambiguity"].magnitude.tobytes())
    for curve in out["curves"]:
        h.update(np.array([(p.peak_loss_db, p.peak_shift_s) for p in curve]).tobytes())
    for key in ("benchmark", "noisy"):
        _, received, rd_map, report = out[key]
        h.update(received.samples.tobytes())
        h.update(rd_map.magnitude_db.tobytes())
        h.update(json.dumps(report, sort_keys=True).encode())
    return h.hexdigest()


def check(checks: Checks, entry: Entry, inputs: AnalysisInputs, out: dict) -> None:
    """Oracles for one waveform's outputs, computed in the benchmark itself."""
    name = entry.name
    signal = out["signal"]
    n = signal.num_samples
    samples = signal.samples
    checks.expect(abs(float(np.sum(np.abs(samples) ** 2)) - 1.0) <= 1e-9,
                  f"{name}: energy != 1")
    response = wk.autocorrelation(signal)
    checks.expect(abs(response.magnitude_db[n - 1]) <= 1e-9,
                  f"{name}: autocorrelation at lag 0 reads {response.magnitude_db[n - 1]} dB")
    surface = out["ambiguity"]
    i0 = int(np.flatnonzero(surface.delays_s == 0.0)[0])
    j0 = int(np.argmin(np.abs(surface.dopplers_hz)))
    checks.expect(abs(surface.magnitude[i0, j0] - 1.0) <= 1e-12,
                  f"{name}: ambiguity at the origin != 1")
    checks.expect(float(surface.magnitude.max()) <= 1.0 + 1e-9,
                  f"{name}: ambiguity exceeds 1")
    for curve in out["curves"]:
        checks.expect(curve[0].doppler_hz == 0.0 and abs(curve[0].peak_loss_db) <= 1e-6,
                      f"{name}: zero-Doppler loss {curve[0].peak_loss_db} dB")
    t = signal.time_grid()
    for key in ("benchmark", "noisy"):
        scene, received, rd_map, _ = out[key]
        strongest = max(scene.echoes, key=lambda e: e.level_db)
        row = rd_map.magnitude_db[int(np.argmin(np.abs(rd_map.dopplers_hz
                                                       - strongest.doppler_hz)))]
        expected = (n - 1) + int(round(strongest.delay_s * SAMPLE_RATE_HZ))
        checks.expect(abs(int(np.argmax(row)) - expected) <= 1,
                      f"{name}/{key}: strongest echo peaks at {np.argmax(row)}, "
                      f"expected {expected}")
    _, received, rd_map, _ = out["noisy"]
    nu = inputs.mf_grid[inputs.check_row]
    replica = samples * np.exp(2j * np.pi * nu * t)
    direct = np.abs(np.correlate(received.samples, replica, "full"))
    row = 10.0 ** (rd_map.magnitude_db[inputs.check_row] / 20.0)
    scale = direct.max() / row.max()
    checks.expect(float(np.max(np.abs(row * scale - direct))) <= 1e-5 * direct.max(),
                  f"{name}: mf_bank row {inputs.check_row} differs from np.correlate")


def quantities(out: dict) -> dict:
    """Figures reported as measured, never asserted: the Costas-16 region PSL
    and echo detection are acceptance criteria 5 and 2, left red."""
    detected = sum(e["detected"] for e in out["benchmark"][3])
    return {"psl_db": out["report"].psl_db, "isl_db": out["report"].isl_db,
            "benchmark_scene_detected": f"{detected}/{len(out['benchmark'][3])}"}


def one_waveform(entry: Entry, inputs: AnalysisInputs, checks: Checks, tracer: Tracer,
                 seen: dict) -> float:
    """Analyze one waveform as one operation; returns the analysis wall time.

    Its checks run outside the timed part.  `seen` keeps each waveform's
    output digest, which must not change from pass to pass, and its
    reported quantities.
    """
    checks.start()
    with tracer.op("op.analysis.waveform", entry.name):
        start = time.perf_counter()
        out = analyze(entry, inputs, tracer)
        elapsed = time.perf_counter() - start
    check(checks, entry, inputs, out)
    value = digest(out)
    first = seen.setdefault(entry.name, {"digest": value, **quantities(out)})
    checks.expect(first["digest"] == value, f"{entry.name}: digest differs between passes")
    checks.finish()
    return elapsed


def one_pass(inputs: AnalysisInputs, checks: Checks, tracer: Tracer, seen: dict) -> float:
    """One pass over the bank; returns its wall time."""
    return sum(one_waveform(entry, inputs, checks, tracer, seen) for entry in inputs.bank)


class Session:
    """Untraced measurement: a warm-up pass, then the waveforms in turn,
    one per operation."""

    def __init__(self, inputs: AnalysisInputs, checks: Checks):
        self.inputs, self.checks, self.tracer = inputs, checks, Tracer(False)
        self.parts = tuple(entry.name for entry in inputs.bank)
        self.min_operations = 3 * len(self.parts)
        self.seen: dict = {}
        self.count = 0
        one_pass(inputs, checks, self.tracer, self.seen)

    def operation(self) -> dict:
        entry = self.inputs.bank[self.count % len(self.inputs.bank)]
        self.count += 1
        return {entry.name: one_waveform(entry, self.inputs, self.checks, self.tracer,
                                         self.seen)}

    def record(self) -> dict:
        return {"digests": {name: v["digest"] for name, v in self.seen.items()},
                "quantities": {name: {k: x for k, x in v.items() if k != "digest"}
                               for name, v in self.seen.items()}}


def _median_ms(tracer: Tracer, name: str, tag: str) -> float:
    return float(np.median(tracer.durations(name, tag))) * 1e3


def census(inputs: AnalysisInputs, checks: Checks, tracer: Tracer) -> tuple[dict, dict]:
    """A warm-up pass, then one traced pass; returns (metrics, digests)."""
    seen: dict = {}
    one_pass(inputs, checks, Tracer(False), seen)
    pass_s = one_pass(inputs, checks, tracer, seen)
    short, long_ = "N=2048", "N=8192"
    mf_ms = _median_ms(tracer, "scene.mf_bank", short)
    metrics = {
        "analysis.pass_s": pass_s,
        "waveforms.synth_bank_ms": sum(tracer.durations("waveforms.synth_waveform")) * 1e3,
        "metrics.metrics_report_ms": _median_ms(tracer, "metrics.metrics_report", short),
        "metrics.ambiguity_ms": _median_ms(tracer, "metrics.ambiguity_function", short),
        "metrics.ambiguity_long_ms": _median_ms(tracer, "metrics.ambiguity_function", long_),
        "metrics.doppler_nb_ms": _median_ms(tracer, "metrics.doppler_tolerance_curve",
                                            f"narrowband {short}"),
        "metrics.doppler_wb_ms": _median_ms(tracer, "metrics.doppler_tolerance_curve",
                                            f"wideband {short}"),
        "scene.simulate_returns_us": _median_ms(tracer, "scene.simulate_returns", short) * 1e3,
        "scene.mf_bank_ms": mf_ms,
        "scene.mf_bank_row_us": mf_ms / MF_ROWS * 1e3,
        "scene.mf_bank_long_ms": _median_ms(tracer, "scene.mf_bank", long_),
        "scene.resolvability_us": _median_ms(tracer, "scene.resolvability_report",
                                             short) * 1e3,
    }
    return metrics, {name: v["digest"] for name, v in seen.items()}
