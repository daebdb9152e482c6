"""Command-line front end: synth, analyze, optimize, simulate, compare.

Each run is driven by one JSON config document (see `wavekit.config`);
the --out, --format and (optimize, simulate) --seed flags override the
corresponding config fields.  A run reads its config, computes its
artifacts (a dict keyed by file name), encodes every one to bytes, then
writes them, so a run that exits 2 writes nothing.
Exit codes: 0 success (including non-converged optimizations, which are
reported, not fatal), 2 config/validation error, 3 I/O error.

`wavekit.optimize` is imported inside the optimize command alone, so synth,
analyze, simulate and compare never load the optimizer.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .config import (_as_config_error, _take_coefficients, _Tree, load_config, parse_dopplers,
                     parse_region, parse_scene, parse_waveform, resolve_sample_rate)
from .errors import ConfigError, InvalidInputError, OutputError
from .fileio import _atomic_write_bytes, encode_csv, encode_json, encode_wav
from .metrics import (ambiguity_function, autocorrelation, doppler_tolerance_curve,
                      metrics_report, rms_bandwidth)
from .scene import mf_bank, resolvability_report, simulate_returns
from .signal import (DB_LIMIT, SampledSignal, _sample_count, spectrogram, spectrum, to_db,
                     to_passband)
from .waveforms import MtsfmParameters, synth_mtsfm, synth_waveform

_FORMATS = ("csv", "json", "wav")


def _resolve_run_options(tree: _Tree, args) -> tuple:
    """Output directory and format set, with CLI flags overriding config."""
    out_dir = tree.take("output_dir", default=".")
    if args.out is not None:
        out_dir = args.out
    if not isinstance(out_dir, str):
        raise ConfigError(f"{tree.context}: 'output_dir' must be a string")
    formats = tree.take("formats", default=["csv", "json"])
    if args.format is not None:
        formats = [f.strip() for f in args.format.split(",") if f.strip()]
    if not isinstance(formats, list) or not formats or any(f not in _FORMATS for f in formats):
        raise ConfigError(f"{tree.context}: 'formats' must be a nonempty list drawn from "
                          f"{', '.join(_FORMATS)}; got {formats!r}")
    return out_dir, frozenset(formats)


def _take_seed(tree: _Tree, args) -> int:
    """The run seed: --seed if given, else the tree's 'seed' (default 0)."""
    seed = tree.take_number("seed", default=0, integer=True)
    return tree.check_number("seed", seed if args.seed is None else args.seed,
                             integer=True, minimum=0)


def _metrics_doc(signal: SampledSignal, bandwidth_hz: float, region,
                 zero_pad_factor: int) -> dict:
    report = metrics_report(signal, bandwidth_hz, region=region,
                            zero_pad_factor=zero_pad_factor)
    doc = report.to_dict()
    doc.update({
        "bandwidth_hz": float(bandwidth_hz),
        "duration_s": float(signal.duration_s),
        "sample_rate_hz": float(signal.sample_rate_hz),
        "region_inner_delay_s": float(region.inner_delay_s),
        "region_outer_delay_s": float(region.outer_delay_s),
    })
    return doc


def _take_waveform(tree: _Tree, context: str = "waveform", default_fs=None) -> tuple:
    """(spec, sample rate) from a tree's 'waveform' and 'sample_rate_hz' keys."""
    spec = parse_waveform(tree.take("waveform"), context)
    return spec, resolve_sample_rate(spec.bandwidth_hz, spec.duration_s, tree.take_number(
        "sample_rate_hz", default=default_fs, positive=True), tree.context)


def _grid_columns(outer, inner, values) -> tuple:
    """(outer, inner, value) columns of a len(outer) x len(inner) grid, outer-major."""
    return np.repeat(outer, len(inner)), np.tile(inner, len(outer)), np.ravel(values)


def _default_window(num_samples: int) -> int:
    window = min(256, max(16, num_samples // 8))
    return max(2, min(window, num_samples))


def _parse_analysis_options(tree: _Tree, duration_s: float):
    """Analysis-bundle options; an empty tree gives the defaults."""
    zpf = tree.take_number("zero_pad_factor", default=4, integer=True, minimum=1)
    sg = tree.take_subtree("spectrogram", optional=True)
    window_len = sg.take_number("window_len_samples", default=None, integer=True, minimum=2)
    overlap = sg.take_number("overlap", default=0.75, minimum=0.0)
    sg.finish()
    af = tree.take_subtree("ambiguity", optional=True)
    af_opts = {
        "max_delay_s": af.take_number("max_delay_s", default=duration_s / 2.0,
                                      positive=True),
        "max_doppler_hz": af.take_number("max_doppler_hz", default=10.0 / duration_s,
                                         positive=True),
        "num_delays": af.take_number("num_delays", default=129, integer=True, minimum=2),
        "num_dopplers": af.take_number("num_dopplers", default=129, integer=True, minimum=2),
    }
    af.finish()
    return zpf, window_len, overlap, af_opts


def _analysis_csvs(formats, signal: SampledSignal, zpf: int, window_len,
                   overlap: float, af_opts: dict) -> dict:
    """The analysis bundle's CSV artifacts; the caller adds its metrics.json."""
    if "csv" not in formats:
        return {}
    spec = spectrum(signal, zpf)
    wlen = window_len if window_len is not None else _default_window(signal.num_samples)
    gram = spectrogram(signal, wlen, overlap)
    ac = autocorrelation(signal)
    af = ambiguity_function(signal, **af_opts)
    nu, tau, af_db = _grid_columns(af.dopplers_hz, af.delays_s, to_db(af.magnitude).T)
    return {
        "spectrum.csv": (("f_hz", "db"),
                         (spec.freqs_hz, to_db(spec.magnitude / spec.magnitude.max()))),
        "spectrogram.csv": (("t_s", "f_hz", "db"),
                            _grid_columns(gram.times_s, gram.freqs_hz, gram.magnitude_db)),
        "autocorrelation.csv": (("lag_s", "db"), (ac.lags_s, ac.magnitude_db)),
        "ambiguity.csv": (("tau_s", "nu_hz", "db"), (tau, nu, af_db)),
    }


def cmd_synth(tree: _Tree, args, formats) -> dict:
    spec, fs = _take_waveform(tree)
    region_data = tree.take("region", default=None)
    zpf = tree.take_number("zero_pad_factor", default=4, integer=True, minimum=1)
    carrier = tree.take_number("wav_carrier_hz", default=None, positive=True)
    tree.finish()
    signal = synth_waveform(spec, fs)
    region = parse_region(region_data, spec.bandwidth_hz, signal.duration_s)
    artifacts = {}
    if "csv" in formats:
        artifacts["waveform.csv"] = (("index", "t_s", "re", "im"),
                                     (range(signal.num_samples), signal.time_grid(),
                                      signal.samples.real, signal.samples.imag))
    if "json" in formats:
        artifacts["metrics.json"] = _metrics_doc(signal, spec.bandwidth_hz, region, zpf)
    if "wav" in formats:
        pb_signal = signal
        if signal.center_freq_hz <= 0:
            fc = carrier if carrier is not None else fs / 4.0
            pb_signal = replace(signal, center_freq_hz=fc)
        artifacts["waveform.wav"] = (to_passband(pb_signal), fs)
    return artifacts


def cmd_analyze(tree: _Tree, args, formats) -> dict:
    spec, fs = _take_waveform(tree)
    region_data = tree.take("region", default=None)
    zpf, window_len, overlap, af_opts = _parse_analysis_options(tree, spec.duration_s)
    tree.finish()
    signal = synth_waveform(spec, fs)
    region = parse_region(region_data, spec.bandwidth_hz, signal.duration_s)
    artifacts = _analysis_csvs(formats, signal, zpf, window_len, overlap, af_opts)
    if "json" in formats:
        artifacts["metrics.json"] = _metrics_doc(signal, spec.bandwidth_hz, region, zpf)
    return artifacts


def _build_initial(initial, num_harmonics: int, bandwidth_hz: float,
                   duration_s: float, sample_rate_hz: float, seed: int,
                   sidelobe_db: float, nbar: int) -> MtsfmParameters:
    from .optimize import default_initial_parameters, nlfm_initial_parameters

    if initial == "default":
        return default_initial_parameters(bandwidth_hz, duration_s,
                                          num_harmonics, seed)
    if initial == "nlfm":
        return nlfm_initial_parameters(bandwidth_hz, duration_s, num_harmonics,
                                       sample_rate_hz, sidelobe_db=sidelobe_db,
                                       nbar=nbar)
    if isinstance(initial, dict):
        itree = _Tree(initial, "problem.initial")
        params = _take_coefficients(itree, duration_s, num_harmonics)
        itree.finish()
        return params
    raise ConfigError("problem: 'initial' must be 'default', 'nlfm', or {alpha, beta}")


def cmd_optimize(tree: _Tree, args, formats) -> dict:
    from .optimize import OptimizationProblem, objective_db, optimize_waveform

    prob = tree.take_subtree("problem")
    tree.finish()
    num_harmonics = prob.take_number("num_harmonics", default=32, integer=True, minimum=1)
    duration = prob.take_number("duration_s", positive=True)
    bandwidth = prob.take_number("bandwidth_hz", positive=True)
    fs = resolve_sample_rate(bandwidth, duration, prob.take_number(
        "sample_rate_hz", default=None, positive=True), prob.context)
    objective = prob.take("objective", default="isl")
    region_data = prob.take("region", default=None)
    target = prob.take("bandwidth_target_hz", default="initial_rms")
    if target != "initial_rms":
        target = prob.check_number("bandwidth_target_hz", target, positive=True)
    tolerance = prob.take_number("bandwidth_tolerance", default=0.1, positive=True)
    weight = prob.take_number("penalty_weight", default=1.0, positive=True)
    budget = prob.take_number("budget", integer=True, minimum=1)
    seed = _take_seed(prob, args)
    method = prob.take("method", default="nelder_mead")
    initial_spec = prob.take("initial", default="default")
    sidelobe_db = prob.take_number("nlfm_sidelobe_db", default=45.0, positive=True,
                                   maximum=DB_LIMIT)
    nbar = prob.take_number("nlfm_nbar", default=10, integer=True, minimum=2)
    prob.finish()

    region = parse_region(region_data, bandwidth, duration)
    initial = _build_initial(initial_spec, num_harmonics, bandwidth, duration,
                             fs, seed, sidelobe_db, nbar)
    before = synth_mtsfm(initial, fs)
    if target == "initial_rms":
        # spectrum(s, 2) transforms at _fft_length(2N), the objective's own grid
        target = rms_bandwidth(spectrum(before, 2))
    with _as_config_error("problem"):
        problem = OptimizationProblem(
            initial=initial, region=region, objective=objective,
            bandwidth_target_hz=target, bandwidth_tolerance=tolerance,
            penalty_weight=weight, budget=budget, seed=seed, sample_rate_hz=fs)
        result = optimize_waveform(problem, method=method)

    after = synth_mtsfm(result.final, fs)
    zpf, window_len, overlap, af_opts = _parse_analysis_options(_Tree({}, "problem"), duration)
    artifacts = {}
    if "json" in formats:
        artifacts["coefficients.json"] = {
            "num_harmonics": result.final.num_harmonics,
            "duration_s": result.final.duration_s,
            "alpha": list(result.final.alpha),
            "beta": list(result.final.beta),
        }
        doc = result.to_dict()
        doc.update({
            "method": method,
            "objective": objective,
            "seed": seed,
            "budget": budget,
            "sample_rate_hz": fs,
            "bandwidth_target_hz": target,
            "bandwidth_tolerance": tolerance,
            "penalty_weight": weight,
            "region_inner_delay_s": region.inner_delay_s,
            "region_outer_delay_s": region.outer_delay_s,
            "before_metrics": _metrics_doc(before, bandwidth, region, zpf),
            "after_metrics": _metrics_doc(after, bandwidth, region, zpf),
        })
        artifacts["optimize_result.json"] = doc
    if "csv" in formats:
        artifacts["trace.csv"] = (("evaluation", "objective_db"),
                                  ([idx for idx, _ in result.trace],
                                   [objective_db(val, objective) for _, val in result.trace]))
    artifacts.update(_analysis_csvs(formats, after, zpf, window_len, overlap, af_opts))
    if "json" in formats:
        artifacts["metrics.json"] = artifacts["optimize_result.json"]["after_metrics"]
    return artifacts


def cmd_simulate(tree: _Tree, args, formats) -> dict:
    spec, fs = _take_waveform(tree)
    scene = parse_scene(tree.take("scene"))
    margin = tree.take_number("margin_db", default=6.0, positive=True)
    seed = _take_seed(tree, args)
    window = tree.take_number("window_s", default=None, positive=True)
    dopplers = parse_dopplers(tree)
    tree.finish()
    signal = synth_waveform(spec, fs)
    received = simulate_returns(signal, scene, seed, window_s=window)
    rd = mf_bank(received, signal, dopplers)
    report = resolvability_report(rd, scene, spec.bandwidth_hz, margin_db=margin)
    artifacts = {}
    if "csv" in formats:
        nu, tau, db = _grid_columns(rd.dopplers_hz, rd.delays_s, rd.magnitude_db)
        artifacts["range_doppler.csv"] = (("tau_s", "nu_hz", "db"), (tau, nu, db))
        artifacts["zero_doppler_cut.csv"] = (("lag_s", "db"),
                                             (rd.delays_s, rd.zero_doppler_cut()))
    if "json" in formats:
        artifacts["resolvability.json"] = {
            "bandwidth_hz": spec.bandwidth_hz,
            "margin_db": margin,
            "seed": seed,
            "all_detected": all(e["detected"] for e in report),
            "echoes": report,
        }
    return artifacts


def cmd_compare(tree: _Tree, args, formats) -> dict:
    entries = tree.take("waveforms")
    if not isinstance(entries, list) or len(entries) < 2:
        raise ConfigError("compare needs a 'waveforms' list with >= 2 entries")
    common_fs = tree.take_number("sample_rate_hz", default=None, positive=True)
    region_data = tree.take("region", default=None)
    mode = tree.take("doppler_mode", default="narrowband")
    fraction = tree.take_number("doppler_fraction", default=0.1, positive=True)
    num_points = tree.take_number("num_doppler_points", default=16, integer=True, minimum=2)
    with _as_config_error(tree.context):  # the Doppler grid built below
        _sample_count("'num_doppler_points'", num_points)
    inband_bw = tree.take_number("inband_bandwidth_hz", default=None, positive=True)
    zpf = tree.take_number("zero_pad_factor", default=4, integer=True, minimum=1)
    tree.finish()

    parsed = []
    for i, entry in enumerate(entries):
        etree = _Tree(entry, f"waveforms[{i}]")
        name = etree.take("name")
        if not isinstance(name, str) or not name or any(c in name for c in ',"\r\n'):
            raise ConfigError(f"waveforms[{i}]: 'name' must be a nonempty string "
                              "without ',', '\"', CR or LF")
        spec, fs = _take_waveform(etree, f"waveforms[{i}].waveform", common_fs)
        etree.finish()
        parsed.append((name, spec, fs))
    rates = {fs for _, _, fs in parsed}
    if len(rates) != 1:
        raise InvalidInputError("compare requires a single common sample rate; "
                                f"got {sorted(rates)}")

    first = parsed[0][1]
    region = parse_region(region_data, first.bandwidth_hz, first.duration_s)
    ref_bandwidth = max(spec.bandwidth_hz for _, spec, _ in parsed)
    fractions = np.linspace(0.0, 1.5 * fraction, num_points)
    dopplers = fractions * ref_bandwidth
    eval_hz = fraction * ref_bandwidth
    eval_idx = int(np.argmin(np.abs(dopplers - eval_hz)))

    docs = []
    for name, spec, fs in parsed:
        signal = synth_waveform(spec, fs)
        report = metrics_report(signal, inband_bw or spec.bandwidth_hz,
                                region=region, zero_pad_factor=zpf)
        curve = doppler_tolerance_curve(signal, dopplers, mode=mode)
        doc = report.to_dict()
        doc.update({
            "name": name,
            "bandwidth_hz": spec.bandwidth_hz,
            "doppler_loss_db": curve[eval_idx].peak_loss_db,
            "doppler_curve": {
                "dopplers_hz": [p.doppler_hz for p in curve],
                "loss_db": [p.peak_loss_db for p in curve],
                "peak_shift_s": [p.peak_shift_s for p in curve],
            },
        })
        docs.append(doc)
    artifacts = {}
    if "csv" in formats:
        keys = ("name", "psl_db", "isl_db", "rms_bandwidth_hz", "p99_bandwidth_hz",
                "inband_energy_fraction", "doppler_loss_db")
        artifacts["comparison.csv"] = (keys, tuple([doc[k] for doc in docs] for k in keys))
        curve_columns = ("dopplers_hz", "loss_db", "peak_shift_s")
        artifacts["doppler_curves.csv"] = (
            ("name", "doppler_hz", "loss_db", "peak_shift_s"),
            ([doc["name"] for doc in docs for _ in doc["doppler_curve"]["dopplers_hz"]],
             *([v for doc in docs for v in doc["doppler_curve"][key]] for key in curve_columns)))
    if "json" in formats:
        artifacts["comparison.json"] = {
            "doppler_mode": mode,
            "doppler_eval_hz": float(dopplers[eval_idx]),
            "region_inner_delay_s": region.inner_delay_s,
            "region_outer_delay_s": region.outer_delay_s,
            "entries": docs,
        }
    return artifacts


_COMMANDS = {
    "synth": cmd_synth,
    "analyze": cmd_analyze,
    "optimize": cmd_optimize,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavekit",
        description="Transmit-waveform synthesis, analysis, sidelobe "
                    "optimization, and echo-scene simulation.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory")
        if name in ("optimize", "simulate"):  # the commands that draw random numbers
            p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--format", default=None,
                       help="comma-separated subset of csv,json,wav")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        tree = load_config(args.config, args.cmd)
        out_dir, formats = _resolve_run_options(tree, args)
        # {file name: CSV (header, columns), JSON document or WAV (samples, rate)}
        payloads = {name: (encode_csv(*content) if name.endswith(".csv")
                           else encode_json(content) if name.endswith(".json")
                           else encode_wav(*content))
                    for name, content in _COMMANDS[args.cmd](tree, args, formats).items()}
        for name, payload in payloads.items():
            _atomic_write_bytes(os.path.join(out_dir, name), payload)
    except (ConfigError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
