"""wavekit: transmit-waveform design and analysis for active sonar/radar.

Synthesis of the classical waveform bank (CW, LFM, HFM, Costas FSK, P4,
geometric comb) and the multi-tone sinusoidal FM (MTSFM) family whose
phase coefficients are free design parameters; matched-filter,
ambiguity, and sidelobe metrics; region-constrained sidelobe
optimization; and point-echo scene simulation with a Doppler-tuned
matched-filter bank.

The namespace is lazy (PEP 562): `import wavekit` imports no submodule.
The first use of a public name, `wavekit.synth_lfm` say, imports the one
submodule that defines it (with that submodule's own imports), and a
submodule such as `wavekit.metrics` loads on first attribute access too.
So a process loads only the code its work uses.  The CLI's synth,
analyze, simulate and compare commands load every submodule but
`optimize`, the largest; the optimize command loads it too.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it exports.
_EXPORTS = {
    "costas": ("CostasCode", "generate_welch_costas", "is_prime", "is_primitive_root",
               "primitive_roots", "verify_costas"),
    "errors": ("ConfigError", "InvalidInputError", "OutputError", "WavekitError"),
    "metrics": ("AmbiguitySurface", "CorrelationResponse", "DopplerTolerancePoint",
                "MetricsReport", "RegionSpec", "ambiguity_function", "autocorrelation",
                "cross_correlation", "default_region", "doppler_tolerance_curve",
                "inband_energy_fraction", "isl_region", "metrics_report", "p99_bandwidth",
                "psl_region", "rms_bandwidth"),
    "optimize": ("OptimizationProblem", "OptimizationResult", "default_initial_parameters",
                 "evaluate_objective", "finite_difference_gradient",
                 "minimize_gradient_descent", "minimize_lbfgs", "minimize_nelder_mead",
                 "nlfm_initial_parameters", "objective_db", "optimize_waveform",
                 "params_to_vector", "vector_to_params"),
    "scene": ("Echo", "EchoScene", "RangeDopplerMap", "benchmark_scene", "mf_bank",
              "resolvability_report", "simulate_returns"),
    "signal": ("SampledSignal", "Spectrogram", "Spectrum", "spectrogram", "spectrum", "to_db",
               "to_passband"),
    "waveforms": ("MtsfmParameters", "WaveformSpec", "comb_tone_frequencies",
                  "instantaneous_frequency", "p4_chip_phases", "swept_bandwidth",
                  "synth_costas_fsk", "synth_cw", "synth_geometric_comb", "synth_hfm",
                  "synth_lfm", "synth_mtsfm", "synth_p4", "synth_waveform"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import on first use: a public name from its submodule, kept here so the
    next lookup is a plain one, or a submodule itself."""
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_EXPORTS})
