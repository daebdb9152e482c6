"""The one numeric rule: every public numeric argument refuses a hostile value
with InvalidInputError naming the argument, never with a bare numpy or Python
error and never with a warning.

_ROWS is the table of (callable, argument, call, hostile values).  Hypothesis
draws each row's values from NaN, +/-inf, True, 0, negatives and 1e300, by the
rule the argument follows.  A second test walks wavekit.__all__ and fails if a
parameter annotated float or int has no row, so a new entry point cannot skip
the rule.
"""

import dataclasses
import inspect
import re
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavekit as wk
from wavekit.errors import InvalidInputError, check_number

# Values every numeric argument refuses.
_ANY = st.sampled_from([float("nan"), float("inf"), float("-inf"), True])
_NEGATIVE = st.floats(max_value=-1e-300, allow_infinity=False)
_HUGE = st.just(1e300)
_FINITE = _ANY
_NONNEGATIVE = _ANY | _NEGATIVE
_POSITIVE = _NONNEGATIVE | st.just(0.0)
_RATE = _POSITIVE | _HUGE                 # sample rates are capped at MAX_RATE_HZ
_DB_CAPPED = _ANY | _HUGE                 # dB levels whose 10**(x/20) is taken
_FLOOR_DB = _DB_CAPPED | st.just(-1e300)
_INT = _ANY | _HUGE                       # a float, even a huge one, is no int
_SEED = _INT | st.integers(max_value=-1)
_COUNT = _SEED | st.just(0)

_S = wk.synth_lfm(16.0, 1.0, 128.0)
_HFM = wk.synth_hfm(90.0, 110.0, 1.0, 128.0)
_SPEC = wk.spectrum(_S)
_SCENE = wk.benchmark_scene(16.0)
_MAP = wk.mf_bank(wk.simulate_returns(_S, _SCENE, 0), _S, [0.0])
_PARAMS = wk.MtsfmParameters(alpha=np.array([0.1]), beta=np.array([2.0]), duration_s=1.0)
_CODE = wk.generate_welch_costas(5, 2)
_PROBLEM = wk.OptimizationProblem(
    initial=_PARAMS, region=wk.RegionSpec(0.1, 0.2), objective="isl",
    bandwidth_target_hz=4.0, bandwidth_tolerance=0.1, penalty_weight=1.0,
    budget=5, seed=0, sample_rate_hz=64.0)
_LFM_SPEC = {"kind": "lfm", "bandwidth_hz": 16.0, "duration_s": 1.0}
_COMB = {"num_tones": 4, "ratio": 1.5, "bandwidth_hz": 10.0}


def _row(callable_name, argument, call, values):
    return pytest.param(callable_name, argument, call, values,
                        id=f"{callable_name}.{argument}")


def _keyword(callable_name, argument, values, *args, **kwargs):
    """A row calling wavekit.<callable_name>(*args, **kwargs, argument=value)."""
    target = getattr(wk, callable_name)
    return _row(callable_name, argument,
                lambda v: target(*args, **{**kwargs, argument: v}), values)


def _problem(argument, values):
    return _row("OptimizationProblem", argument,
                lambda v: dataclasses.replace(_PROBLEM, **{argument: v}), values)


_ROWS = [
    # signal
    _keyword("to_db", "floor_db", _FLOOR_DB, np.ones(3)),
    _keyword("to_db", "magnitude", st.sampled_from([[np.nan], [1.0, np.nan]])),
    _keyword("SampledSignal", "sample_rate_hz", _RATE, samples=np.ones(4)),
    _keyword("SampledSignal", "center_freq_hz", _NONNEGATIVE, samples=np.ones(4),
             sample_rate_hz=8.0),
    _keyword("spectrum", "zero_pad_factor", _COUNT, _S),
    _keyword("p99_bandwidth", "fraction", _POSITIVE, _SPEC),
    _keyword("spectrogram", "window_len", _COUNT, _S, overlap=0.5),
    _keyword("spectrogram", "overlap", _NONNEGATIVE, _S, window_len=16),
    # waveforms
    _keyword("MtsfmParameters", "duration_s", _POSITIVE, alpha=[0.1], beta=[1.0]),
    _keyword("instantaneous_frequency", "t_grid",
             st.sampled_from([[np.nan], [0.5, np.inf], [-0.1]]), _PARAMS),
    _keyword("synth_mtsfm", "sample_rate_hz", _RATE, _PARAMS),
    _keyword("synth_mtsfm", "center_freq_hz", _NONNEGATIVE, _PARAMS, 64.0),
    _keyword("synth_cw", "duration_s", _POSITIVE, sample_rate_hz=64.0),
    _keyword("synth_cw", "sample_rate_hz", _RATE, 1.0),
    _keyword("synth_cw", "center_freq_hz", _NONNEGATIVE, 1.0, 64.0),
    _keyword("synth_lfm", "bandwidth_hz", _POSITIVE, duration_s=1.0, sample_rate_hz=64.0),
    _keyword("synth_lfm", "duration_s", _POSITIVE, 16.0, sample_rate_hz=64.0),
    _keyword("synth_lfm", "sample_rate_hz", _RATE, 16.0, 1.0),
    _keyword("synth_lfm", "center_freq_hz", _NONNEGATIVE, 16.0, 1.0, 64.0),
    _keyword("synth_hfm", "f1_hz", _POSITIVE, f2_hz=110.0, duration_s=1.0,
             sample_rate_hz=128.0),
    _keyword("synth_hfm", "f2_hz", _POSITIVE, 90.0, duration_s=1.0, sample_rate_hz=128.0),
    _keyword("synth_hfm", "duration_s", _POSITIVE, 90.0, 110.0, sample_rate_hz=128.0),
    _keyword("synth_hfm", "sample_rate_hz", _RATE, 90.0, 110.0, 1.0),
    _keyword("synth_costas_fsk", "duration_s", _POSITIVE, _CODE, sample_rate_hz=128.0),
    _keyword("synth_costas_fsk", "sample_rate_hz", _RATE, _CODE, 1.0),
    _keyword("synth_p4", "num_chips", _COUNT, duration_s=1.0, sample_rate_hz=64.0),
    _keyword("synth_p4", "duration_s", _POSITIVE, 8, sample_rate_hz=64.0),
    _keyword("synth_p4", "sample_rate_hz", _RATE, 8, 1.0),
    _keyword("p4_chip_phases", "num_chips", _COUNT),
    *(_keyword(name, argument, values, **{**_COMB, argument: None}, **extra)
      for name, extra in (("comb_tone_frequencies", {}),
                          ("synth_geometric_comb", {"duration_s": 1.0,
                                                    "sample_rate_hz": 128.0}))
      for argument, values in (("num_tones", _COUNT), ("ratio", _POSITIVE | _HUGE),
                               ("bandwidth_hz", _POSITIVE))),
    _keyword("synth_geometric_comb", "duration_s", _POSITIVE, **_COMB, sample_rate_hz=128.0),
    _keyword("synth_geometric_comb", "sample_rate_hz", _RATE, **_COMB, duration_s=1.0),
    _keyword("synth_waveform", "sample_rate_hz", _RATE, wk.WaveformSpec(**_LFM_SPEC)),
    _keyword("WaveformSpec", "bandwidth_hz", _POSITIVE, kind="lfm", duration_s=1.0),
    _keyword("WaveformSpec", "duration_s", _POSITIVE, kind="lfm", bandwidth_hz=16.0),
    _keyword("WaveformSpec", "center_freq_hz", _NONNEGATIVE, **_LFM_SPEC),
    _keyword("WaveformSpec", "num_chips", _COUNT, kind="p4", bandwidth_hz=8.0,
             duration_s=1.0),
    _keyword("WaveformSpec", "num_tones", _COUNT, kind="geometric_comb",
             bandwidth_hz=10.0, duration_s=1.0, tone_ratio=1.5),
    _keyword("WaveformSpec", "tone_ratio", _POSITIVE | _HUGE, kind="geometric_comb",
             bandwidth_hz=10.0, duration_s=1.0, num_tones=4),
    # metrics
    _keyword("RegionSpec", "inner_delay_s", _NONNEGATIVE, outer_delay_s=0.5),
    _keyword("RegionSpec", "outer_delay_s", _POSITIVE, inner_delay_s=0.0),
    _keyword("ambiguity_function", "max_delay_s", _POSITIVE, _S, max_doppler_hz=5.0),
    _keyword("ambiguity_function", "max_doppler_hz", _POSITIVE, _S, 0.5),
    _keyword("ambiguity_function", "num_delays", _COUNT, _S, 0.5, 5.0),
    _keyword("ambiguity_function", "num_dopplers", _COUNT, _S, 0.5, 5.0),
    _keyword("inband_energy_fraction", "bandwidth_hz", _POSITIVE, _SPEC),
    _keyword("doppler_tolerance_curve", "dopplers_hz",
             st.sampled_from([[], [np.nan], [0.0, np.inf], [[0.0, 1.0]]]), _S),
    pytest.param("doppler_tolerance_curve", "dopplers_hz",  # eta = 1 + nu/fc must be > 0
                 lambda v: wk.doppler_tolerance_curve(_HFM, v, mode="wideband"),
                 st.sampled_from([[-100.0], [0.0, -250.0]]),
                 id="doppler_tolerance_curve.dopplers_hz.wideband"),
    _keyword("default_region", "bandwidth_hz", _POSITIVE, duration_s=1.0),
    _keyword("default_region", "duration_s", _POSITIVE, 16.0),
    _keyword("metrics_report", "bandwidth_hz", _POSITIVE, _S),
    _keyword("metrics_report", "zero_pad_factor", _COUNT, _S, 16.0),
    # scene
    _keyword("Echo", "delay_s", _NONNEGATIVE, doppler_hz=0.0, level_db=0.0),
    _keyword("Echo", "doppler_hz", _FINITE, 0.1, level_db=0.0),
    _keyword("Echo", "level_db", _DB_CAPPED | st.floats(min_value=1e-300, max_value=1e300),
             0.1, 0.0),
    _keyword("Echo", "time_scale", _POSITIVE, 0.1, 0.0, 0.0),
    _keyword("EchoScene", "noise_level_db", _DB_CAPPED, echoes=_SCENE.echoes),
    _keyword("RangeDopplerMap", "reference_db", _FINITE, delays_s=np.arange(3.0),
             dopplers_hz=np.zeros(1), magnitude_db=np.zeros((1, 3))),
    _keyword("simulate_returns", "seed", _SEED, _S, _SCENE),
    _keyword("simulate_returns", "window_s", _POSITIVE, _S, _SCENE, 0),
    _keyword("mf_bank", "dopplers_hz",
             st.sampled_from([[], [np.nan], [0.0, -np.inf], [[0.0, 1.0]]]),
             wk.simulate_returns(_S, _SCENE, 0), _S),
    _keyword("resolvability_report", "bandwidth_hz", _POSITIVE, _MAP, _SCENE),
    _keyword("resolvability_report", "margin_db", _POSITIVE, _MAP, _SCENE, 16.0),
    _keyword("benchmark_scene", "bandwidth_hz", _POSITIVE),
    _keyword("benchmark_scene", "first_delay_s", _NONNEGATIVE, 16.0),
    # optimize
    _problem("bandwidth_target_hz", _POSITIVE),
    _problem("bandwidth_tolerance", _POSITIVE),
    _problem("penalty_weight", _POSITIVE),
    _problem("budget", _COUNT),
    _problem("seed", _SEED),
    _problem("sample_rate_hz", _RATE),
    _keyword("vector_to_params", "duration_s", _POSITIVE, np.zeros(2)),
    _keyword("objective_db", "value", _FINITE, objective="isl"),
    _keyword("finite_difference_gradient", "step", _POSITIVE, _PARAMS, _PROBLEM),
    *(_keyword("default_initial_parameters", argument, values,
               **{"bandwidth_hz": 16.0, "duration_s": 1.0, "num_harmonics": 2, "seed": 0,
                  argument: None})
      for argument, values in (("bandwidth_hz", _POSITIVE), ("duration_s", _POSITIVE),
                               ("num_harmonics", _COUNT), ("seed", _SEED))),
    *(_keyword("nlfm_initial_parameters", argument, values,
               **{"bandwidth_hz": 16.0, "duration_s": 1.0, "num_harmonics": 2,
                  "sample_rate_hz": 128.0, argument: None})
      for argument, values in (("bandwidth_hz", _POSITIVE), ("duration_s", _POSITIVE),
                               ("num_harmonics", _COUNT), ("sample_rate_hz", _RATE),
                               ("sidelobe_db", _POSITIVE | _HUGE), ("nbar", _COUNT))),
    # costas
    _keyword("CostasCode", "sequence", st.sampled_from([(2.0, 1), (True, 1), (2, np.nan)])),
    _keyword("verify_costas", "code", st.sampled_from([(2.5, 1), (1, True), (np.inf, 1)])),
    _keyword("is_prime", "n", _INT),
    _keyword("is_primitive_root", "g", _INT, p=5),
    _keyword("is_primitive_root", "p", _INT, 2),
    _keyword("primitive_roots", "p", _INT),
    _keyword("generate_welch_costas", "p", _INT, g=2),
    _keyword("generate_welch_costas", "g", _INT, 5),
]

# Result types: the library builds them from values it has computed, and
# callers read them; they are not entry points for input.
_EXEMPT = {
    "MetricsReport": "result of metrics_report",
    "OptimizationResult": "result of the minimizers",
    "DopplerTolerancePoint": "result of doppler_tolerance_curve",
}


@pytest.mark.parametrize("callable_name, argument, call, values", _ROWS)
def test_hostile_numbers_raise_invalid_input_naming_the_argument(
        callable_name, argument, call, values):
    @settings(max_examples=20, deadline=None, database=None)
    @given(values)
    def refuses(value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError) as excinfo:
                call(value)
        assert re.search(rf"\b{argument}\b", str(excinfo.value)), (value, str(excinfo.value))

    refuses()


def _numeric_parameters():
    """(public name, parameter) for each parameter annotated float or int,
    alone or in a union such as `float | None`."""
    for name in wk.__all__:
        obj = getattr(wk, name)
        if not callable(obj) or (inspect.isclass(obj) and issubclass(obj, BaseException)):
            continue
        for param in inspect.signature(obj).parameters.values():
            annotation = param.annotation
            if isinstance(annotation, str) and {"float", "int"} & {
                    part.strip() for part in annotation.split("|")}:
                yield name, param.name


def test_all_lists_every_public_name():
    """The coverage walks here and in test_signal iterate wavekit.__all__, so a
    public name missing from it would escape both the numeric and the array rule.
    The namespace is lazy, so each listed name is resolved first; a public name
    the package then holds but does not list still fails."""
    for name in wk.__all__:
        getattr(wk, name)
    public = [name for name, obj in vars(wk).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)]
    assert sorted(wk.__all__) == sorted(public)


def test_every_numeric_parameter_has_a_row():
    covered = {(p.values[0], p.values[1]) for p in _ROWS}
    needed = {(name, param) for name, param in _numeric_parameters() if name not in _EXEMPT}
    assert sorted(needed - covered) == []
    for name, argument in covered:
        assert argument in inspect.signature(getattr(wk, name)).parameters, (name, argument)
    assert {name for name, _ in _numeric_parameters()} >= set(_EXEMPT)


def test_check_number_rule():
    assert check_number("x", np.float32(0.5)) == 0.5
    assert type(check_number("x", np.int64(3))) is float
    assert type(check_number("n", np.int64(3), integer=True)) is int
    assert check_number("n", 10**400, integer=True) == 10**400
    for value, message in [(4.0, "^n must be an integer$"), (np.bool_(True), "^n must be an"),
                           ("3", "^n must be an integer$")]:
        with pytest.raises(InvalidInputError, match=message):
            check_number("n", value, integer=True)
    for value, rule, message in [
            (10**400, {}, "^x must be finite$"), ("1", {}, "^x must be a number$"),
            (None, {}, "^x must be a number$"), (0.0, {"positive": True}, "^x must be positive$"),
            (-1, {"minimum": 0.0}, r"^x must be >= 0\.0$"),
            (2, {"maximum": 1}, "^x must be <= 1$")]:
        with pytest.raises(InvalidInputError, match=message):
            check_number("x", value, **rule)
    assert check_number("x", 1, minimum=1, maximum=1) == 1.0
