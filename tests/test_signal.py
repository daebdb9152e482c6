"""Sampled-signal container, dB conversion, and spectral transforms."""

import dataclasses
import re

import numpy as np
import pytest

import wavekit as wk
import wavekit.signal as wk_signal
from wavekit.errors import InvalidInputError
from wavekit.signal import _MAX_SAMPLES, DB_FLOOR, _sample_count

from conftest import traced_peak
from oracles import dirichlet_magnitude, whole_array_spectrogram, whole_array_spectrum


def test_midpoint_time_grid():
    sig = wk.synth_cw(1.0, 64.0)
    t = sig.time_grid()
    assert t[0] == pytest.approx(0.5 / 64.0, abs=0)
    np.testing.assert_allclose(np.diff(t), 1.0 / 64.0, rtol=0, atol=1e-15)


def test_energy_matches_sample_sum():
    sig = wk.synth_lfm(32.0, 1.0, 256.0)
    assert sig.energy() == pytest.approx(np.sum(np.abs(sig.samples) ** 2), abs=0)


def test_duration_snaps_to_sample_count():
    sig = wk.synth_cw(1.0, 100.0)
    assert sig.num_samples == 100
    assert sig.duration_s == pytest.approx(100 / 100.0)


def test_signal_validation():
    with pytest.raises(InvalidInputError):
        wk.SampledSignal(samples=np.ones(1, dtype=complex), sample_rate_hz=10.0)
    with pytest.raises(InvalidInputError):
        wk.SampledSignal(samples=np.ones((2, 2), dtype=complex), sample_rate_hz=10.0)
    with pytest.raises(InvalidInputError):
        wk.SampledSignal(samples=np.ones(4, dtype=complex), sample_rate_hz=0.0)
    with pytest.raises(InvalidInputError):
        wk.SampledSignal(samples=np.array([1.0, np.nan, 1.0], dtype=complex),
                         sample_rate_hz=10.0)


@pytest.mark.parametrize("rate", [np.nan, np.inf], ids=["nan", "inf"])
def test_signal_rejects_a_non_finite_sample_rate(rate):
    """Else the derived duration reads NaN or 0.0."""
    with pytest.raises(InvalidInputError, match="^sample_rate_hz must be finite$"):
        wk.SampledSignal(samples=np.ones(4, dtype=complex), sample_rate_hz=rate)


def test_samples_are_immutable():
    sig = wk.synth_cw(1.0, 64.0)
    with pytest.raises(ValueError):
        sig.samples[0] = 0.0


def test_signal_copies_its_samples():
    caller = np.ones(8, dtype=complex)
    sig = wk.SampledSignal(samples=caller[:4], sample_rate_hz=4.0)
    caller[0] = 5.0
    assert sig.energy() == 4.0
    assert caller.flags.writeable


def _peak_at_0db(values):
    """values shifted in place to a 0 dB peak: the same array, now a valid map."""
    values -= values.max()
    return values


@pytest.mark.parametrize("build, names", [
    (lambda a, b, c: wk.Spectrum(freqs_hz=a, magnitude=b),
     ("freqs_hz", "magnitude")),
    (lambda a, b, c: wk.CorrelationResponse(lags_s=a, magnitude_db=b),
     ("lags_s", "magnitude_db")),
    (lambda a, b, c: wk.AmbiguitySurface(delays_s=a, dopplers_hz=b, magnitude=c),
     ("delays_s", "dopplers_hz", "magnitude")),
    (lambda a, b, c: wk.Spectrogram(times_s=a, freqs_hz=b, magnitude_db=c),
     ("times_s", "freqs_hz", "magnitude_db")),
    (lambda a, b, c: wk.MtsfmParameters(alpha=a, beta=b, duration_s=1.0),
     ("alpha", "beta")),
    (lambda a, b, c: wk.RangeDopplerMap(delays_s=a, dopplers_hz=b,
                                        magnitude_db=_peak_at_0db(c)),
     ("delays_s", "dopplers_hz", "magnitude_db")),
], ids=["spectrum", "correlation", "ambiguity", "spectrogram", "mtsfm", "range_doppler"])
def test_result_types_copy_their_arrays(build, names):
    arrays = [np.arange(3.0), np.arange(3.0) + 1.0, np.ones((3, 3))]
    obj = build(*arrays)
    for name, caller in zip(names, arrays):
        field = getattr(obj, name)
        assert caller.flags.writeable and not field.flags.writeable
        before = field.copy()
        caller[...] = -7.0
        np.testing.assert_array_equal(getattr(obj, name), before)


# Each grid-shaped result type with its fields, axes in shape order then the
# values, and its own shape message.
_GRID_TYPES = [
    pytest.param(wk.Spectrum, ("freqs_hz", "magnitude"),
                 "spectrum axis/magnitude length mismatch", id="spectrum"),
    pytest.param(wk.CorrelationResponse, ("lags_s", "magnitude_db"),
                 "lag/magnitude length mismatch", id="correlation"),
    pytest.param(wk.AmbiguitySurface, ("delays_s", "dopplers_hz", "magnitude"),
                 "ambiguity matrix does not match axis lengths", id="ambiguity"),
    pytest.param(wk.Spectrogram, ("times_s", "freqs_hz", "magnitude_db"),
                 "spectrogram matrix does not match axis lengths", id="spectrogram"),
    pytest.param(wk.RangeDopplerMap, ("dopplers_hz", "delays_s", "magnitude_db"),
                 re.escape("magnitude_db must be (num_dopplers, num_delays)"),
                 id="range_doppler"),
]

# The array fields outside the grid types, each with valid keyword arguments.
_VECTOR_FIELDS = [
    pytest.param(wk.SampledSignal, "samples",
                 {"samples": np.ones(4, dtype=complex), "sample_rate_hz": 8.0}, id="samples"),
    *(pytest.param(wk.MtsfmParameters, name,
                   {"alpha": np.ones(3), "beta": np.ones(3), "duration_s": 1.0}, id=name)
      for name in ("alpha", "beta")),
]

_NON_FINITE = pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                                      ids=["nan", "inf", "-inf"])


def _grid(cls, fields, axis_0, axis_1, values):
    """cls built from (axis 0, axis 1, values); a one-axis type ignores axis 1."""
    return cls(**dict(zip(fields, (axis_0, axis_1)[:len(fields) - 1] + (values,))))


@pytest.mark.parametrize("cls, fields, message", _GRID_TYPES)
def test_grid_types_reject_a_2d_axis(cls, fields, message):
    """A 2 x 2 first axis fails, though the values match its shape (one-axis
    types) or its size of 4 (two-axis types)."""
    axis = np.zeros((2, 2))
    values = np.zeros((4, 3) if len(fields) == 3 else (2, 2))
    with pytest.raises(InvalidInputError, match=message):
        _grid(cls, fields, axis, np.arange(3.0), values)


@pytest.mark.parametrize("cls, fields, message", _GRID_TYPES)
def test_grid_types_reject_mismatched_values(cls, fields, message):
    values = np.zeros((4, 2) if len(fields) == 3 else 3)
    with pytest.raises(InvalidInputError, match=message):
        _grid(cls, fields, np.arange(4.0), np.arange(3.0), values)


@pytest.mark.parametrize("cls, fields, message", _GRID_TYPES)
def test_grid_types_reject_an_empty_axis(cls, fields, message):
    """An empty first axis with values of the matching empty shape fails by
    name, before any reduction over the values or any axis-step read."""
    values = np.zeros((0, 3) if len(fields) == 3 else 0)
    with pytest.raises(InvalidInputError, match=f"^{fields[0]} must not be empty$"):
        _grid(cls, fields, np.zeros(0), np.arange(3.0), values)


@_NON_FINITE
@pytest.mark.parametrize("cls, fields, message", _GRID_TYPES)
def test_grid_types_reject_non_finite_values(cls, fields, message, bad):
    """A NaN or infinity in any axis or in the values fails by the field's name,
    before the shape, sign or peak checks read the values."""
    valid = [np.arange(3.0), np.arange(2.0), np.zeros((3, 2) if len(fields) == 3 else 3)]
    for name, i in zip(fields, (0, 1, 2) if len(fields) == 3 else (0, 2)):
        arrays = [a.copy() for a in valid]
        arrays[i].flat[1] = bad
        with pytest.raises(InvalidInputError, match=f"^{name} must be finite$"):
            _grid(cls, fields, *arrays)


@_NON_FINITE
@pytest.mark.parametrize("cls, field, valid", _VECTOR_FIELDS)
def test_vector_fields_reject_non_finite_values(cls, field, valid, bad):
    """A complex field is refused for a bad real or imaginary part."""
    parts = (bad, complex(0.0, bad)) if np.iscomplexobj(valid[field]) else (bad,)
    for part in parts:
        hostile = valid[field].copy()
        hostile[1] = part
        with pytest.raises(InvalidInputError, match=f"^{field} must be finite$"):
            cls(**{**valid, field: hostile})


def test_every_array_field_has_a_non_finite_row():
    """Each np.ndarray field of a public dataclass is in _GRID_TYPES or
    _VECTOR_FIELDS, so a new array field cannot skip the finite rule."""
    needed = {(name, f.name) for name in wk.__all__
              if dataclasses.is_dataclass(cls := getattr(wk, name))
              for f in dataclasses.fields(cls) if f.type in ("np.ndarray", np.ndarray)}
    covered = ({(p.values[0].__name__, f) for p in _GRID_TYPES for f in p.values[1]}
               | {(p.values[0].__name__, p.values[1]) for p in _VECTOR_FIELDS})
    assert sorted(needed - covered) == []
    assert covered <= needed


@pytest.mark.parametrize("build, step, axis", [
    (lambda: wk.Spectrum(freqs_hz=np.zeros(1), magnitude=np.ones(1)), "df_hz", "freqs_hz"),
    (lambda: wk.CorrelationResponse(lags_s=np.zeros(1), magnitude_db=np.zeros(1)),
     "lag_step_s", "lags_s"),
], ids=["spectrum", "correlation"])
def test_one_point_axis_has_no_step(build, step, axis):
    """The grid rule accepts one point; reading its spacing fails by name."""
    grid = build()
    with pytest.raises(InvalidInputError, match=f"^{axis} has one point, so no spacing$"):
        getattr(grid, step)


def test_to_db_floor():
    db = wk.to_db(np.array([1.0, 1e-3, 0.0]))
    assert db[0] == pytest.approx(0.0, abs=1e-12)
    assert db[1] == pytest.approx(-60.0, abs=1e-9)
    assert db[2] == -120.0
    assert np.all(np.isfinite(wk.to_db(np.zeros(5))))


def test_spectrum_rejects_a_negative_magnitude():
    with pytest.raises(InvalidInputError, match="nonnegative"):
        wk.Spectrum(freqs_hz=np.array([0.0, 1.0]), magnitude=np.array([1.0, -1e-300]))


@pytest.mark.parametrize("measure", [
    wk.rms_bandwidth, wk.p99_bandwidth, lambda spec: wk.inband_energy_fraction(spec, 1.0),
], ids=["rms_bandwidth", "p99_bandwidth", "inband_energy_fraction"])
def test_bandwidth_measures_refuse_an_all_zero_spectrum(measure):
    spec = wk.Spectrum(freqs_hz=np.arange(4.0) - 2.0, magnitude=np.zeros(4))
    with pytest.raises(InvalidInputError, match="zero energy"):
        measure(spec)


def test_spectrum_parseval():
    """sum(|S|^2 df) equals the time-domain energy for any zero padding."""
    sig = wk.synth_lfm(64.0, 1.0, 512.0)
    for zpf in (1, 2, 4):
        spec = wk.spectrum(sig, zpf)
        energy = np.sum(spec.magnitude ** 2) * spec.df_hz
        assert energy == pytest.approx(sig.energy(), rel=1e-9)


def test_spectrum_axis_spans_nyquist():
    sig = wk.synth_cw(1.0, 256.0)
    spec = wk.spectrum(sig, 4)
    assert spec.freqs_hz[0] == pytest.approx(-128.0)
    assert spec.freqs_hz[-1] == pytest.approx(128.0 - spec.df_hz)
    assert np.all(np.diff(spec.freqs_hz) > 0)


def test_cw_spectrum_matches_dirichlet_kernel():
    """The sampled CW spectrum is the Dirichlet kernel exactly."""
    sig = wk.synth_cw(1.0, 256.0)
    spec = wk.spectrum(sig, 4)
    expected = dirichlet_magnitude(spec.freqs_hz, sig.num_samples, 256.0)
    expected *= spec.magnitude.max() / expected.max()
    np.testing.assert_allclose(spec.magnitude, expected, atol=1e-9)


def _noise(n, rate):
    rng = np.random.default_rng(n)
    return wk.SampledSignal(samples=rng.standard_normal(n) + 1j * rng.standard_normal(n),
                            sample_rate_hz=rate)


_SPECTRUM_SIGNALS = {
    "lfm": wk.synth_lfm(512.0, 1.0, 4096.0),
    "noise_3001": _noise(3001, 3001.0),
    "noise_225": _noise(225, 7.3),
    "noise_5": _noise(5, 1e5 / 3.0),
    "zero": wk.SampledSignal(samples=np.zeros(1000, dtype=complex), sample_rate_hz=1000.0),
}
_ODD_LENGTHS = {("noise_225", 1): 225, ("noise_225", 3): 675, ("noise_5", 1): 5, ("noise_5", 3): 15}


@pytest.mark.parametrize("name", list(_SPECTRUM_SIGNALS))
@pytest.mark.parametrize("zero_pad_factor", [1, 2, 3, 4])
def test_spectrum_is_bitwise_the_one_expression_formula(name, zero_pad_factor):
    """The magnitude built from two slices of the transform, scaled in place,
    and the axis built as one array give the bits of fftshift over the whole
    transform and of fftshift(fftfreq), at odd transform lengths too."""
    sig = _SPECTRUM_SIGNALS[name]
    spec = wk.spectrum(sig, zero_pad_factor)
    nfft = spec.freqs_hz.size
    assert nfft == _ODD_LENGTHS.get((name, zero_pad_factor), nfft)
    for got, want in zip((spec.freqs_hz, spec.magnitude),
                         whole_array_spectrum(sig.samples, sig.sample_rate_hz, nfft)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_spectrum_memory_is_its_transform_plus_the_magnitude():
    """131072 samples at zero_pad_factor 4: a 524288-point transform, 8 MB,
    beside the 4 MB magnitude, which is kept, not copied, as is the axis.
    The one-expression formula, with the copies `Spectrum` made, peaked at
    4.1 magnitudes (17.3 MB); a small warm-up call loads numpy.fft untraced."""
    peak, size = traced_peak("sig = wk.synth_lfm(16384.0, 1.0, 131072.0)\n"
                             "wk.spectrum(wk.synth_lfm(8.0, 1.0, 64.0), 4)",
                             "wk.spectrum(sig, 4)", field="magnitude")
    assert peak < 3.1 * size


def test_spectrum_rejects_bad_zero_pad():
    sig = wk.synth_cw(1.0, 64.0)
    with pytest.raises(InvalidInputError):
        wk.spectrum(sig, 0)


def test_spectrogram_shapes_and_peak():
    sig = wk.synth_lfm(64.0, 1.0, 512.0)
    gram = wk.spectrogram(sig, 64, 0.75)
    assert gram.magnitude_db.shape == (gram.times_s.size, gram.freqs_hz.size)
    assert gram.magnitude_db.max() == pytest.approx(0.0, abs=1e-12)
    assert gram.magnitude_db.min() >= -120.0


def test_spectrogram_tracks_lfm_sweep():
    """Per-frame spectral argmax follows the linear frequency law."""
    bandwidth, duration, fs = 64.0, 1.0, 512.0
    sig = wk.synth_lfm(bandwidth, duration, fs)
    gram = wk.spectrogram(sig, 64, 0.875)
    ridge = gram.freqs_hz[np.argmax(gram.magnitude_db, axis=1)]
    expected = bandwidth * (gram.times_s / duration - 0.5)
    # Frequency resolution of a 64-sample window is fs/64 = 8 Hz.
    assert np.max(np.abs(ridge - expected)) <= 8.0


def test_spectrogram_of_a_zero_signal_reads_the_floor():
    silent = wk.SampledSignal(samples=np.zeros(16, dtype=complex), sample_rate_hz=16.0)
    gram = wk.spectrogram(silent, 8, 0.5)
    assert gram.magnitude_db.shape == (3, 8)
    assert np.all(gram.magnitude_db == DB_FLOOR)


def test_spectrogram_validation():
    sig = wk.synth_cw(1.0, 64.0)
    with pytest.raises(InvalidInputError):
        wk.spectrogram(sig, 1, 0.5)
    with pytest.raises(InvalidInputError):
        wk.spectrogram(sig, 65, 0.5)
    with pytest.raises(InvalidInputError):
        wk.spectrogram(sig, 16, 1.0)


def _assert_same_bits(gram, expected):
    for got, want in zip((gram.times_s, gram.freqs_hz, gram.magnitude_db), expected):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


_RNG = np.random.default_rng(5)
_SIGNALS = {
    "lfm": wk.synth_lfm(512.0, 1.0, 4096.0),
    "noise": wk.SampledSignal(samples=_RNG.standard_normal(3001) + 1j * _RNG.standard_normal(3001),
                              sample_rate_hz=3001.0),
    "zero": wk.SampledSignal(samples=np.zeros(1000, dtype=complex), sample_rate_hz=1000.0),
}


@pytest.mark.parametrize("name", list(_SIGNALS))
@pytest.mark.parametrize("window_len", [2, 3, 64, 255, 256])
@pytest.mark.parametrize("overlap", [0.0, 0.3, 0.5, 0.75, 0.9])
def test_spectrogram_is_bitwise_the_whole_array_formula(name, window_len, overlap):
    """Frames read through a strided view and transformed block by block into
    one output give the bits of the formula over all frames at once."""
    sig = _SIGNALS[name]
    _assert_same_bits(wk.spectrogram(sig, window_len, overlap),
                      whole_array_spectrogram(sig.samples, sig.sample_rate_hz, window_len, overlap))


@pytest.mark.parametrize("block_points", [1, 255, 700, 4099])
@pytest.mark.parametrize("window_len", [3, 64, 256])
def test_spectrogram_blocks_do_not_change_a_bit(monkeypatch, block_points, window_len):
    """Blocks of one frame, of several and a short last block: each frame's
    transform and magnitude are the same bits in any block."""
    monkeypatch.setattr(wk_signal, "_BLOCK_POINTS", block_points)
    sig = _SIGNALS["noise"]
    _assert_same_bits(wk.spectrogram(sig, window_len, 0.6),
                      whole_array_spectrogram(sig.samples, sig.sample_rate_hz, window_len, 0.6))


def test_spectrogram_memory_is_its_output_plus_one_block():
    """131072 samples, a 256-sample window at 0.75 overlap: a 4.2 MB output,
    where one block of frames is 0.5 MB.  The whole-array formula held about
    7.1 outputs (the gathered frames, their windowed copy, the spectrum and its
    shifted copy, the magnitudes, their ratio, the dB values and the copy
    `Spectrogram` kept).  A small warm-up call loads numpy.fft untraced."""
    peak, size = traced_peak("sig = wk.synth_lfm(16384.0, 1.0, 131072.0)\n"
                             "wk.spectrogram(wk.synth_lfm(8.0, 1.0, 64.0), 16, 0.5)",
                             "wk.spectrogram(sig, 256, 0.75)")
    assert peak < 1.5 * size


def test_spectrogram_memory_is_its_output_plus_two_blocks():
    """At overlap 0 the 1 MB output of 512 frames is twice one complex block
    of 128 frames, so the blocks' temporaries show: the transform and its
    shifted copy, about two blocks, as the docstring states."""
    peak, size = traced_peak("sig = wk.synth_lfm(16384.0, 1.0, 131072.0)\n"
                             "wk.spectrogram(wk.synth_lfm(8.0, 1.0, 64.0), 16, 0.5)",
                             "wk.spectrogram(sig, 256, 0.0)")
    assert peak < size + 3 * wk_signal._BLOCK_POINTS * 16


def test_to_passband_baseband_is_real_part():
    sig = wk.synth_lfm(32.0, 1.0, 256.0)
    np.testing.assert_allclose(wk.to_passband(sig), np.real(sig.samples),
                               atol=0)


def test_to_passband_mixes_carrier():
    sig = wk.synth_cw(1.0, 256.0, center_freq_hz=64.0)
    passband = wk.to_passband(sig)
    expected = np.real(sig.samples * np.exp(2j * np.pi * 64.0 * sig.time_grid()))
    np.testing.assert_allclose(passband, expected, atol=1e-15)


def test_to_passband_rejects_carrier_beyond_nyquist():
    sig = wk.synth_lfm(64.0, 1.0, 256.0, center_freq_hz=112.0)
    with pytest.raises(InvalidInputError):
        wk.to_passband(sig)


def test_to_passband_guard_edge_is_half_the_p99_bandwidth_below_nyquist():
    """The guard uses the interpolated 99% width, so its edge is not on a bin."""
    width = wk.p99_bandwidth(wk.spectrum(wk.synth_lfm(64.0, 1.0, 256.0), 1))
    edge = 128.0 - width / 2.0
    wk.to_passband(wk.synth_lfm(64.0, 1.0, 256.0, center_freq_hz=edge - 0.1))
    with pytest.raises(InvalidInputError):
        wk.to_passband(wk.synth_lfm(64.0, 1.0, 256.0, center_freq_hz=edge + 0.1))


def test_to_db_converts_in_place_into_out():
    x = np.array([[0.0, 1e-9, 3e-7], [0.5, 1.0, 2.5]])
    expected = wk.to_db(x)
    assert wk.to_db(x, out=x) is x
    assert x.tobytes() == expected.tobytes()


def test_to_db_matches_the_plain_formula_and_leaves_its_input():
    """Bitwise 20*log10(maximum(x, floor)) on arrays, scalars and 0-d arrays."""
    floor = 10.0 ** (DB_FLOOR / 20.0)
    x = np.array([[0.0, 1e-9, 3e-7], [0.5, 1.0, 2.5]])
    kept = x.copy()
    assert np.array_equal(wk.to_db(x), 20.0 * np.log10(np.maximum(x, floor)))
    assert np.array_equal(x, kept)
    assert np.array_equal(wk.to_db(x, -40.0), 20.0 * np.log10(np.maximum(x, 0.01)))
    for value in (0.25, np.float64(0.25), np.array(0.25), 0.0, np.array(0.0)):
        db = wk.to_db(value)
        assert type(db) is np.float64
        assert db == 20.0 * np.log10(np.maximum(np.asarray(value, dtype=float), floor))


def test_sample_count_cap_is_the_largest_complex_array():
    """The one cap is 2^26 samples, 1 GiB of complex128.  A count whose round
    is at most the cap passes as that int (the half-way point rounds to the
    even cap); one more, inf, NaN and an int past the float range are refused
    naming the count's source."""
    assert _MAX_SAMPLES == 2**26
    assert _sample_count("x", 2**26) == _sample_count("x", 2.0**26 + 0.5) == 2**26
    assert _sample_count("x", 2.5) == 2
    for count, shown in ((2**26 + 1, "6.71089e+07"), (2.0**26 + 0.75, "6.71089e+07"),
                         (np.inf, "inf"), (np.nan, "nan"), (10**400, "1e308 or more")):
        with pytest.raises(InvalidInputError, match="^" + re.escape(
                f"span asks for {shown} samples, above the cap of {2**26}") + "$"):
            _sample_count("span", count)


_LFM_2048 = wk.synth_lfm(256.0, 1.0, 2048.0)


@pytest.mark.parametrize("call, message", [
    (lambda: wk.spectrum(_LFM_2048, 10**9), "zero_pad_factor asks for 2.048e+12"),
    (lambda: wk.spectrogram(wk.synth_lfm(2048.0, 1.0, 16384.0), 8192, 0.9999),
     "window_len asks for 6.71171e+07"),
    (lambda: wk.ambiguity_function(_LFM_2048, 0.5, 10.0, 10**5, 10**5),
     "num_delays * num_dopplers asks for 1.00002e+10"),
    (lambda: wk.synth_geometric_comb(10**8, 1.0000001, 64.0, 1.0, 512.0),
     "num_tones asks for 5.12e+10"),
    (lambda: wk.default_initial_parameters(64.0, 1.0, 4 * 10**7, 0),
     "num_harmonics asks for 8e+07"),
    (lambda: wk.nlfm_initial_parameters(64.0, 1.0, 2**18, 512.0),
     "num_harmonics asks for 1.34218e+08"),
    (lambda: wk.swept_bandwidth(wk.MtsfmParameters(np.zeros(2**14 + 1), np.zeros(2**14 + 1), 1.0)),
     f"num_harmonics asks for {4096 * (2**14 + 1):.6g}"),
    (lambda: wk.WaveformSpec(kind="p4", num_chips=10**400, bandwidth_hz=1.0, duration_s=1.0),
     "num_chips asks for 1e308 or more"),
    (lambda: wk.mf_bank(wk.SampledSignal(np.ones(2432), 2048.0), _LFM_2048,
                        np.zeros(_MAX_SAMPLES // 4479 + 1)),
     f"dopplers_hz asks for {(_MAX_SAMPLES // 4479 + 1) * 4479:.6g}"),
    (lambda: wk.doppler_tolerance_curve(_LFM_2048, np.zeros(_MAX_SAMPLES // 4095 + 1)),
     f"dopplers_hz asks for {(_MAX_SAMPLES // 4095 + 1) * 4095:.6g}"),
], ids=["spectrum", "spectrogram", "ambiguity", "comb", "default_start", "nlfm_start",
        "swept_bandwidth", "p4_spec", "mf_bank", "doppler_curve"])
def test_library_size_above_the_cap_is_invalid_input(call, message):
    """Each array wavekit sizes from its inputs is checked against the one cap
    before it is allocated, and the refusal names the argument that set it:
    none of these calls builds more than a few MB."""
    with pytest.raises(InvalidInputError, match="^" + re.escape(
            f"{message} samples, above the cap of {_MAX_SAMPLES}") + "$"):
        call()
