"""Sampled-signal container, dB conversion, and spectral transforms."""

import numpy as np
import pytest

import wavekit as wk
from wavekit.errors import InvalidInputError
from wavekit.signal import DB_FLOOR

from oracles import dirichlet_magnitude


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
    with pytest.raises(InvalidInputError):
        wk.SampledSignal(samples=np.ones(4, dtype=complex), sample_rate_hz=10.0,
                         duration_s=1.0)


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


@pytest.mark.parametrize("build, names", [
    (lambda a, b, c: wk.Spectrum(freqs_hz=a, magnitude=b, total_energy=1.0),
     ("freqs_hz", "magnitude")),
    (lambda a, b, c: wk.CorrelationResponse(lags_s=a, magnitude_db=b),
     ("lags_s", "magnitude_db")),
    (lambda a, b, c: wk.AmbiguitySurface(delays_s=a, dopplers_hz=b, magnitude=c),
     ("delays_s", "dopplers_hz", "magnitude")),
    (lambda a, b, c: wk.Spectrogram(times_s=a, freqs_hz=b, magnitude_db=c,
                                    window_len_samples=4, overlap_fraction=0.5),
     ("times_s", "freqs_hz", "magnitude_db")),
    (lambda a, b, c: wk.MtsfmParameters(num_harmonics=3, alpha=a, beta=b, duration_s=1.0),
     ("alpha", "beta")),
], ids=["spectrum", "correlation", "ambiguity", "spectrogram", "mtsfm"])
def test_result_types_copy_their_arrays(build, names):
    arrays = [np.arange(3.0), np.arange(3.0) + 1.0, np.ones((3, 3))]
    obj = build(*arrays)
    for name, caller in zip(names, arrays):
        field = getattr(obj, name)
        assert caller.flags.writeable and not field.flags.writeable
        before = field.copy()
        caller[...] = -7.0
        np.testing.assert_array_equal(getattr(obj, name), before)


def test_to_db_floor():
    db = wk.to_db(np.array([1.0, 1e-3, 0.0]))
    assert db[0] == pytest.approx(0.0, abs=1e-12)
    assert db[1] == pytest.approx(-60.0, abs=1e-9)
    assert db[2] == -120.0
    assert np.all(np.isfinite(wk.to_db(np.zeros(5))))


def test_spectrum_parseval():
    """sum(|S|^2 df) equals the time-domain energy for any zero padding."""
    sig = wk.synth_lfm(64.0, 1.0, 512.0)
    for zpf in (1, 2, 4):
        spec = wk.spectrum(sig, zpf)
        energy = np.sum(spec.magnitude ** 2) * spec.df_hz
        assert energy == pytest.approx(sig.energy(), rel=1e-9)
        assert spec.total_energy == pytest.approx(sig.energy(), rel=1e-12)


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


def test_spectrogram_validation():
    sig = wk.synth_cw(1.0, 64.0)
    with pytest.raises(InvalidInputError):
        wk.spectrogram(sig, 1, 0.5)
    with pytest.raises(InvalidInputError):
        wk.spectrogram(sig, 65, 0.5)
    with pytest.raises(InvalidInputError):
        wk.spectrogram(sig, 16, 1.0)


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
