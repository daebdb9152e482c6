"""Correlation, ambiguity, and scalar metric checks against direct oracles."""

import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.interpolate
from hypothesis import given, settings
from hypothesis import strategies as st

import wavekit as wk
import wavekit.metrics as wk_metrics
from wavekit.errors import InvalidInputError
from wavekit.metrics import (_block_rows, _doppler_rows, _lag_gathers, _linear_xcorr,
                             _not_a_knot_spline, _phase_ramps, _solve_141, _time_scaled_rows,
                             _time_scaler)
from wavekit.signal import _fft_length

from conftest import child_env
from oracles import (cw_triangle, dirichlet_magnitude, direct_ambiguity_mag,
                     direct_corr_at_lag, direct_xcorr_mag, spectral_moment_rms)


def _tone(freq_hz, fs=512.0, duration_s=1.0):
    n = int(round(fs * duration_s))
    t = (np.arange(n) + 0.5) / fs
    return wk.SampledSignal(samples=np.exp(2j * np.pi * freq_hz * t) / np.sqrt(n),
                            sample_rate_hz=fs)


# ---------------------------------------------------------------- correlation

def test_cw_autocorrelation_is_triangle():
    sig = wk.synth_cw(1.0, 256.0)
    resp = wk.autocorrelation(sig)
    np.testing.assert_allclose(resp.magnitude_linear(),
                               cw_triangle(resp.lags_s, sig.duration_s),
                               atol=1e-9)


def test_autocorrelation_peak_at_zero_lag():
    sig = wk.synth_lfm(64.0, 1.0, 512.0)
    resp = wk.autocorrelation(sig)
    i0 = np.argmin(np.abs(resp.lags_s))
    assert resp.lags_s[i0] == 0.0
    assert resp.magnitude_db[i0] == pytest.approx(0.0, abs=1e-12)
    assert np.argmax(resp.magnitude_db) == i0


def test_autocorrelation_magnitude_symmetry():
    """|R(-tau)| = |R(tau)| (conjugate symmetry of the underlying R)."""
    sig = wk.synth_hfm(40.0, 80.0, 1.0, 512.0)
    mag = wk.autocorrelation(sig).magnitude_linear()
    np.testing.assert_allclose(mag, mag[::-1], atol=1e-10)


def test_fft_correlator_matches_direct_sums():
    """Transform-accelerated correlation vs explicit per-lag sums."""
    sig = wk.synth_lfm(256.0, 1.0, 2048.0)
    resp = wk.autocorrelation(sig)
    expected = direct_xcorr_mag(sig.samples, sig.samples) / sig.energy()
    # Stored responses are floored at -120 dB, i.e. 1e-6 linear.
    np.testing.assert_allclose(resp.magnitude_linear(),
                               np.maximum(expected, 1e-6), atol=1e-9)


def test_fft_length_is_the_smallest_5_smooth_length():
    """Against a scan of the integers for those with no prime factor above 5."""
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    n_max = 10_000
    smooth_numbers = [m for m in range(1, 2 * n_max) if smooth(m)]
    nxt = iter(smooth_numbers)
    candidate = next(nxt)
    for n in range(1, n_max + 1):
        while candidate < n:
            candidate = next(nxt)
        assert _fft_length(n) == candidate, n


def test_correlation_at_a_tight_5_smooth_length():
    """600 + 481 - 1 = 1080 = 2^3 3^3 5: the transform has no spare point."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal(600) + 1j * rng.standard_normal(600)
    b = rng.standard_normal(481) + 1j * rng.standard_normal(481)
    assert _fft_length(a.size + b.size - 1) == a.size + b.size - 1
    np.testing.assert_allclose(np.abs(_linear_xcorr(a, b)), direct_xcorr_mag(a, b),
                               atol=1e-9)


@pytest.mark.parametrize("lo, hi", [(-480, 599), (-480, -300), (-7, 7), (150, 170),
                                    (590, 599)],
                         ids=["full", "negative", "around_zero", "positive", "last"])
def test_doppler_rows_match_direct_sums_on_any_lag_window(lo, hi):
    """The transform is only as long as the window needs, for any window."""
    rng = np.random.default_rng(6)
    a = rng.standard_normal(600) + 1j * rng.standard_normal(600)
    b = rng.standard_normal(481) + 1j * rng.standard_normal(481)
    t = (np.arange(b.size) + 0.5) / 100.0
    dopplers = np.array([-3.1, 0.0, 2.0])
    lags = np.arange(lo, hi + 1)
    expected = np.array([[abs(direct_corr_at_lag(a, b * np.exp(2j * np.pi * nu * t), k))
                          for k in lags] for nu in dopplers])
    np.testing.assert_allclose(_doppler_rows(a, b, 100.0, dopplers, lags), expected,
                               atol=1e-9)


_SMOOTH_LENGTHS = [n for n in range(2, 700) if _fft_length(n) == n]


@st.composite
def _row_problems(draw):
    """Random series and lag windows, some at a tight 5-smooth length."""
    nb = draw(st.integers(1, 200))
    if draw(st.booleans()):
        total = draw(st.sampled_from([n for n in _SMOOTH_LENGTHS if n >= nb]))
        na = total - nb + 1
    else:
        na = draw(st.integers(1, 400))
    lo, hi = -(nb - 1), na - 1
    kind = draw(st.sampled_from(["full", "negative", "positive", "single"]))
    if kind == "negative" and lo < 0:
        hi = draw(st.integers(lo, -1))
    elif kind == "positive" and hi > 0:
        lo = draw(st.integers(0, hi))
    elif kind == "single":
        lo = hi = draw(st.integers(lo, hi))
    fs = draw(st.sampled_from([1.0, 64.0, 1000.0]))
    nus = draw(st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=9))
    return na, nb, np.arange(lo, hi + 1), fs, fs * np.array(nus)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(problem=_row_problems(), seed=st.integers(0, 2**32 - 1),
       budget=st.sampled_from([1, 1500, 1 << 15]))
def test_blocked_doppler_rows_match_direct_sums(problem, seed, budget):
    """Blocks of one row, of a few rows and of every row agree with per-lag sums
    for non-uniform and negative Dopplers up to |nu| = fs/2."""
    na, nb, lags, fs, dopplers = problem
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(na) + 1j * rng.standard_normal(na)
    b = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
    t = (np.arange(nb) + 0.5) / fs
    expected = np.array([[abs(direct_corr_at_lag(a, b * np.exp(2j * np.pi * nu * t), k))
                          for k in lags] for nu in dopplers])
    with mock.patch.object(wk_metrics, "_BLOCK_POINTS", budget):
        rows = _doppler_rows(a, b, fs, dopplers, lags)
    np.testing.assert_allclose(rows, expected, atol=1e-9)


def _long_lfm_rows(bandwidth_hz, lag_window, dopplers):
    """An N = 8192 LFM, its received series and the lag window to read."""
    sig = wk.synth_lfm(bandwidth_hz, 8192.0 / (8 * bandwidth_hz), 8 * bandwidth_hz)
    if lag_window is None:  # the bank of mf_bank at the benchmark scene
        rx = wk.simulate_returns(sig, wk.benchmark_scene(bandwidth_hz), 0).samples
        lags = np.arange(1 - sig.num_samples, rx.size)
    else:
        scene = wk.EchoScene(echoes=(wk.Echo(0.01, 3.0, 0.0), wk.Echo(0.02, -1.5, -6.0)))
        rx = wk.simulate_returns(sig, scene, seed=0).samples
        lags = np.arange(-lag_window, lag_window + 1)
    return rx, sig.samples, sig.sample_rate_hz, np.asarray(dopplers, dtype=float), lags


@pytest.mark.parametrize("bandwidth_hz, lag_window, dopplers, nfft", [
    (1024.0, 100, [-4096.0, -7.3, -3.0, -1.5, 0.0, 0.37, 1.0, 3.0, 11.0, 4095.5], None),
    (256.0, None, np.linspace(-20.0, 20.0, 201), 16875),
], ids=["narrow_window", "long_bank"])
def test_doppler_rows_are_bitwise_the_one_row_result(bandwidth_hz, lag_window, dopplers,
                                                     nfft):
    """Each row of a multi-block N = 8192 result is the row computed alone: a
    narrow lag window at 2^15 points per block, and the 201-row bank of a long
    pulse, whose blocks grow with its 27 MB output."""
    a, b, fs, dopplers, lags = _long_lfm_rows(bandwidth_hz, lag_window, dopplers)
    length = _fft_length(max(a.size - lags.min(), lags.max() + b.size))
    assert nfft in (None, length)
    step = _block_rows(dopplers.size, lags.size, length)
    assert step >= 2 and dopplers.size > 2 * step  # at least 3 blocks, some of several rows
    assert dopplers.size % step  # and a last block that is shorter
    rows = _doppler_rows(a, b, fs, dopplers, lags)
    for nu, row in zip(dopplers, rows):
        assert np.array_equal(row, _doppler_rows(a, b, fs, np.array([nu]), lags)[0]), nu


@pytest.mark.parametrize("num_rows, num_lags, nfft, step", [
    (201, 16767, 16875, 6),   # mf_bank, N = 8192 at the benchmark scene
    (201, 18431, 18432, 6),   # mf_bank, N = 8192, a 5 s window
    (101, 16383, 16384, 3),   # narrowband Doppler curve, N = 8192
    (257, 257, 12288, 2),     # T/2 ambiguity surface, N = 8192: 2^15 points
    (201, 4479, 4500, 7),     # mf_bank, N = 2048
    (4, 16383, 16384, 2),     # never more rows than there are
    (1, 10, 5 * 2**15, 1),    # at least one row
])
def test_block_rows_grow_with_the_output(num_rows, num_lags, nfft, step):
    """A block holds max(2^15, output points / 32) transform points."""
    assert _block_rows(num_rows, num_lags, nfft) == step


_GATHER_RNG = np.random.default_rng(11)
_GATHER_A = _GATHER_RNG.standard_normal(614) + 1j * _GATHER_RNG.standard_normal(614)
_GATHER_B = _GATHER_RNG.standard_normal(512) + 1j * _GATHER_RNG.standard_normal(512)


@pytest.mark.parametrize("lo, hi", [(-300, -50), (0, 400), (10, 613), (-7, 7), (0, 0),
                                    (-3, -3), (-511, -1), (-511, 613)],
                         ids=["negative", "nonnegative", "positive", "around_zero",
                              "single_zero", "single_negative", "ends_at_nfft",
                              "tight_full_window"])
def test_slice_gathers_are_bitwise_the_index_gather(lo, hi):
    """A contiguous lag window, read as at most two slices, equals the same
    window read through an index array.  Repeating the first lag forces the
    index path at the same min, max and so nfft; its extra column is dropped.
    The full window is at a tight 5-smooth length: 614 + 512 - 1 = 1125."""
    a, b = _GATHER_A, _GATHER_B
    lags = np.arange(lo, hi + 1)
    repeated = np.append(lags, lags[0])
    nfft = _fft_length(max(a.size - lo, hi + b.size))
    assert all(isinstance(src, slice) for _, src in _lag_gathers(lags, nfft))
    assert [dst for dst, _ in _lag_gathers(repeated, nfft)] == [slice(None)]
    dopplers = np.array([-31.0, -2.5, 0.0, 4.0, 50.0])
    assert np.array_equal(_doppler_rows(a, b, 128.0, dopplers, lags),
                          _doppler_rows(a, b, 128.0, dopplers, repeated)[:, :-1])


def test_block_buffers_are_allocated_once_per_call(monkeypatch):
    """Every per-block FFT writes into the one spectrum buffer of the call and
    reads the one replica buffer; the inverse runs in place in the spectrum."""
    calls = {"fft": [], "ifft": []}
    for name in calls:
        transform = getattr(np.fft, name)

        def recording(x, *args, _transform=transform, _calls=calls[name], **kwargs):
            if np.ndim(x) == 2:
                _calls.append((x, kwargs.get("out")))
            return _transform(x, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, recording)
    rng = np.random.default_rng(7)
    a = rng.standard_normal(600) + 1j * rng.standard_normal(600)
    b = rng.standard_normal(481) + 1j * rng.standard_normal(481)
    nfft = _fft_length(a.size + b.size - 1)
    dopplers = np.linspace(-20.0, 20.0, 10)
    with mock.patch.object(wk_metrics, "_BLOCK_POINTS", 3 * nfft):  # blocks of 3, 3, 3, 1
        _doppler_rows(a, b, 100.0, dopplers, np.arange(-480, 600))
    assert [x.shape[0] for x, _ in calls["fft"]] == [3, 3, 3, 1]
    assert len(calls["ifft"]) == 4
    for x, out in calls["fft"] + calls["ifft"]:
        assert out is not None and out.base is not None
    padded, spectra = calls["fft"][0][0].base, calls["fft"][0][1].base
    assert padded is not spectra
    for x, out in calls["fft"]:
        assert x.base is padded and out.base is spectra
    for x, out in calls["ifft"]:
        assert x.base is spectra and out.base is spectra and np.shares_memory(x, out)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="longdouble is plain float64 here")
@pytest.mark.parametrize("n, fs, max_doppler", [(8192, 8192.0, 10.0), (65536, 1.0, 0.5)],
                         ids=["long_pulse", "half_rate"])
def test_phase_ramps_are_as_accurate_as_exp(n, fs, max_doppler):
    """The factored ramp's error against an extended-precision reference is
    at most that of np.exp of the full phase, plus 1e-15."""
    dopplers = np.array([-max_doppler, -0.37 * max_doppler, 0.013 * max_doppler,
                         max_doppler / 3.0, max_doppler])
    t = (np.arange(n) + 0.5) / fs
    pi = 4.0 * np.arctan(np.longdouble(1.0))
    k = np.arange(n).astype(np.longdouble)
    for nu, ramp in zip(dopplers, _phase_ramps(dopplers, n, fs)):
        phase = 2.0 * pi * np.longdouble(nu) * (k + np.longdouble(0.5)) / np.longdouble(fs)
        ref_re, ref_im = np.cos(phase), np.sin(phase)
        direct = np.exp(2j * np.pi * nu * t)
        err_ramp = np.hypot((ramp.real - ref_re).astype(float),
                            (ramp.imag - ref_im).astype(float)).max()
        err_exp = np.hypot((direct.real - ref_re).astype(float),
                           (direct.imag - ref_im).astype(float)).max()
        assert err_ramp <= err_exp + 1e-15, (nu, err_ramp, err_exp)


def test_cross_correlation_of_signal_with_itself_is_autocorrelation():
    sig = wk.synth_p4(16, 1.0, 512.0)
    a = wk.cross_correlation(sig, sig)
    b = wk.autocorrelation(sig)
    np.testing.assert_allclose(a.magnitude_db, b.magnitude_db, atol=0)
    np.testing.assert_allclose(a.lags_s, b.lags_s, atol=0)


def test_autocorrelation_takes_one_forward_transform(monkeypatch):
    """Reusing the transform of a for b is bitwise the two-transform result."""
    s = wk.synth_hfm(40.0, 80.0, 1.0, 512.0).samples
    assert np.array_equal(_linear_xcorr(s, s), _linear_xcorr(s, s.copy()))
    calls = []
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *a, **k: calls.append(1) or fft(*a, **k))
    sig = wk.synth_lfm(64.0, 1.0, 512.0)
    wk.autocorrelation(sig)
    assert len(calls) == 1
    wk.metrics_report(sig, 64.0)
    assert len(calls) == 1 + 2


def test_cross_correlation_reversal_symmetry():
    a = wk.synth_lfm(64.0, 1.0, 512.0)
    b = wk.synth_p4(16, 1.0, 512.0)
    ab = wk.cross_correlation(a, b).magnitude_linear()
    ba = wk.cross_correlation(b, a).magnitude_linear()
    np.testing.assert_allclose(ab, ba[::-1], atol=1e-10)


def test_cross_correlation_locates_time_shift():
    """A delayed copy peaks at the delay, within one sample."""
    sig = wk.synth_lfm(64.0, 1.0, 512.0)
    shift = 37
    delayed = wk.SampledSignal(
        samples=np.concatenate([np.zeros(shift, dtype=complex), sig.samples]),
        sample_rate_hz=512.0)
    resp = wk.cross_correlation(delayed, sig)
    peak_lag = resp.lags_s[np.argmax(resp.magnitude_db)]
    assert abs(peak_lag - shift / 512.0) <= 1.0 / 512.0


def test_cross_correlation_rejects_rate_mismatch():
    with pytest.raises(InvalidInputError):
        wk.cross_correlation(wk.synth_cw(1.0, 256.0), wk.synth_cw(1.0, 512.0))


def test_orthogonal_tones_cross_correlation_low():
    """Tones spaced 10/T apart stay below -20 dB everywhere."""
    assert wk.cross_correlation(_tone(0.0), _tone(10.0)).magnitude_db.max() <= -20.0


def test_disjoint_band_lfms_cross_correlation_low():
    lfm = wk.synth_lfm(64.0, 1.0, 512.0)
    t = lfm.time_grid()
    lo = wk.SampledSignal(samples=lfm.samples * np.exp(-2j * np.pi * 80.0 * t),
                          sample_rate_hz=512.0)
    hi = wk.SampledSignal(samples=lfm.samples * np.exp(+2j * np.pi * 80.0 * t),
                          sample_rate_hz=512.0)
    assert wk.cross_correlation(lo, hi).magnitude_db.max() < -25.0


# ------------------------------------------------------------------ ambiguity

def test_ambiguity_normalized_at_origin():
    sig = wk.synth_lfm(64.0, 1.0, 512.0)
    af = wk.ambiguity_function(sig, 0.5, 20.0, 65, 65)
    i0 = np.flatnonzero(af.delays_s == 0.0)[0]
    j0 = np.flatnonzero(af.dopplers_hz == 0.0)[0]
    assert af.magnitude[i0, j0] == 1.0
    assert af.magnitude.max() <= 1.0 + 1e-9


def test_ambiguity_point_symmetry():
    """|chi(-tau, -nu)| = |chi(tau, nu)| on the symmetric grid."""
    sig = wk.synth_hfm(40.0, 80.0, 1.0, 512.0)
    af = wk.ambiguity_function(sig, 0.5, 20.0, 65, 65)
    np.testing.assert_allclose(af.magnitude, af.magnitude[::-1, ::-1], atol=1e-9)


def test_ambiguity_zero_doppler_cut_is_autocorrelation():
    sig = wk.synth_p4(16, 1.0, 512.0)
    resp = wk.autocorrelation(sig)
    af = wk.ambiguity_function(sig, sig.duration_s, 8.0, 2 * sig.num_samples, 9)
    j0 = np.flatnonzero(af.dopplers_hz == 0.0)[0]
    # AF delays are a subset of the correlation lag lattice.  The stored
    # correlation is floored at -120 dB (1e-6 linear); match that.
    lag_index = np.round(af.delays_s * 512.0).astype(int) + (sig.num_samples - 1)
    np.testing.assert_allclose(np.maximum(af.magnitude[:, j0], 1e-6),
                               resp.magnitude_linear()[lag_index], atol=1e-10)


def test_cw_zero_delay_cut_is_sinc():
    """At fs*T = 8192 the discrete cut meets |sinc(nu T)| within 1e-6."""
    sig = wk.synth_cw(1.0, 8192.0)
    af = wk.ambiguity_function(sig, 1.0, 4.0, 9, 257)
    i0 = np.flatnonzero(af.delays_s == 0.0)[0]
    np.testing.assert_allclose(af.magnitude[i0],
                               np.abs(np.sinc(af.dopplers_hz)), atol=1e-6)


def test_cw_ambiguity_volume_invariant():
    """sum |chi|^2 dtau dnu over a wide grid approaches (energy)^2 = 1."""
    sig = wk.synth_cw(1.0, 256.0)
    af = wk.ambiguity_function(sig, 1.0, 40.0, 511, 641)
    dtau = af.delays_s[1] - af.delays_s[0]
    dnu = af.dopplers_hz[1] - af.dopplers_hz[0]
    volume = np.sum(af.magnitude ** 2) * dtau * dnu
    assert volume == pytest.approx(1.0, rel=0.01)


def test_ambiguity_matches_direct_evaluation():
    sig = wk.synth_lfm(8.0, 1.0, 64.0)
    af = wk.ambiguity_function(sig, 1.0, 10.0, 127, 41)
    lag_indices = np.round(af.delays_s * 64.0).astype(int)
    expected = direct_ambiguity_mag(sig.samples, 64.0, lag_indices,
                                    af.dopplers_hz)
    expected /= expected[np.flatnonzero(lag_indices == 0)[0],
                         np.argmin(np.abs(af.dopplers_hz))]
    np.testing.assert_allclose(af.magnitude, expected, atol=1e-9)


@pytest.mark.parametrize("max_delay_s", [0.5, 0.25, 1.0 / 512.0],
                         ids=["half", "quarter", "one_sample"])
def test_windowed_ambiguity_matches_direct_evaluation(max_delay_s):
    """N + max_lag is 768 and 640 (5-smooth, so the transform has no spare
    point) at T/2 and T/4, and 513 (taken at 540) at one sample."""
    sig = wk.synth_hfm(40.0, 80.0, 1.0, 512.0)
    af = wk.ambiguity_function(sig, max_delay_s, 20.0, 129, 33)
    lag_indices = np.round(af.delays_s * 512.0).astype(int)
    assert lag_indices.max() == round(max_delay_s * 512.0)
    expected = direct_ambiguity_mag(sig.samples, 512.0, lag_indices, af.dopplers_hz)
    expected /= expected[np.flatnonzero(lag_indices == 0)[0],
                         np.argmin(np.abs(af.dopplers_hz))]
    np.testing.assert_allclose(af.magnitude, expected, atol=1e-9)


@pytest.mark.parametrize("num_delays, num_dopplers", [(65, 33), (2, 2), (1024, 9)])
def test_ambiguity_equals_the_full_row_result(num_delays, num_dopplers):
    """Columns kept by the lag window are bitwise those of full correlation rows."""
    sig = wk.synth_hfm(40.0, 80.0, 1.0, 512.0)
    af = wk.ambiguity_function(sig, 1.0, 20.0, num_delays, num_dopplers)
    s = sig.samples
    lags = np.round(af.delays_s * 512.0).astype(int)
    full = np.array([np.abs(_linear_xcorr(s, s * ramp))
                     for ramp in _phase_ramps(-af.dopplers_hz, s.size, 512.0)])
    expected = full[:, (s.size - 1) - lags].T
    expected /= expected[np.flatnonzero(lags == 0)[0], np.argmin(np.abs(af.dopplers_hz))]
    assert np.array_equal(af.magnitude, expected)


_AMBIGUITY_PEAK = """
import tracemalloc
import wavekit as wk
sig = wk.synth_lfm(1024.0, 1.0, 8192.0)
tracemalloc.start()
wk.ambiguity_function(sig, 0.5, 10.0, 257, 257)
print(tracemalloc.get_traced_memory()[1])
"""


def test_ambiguity_memory_is_bounded_by_the_surface():
    """257 x 257 at N = 8192: the surface is 0.5 MB; all 2N-1 lags per row are 34 MB.

    Measured in a fresh interpreter, where the first FFT also loads numpy.fft
    under the tracer, as it does for a caller that has not used np.fft yet.
    """
    proc = subprocess.run([sys.executable, "-c", _AMBIGUITY_PEAK], capture_output=True,
                          text=True, env=child_env(), check=True)
    assert int(proc.stdout) < 4e6


def test_ambiguity_validation():
    sig = wk.synth_cw(1.0, 64.0)
    with pytest.raises(InvalidInputError):
        wk.ambiguity_function(sig, 2.0, 10.0)  # max delay beyond T
    with pytest.raises(InvalidInputError):
        wk.ambiguity_function(sig, 0.5, -1.0)
    with pytest.raises(InvalidInputError):
        wk.ambiguity_function(sig, 0.5, 10.0, num_delays=1)


_ZERO = wk.SampledSignal(samples=np.zeros(64), sample_rate_hz=64.0, center_freq_hz=16.0)


@pytest.mark.parametrize("call", [
    lambda s: wk.cross_correlation(wk.synth_cw(1.0, 64.0), s),
    wk.autocorrelation,
    lambda s: wk.metrics_report(s, 16.0),
    lambda s: wk.ambiguity_function(s, 0.5, 4.0, 9, 9),
    lambda s: wk.doppler_tolerance_curve(s, [0.0, 1.0]),
    lambda s: wk.doppler_tolerance_curve(s, [0.0, 1.0], mode="wideband"),
], ids=["cross_correlation", "autocorrelation", "metrics_report", "ambiguity_function",
        "doppler_narrowband", "doppler_wideband"])
def test_zero_energy_signal_is_refused(call):
    """Every reading normalized by the signal's energy refuses a zero signal,
    with one message and no NaN surface or warning."""
    with pytest.raises(InvalidInputError, match="^signal has zero energy$"):
        call(_ZERO)


def test_tiny_energy_signal_is_read_not_refused():
    """Energies near 1e-200 are nonzero though their product underflows."""
    tiny = wk.SampledSignal(samples=np.full(8, 1e-100), sample_rate_hz=8.0)
    resp = wk.autocorrelation(tiny)
    assert resp.magnitude_db.max() == pytest.approx(0.0, abs=1e-9)


_LFM64 = wk.synth_lfm(16.0, 1.0, 64.0)  # fs/2 = 32 Hz
_BOTH_EDGES = (-32.0, 32.0)


@pytest.mark.parametrize("call, argument, edges", [
    (lambda nu: wk.doppler_tolerance_curve(_LFM64, [0.0, nu]), "dopplers_hz", _BOTH_EDGES),
    (lambda nu: wk.ambiguity_function(_LFM64, 0.5, nu, 9, 9), "max_doppler_hz", (32.0,)),
    (lambda nu: wk.mf_bank(_LFM64, _LFM64, [nu]), "dopplers_hz", _BOTH_EDGES),
    (lambda nu: wk.simulate_returns(_LFM64, wk.EchoScene(
        echoes=(wk.Echo(delay_s=0.0, doppler_hz=nu, level_db=0.0),)), 0), "doppler_hz",
     _BOTH_EDGES),
], ids=["doppler_tolerance_curve", "ambiguity_function", "mf_bank", "simulate_returns"])
def test_doppler_is_bounded_by_half_the_sample_rate(call, argument, edges):
    """On the sample grid nu and nu + fs give the same phase ramp: +/-fs/2 are
    the last shifts read, and the next float outward is refused by name."""
    for edge in edges:
        call(edge)
        with pytest.raises(InvalidInputError, match=rf"\b{argument}\b"):
            call(np.nextafter(edge, np.copysign(np.inf, edge)))


# ----------------------------------------------------------- region metrics

def test_cw_psl_quarter_region():
    """Triangle PSL over [T/4, 3T/4] sits at the inner edge: 20log10(3/4)."""
    resp = wk.autocorrelation(wk.synth_cw(1.0, 256.0))
    psl = wk.psl_region(resp, wk.RegionSpec(0.25, 0.75))
    assert psl == pytest.approx(20.0 * np.log10(0.75), abs=1e-9)


def test_cw_isl_closed_form():
    """Discrete triangle ISL over [T/2, T] has an exact closed form."""
    fs, n = 256.0, 256
    resp = wk.autocorrelation(wk.synth_cw(1.0, fs))
    isl = wk.isl_region(resp, wk.RegionSpec(0.5, 1.0))
    m = np.arange(1, n // 2 + 1)
    closed = 2.0 / fs * np.sum((m / n) ** 2)
    assert isl == pytest.approx(10.0 * np.log10(closed), abs=1e-9)
    # The continuous-triangle integral T/12 agrees to O(1/N).
    assert 10.0 ** (isl / 10.0) == pytest.approx(1.0 / 12.0, rel=0.02)


def test_isl_monotone_in_region():
    rng = np.random.default_rng(5)
    for _ in range(5):
        samples = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 256)) / 16.0
        resp = wk.autocorrelation(wk.SampledSignal(samples=samples,
                                                   sample_rate_hz=256.0))
        inner = wk.isl_region(resp, wk.RegionSpec(0.3, 0.6))
        outer = wk.isl_region(resp, wk.RegionSpec(0.2, 0.8))
        assert outer >= inner


def test_isl_zero_region_floors_at_minus_120():
    """A half-length burst has exactly zero correlation past its support."""
    burst = np.zeros(256, dtype=complex)
    burst[:128] = 1.0 / np.sqrt(128.0)
    resp = wk.autocorrelation(wk.SampledSignal(samples=burst,
                                               sample_rate_hz=256.0))
    assert wk.isl_region(resp, wk.RegionSpec(0.75, 1.0)) == -120.0


def test_region_validation():
    with pytest.raises(InvalidInputError):
        wk.RegionSpec(-0.1, 0.5)
    with pytest.raises(InvalidInputError):
        wk.RegionSpec(0.5, 0.5)
    for inner, outer in [(0.0, np.nan), (np.nan, 1.0), (0.0, np.inf)]:
        with pytest.raises(InvalidInputError, match="finite"):
            wk.RegionSpec(inner, outer)
    resp = wk.autocorrelation(wk.synth_cw(1.0, 256.0))
    with pytest.raises(InvalidInputError):
        wk.psl_region(resp, wk.RegionSpec(2.0, 3.0))  # beyond the lag span
    with pytest.raises(InvalidInputError):
        wk.isl_region(resp, wk.RegionSpec(2.0, 3.0))


def test_default_region_and_low_tbp_fallback():
    region = wk.default_region(256.0, 1.0)
    assert region.inner_delay_s == pytest.approx(2.0 / 256.0)
    assert region.outer_delay_s == pytest.approx(0.25)
    fallback = wk.default_region(2.0, 1.0)  # 2/B = 1 would pass T/4
    assert fallback.inner_delay_s == pytest.approx(0.25)
    assert fallback.outer_delay_s == pytest.approx(0.75)


# --------------------------------------------------------- spectral metrics

def test_cw_rms_bandwidth_matches_dirichlet_moments():
    """RMS width against the closed-form aliased (Dirichlet) spectrum."""
    sig = wk.synth_cw(1.0, 256.0)
    spec = wk.spectrum(sig, 4)
    power = dirichlet_magnitude(spec.freqs_hz, sig.num_samples, 256.0) ** 2
    assert wk.rms_bandwidth(spec) == pytest.approx(
        spectral_moment_rms(spec.freqs_hz, power), rel=1e-9)


def test_lfm_rms_bandwidth_near_flat_spectrum_value():
    """Flat spectrum of width B has RMS width B/sqrt(12)."""
    sig = wk.synth_lfm(256.0, 1.0, 2048.0)
    rms = wk.rms_bandwidth(wk.spectrum(sig, 4))
    assert rms == pytest.approx(256.0 / np.sqrt(12.0), rel=0.02)


def test_time_scaling_halves_rms_bandwidth():
    """Fourier pair: the same samples at half rate occupy half the width."""
    sig = wk.synth_lfm(64.0, 1.0, 512.0)
    stretched = wk.SampledSignal(samples=sig.samples, sample_rate_hz=256.0)
    ratio = (wk.rms_bandwidth(wk.spectrum(sig, 4))
             / wk.rms_bandwidth(wk.spectrum(stretched, 4)))
    assert ratio == pytest.approx(2.0, rel=0.01)


def test_p99_bandwidth_properties():
    spec = wk.spectrum(wk.synth_lfm(64.0, 1.0, 512.0), 4)
    p99 = wk.p99_bandwidth(spec)
    assert wk.p99_bandwidth(spec, 0.90) < p99
    assert 64.0 <= p99 <= 1.2 * 64.0  # just past the sweep edges
    with pytest.raises(InvalidInputError):
        wk.p99_bandwidth(spec, 1.0)
    with pytest.raises(InvalidInputError):
        wk.p99_bandwidth(spec, 0.0)


def test_inband_energy_fraction_properties():
    spec = wk.spectrum(wk.synth_lfm(64.0, 1.0, 512.0), 4)
    near_all = wk.inband_energy_fraction(spec, 511.0)
    assert 0.999 <= near_all <= 1.0
    assert wk.inband_energy_fraction(spec, 32.0) < wk.inband_energy_fraction(spec, 64.0)
    assert wk.inband_energy_fraction(spec, 64.0) == pytest.approx(0.972, abs=0.01)
    with pytest.raises(InvalidInputError):
        wk.inband_energy_fraction(spec, 0.0)
    with pytest.raises(InvalidInputError):
        wk.inband_energy_fraction(spec, 513.0)


# ------------------------------------------------------------- Doppler curve

@pytest.mark.parametrize("mode, message", [
    ("broadband", "mode must be 'narrowband' or 'wideband'"),
    ("wideband", "wideband mode requires center_freq_hz > 0"),
], ids=["unknown_mode", "wideband_at_baseband"])
def test_doppler_curve_refuses_a_mode_it_cannot_model(mode, message):
    with pytest.raises(InvalidInputError, match=message):
        wk.doppler_tolerance_curve(wk.synth_lfm(64.0, 1.0, 512.0), [0.0, 1.0], mode=mode)


def test_doppler_curve_zero_mismatch_is_lossless():
    pt = wk.doppler_tolerance_curve(wk.synth_lfm(64.0, 1.0, 512.0), [0.0])[0]
    assert pt.peak_loss_db == pytest.approx(0.0, abs=1e-9)
    assert pt.peak_shift_s == pytest.approx(0.0, abs=1e-6)


def test_doppler_curve_matches_brute_force():
    sig = wk.synth_cw(1.0, 256.0)
    dopplers = [0.0, 0.5, 1.0, 2.0]
    curve = wk.doppler_tolerance_curve(sig, dopplers)
    t = sig.time_grid()
    for pt in curve:
        shifted = sig.samples * np.exp(2j * np.pi * pt.doppler_hz * t)
        brute = direct_xcorr_mag(shifted, sig.samples).max() / sig.energy()
        assert pt.peak_loss_db == pytest.approx(20.0 * np.log10(brute), abs=1e-9)


def test_wideband_curve_builds_the_splines_once(monkeypatch):
    """One numpy spline per curve, and points bitwise those of a rebuild per Doppler."""
    sig = wk.synth_hfm(40.0, 80.0, 1.0, 512.0)
    dopplers = np.linspace(-8.0, 8.0, 7)
    built = []
    spline = wk_metrics._not_a_knot_spline
    monkeypatch.setattr(wk_metrics, "_not_a_knot_spline",
                        lambda y: built.append(1) or spline(y))
    curve = wk.doppler_tolerance_curve(sig, dopplers, mode="wideband")
    assert len(built) == 1
    scaler = wk_metrics._time_scaler
    monkeypatch.setattr(wk_metrics, "_time_scaler", lambda signal: lambda etas, out: np.concatenate(
        [scaler(signal)(etas[i:i + 1]) for i in range(etas.size)], out=out))
    assert wk.doppler_tolerance_curve(sig, dopplers, mode="wideband") == curve
    assert len(built) == 1 + dopplers.size


def _spline_at(coefs, u):
    """`_not_a_knot_spline` coefficients evaluated at positions u on the sample index scale."""
    i = np.clip(np.floor(u).astype(int), 0, coefs.shape[1] - 1)
    w = u - i
    return ((coefs[3, i] * w + coefs[2, i]) * w + coefs[1, i]) * w + coefs[0, i]


def _hfm_samples(n):
    return wk.synth_hfm(900.0, 1100.0, n / 2048.0, 2048.0).samples


@pytest.mark.parametrize("n, make", [
    (2, None), (3, None), (4, None), (5, None), (7, None), (40, None), (2048, None),
    (8192, None), (2048, _hfm_samples)],
    ids=["2", "3", "4", "5", "7", "40", "2048", "8192", "hfm2048"])
def test_numpy_spline_is_scipy_not_a_knot(n, make):
    """Within 1e-14 of the samples' peak of scipy's CubicSpline (not-a-knot): at
    every knot, both ends and 4000 interior points."""
    rng = np.random.default_rng(n)
    y = make(n) if make else rng.standard_normal(n) + 1j * rng.standard_normal(n)
    knots = np.arange(n, dtype=float)
    u = np.concatenate([knots, rng.uniform(0.0, n - 1.0, 4000)])
    oracle = (scipy.interpolate.CubicSpline(knots, y.real)(u)
              + 1j * scipy.interpolate.CubicSpline(knots, y.imag)(u))
    assert np.abs(_spline_at(_not_a_knot_spline(y), u) - oracle).max() <= 1e-14 * np.abs(y).max()


def test_numpy_spline_of_two_points_is_a_line_and_of_three_a_parabola():
    line = _not_a_knot_spline(np.array([1.0 + 2.0j, 3.0 - 1.0j]))
    assert np.array_equal(line, [[1.0 + 2.0j], [2.0 - 3.0j], [0.0], [0.0]])
    parabola = _not_a_knot_spline(np.array([1.0, 4.0, 2.0], dtype=complex))
    assert np.array_equal(parabola, [[1.0, 4.0], [5.5, 0.5], [-2.5, -2.5], [0.0, 0.0]])


@pytest.mark.parametrize("m", [1, 2, 3, 31, 32, 33, 34, 70, 1000])
def test_tridiagonal_solve_matches_a_dense_solve(m):
    """Across the boundary fades' reach: m below, at and above _SPLINE_TAPS."""
    rng = np.random.default_rng(m)
    r = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    dense = 4.0 * np.eye(m) + np.eye(m, k=1) + np.eye(m, k=-1)
    np.testing.assert_allclose(_solve_141(r), np.linalg.solve(dense, r),
                               rtol=0, atol=1e-15 * np.abs(r).max())


def _scipy_time_scaled(signal, eta):
    """The wideband echo sqrt(eta) s(eta t) e^{j 2 pi fc (eta-1) t} through scipy's
    CubicSpline, zero where eta t leaves the sample span."""
    t = signal.time_grid()
    ts = eta * t
    inside = (ts >= t[0]) & (ts <= t[-1])
    scaled = np.zeros(t.size, dtype=complex)
    scaled[inside] = (scipy.interpolate.CubicSpline(t, signal.samples.real)(ts[inside])
                      + 1j * scipy.interpolate.CubicSpline(t, signal.samples.imag)(ts[inside]))
    return np.sqrt(eta) * scaled * np.exp(2j * np.pi * signal.center_freq_hz * (eta - 1.0) * t)


def test_time_scaled_echoes_match_scipy_splines():
    """Within 1e-13 of the samples' peak, for compressions and stretches; eta = 1
    returns the samples themselves."""
    sig = wk.synth_hfm(40.0, 80.0, 1.0, 512.0)
    etas = np.array([0.8, 0.99, 1.0, 1.0001, 1.05, 1.3])
    replicas = _time_scaler(sig)(etas)
    for eta, row in zip(etas, replicas):
        assert np.abs(row - _scipy_time_scaled(sig, eta)).max() <= 1e-13 * np.abs(sig.samples).max()
    assert np.array_equal(replicas[2], sig.samples)


def test_wideband_rows_match_per_doppler_correlations():
    """Every row, over two blocks of the shared kernel, within 1e-14 of the zero-lag
    peak of the one-eta _linear_xcorr of its echo against s."""
    sig = wk.synth_hfm(40.0, 80.0, 1.0, 512.0)
    etas = 1.0 + np.linspace(-8.0, 8.0, 41) / sig.center_freq_hz
    rows = _time_scaled_rows(sig, etas)
    replicas = _time_scaler(sig)(etas)
    expected = np.array([np.abs(_linear_xcorr(r, sig.samples)) for r in replicas])
    assert rows.shape == expected.shape
    assert np.abs(rows - expected).max() <= 1e-14 * sig.energy()


def _per_point(dopplers, rows, energy, fs):
    """The per-point peak reading `_curve_points` replaced, as its oracle."""
    points = []
    for nu, y in zip(dopplers, rows):
        idx = int(np.argmax(y))
        offset = 0.0
        if 0 < idx < y.size - 1:
            y0, y1, y2 = y[idx - 1], y[idx], y[idx + 1]
            denom = y0 - 2.0 * y1 + y2
            if denom != 0.0:
                offset = float(np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5))
        shift = (idx - (y.size - 1) // 2 + offset) / fs
        points.append((float(nu), float(wk.to_db(y[idx] / energy)), float(shift)))
    return np.array(points)


def _edge_rows(n):
    """Rows of 2n-1 lags: peaks at either end, a tie, a flat row, and a random one."""
    rows = np.random.default_rng(n).uniform(0.0, 0.5, (5, 2 * n - 1))
    rows[0, 0] = rows[1, -1] = 1.0
    rows[2, 5] = rows[2, 6] = 0.9  # the first of the two is the peak
    rows[3] = 1e-9                 # a zero parabola denominator, under the -120 dB floor
    return rows


def test_curve_points_are_bitwise_the_per_point_loop():
    sig = wk.synth_hfm(40.0, 80.0, 1.0, 512.0)
    s, fs, fc = sig.samples, sig.sample_rate_hz, sig.center_freq_hz
    dopplers = np.linspace(-8.0, 8.0, 33)
    lags = np.arange(1 - s.size, s.size)
    cases = [(_doppler_rows(s, s, fs, -dopplers, lags), sig.energy()),
             (_time_scaled_rows(sig, 1.0 + dopplers / fc), sig.energy()),
             (_edge_rows(s.size), 0.5)]
    for rows, energy in cases:
        d = dopplers[:rows.shape[0]]
        points = wk_metrics._curve_points(d, rows, energy, fs)
        got = np.array([(p.doppler_hz, p.peak_loss_db, p.peak_shift_s) for p in points])
        assert got.tobytes() == _per_point(d, rows, energy, fs).tobytes()


def test_doppler_curve_is_symmetric_for_cw():
    curve = wk.doppler_tolerance_curve(wk.synth_cw(1.0, 256.0),
                                       [-2.0, -1.0, 1.0, 2.0])
    losses = [pt.peak_loss_db for pt in curve]
    assert losses[0] == pytest.approx(losses[3], abs=1e-9)
    assert losses[1] == pytest.approx(losses[2], abs=1e-9)


def test_lfm_doppler_tolerance_beats_cw():
    """The LFM ridge keeps the peak; the CW collapses."""
    nu = 6.4  # 0.1 * B
    lfm = wk.doppler_tolerance_curve(wk.synth_lfm(64.0, 1.0, 512.0), [nu])[0]
    cw = wk.doppler_tolerance_curve(wk.synth_cw(1.0, 512.0), [nu])[0]
    assert lfm.peak_loss_db > cw.peak_loss_db + 10.0
    # Range-Doppler coupling: the surviving LFM peak shifts by -nu*T/B.
    assert lfm.peak_shift_s == pytest.approx(-nu / 64.0, rel=0.02)


# -------------------------------------------------------------------- report

def test_metrics_report_consistency():
    sig = wk.synth_lfm(64.0, 1.0, 512.0)
    region = wk.default_region(64.0, 1.0)
    report = wk.metrics_report(sig, 64.0, region=region, zero_pad_factor=4)
    resp = wk.autocorrelation(sig)
    spec = wk.spectrum(sig, 4)
    assert report.psl_db == wk.psl_region(resp, region)
    assert report.isl_db == wk.isl_region(resp, region)
    assert report.rms_bandwidth_hz == wk.rms_bandwidth(spec)
    assert report.p99_bandwidth_hz == wk.p99_bandwidth(spec)
    assert report.inband_energy_fraction == wk.inband_energy_fraction(spec, 64.0)
    assert report.tbp == pytest.approx(64.0)
    assert 0.0 <= report.inband_energy_fraction <= 1.0
    keys = set(report.to_dict())
    assert keys == {"psl_db", "isl_db", "inband_energy_fraction",
                    "rms_bandwidth_hz", "tbp", "p99_bandwidth_hz"}


def test_metrics_report_defaults_to_default_region():
    sig = wk.synth_lfm(64.0, 1.0, 512.0)
    implicit = wk.metrics_report(sig, 64.0)
    explicit = wk.metrics_report(sig, 64.0, region=wk.default_region(64.0, 1.0))
    assert implicit.psl_db == explicit.psl_db
    assert implicit.isl_db == explicit.isl_db
