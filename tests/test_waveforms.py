"""Waveform bank synthesis: conventions, phase laws, and validation."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavekit as wk
from wavekit.errors import InvalidInputError

from conftest import traced_peak

FM_MTSFM_PARAMS = wk.MtsfmParameters(alpha=np.array([0.3, -0.1]), beta=np.array([12.0, 1.5]),
                                     duration_s=1.0)
FM_SYNTHS = {
    "cw": lambda fs: wk.synth_cw(1.0, fs),
    "lfm": lambda fs: wk.synth_lfm(fs / 8.0, 1.0, fs),
    "hfm": lambda fs: wk.synth_hfm(fs / 8.0, fs / 4.0, 1.0, fs),
    "costas": lambda fs: wk.synth_costas_fsk(wk.generate_welch_costas(5, 2),
                                             1.0, fs),
    "p4": lambda fs: wk.synth_p4(8, 1.0, fs),
    "mtsfm": lambda fs: wk.synth_mtsfm(FM_MTSFM_PARAMS, fs),
}


@pytest.mark.parametrize("name", sorted(FM_SYNTHS))
def test_unit_energy_and_constant_amplitude(name):
    sig = FM_SYNTHS[name](512.0)
    assert sig.energy() == pytest.approx(1.0, abs=1e-12)
    envelope = np.abs(sig.samples) * np.sqrt(sig.num_samples)
    np.testing.assert_allclose(envelope, 1.0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(FM_SYNTHS))
def test_phase_continuity_when_well_sampled(name):
    """No wrapped phase step exceeds pi at fs >= 8B for any FM waveform."""
    sig = FM_SYNTHS[name](1024.0)  # every bank entry has B <= 128 here
    steps = np.diff(np.unwrap(np.angle(sig.samples)))
    assert np.max(np.abs(steps)) < np.pi


def test_cw_sample_value_convention():
    """CW at fs*T = 1000 samples: every sample is 1/sqrt(1000)."""
    sig = wk.synth_cw(1.0, 1000.0)
    assert sig.num_samples == 1000
    np.testing.assert_allclose(sig.samples, 0.03162277660168379 + 0.0j,
                               atol=1e-15)


def test_lfm_instantaneous_frequency_is_linear():
    bandwidth, duration, fs = 64.0, 1.0, 1024.0
    sig = wk.synth_lfm(bandwidth, duration, fs)
    freq = np.diff(np.unwrap(np.angle(sig.samples))) * fs / (2.0 * np.pi)
    t_mid = 0.5 * (sig.time_grid()[:-1] + sig.time_grid()[1:])
    expected = bandwidth * (t_mid / duration - 0.5)
    np.testing.assert_allclose(freq, expected, atol=1e-6)


def test_lfm_rejects_undersampling():
    with pytest.raises(InvalidInputError):
        wk.synth_lfm(64.0, 1.0, 255.0)


def test_hfm_sweeps_f1_to_f2_about_recorded_center():
    f1, f2, fs = 40.0, 80.0, 2048.0
    sig = wk.synth_hfm(f1, f2, 1.0, fs)
    assert sig.center_freq_hz == pytest.approx(60.0)
    freq = np.diff(np.unwrap(np.angle(sig.samples))) * fs / (2.0 * np.pi)
    # Baseband instantaneous frequency runs f1-fc up to f2-fc.
    assert freq[0] == pytest.approx(f1 - 60.0, abs=0.1)
    assert freq[-1] == pytest.approx(f2 - 60.0, abs=0.1)
    assert np.all(np.diff(freq) > 0)  # up-sweep is monotone


@pytest.mark.parametrize("synth", [
    lambda: wk.synth_cw(1.4, 1.0),
    lambda: wk.synth_lfm(0.1, 1.4, 1.0),
    lambda: wk.synth_mtsfm(wk.MtsfmParameters(alpha=[0.0], beta=[0.0], duration_s=1.0), 1.49),
], ids=["cw", "lfm", "mtsfm"])
def test_synth_refuses_fewer_than_two_samples(synth):
    """fs*T below 1.5 rounds to a single sample."""
    with pytest.raises(InvalidInputError, match="at least 2 samples"):
        synth()


def test_hfm_validation():
    with pytest.raises(InvalidInputError):
        wk.synth_hfm(0.0, 50.0, 1.0, 512.0)
    with pytest.raises(InvalidInputError):
        wk.synth_hfm(50.0, 50.0, 1.0, 512.0)
    with pytest.raises(InvalidInputError):
        wk.synth_hfm(40.0, 80.0, 1.0, 100.0)


def test_costas_chip_frequencies():
    """Each chip is a pure tone at (code[i] - (N+1)/2) * N/T."""
    code = wk.generate_welch_costas(5, 2)
    n_chips = len(code)
    fs = 512.0
    sig = wk.synth_costas_fsk(code, 1.0, fs)
    chip_len = sig.num_samples // n_chips
    df = n_chips / sig.duration_s
    for i, value in enumerate(code.sequence):
        chip = sig.samples[i * chip_len:(i + 1) * chip_len]
        freq = np.diff(np.unwrap(np.angle(chip))) * fs / (2.0 * np.pi)
        expected = (value - (n_chips + 1) / 2.0) * df
        np.testing.assert_allclose(freq, expected, atol=1e-9)


@pytest.mark.parametrize("prime, generator", [(5, 2), (17, 3), (101, 2)])
@pytest.mark.parametrize("duration, fs", [(1.0, 40000.0), (0.5, 100000.0), (2.0, 30000.0),
                                          (0.37, 123456.0)])
def test_costas_synthesis_matches_the_per_chip_loop(prime, generator, duration, fs):
    """The one-gather synthesis is bitwise the per-chip loop it replaced."""
    code = wk.generate_welch_costas(prime, generator)
    sig = wk.synth_costas_fsk(code, duration, fs)
    n, n_chips = sig.num_samples, len(code)
    chip_len = n // n_chips
    t = (np.arange(n) + 0.5) / fs
    t_chip = chip_len / fs
    phase = np.empty(n)
    for i, value in enumerate(code.sequence):
        freq = (value - (n_chips + 1) / 2.0) * (n_chips / sig.duration_s)
        sl = slice(i * chip_len, (i + 1) * chip_len)
        phase[sl] = 2.0 * np.pi * freq * (t[sl] - i * t_chip)
    assert sig.samples.tobytes() == (np.exp(1j * phase) / np.sqrt(n)).tobytes()


def test_costas_bandwidth_cross_check():
    code = wk.generate_welch_costas(5, 2)
    wk.WaveformSpec(kind="costas_fsk", bandwidth_hz=16.0, duration_s=1.0, costas=code)
    with pytest.raises(InvalidInputError):
        wk.WaveformSpec(kind="costas_fsk", bandwidth_hz=20.0, duration_s=1.0, costas=code)
    with pytest.raises(InvalidInputError):
        wk.synth_costas_fsk(code, 1.0, 32.0)  # fs < 4B


def test_p4_phase_code():
    phases = wk.p4_chip_phases(4)
    idx = np.arange(1, 5, dtype=float)
    np.testing.assert_allclose(
        phases, np.pi * (idx - 1) ** 2 / 4 - np.pi * (idx - 1), atol=0)
    sig = wk.synth_p4(4, 1.0, 64.0)
    chip_len = sig.num_samples // 4
    got = np.angle(sig.samples[::chip_len] * np.sqrt(sig.num_samples))
    wrapped = np.angle(np.exp(1j * phases))
    np.testing.assert_allclose(got, wrapped, atol=1e-12)


def test_p4_validation():
    """Besides N >= 2, a P4 needs one sample per chip, round(fs*T) >= N: fewer
    is refused, not stretched to N samples (256 chips at 100 Hz lasted 2.56 s).
    The rule reads the rounded count: fl(2/49) * 49 is 1.9999999999999998."""
    with pytest.raises(InvalidInputError):
        wk.synth_p4(1, 1.0, 64.0)
    assert wk.synth_p4(256, 1.0, 256.0).num_samples == 256
    assert wk.synth_p4(2, 49.0, 2 / 49).num_samples == 2
    assert wk.synth_p4(64, 49.0, 64 / 49).num_samples == 64
    for chips in (256, 10**9):
        with pytest.raises(InvalidInputError, match="^each chip needs a sample: round\\("
                           f".* = 100 is below 'num_chips' {chips}$"):
            wk.synth_p4(chips, 1.0, 100.0)
    with pytest.raises(InvalidInputError):
        wk.WaveformSpec(kind="p4", bandwidth_hz=5.0, duration_s=1.0, num_chips=4)


def test_sample_count_beyond_an_array_is_invalid_input():
    """fs*T = 1e400 overflows to inf: refused naming both arguments, not an
    OverflowError from round()."""
    with pytest.raises(InvalidInputError,
                       match="^'duration_s' \\* 'sample_rate_hz' asks for inf samples"):
        wk.synth_cw(1e300, 1e100)


def test_geometric_comb_tone_placement():
    num_tones, ratio, bandwidth = 4, 1.5, 38.0
    freqs = wk.comb_tone_frequencies(num_tones, ratio, bandwidth)
    assert freqs.size == num_tones
    np.testing.assert_allclose(np.diff(np.log(freqs)), np.log(ratio), rtol=1e-12)
    assert freqs[-1] - freqs[0] == pytest.approx(bandwidth, rel=1e-12)
    sig = wk.synth_geometric_comb(num_tones, ratio, bandwidth, 1.0, 512.0)
    assert sig.energy() == pytest.approx(1.0, abs=1e-12)
    # Spectral peaks sit on the tones; energy concentrates there.
    spec = wk.spectrum(sig, 8)
    for f in freqs:
        band = np.abs(spec.freqs_hz - f) <= 1.5
        assert spec.magnitude[band].max() >= 0.5 * spec.magnitude.max()


def test_geometric_comb_validation():
    with pytest.raises(InvalidInputError):
        wk.synth_geometric_comb(1, 1.5, 38.0, 1.0, 512.0)
    with pytest.raises(InvalidInputError):
        wk.synth_geometric_comb(4, 1.0, 38.0, 1.0, 512.0)
    with pytest.raises(InvalidInputError):
        wk.synth_geometric_comb(4, 1.5, 500.0, 1.0, 512.0)


@pytest.mark.parametrize("synth, message", [
    (lambda: wk.synth_lfm(1e6, 1e4, 1e6), "LFM requires fs >= 4B"),
    (lambda: wk.synth_hfm(1e6, 2e6, 1e4, 1e6), "HFM requires fs >= 4"),
    (lambda: wk.synth_costas_fsk(wk.generate_welch_costas(5, 2), 1.0, 10.0),
     "Costas FSK requires fs >= 4B"),
    (lambda: wk.synth_geometric_comb(4, 1.5, 1e6, 16.0, 1e6), "Nyquist"),
    (lambda: wk.synth_geometric_comb(4, 1.5, 1e6, 1e4, 1e6),
     "^'duration_s' \\* 'sample_rate_hz' asks for 1e\\+10 samples, above the cap"),
], ids=["lfm", "hfm", "costas", "comb", "comb_above_the_cap"])
def test_undersampling_is_refused_before_the_sample_grid(monkeypatch, synth, message):
    """The sampling relation is checked before the time grid is built, so a
    refused request of 1e10 samples allocates nothing.  A comb checks its
    N x num_tones tone table against the sample cap first, so its 1e10
    samples are refused by the cap, and its Nyquist rule is checked at
    1.6e7 samples (a tone table of 6.4e7 cells, within the cap)."""
    def no_grid(*args, **kwargs):
        raise AssertionError("sample grid built for a refused request")

    monkeypatch.setattr(wk.waveforms, "_sample_grid", no_grid)
    with pytest.raises(InvalidInputError, match=message):
        synth()


def test_mtsfm_phase_matches_parameter_series():
    params = wk.MtsfmParameters(alpha=np.array([0.5, 0.0, -0.2]),
                                beta=np.array([8.0, 1.0, 0.3]),
                                duration_s=1.0)
    sig = wk.synth_mtsfm(params, 256.0)
    expected = np.exp(1j * params.phase(sig.time_grid())) / np.sqrt(256)
    np.testing.assert_allclose(sig.samples, expected, atol=1e-15)


def test_mtsfm_parameter_validation():
    with pytest.raises(InvalidInputError):
        wk.MtsfmParameters(alpha=np.array([]), beta=np.array([]), duration_s=1.0)
    with pytest.raises(InvalidInputError, match="alpha must be a nonempty 1-D array"):
        wk.MtsfmParameters(alpha=np.zeros((1, 2)), beta=np.zeros((1, 2)), duration_s=1.0)
    with pytest.raises(InvalidInputError):
        wk.MtsfmParameters(alpha=np.array([1.0]), beta=np.array([1.0, 2.0]), duration_s=1.0)
    with pytest.raises(InvalidInputError):
        wk.MtsfmParameters(alpha=np.array([np.inf]), beta=np.array([0.0]), duration_s=1.0)


@pytest.mark.parametrize("duration", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_durations_are_invalid_input(duration):
    """Rejected at construction, and by every synth's sample grid, not by a
    bare ValueError or OverflowError from the sample count."""
    message = "^duration_s must be finite$"
    with pytest.raises(InvalidInputError, match=message):
        wk.MtsfmParameters(alpha=np.array([0.0]), beta=np.array([1.0]), duration_s=duration)
    with pytest.raises(InvalidInputError, match=message):
        wk.synth_lfm(16.0, duration, 64.0)


def test_swept_bandwidth_matches_fine_grid():
    params = wk.MtsfmParameters(alpha=np.array([0.4, 0.1]),
                                beta=np.array([20.0, -3.0]), duration_s=1.0)
    t = np.linspace(0.0, 1.0, 100000, endpoint=False)
    expected = 2.0 * np.max(np.abs(wk.instantaneous_frequency(params, t)))
    assert wk.swept_bandwidth(params) == pytest.approx(expected, rel=1e-6)


def test_instantaneous_frequency_rejects_out_of_range_times():
    params = wk.MtsfmParameters(alpha=np.array([0.0]), beta=np.array([1.0]), duration_s=1.0)
    with pytest.raises(InvalidInputError):
        wk.instantaneous_frequency(params, np.array([1.0]))


def test_waveform_spec_dispatch_matches_direct_synthesis():
    cases = [
        (wk.WaveformSpec(kind="cw", bandwidth_hz=2.0, duration_s=1.0),
         wk.synth_cw(1.0, 512.0)),
        (wk.WaveformSpec(kind="lfm", bandwidth_hz=64.0, duration_s=1.0),
         wk.synth_lfm(64.0, 1.0, 512.0)),
        (wk.WaveformSpec(kind="hfm", bandwidth_hz=40.0, duration_s=1.0,
                         center_freq_hz=60.0),
         wk.synth_hfm(40.0, 80.0, 1.0, 512.0)),
        (wk.WaveformSpec(kind="p4", bandwidth_hz=8.0, duration_s=1.0,
                         num_chips=8),
         wk.synth_p4(8, 1.0, 512.0)),
        (wk.WaveformSpec(kind="costas_fsk", bandwidth_hz=16.0, duration_s=1.0,
                         costas=wk.generate_welch_costas(5, 2)),
         wk.synth_costas_fsk(wk.generate_welch_costas(5, 2), 1.0, 512.0)),
        (wk.WaveformSpec(kind="geometric_comb", bandwidth_hz=64.0, duration_s=1.0,
                         num_tones=4, tone_ratio=1.5),
         wk.synth_geometric_comb(4, 1.5, 64.0, 1.0, 512.0)),
        (wk.WaveformSpec(kind="mtsfm", bandwidth_hz=64.0, duration_s=1.0,
                         mtsfm=FM_MTSFM_PARAMS, center_freq_hz=100.0),
         wk.synth_mtsfm(FM_MTSFM_PARAMS, 512.0, center_freq_hz=100.0)),
    ]
    for spec, direct in cases:
        via_spec = wk.synth_waveform(spec, 512.0)
        np.testing.assert_allclose(via_spec.samples, direct.samples, atol=0)
        assert via_spec.center_freq_hz == direct.center_freq_hz


def test_waveform_spec_carries_carrier_metadata():
    spec = wk.WaveformSpec(kind="lfm", bandwidth_hz=64.0, duration_s=1.0,
                           center_freq_hz=200.0)
    sig = wk.synth_waveform(spec, 1024.0)
    assert sig.center_freq_hz == pytest.approx(200.0)
    # Carrier is metadata only: the samples stay at baseband.
    np.testing.assert_allclose(sig.samples,
                               wk.synth_lfm(64.0, 1.0, 1024.0).samples, atol=0)


def test_waveform_spec_validation():
    with pytest.raises(InvalidInputError):
        wk.WaveformSpec(kind="chirp", bandwidth_hz=1.0, duration_s=1.0)
    with pytest.raises(InvalidInputError):
        wk.WaveformSpec(kind="mtsfm", bandwidth_hz=1.0, duration_s=1.0)
    with pytest.raises(InvalidInputError, match="disagrees with the mtsfm duration"):
        wk.WaveformSpec(kind="mtsfm", bandwidth_hz=1.0, duration_s=2.0, mtsfm=FM_MTSFM_PARAMS)
    with pytest.raises(InvalidInputError, match="requires a CostasCode"):
        wk.WaveformSpec(kind="costas_fsk", bandwidth_hz=16.0, duration_s=1.0)
    with pytest.raises(InvalidInputError):
        wk.WaveformSpec(kind="hfm", bandwidth_hz=64.0, duration_s=1.0,
                        center_freq_hz=20.0)  # sweep would cross zero
    with pytest.raises(InvalidInputError):
        wk.WaveformSpec(kind="p4", bandwidth_hz=8.0, duration_s=1.0,
                        num_chips=8, center_freq_hz=10.0)  # baseband only
    for num_tones, ratio in [(4, 1.0), (4, 0.5), (1, 1.5)]:
        with pytest.raises(InvalidInputError, match="num_tones >= 2 and tone_ratio > 1"):
            wk.WaveformSpec(kind="geometric_comb", bandwidth_hz=38.0, duration_s=1.0,
                            num_tones=num_tones, tone_ratio=ratio)
    spec = wk.WaveformSpec(kind="lfm", bandwidth_hz=64.0, duration_s=2.0)
    assert spec.time_bandwidth_product == pytest.approx(128.0)


# ------------------------------------------------------------------ properties

_FS = 1024.0
_T = st.floats(0.25, 2.0)
_COEFFICIENTS = st.integers(1, 4).flatmap(lambda k: st.lists(
    st.floats(-6.0, 6.0, allow_nan=False), min_size=2 * k, max_size=2 * k))


def _mtsfm(coefficients, duration):
    k = len(coefficients) // 2
    return wk.synth_mtsfm(wk.MtsfmParameters(np.array(coefficients[:k]),
                                             np.array(coefficients[k:]), duration), _FS)


# One strategy per synth_* function, over parameters each accepts at fs = 1024 Hz:
# CW and the FM families, which have constant modulus, then the comb, which has not.
_CONSTANT_MODULUS = (
    st.builds(lambda t: wk.synth_cw(t, _FS), _T),
    st.builds(lambda b, t: wk.synth_lfm(b, t, _FS), st.floats(1.0, 256.0), _T),
    st.builds(lambda f, span, down, t: wk.synth_hfm(f + span * down, f + span * (not down),
                                                    t, _FS),
              st.floats(4.0, 128.0), st.floats(1.0, 128.0), st.booleans(), _T),
    st.builds(lambda code, t: wk.synth_costas_fsk(wk.generate_welch_costas(*code), t, _FS),
              st.sampled_from([(5, 2), (5, 3), (7, 3), (7, 5)]), _T),
    st.builds(lambda n, t: wk.synth_p4(n, t, _FS), st.integers(2, 64), _T),
    st.builds(_mtsfm, _COEFFICIENTS, _T),
)
_COMB = st.builds(lambda m, r, b, t: wk.synth_geometric_comb(m, r, b, t, _FS),
                  st.integers(2, 6), st.floats(1.5, 3.0), st.floats(1.0, 16.0), _T)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sig=st.one_of(*_CONSTANT_MODULUS, _COMB))
def test_every_synth_has_unit_energy(sig):
    assert sig.energy() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sig=st.one_of(*_CONSTANT_MODULUS, _COMB), carrier=st.floats(0.0, 100.0))
def test_every_synth_derives_its_duration(sig, carrier):
    """duration_s is N/fs bitwise, on the synthesized signal and on a replaced copy."""
    for s in (sig, dataclasses.replace(sig, center_freq_hz=carrier)):
        assert s.duration_s == s.num_samples / s.sample_rate_hz


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sig=st.one_of(*_CONSTANT_MODULUS))
def test_fm_families_have_constant_modulus(sig):
    np.testing.assert_allclose(np.abs(sig.samples) * np.sqrt(sig.num_samples), 1.0,
                               atol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sig=st.one_of(*_CONSTANT_MODULUS, _COMB))
def test_autocorrelation_magnitude_is_symmetric_in_lag(sig):
    """R(-tau) = conj R(tau) for any signal, so |R| is symmetric in lag."""
    mag = wk.autocorrelation(sig).magnitude_linear()
    np.testing.assert_allclose(mag, mag[::-1], atol=1e-10)


@pytest.mark.parametrize("call, outputs", [
    ("wk.synth_lfm(256.0, 1e6 / 2048.0, 2048.0)", 2.5),
    ("wk.synth_costas_fsk(wk.generate_welch_costas(17, 3), 1e6 / 4096.0, 4096.0)", 3.0),
], ids=["lfm", "costas_fsk"])
def test_synthesis_peak_is_the_docstrings(call, outputs):
    """1e6 samples, a 16 MB output: `_unit_fm` hands its samples over, so the
    peak is the one its docstring states.  A copy of the samples when the
    signal is made held 0.625 outputs more (3.125 and 3.625)."""
    peak, size = traced_peak("wk.synth_lfm(8.0, 1.0, 64.0)", call, field="samples")
    assert peak < (outputs + 0.1) * size


@settings(max_examples=200, deadline=None, derandomize=True)
@given(phase=st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=64)
       | st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_unit_modulus_is_bitwise_the_complex_exponential(phase):
    """cos/sin synthesis gives the bytes of exp(1j*phase)/sqrt(N), signed zeros
    and subnormal phases included."""
    from wavekit.waveforms import _unit_modulus
    phase = np.array(phase)
    expected = np.exp(1j * phase) / np.sqrt(phase.size)
    assert _unit_modulus(phase).tobytes() == expected.tobytes()
