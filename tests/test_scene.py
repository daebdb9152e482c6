"""Echo-scene synthesis, matched-filter bank, and resolvability checks."""

import numpy as np
import pytest
import wavekit as wk
import wavekit.metrics as wk_metrics
from wavekit.errors import InvalidInputError
from wavekit.metrics import _phase_ramps
from wavekit.scene import (Echo, EchoScene, RangeDopplerMap, _median, _window_samples,
                           benchmark_scene, mf_bank, resolvability_report, simulate_returns)
from wavekit.signal import DB_FLOOR, _Owned

from conftest import traced_peak
from oracles import add_complex_noise, direct_xcorr_mag, linear_xcorr, superposed_echo_mag


@pytest.fixture(scope="module")
def lfm():
    return wk.synth_lfm(64.0, 1.0, 512.0)


def _single(delay_s=0.0, doppler_hz=0.0, **kwargs):
    return EchoScene(echoes=(Echo(delay_s, doppler_hz, 0.0, **kwargs),))


# ----------------------------------------------------------------- simulate

def test_identity_echo_reproduces_the_waveform(lfm):
    rx = simulate_returns(lfm, _single(), seed=0)
    np.testing.assert_allclose(rx.samples, lfm.samples, atol=1e-15)
    assert rx.sample_rate_hz == lfm.sample_rate_hz


def test_simulate_carries_center_frequency():
    sig = wk.synth_lfm(64.0, 1.0, 512.0, center_freq_hz=100.0)
    assert simulate_returns(sig, _single(), seed=0).center_freq_hz == 100.0


def test_delayed_echo_lands_on_the_sample_grid(lfm):
    rx = simulate_returns(lfm, _single(delay_s=37.0 / 512.0), seed=0)
    assert rx.num_samples == 37 + lfm.num_samples
    np.testing.assert_array_equal(rx.samples[:37], 0.0)
    np.testing.assert_allclose(rx.samples[37:], lfm.samples, atol=1e-15)


def test_echo_levels_scale_amplitudes(lfm):
    scene = EchoScene(echoes=(Echo(0.0, 0.0, 0.0), Echo(2.0, 0.0, -20.0)))
    rx = simulate_returns(lfm, scene, seed=0)
    np.testing.assert_allclose(rx.samples[1024:1536], 0.1 * lfm.samples,
                               atol=1e-15)


def test_doppler_rotates_the_echo(lfm):
    nu = 3.0
    rx = simulate_returns(lfm, _single(doppler_hz=nu), seed=0)
    expected = lfm.samples * np.exp(2j * np.pi * nu * lfm.time_grid())
    np.testing.assert_allclose(rx.samples, expected, atol=1e-15)


def test_disjoint_echo_energies_follow_levels(lfm):
    """A -40 dB echo carries exactly 1e-4 of the 0 dB echo's energy."""
    scene = EchoScene(echoes=(Echo(0.0, 0.0, 0.0), Echo(2.0, 0.0, -40.0)))
    rx = simulate_returns(lfm, scene, seed=0)
    strong = np.sum(np.abs(rx.samples[:512]) ** 2)
    weak = np.sum(np.abs(rx.samples[1024:1536]) ** 2)
    assert weak / strong == pytest.approx(1e-4, rel=1e-6)


def test_simulation_is_linear_in_the_scene(lfm):
    a = Echo(0.1, 2.0, 0.0)
    b = Echo(0.6, -5.0, 0.0)
    window = 2.0
    rx_a = simulate_returns(lfm, EchoScene(echoes=(a,)), seed=0, window_s=window)
    rx_b = simulate_returns(lfm, EchoScene(echoes=(b,)), seed=0, window_s=window)
    rx_ab = simulate_returns(lfm, EchoScene(echoes=(a, b)), seed=0,
                             window_s=window)
    np.testing.assert_allclose(rx_ab.samples, rx_a.samples + rx_b.samples,
                               atol=1e-9)


def test_shift_covariance_with_doppler_phase(lfm):
    """Moving an echo later in the window only adds the carrier phase
    accumulated over the extra delay."""
    nu, k, fs = 4.0, 64, 512.0
    rx_a = simulate_returns(lfm, _single(0.125, nu), seed=0, window_s=2.0)
    rx_b = simulate_returns(lfm, _single(0.125 + k / fs, nu), seed=0,
                            window_s=2.0)
    a0 = int(0.125 * fs)
    seg_a = rx_a.samples[a0:a0 + lfm.num_samples]
    seg_b = rx_b.samples[a0 + k:a0 + k + lfm.num_samples]
    np.testing.assert_allclose(seg_b, seg_a * np.exp(2j * np.pi * nu * k / fs),
                               atol=1e-12)


def test_noise_is_seed_deterministic(lfm):
    scene = EchoScene(echoes=(Echo(0.0, 0.0, 0.0),), noise_level_db=-20.0)
    rx1 = simulate_returns(lfm, scene, seed=5)
    rx2 = simulate_returns(lfm, scene, seed=5)
    np.testing.assert_array_equal(rx1.samples, rx2.samples)
    rx3 = simulate_returns(lfm, scene, seed=6)
    assert not np.array_equal(rx1.samples, rx3.samples)


def test_noise_level_sets_collected_energy(lfm):
    """Noise energy over one pulse length matches the dB setting."""
    scene = EchoScene(echoes=(Echo(0.0, 0.0, 0.0),), noise_level_db=-10.0)
    rng_energy = []
    for seed in range(20):
        rx = simulate_returns(lfm, scene, seed=seed)
        noise = rx.samples - lfm.samples
        rng_energy.append(np.sum(np.abs(noise) ** 2))
    assert np.mean(rng_energy) == pytest.approx(0.1, rel=0.2)


@pytest.mark.parametrize("window", [2, 4479, 100003])
def test_noisy_returns_are_bitwise_the_whole_array_formula(window):
    """Noise added in place, real parts then imaginary parts, gives the bits
    of one complex noise array scaled and divided by sqrt(2), at every level
    and seed.  A 2-sample window is the least a signal holds: a 2-sample
    pulse, its one echo at delay 0."""
    fs = 2048.0
    if window == 2:
        pulse = wk.SampledSignal(samples=np.array([0.6, 0.8j]), sample_rate_hz=fs)
        echoes = (Echo(0.0, 0.0, 0.0),)
    else:
        pulse = wk.synth_lfm(256.0, 1.0, fs)
        echoes = (Echo(0.0, 0.0, 0.0), Echo(300.0 / fs, 5.0, -20.0))
    for seed in (0, 1, 2**40 + 3):
        clean = simulate_returns(pulse, EchoScene(echoes), seed, window_s=window / fs)
        for level in (-60.0, -23.5, 0.0, 17.0, 40.0):
            noisy = simulate_returns(pulse, EchoScene(echoes, level), seed, window_s=window / fs)
            expected = add_complex_noise(clean.samples, level, pulse.num_samples, seed)
            assert noisy.num_samples == window
            assert noisy.samples.tobytes() == expected.tobytes()


def test_noisy_returns_hold_their_result_plus_one_real_window():
    """A 1e6-sample window with noise on: a 16 MB result, and one real draw
    of the window's length (8 MB) at a time.  One complex noise array with
    its scaled copies held about 3 results.  A warm-up draw loads
    numpy.random untraced."""
    peak, size = traced_peak("sig = wk.synth_lfm(64.0, 1.0, 512.0)\n"
                             "scene = wk.EchoScene((wk.Echo(0.0, 0.0, 0.0),), -20.0)\n"
                             "np.random.default_rng(0).standard_normal(2)",
                             "wk.simulate_returns(sig, scene, 0, window_s=1e6 / 512.0)")
    assert size == 16_000_000 and peak < 2 * size


def test_returns_of_a_window_near_the_pulse_hold_its_echo_temporaries():
    """A 2^17-sample pulse, its echo Doppler-shifted, in a window 10 samples
    longer: each echo's time grid (8 bytes a sample), the scaled replica,
    the phase and its exponential (16 each) are about 3.5 complex arrays of
    the pulse's length, which outweigh the noise's real window array.  The
    docstring states the larger of the two; 3.5 read 3.50 here."""
    n = 1 << 17
    peak, size = traced_peak(f"sig = wk.synth_lfm({n / 8}, 1.0, {float(n)})\n"
                             "scene = wk.EchoScene((wk.Echo(0.0, 100.0, 0.0),), -20.0)\n"
                             "np.random.default_rng(0).standard_normal(2)",
                             f"wk.simulate_returns(sig, scene, 0, window_s={(n + 10) / n})")
    assert size == (n + 10) * 16 and peak < size + 4 * n * 16


def test_window_must_hold_every_echo(lfm):
    with pytest.raises(InvalidInputError):
        simulate_returns(lfm, _single(delay_s=1.5), seed=0, window_s=2.0)
    # Exactly fitting is fine.
    simulate_returns(lfm, _single(delay_s=1.0), seed=0, window_s=2.0)


@pytest.mark.parametrize("window_s, count", [(None, 153 + 512), (2.0, 1024),
                                             (1.9990234375, 1024)])
def test_window_samples_is_the_simulated_window(lfm, window_s, count):
    """The count the CLI caps is the length simulate_returns makes, rounded
    to even as round() does: the last echo is 153.25 samples late at 512 Hz,
    the 50.5-sample one rounds to 50, and 1.9990234375 s is 1023.5."""
    scene = EchoScene(echoes=(Echo(153.25 / 512.0, 0.0, 0.0), Echo(50.5 / 512.0, 1.0, -3.0)))
    assert _window_samples(lfm.num_samples, lfm.sample_rate_hz, scene, window_s) == count
    assert simulate_returns(lfm, scene, seed=0, window_s=window_s).num_samples == count
    assert _window_samples(lfm.num_samples, lfm.sample_rate_hz,
                           EchoScene(echoes=(Echo(1e308, 0.0, 0.0),))) == np.inf


def test_time_scale_compresses_the_echo():
    """eta = 2 halves a CW's support while conserving its energy."""
    cw = wk.synth_cw(1.0, 256.0)
    rx = simulate_returns(cw, _single(time_scale=2.0), seed=0)
    assert np.sum(np.abs(rx.samples) ** 2) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(rx.samples[128:], 0.0)
    np.testing.assert_allclose(rx.samples[:128], np.sqrt(2.0) / 16.0,
                               atol=1e-12)


def test_time_scaled_echoes_share_one_spline(lfm, monkeypatch):
    built = []
    spline = wk_metrics._not_a_knot_spline
    monkeypatch.setattr(wk_metrics, "_not_a_knot_spline",
                        lambda y: built.append(1) or spline(y))
    scene = EchoScene(echoes=(Echo(0.0, 0.0, 0.0, time_scale=1.01),
                              Echo(0.2, 0.0, -6.0),
                              Echo(0.4, 0.0, -6.0, time_scale=0.99)))
    simulate_returns(lfm, scene, seed=0)
    assert len(built) == 1


def test_echo_and_scene_validation():
    with pytest.raises(InvalidInputError):
        Echo(-0.1, 0.0, 0.0)
    with pytest.raises(InvalidInputError):
        Echo(0.0, np.nan, 0.0)
    with pytest.raises(InvalidInputError):
        Echo(0.0, 0.0, 1.0)  # above the 0 dB anchor
    with pytest.raises(InvalidInputError):
        Echo(0.0, 0.0, 0.0, time_scale=0.0)
    with pytest.raises(InvalidInputError):
        EchoScene(echoes=())
    with pytest.raises(InvalidInputError, match="Echo instances"):
        EchoScene(echoes=(Echo(0.0, 0.0, 0.0), (0.1, 0.0, -3.0)))
    with pytest.raises(InvalidInputError):
        EchoScene(echoes=(Echo(0.0, 0.0, -3.0),))  # strongest below 0 dB
    with pytest.raises(InvalidInputError):
        EchoScene(echoes=(Echo(0.0, 0.0, 0.0),), noise_level_db=np.inf)


def test_range_doppler_map_validation():
    delays = np.array([0.0, 1.0])
    with pytest.raises(InvalidInputError):
        RangeDopplerMap(delays_s=delays, dopplers_hz=np.array([0.0]),
                        magnitude_db=np.zeros((2, 2)))  # shape mismatch
    with pytest.raises(InvalidInputError):
        RangeDopplerMap(delays_s=delays, dopplers_hz=np.array([0.0]),
                        magnitude_db=np.array([[-1.0, -2.0]]))  # max != 0
    with pytest.raises(InvalidInputError):
        RangeDopplerMap(delays_s=delays, dopplers_hz=np.array([0.0]),
                        magnitude_db=np.array([[0.0, -2.0]]), reference_db=np.nan)


# ------------------------------------------------------------------- mf_bank

def test_mf_bank_holds_at_most_two_maps():
    """201 rows at N = 2048 (a 9.9 MB map): the rows turn to dB in place and
    the map keeps them, so the call holds one map and its workers' block
    buffers (about 1.25x at two workers).  A map that copied its dB rows
    would read 2.14x.  A small warm-up call loads numpy.fft before the
    tracer starts.  Measured in a fresh interpreter.
    """
    peak, size = traced_peak("sig = wk.synth_lfm(256.0, 1.0, 2048.0)\n"
                             "rx = wk.simulate_returns(sig, wk.benchmark_scene(256.0), 0, "
                             "window_s=2.0)\n"
                             "grid = np.linspace(-50.0, 50.0, 201)\n"
                             "wk.mf_bank(rx, sig, grid[:2])",
                             "wk.mf_bank(rx, sig, grid)", field="magnitude_db")
    assert peak <= 1.5 * size


def test_mf_identity_row_is_the_autocorrelation(lfm):
    rx = simulate_returns(lfm, _single(), seed=0)
    rd = mf_bank(rx, lfm, [0.0])
    ac = wk.autocorrelation(lfm)
    np.testing.assert_allclose(rd.zero_doppler_cut(), ac.magnitude_db,
                               atol=1e-10)
    np.testing.assert_allclose(rd.delays_s, ac.lags_s, atol=0)


def test_mf_peak_lands_on_the_echo_cell(lfm):
    scene = _single(delay_s=50.0 / 512.0, doppler_hz=4.0)
    rx = simulate_returns(lfm, scene, seed=0)
    rd = mf_bank(rx, lfm, [0.0, 2.0, 4.0, 6.0])
    i, j = np.unravel_index(np.argmax(rd.magnitude_db), rd.magnitude_db.shape)
    assert rd.dopplers_hz[i] == 4.0
    assert abs(rd.delays_s[j] - 50.0 / 512.0) <= 1.0 / 512.0


def test_cw_mismatched_doppler_row_is_suppressed():
    """A CW echo at nu = 1/T vanishes in the zero-Doppler filter."""
    cw = wk.synth_cw(1.0, 256.0)
    rx = simulate_returns(cw, _single(doppler_hz=1.0), seed=0)
    rd = mf_bank(rx, cw, [0.0, 1.0])
    cell = np.argmin(np.abs(rd.delays_s))
    assert rd.magnitude_db[0, cell] <= -40.0
    assert rd.magnitude_db[1, cell] == pytest.approx(0.0, abs=1e-9)


def test_mf_map_is_scale_invariant(lfm):
    rx = simulate_returns(lfm, _single(0.25), seed=0)
    scaled = wk.SampledSignal(samples=0.5 * rx.samples, sample_rate_hz=512.0)
    a = mf_bank(rx, lfm, [0.0, 5.0])
    b = mf_bank(scaled, lfm, [0.0, 5.0])
    np.testing.assert_allclose(a.magnitude_db, b.magnitude_db, atol=1e-10)


def test_mf_bank_rows_match_direct_sums(lfm):
    """Rows at negative, zero and off-bin Dopplers against per-lag sums."""
    scene = EchoScene(echoes=(Echo(30.0 / 512.0, -3.0, 0.0),
                              Echo(90.0 / 512.0, 2.5, -6.0)))
    rx = simulate_returns(lfm, scene, seed=0)
    dopplers = [-7.3, -3.0, 0.0, 0.37, 2.5]
    rd = mf_bank(rx, lfm, dopplers)
    t = lfm.time_grid()
    expected = np.array([direct_xcorr_mag(rx.samples, lfm.samples * np.exp(2j * np.pi * nu * t))
                         for nu in dopplers])
    expected /= expected.max()
    # Stored maps are floored at -120 dB, i.e. 1e-6 linear.
    np.testing.assert_allclose(10.0 ** (rd.magnitude_db / 20.0),
                               np.maximum(expected, 1e-6), atol=1e-9)


def test_mf_bank_matches_direct_sums_at_a_tight_5_smooth_length(lfm):
    """614 received + 512 replica - 1 = 1125 = 3^2 5^3: no spare transform point.

    The second echo fills the window to its last sample, so an aliased
    end lag would pick up a nonzero product.
    """
    scene = EchoScene(echoes=(Echo(30.0 / 512.0, -3.0, 0.0),
                              Echo(102.0 / 512.0, 2.5, -6.0)))
    rx = simulate_returns(lfm, scene, seed=0, window_s=614.0 / 512.0)
    assert rx.num_samples + lfm.num_samples - 1 == 1125
    dopplers = [-3.0, 0.0, 2.5]
    rd = mf_bank(rx, lfm, dopplers)
    t = lfm.time_grid()
    expected = np.array([direct_xcorr_mag(rx.samples, lfm.samples * np.exp(2j * np.pi * nu * t))
                         for nu in dopplers])
    expected /= expected.max()
    np.testing.assert_allclose(10.0 ** (rd.magnitude_db / 20.0),
                               np.maximum(expected, 1e-6), atol=1e-9)


def test_mf_bank_equals_the_full_row_result(lfm):
    """Rows are bitwise the full FFT correlations of the received series."""
    rx = simulate_returns(lfm, EchoScene(echoes=(Echo(30.0 / 512.0, -3.0, 0.0),
                                                  Echo(90.0 / 512.0, 2.5, -6.0))), seed=0)
    dopplers = [-7.3, 0.0, 2.5]
    rows = np.array([np.abs(linear_xcorr(rx.samples, lfm.samples * ramp))
                     for ramp in _phase_ramps(np.array(dopplers), lfm.num_samples, 512.0)])
    rd = mf_bank(rx, lfm, dopplers)
    assert np.array_equal(rd.magnitude_db, wk.to_db(rows / rows.max()))


def test_mf_bank_transforms_the_received_series_once(lfm, monkeypatch):
    """A D-row bank forward-transforms D + 1 rows: one per replica, one shared."""
    rx = simulate_returns(lfm, _single(delay_s=0.1), seed=0)
    rows = []
    fft = np.fft.fft

    def counting_fft(x, *args, **kwargs):
        x = np.asarray(x)
        rows.append(x.size // x.shape[kwargs.get("axis", -1)])
        return fft(x, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting_fft)
    mf_bank(rx, lfm, np.linspace(-5.0, 5.0, 7))
    assert sum(rows) == 7 + 1


def test_an_owned_map_array_is_kept_and_still_checked():
    """mf_bank's private hand-over: the map keeps the array itself, read-only, and
    still runs its finiteness, shape and peak checks on it."""
    axes = {"delays_s": np.arange(3.0), "dopplers_hz": np.array([0.0])}
    values = np.array([[0.0, -3.0, -6.0]])
    rd = RangeDopplerMap(magnitude_db=_Owned(values), **axes)
    assert rd.magnitude_db is values and not values.flags.writeable
    for bad, message in ((np.array([[0.0, np.nan, -1.0]]), "must be finite"),
                         (np.zeros((2, 3)), "must be \\(num_dopplers, num_delays\\)"),
                         (np.array([[-1.0, -2.0, -3.0]]), "peak-normalized")):
        with pytest.raises(InvalidInputError, match=message):
            RangeDopplerMap(magnitude_db=_Owned(bad), **axes)


def test_mf_bank_validation(lfm):
    rx = simulate_returns(lfm, _single(), seed=0)
    with pytest.raises(InvalidInputError):
        mf_bank(rx, lfm, [])
    with pytest.raises(InvalidInputError):
        mf_bank(rx, lfm, [[0.0, 1.0]])
    with pytest.raises(InvalidInputError):
        mf_bank(rx, lfm, [np.nan])
    other = wk.SampledSignal(samples=rx.samples, sample_rate_hz=1024.0)
    with pytest.raises(InvalidInputError):
        mf_bank(other, lfm, [0.0])


def test_mf_bank_refuses_a_zero_replica_by_name_before_any_transform(lfm, monkeypatch):
    rx = simulate_returns(lfm, _single(), seed=0)
    monkeypatch.setattr(np.fft, "fft", None)  # any transform would raise TypeError
    with pytest.raises(InvalidInputError, match="^replica waveform has zero energy$"):
        mf_bank(rx, wk.SampledSignal(samples=np.zeros(512), sample_rate_hz=512.0), [0.0])


def test_mf_bank_refuses_a_zero_received_series(lfm):
    silent = wk.SampledSignal(samples=np.zeros(600, dtype=complex), sample_rate_hz=512.0)
    with pytest.raises(InvalidInputError, match="^received signal is identically zero$"):
        mf_bank(silent, lfm, [0.0])


# -------------------------------------------------------------- resolvability

def test_single_echo_is_detected_at_its_delay(lfm):
    scene = _single(delay_s=0.125)
    rx = simulate_returns(lfm, scene, seed=0)
    report = resolvability_report(mf_bank(rx, lfm, [0.0]), scene, 64.0)
    assert len(report) == 1
    entry = report[0]
    assert set(entry) == {"delay_s", "doppler_hz", "level_db", "detected",
                          "measured_level_db", "position_error_s"}
    assert entry["detected"] is True
    assert entry["position_error_s"] < 1.0 / (2.0 * 64.0)
    assert entry["measured_level_db"] == pytest.approx(0.0, abs=0.1)


def test_noise_masked_echo_is_reported_undetected(lfm):
    """-60 dB echo under a -20 dB noise scene: no credible peak."""
    scene = EchoScene(echoes=(Echo(0.125, 0.0, 0.0), Echo(0.5, 0.0, -60.0)),
                      noise_level_db=-20.0)
    rx = simulate_returns(lfm, scene, seed=2)
    report = resolvability_report(mf_bank(rx, lfm, [0.0]), scene, 64.0)
    assert report[0]["detected"] is True
    assert report[1]["detected"] is False


def test_mf_bank_reference_is_the_replica_energy_over_the_peak(lfm):
    """A 0 dB echo on a tuned row reads 0 dB against the map's reference."""
    rx = simulate_returns(lfm, _single(delay_s=0.2, doppler_hz=2.0), seed=0)
    scaled = wk.SampledSignal(samples=0.5 * rx.samples, sample_rate_hz=512.0)
    rd = mf_bank(scaled, lfm, [0.0, 2.0])
    peak = max(direct_xcorr_mag(scaled.samples,
                                lfm.samples * np.exp(2j * np.pi * 2.0 * lfm.time_grid())))
    assert rd.reference_db == pytest.approx(20.0 * np.log10(lfm.energy() / peak), abs=1e-9)
    assert rd.magnitude_db[1].max() - rd.reference_db == pytest.approx(20.0 * np.log10(0.5),
                                                                        abs=1e-9)


def test_straddled_strongest_echo_does_not_lift_the_others():
    """P4-256: the 0 dB echo sits between the 0 and 1 Hz rows and loses about
    4 dB to straddle; the -20 dB echo on the 0 Hz row still reads its own
    level, not 4 dB above it, and is detected."""
    p4 = wk.synth_p4(256, 1.0, 2048.0)
    fs = p4.sample_rate_hz
    scene = EchoScene(echoes=(Echo(0.1, 0.5, 0.0), Echo(0.6, 0.0, -20.0)))
    rd = mf_bank(simulate_returns(p4, scene, seed=0), p4, [0.0, 1.0])
    strong, weak = resolvability_report(rd, scene, 256.0)
    assert strong["detected"] is True
    assert strong["measured_level_db"] < -3.0  # its own straddle loss
    alone_db = 20.0 * np.log10(superposed_echo_mag(
        p4.samples, fs, [0.6], [-20.0], [int(round(0.6 * fs))])[0])
    assert alone_db == pytest.approx(-20.0, abs=1e-9)
    assert weak["detected"] is True, weak
    assert abs(weak["measured_level_db"] - alone_db) <= 0.25, weak


# A hand-built one-row map: lags 0..10 s in steps of 0.25 s, a row rising
# monotonically from -80 dB to 0 dB, so it has no interior local maximum.
_RISING = RangeDopplerMap(delays_s=0.25 * np.arange(41), dopplers_hz=np.zeros(1),
                          magnitude_db=np.linspace(-80.0, 0.0, 41)[None, :], reference_db=-10.0)


def test_echo_without_a_local_maximum_reads_its_window_maximum():
    """B = 1 Hz: the window +/-1/B about the 2 s echo holds lags 1..3 s, and
    its maximum sits on its upper edge, 3 s."""
    (entry,) = resolvability_report(_RISING, _single(delay_s=2.0), 1.0)
    assert entry["detected"] is False
    assert entry["measured_level_db"] == _RISING.magnitude_db[0, 12] - _RISING.reference_db
    assert entry["measured_level_db"] == pytest.approx(-80.0 + 80.0 * 12 / 40 + 10.0)
    assert entry["position_error_s"] == 1.0


def test_echo_outside_the_map_reads_the_floor():
    """The 20 s echo's window +/-1/B lies past the map's last lag, 10 s."""
    (entry,) = resolvability_report(_RISING, _single(delay_s=20.0), 1.0)
    assert entry["detected"] is False
    assert entry["measured_level_db"] == DB_FLOOR
    assert np.isnan(entry["position_error_s"])


def test_ring_floor_is_np_median_bitwise(lfm):
    """The sort-based median of the ring floor is np.median to the bit, on the
    benchmark scene's rings of a real map and on random values, odd and even
    sizes alike."""
    scene = benchmark_scene(64.0)
    rd = mf_bank(simulate_returns(lfm, scene, seed=0), lfm, [0.0])
    rings = []
    for echo in scene.echoes:
        ring = np.abs(rd.delays_s - echo.delay_s) <= 10.0 / 64.0
        for other in scene.echoes:
            ring &= np.abs(rd.delays_s - other.delay_s) > 1.0 / 64.0
        rings.append(rd.magnitude_db[0][ring])
    rng = np.random.default_rng(6)
    rings += [rng.uniform(-120.0, 0.0, n) for n in range(1, 41)]
    rings += [np.full(4, -30.0), np.array([-1e-300, 1e-300])]
    assert {ring.size % 2 for ring in rings} == {0, 1}
    for ring in rings:
        assert np.float64(_median(ring)).tobytes() == np.float64(np.median(ring)).tobytes()


def test_resolvability_validation(lfm):
    scene = _single()
    rd = mf_bank(simulate_returns(lfm, scene, seed=0), lfm, [0.0])
    with pytest.raises(InvalidInputError):
        resolvability_report(rd, scene, 64.0, margin_db=0.0)
    with pytest.raises(InvalidInputError):
        resolvability_report(rd, scene, 0.0)


def test_benchmark_scene_layout():
    scene = benchmark_scene(256.0)
    assert len(scene.echoes) == 6
    assert scene.noise_level_db is None
    spacing = 8.0 / 256.0
    for i, echo in enumerate(scene.echoes):
        assert echo.delay_s == pytest.approx((i + 1) * spacing)
        assert echo.doppler_hz == 0.0
        assert echo.time_scale == 1.0
    assert [e.level_db for e in scene.echoes] \
        == [0.0, -10.0, -18.0, -25.0, -33.0, -40.0]
    custom = benchmark_scene(256.0, first_delay_s=0.1)
    assert custom.echoes[0].delay_s == pytest.approx(0.1)
    assert custom.echoes[1].delay_s == pytest.approx(0.1 + spacing)
    with pytest.raises(InvalidInputError):
        benchmark_scene(0.0)


def test_costas_benchmark_echoes_under_others_sidelobes_are_missed(costas16):
    """Costas-16 on the benchmark scene: the -25/-33/-40 dB echoes sit
    under the other five echoes' sidelobes and are reported missed,
    while the 0/-10/-18 dB echoes stay detected.

    Burial is shown independently of mf_bank: by direct superposition,
    the other echoes alone reach at least the echo's own level within
    +/- 1/B of its delay.
    """
    sig = costas16["signal"]
    bandwidth = 256.0
    scene = benchmark_scene(bandwidth)
    report = resolvability_report(
        mf_bank(simulate_returns(sig, scene, seed=0), sig, [0.0]),
        scene, bandwidth)
    fs = sig.sample_rate_hz
    half_width = int(round(fs / bandwidth))
    max_lift_db = 20.0 * np.log10(1.0 + 10.0 ** (-6.0 / 20.0))
    for i, (echo, entry) in enumerate(zip(scene.echoes, report)):
        if echo.level_db >= -18.0:
            assert entry["detected"] is True, entry
            continue
        assert entry["detected"] is False, entry
        assert entry["measured_level_db"] > echo.level_db + max_lift_db
        others = [e for j, e in enumerate(scene.echoes) if j != i]
        center = int(round(echo.delay_s * fs))
        lags = np.arange(center - half_width, center + half_width + 1)
        others_db = 20.0 * np.log10(superposed_echo_mag(
            sig.samples, fs, [e.delay_s for e in others],
            [e.level_db for e in others], lags).max())
        assert others_db >= echo.level_db, (echo.level_db, others_db)


@pytest.mark.parametrize("delay_s, count", [(1e308, "inf"), (1e300, "5.12e\\+302")],
                         ids=["overflows", "past_the_largest_array"])
def test_echo_delay_beyond_an_array_is_invalid_input(delay_s, count):
    """An echo whose delay in samples no array can hold is refused naming it,
    not an OverflowError from round() or numpy's bare ValueError."""
    sig = wk.synth_lfm(64.0, 1.0, 512.0)
    scene = EchoScene(echoes=(Echo(0.1, 0.0, 0.0), Echo(delay_s, 0.0, -6.0)))
    with pytest.raises(InvalidInputError,
                       match=f"^scene.echoes\\[1\\].delay_s asks for {count} samples"):
        wk.simulate_returns(sig, scene, seed=0)


def test_window_beyond_an_array_is_invalid_input():
    """window_s = 1e308 s is inf samples at 512 Hz: refused naming window_s."""
    sig = wk.synth_lfm(64.0, 1.0, 512.0)
    scene = EchoScene(echoes=(Echo(0.1, 0.0, 0.0),))
    with pytest.raises(InvalidInputError, match="^window_s asks for inf samples"):
        wk.simulate_returns(sig, scene, seed=0, window_s=1e308)
