"""Point-echo scene synthesis and matched-filter-bank processing.

A scene is a list of point echoes, each an amplitude-scaled, delayed,
Doppler-shifted copy of the transmit waveform, optionally buried in
seeded complex white noise.  Processing correlates the received series
against a bank of Doppler-tuned replicas to form a range-Doppler map,
and a resolvability report decides which echoes stand clear of the
sidelobe floor contributed by the others.

"Stand clear" is two conditions on the echo's nearest-Doppler row.
Its peak must exceed the median of the surrounding sidelobe ring by
margin_db, and it must not read more than 20*log10(1 + 10^(-margin_db/20))
above the echo's true level (+3.53 dB at the default 6 dB).  Levels are
read against the map's reference, the level at which a 0 dB echo peaks
on a tuned row, not against the map's peak, so a strongest echo that
straddles two Doppler rows does not lift every other reading.  If the
other echoes' sidelobes at the echo's delay lie at least margin_db
below it, they can raise its peak by no more than that factor; a
reading above the bound therefore means the peak is mostly the others'
sidelobes.  The bound is one-sided because Doppler straddle loss only
lowers an echo's own reading.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, check_number
from .metrics import _doppler_grid, _doppler_rows, _time_scaler
from .signal import (DB_FLOOR, DB_LIMIT, SampledSignal, _freeze_grid, _Owned, _sample_count,
                     _signal_energy, to_db)


@dataclass(frozen=True)
class Echo:
    """One point scatterer.

    level_db is relative to the strongest echo in the scene (0 dB).
    time_scale is the wideband compression factor eta; leave at 1.0 for
    the narrowband (frequency-shift) Doppler model.
    """

    delay_s: float
    doppler_hz: float
    level_db: float
    time_scale: float = 1.0

    def __post_init__(self):
        check_number("delay_s", self.delay_s, minimum=0.0)
        check_number("doppler_hz", self.doppler_hz)
        check_number("level_db", self.level_db, maximum=0.0)
        check_number("time_scale", self.time_scale, positive=True)


@dataclass(frozen=True)
class EchoScene:
    """A nonempty echo list plus an optional noise floor.

    The strongest echo anchors the level scale: max level_db must be 0.
    noise_level_db sets the total noise energy collected over one pulse
    length relative to a 0 dB echo, at most DB_LIMIT; None disables noise.
    """

    echoes: tuple
    noise_level_db: float | None = None

    def __post_init__(self):
        echoes = tuple(self.echoes)
        object.__setattr__(self, "echoes", echoes)
        if not echoes:
            raise InvalidInputError("scene needs at least one echo")
        if any(not isinstance(e, Echo) for e in echoes):
            raise InvalidInputError("echoes must be Echo instances")
        top = max(e.level_db for e in echoes)
        if abs(top) > 1e-9:
            raise InvalidInputError("strongest echo must sit at 0 dB")
        if self.noise_level_db is not None:
            check_number("noise_level_db", self.noise_level_db, maximum=DB_LIMIT)


@dataclass(frozen=True)
class RangeDopplerMap:
    """Peak-normalized dB map, one row per Doppler-tuned matched filter.

    reference_db is the map level of a 0 dB echo on a tuned row: the
    replica energy over the map's peak, in dB.  The default 0 dB takes
    the peak itself as that level.  The map keeps read-only copies of its
    arrays, so a later write to the caller's arrays does not change it.
    """

    delays_s: np.ndarray
    dopplers_hz: np.ndarray
    magnitude_db: np.ndarray = field(repr=False)
    reference_db: float = 0.0

    def __post_init__(self):
        mag = _freeze_grid(self, "magnitude_db", ("dopplers_hz", "delays_s"),
                           "magnitude_db must be (num_dopplers, num_delays)")
        if abs(mag.max()) > 1e-9:
            raise InvalidInputError("map must be peak-normalized (global max 0 dB)")
        object.__setattr__(self, "reference_db", check_number("reference_db", self.reference_db))

    def zero_doppler_cut(self) -> np.ndarray:
        """The row tuned nearest to zero Doppler."""
        return self.magnitude_db[int(np.argmin(np.abs(self.dopplers_hz)))]


def _window_samples(pulse_samples: int, fs: float, scene: EchoScene,
                    window_s: float | None = None) -> float:
    """Samples in `simulate_returns`'s received window: round(window_s * fs),
    or by default the largest echo delay in samples plus the pulse.  A
    float, so that a window too long to hold reads as a count (inf once
    the product overflows) that a caller can refuse."""
    if window_s is None:
        return max(float(np.rint(e.delay_s * fs)) for e in scene.echoes) + pulse_samples
    return float(np.rint(window_s * fs))


def simulate_returns(waveform: SampledSignal, scene: EchoScene, seed: int,
                     window_s: float | None = None) -> SampledSignal:
    """Superpose delayed, Doppler-shifted, scaled copies of the waveform.

    received(t) = sum_i 10^(level_i/20) * s(t - tau_i) * exp(j 2 pi nu_i t)
    plus seeded complex white noise when the scene enables it.  Delays
    snap to the sample grid.  The processing window defaults to the
    largest delay plus the pulse length; pass window_s to fix it (every
    echo must still fit, else invalid input).  seed is a nonnegative int.
    Each echo's doppler_hz must lie within +/-fs/2 (see `metrics._doppler_grid`).
    An echo delay or a window of samples above the cap is refused as
    `signal._sample_count` refuses it, naming the delay or window_s.
    """
    check_number("seed", seed, integer=True, minimum=0)
    fs = waveform.sample_rate_hz
    shifts = []
    for i, echo in enumerate(scene.echoes):
        check_number(f"scene.echoes[{i}].doppler_hz", echo.doppler_hz,
                     minimum=-fs / 2.0, maximum=fs / 2.0)
        shifts.append(_sample_count(f"scene.echoes[{i}].delay_s", echo.delay_s * fs))
    n_pulse = waveform.num_samples
    needed = _sample_count("the echo delays plus the pulse", _window_samples(n_pulse, fs, scene))
    if window_s is None:
        n_win = needed
    else:
        check_number("window_s", window_s, positive=True)
        n_win = _sample_count("window_s", _window_samples(n_pulse, fs, scene, window_s))
        if needed > n_win:
            raise InvalidInputError("echo delay plus pulse length exceeds the window")
    t = (np.arange(n_win) + 0.5) / fs
    received = np.zeros(n_win, dtype=np.complex128)
    scaler = None
    for echo, shift in zip(scene.echoes, shifts):
        if echo.time_scale == 1.0:
            replica = waveform.samples
        else:
            scaler = scaler or _time_scaler(waveform)
            replica = scaler(np.array([echo.time_scale]))[0]
        amp = 10.0 ** (echo.level_db / 20.0)
        segment = slice(shift, shift + n_pulse)
        received[segment] += amp * replica * np.exp(2j * np.pi * echo.doppler_hz * t[segment])
    if scene.noise_level_db is not None:
        rng = np.random.default_rng(seed)
        sigma = 10.0 ** (scene.noise_level_db / 20.0) / np.sqrt(n_pulse)
        noise = rng.standard_normal(n_win) + 1j * rng.standard_normal(n_win)
        received += sigma * noise / np.sqrt(2.0)
    return SampledSignal(samples=received, sample_rate_hz=fs,
                         center_freq_hz=waveform.center_freq_hz)


def mf_bank(received: SampledSignal, waveform: SampledSignal,
            dopplers_hz) -> RangeDopplerMap:
    """Correlate the received series against Doppler-tuned replicas.

    Row nu is |correlation of received against s(t) e^{j 2 pi nu t}|;
    the assembled map is normalized to its global peak and stored in dB.
    A 0 dB echo on a tuned row peaks at the replica energy, so the map's
    reference_db is that energy over the peak.  Rows come from
    `metrics._doppler_rows`: one transform of the received series, then
    blocks of rows, each one batched FFT pair in place in one buffer, shared
    out to up to two worker threads (see `metrics._replica_rows` for the
    block rule, the workers and their buffers).  The map does not depend on
    the CPU count.  The rows turn to dB in place and the map keeps them
    without a copy, so the call holds one full-size map; at two workers
    the 201-row bank at N = 2048 peaks near 1.25 maps.

    Raises:
        InvalidInputError: if the sample rates differ, the Doppler grid is
            refused (see `metrics._doppler_grid`), the replica waveform has
            zero energy, the map's rows x lags are above the cap (naming
            dopplers_hz), or the received series is identically zero.
    """
    if received.sample_rate_hz != waveform.sample_rate_hz:
        raise InvalidInputError("received and waveform sample rates differ")
    dopplers = _doppler_grid(dopplers_hz, received.sample_rate_hz)
    energy = _signal_energy(waveform, "replica waveform")
    lags = np.arange(1 - waveform.num_samples, received.num_samples)  # every overlap
    rows = _doppler_rows(received.samples, waveform.samples, waveform.sample_rate_hz,
                         dopplers, lags)
    peak = rows.max()
    if peak <= 0:
        raise InvalidInputError("received signal is identically zero")
    rows /= peak
    to_db(rows, out=rows)
    return RangeDopplerMap(delays_s=lags / received.sample_rate_hz,
                           dopplers_hz=dopplers, magnitude_db=_Owned(rows),
                           reference_db=to_db(energy / peak))


def _median(values: np.ndarray) -> float:
    """np.median of a nonempty 1-D array with no NaN, bitwise: np.mean of its one
    or two middle values in sorted order.  np.median itself loads numpy.ma."""
    ordered = np.sort(values)
    mid = ordered.size // 2
    return float(np.mean(ordered[mid - 1 + ordered.size % 2:mid + 1]))


def resolvability_report(rd_map: RangeDopplerMap, scene: EchoScene,
                         bandwidth_hz: float, margin_db: float = 6.0) -> list:
    """Decide, per echo, whether it stands clear of the sidelobe floor.

    An echo is detected iff a local maximum of its nearest-Doppler row
    lies within 1/B of the true delay, AND that peak exceeds, by
    margin_db, the median level of the surrounding 10/B neighborhood
    with every echo's mainlobe (+/- 1/B) excluded, AND the peak reads no
    more than 20*log10(1 + 10^(-margin_db/20)) dB above the echo's
    level_db.  The last condition catches an echo buried under the
    others' sidelobes: a sidelobe contribution at least margin_db below
    the echo can lift its peak by at most that factor, so a higher
    reading is mostly interference.  It is one-sided because Doppler
    straddle loss can only lower a reading.  The check is necessary, not
    sufficient: interference that partly cancels the echo can still let
    a buried echo through.  On the benchmark scene, the TBP-256 LFM's
    -40 dB echo lies under -38.4 dB of the others' sidelobes yet reads
    -37.6 dB, inside the bound, and is reported detected.
    measured_level_db is the peak read against rd_map.reference_db, the
    level of a 0 dB echo on a tuned row, so it needs no echo to land on
    a tuned row: the strongest echo's straddle loss lowers only its own
    reading.  The ring test compares map levels and needs no reference.
    Returns one dict per echo, in scene order, with keys delay_s,
    doppler_hz, level_db, detected, measured_level_db, position_error_s.
    """
    check_number("margin_db", margin_db, positive=True)
    check_number("bandwidth_hz", bandwidth_hz, positive=True)
    lags = rd_map.delays_s
    mainlobe = 1.0 / bandwidth_hz
    neighborhood = 10.0 / bandwidth_hz
    all_delays = np.array([e.delay_s for e in scene.echoes])
    max_lift_db = 20.0 * np.log10(1.0 + 10.0 ** (-margin_db / 20.0))
    report = []
    for echo in scene.echoes:
        row = rd_map.magnitude_db[int(np.argmin(np.abs(rd_map.dopplers_hz - echo.doppler_hz)))]
        near = np.abs(lags - echo.delay_s) <= mainlobe
        interior = np.zeros_like(near)
        interior[1:-1] = (row[1:-1] >= row[:-2]) & (row[1:-1] >= row[2:])
        candidates = np.flatnonzero(near & interior)
        if candidates.size:
            peak_idx = candidates[np.argmax(row[candidates])]
            has_peak = True
        else:
            window = np.flatnonzero(near)
            peak_idx = window[np.argmax(row[window])] if window.size else None
            has_peak = False
        ring = np.abs(lags - echo.delay_s) <= neighborhood
        for d in all_delays:
            ring &= np.abs(lags - d) > mainlobe
        floor_db = _median(row[ring]) if np.any(ring) else DB_FLOOR
        if peak_idx is None:
            reading = measured = DB_FLOOR
            error = float("nan")
        else:
            reading = float(row[peak_idx])
            measured = reading - rd_map.reference_db
            error = float(abs(lags[peak_idx] - echo.delay_s))
        report.append({
            "delay_s": float(echo.delay_s),
            "doppler_hz": float(echo.doppler_hz),
            "level_db": float(echo.level_db),
            "detected": bool(has_peak and reading >= floor_db + margin_db
                             and measured <= echo.level_db + max_lift_db),
            "measured_level_db": measured,
            "position_error_s": error,
        })
    return report


def benchmark_scene(bandwidth_hz: float, first_delay_s: float | None = None) -> EchoScene:
    """Six noiseless zero-Doppler echoes spanning a 40 dB strength range.

    Delays step by 8/B so the mainlobes are cleanly separated; levels
    fall as (0, -10, -18, -25, -33, -40) dB, putting the weakest echoes
    well below a typical phase-coded sidelobe floor but above a
    sidelobe-optimized one.
    """
    spacing = 8.0 / check_number("bandwidth_hz", bandwidth_hz, positive=True)
    start = (spacing if first_delay_s is None
             else check_number("first_delay_s", first_delay_s, minimum=0.0))
    levels = (0.0, -10.0, -18.0, -25.0, -33.0, -40.0)
    echoes = tuple(
        Echo(delay_s=start + i * spacing, doppler_hz=0.0, level_db=lvl)
        for i, lvl in enumerate(levels)
    )
    return EchoScene(echoes=echoes, noise_level_db=None)
