"""Sampled-signal container and spectral transforms.

All waveforms in wavekit live at complex baseband on a uniform midpoint
time grid t[n] = (n + 1/2) / fs.  The midpoint grid makes the
conjugate-time-reversal symmetry of periodic-phase waveforms exact on
the sample lattice, which several analysis identities rely on.

Amplitude convention: discrete samples absorb the sqrt(dt) factor of the
continuous waveform, so a unit-energy continuous signal satisfies
sum(|s[n]|**2) == 1 exactly.  Plain sample sums then approximate the
corresponding continuous integrals (energies, correlations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, check_number

DB_FLOOR = -120.0
DB_LIMIT = 1000.0  # largest |level| in dB: 10**(DB_LIMIT/20) = 1e50 leaves float headroom
MAX_RATE_HZ = 1e100  # highest sample rate: squared frequencies stay far inside float range


def _fft_length(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n, a length pocketfft transforms at
    nearly power-of-two speed per point: wavekit's one transform-length rule."""
    n = int(n)
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def to_db(magnitude: np.ndarray, floor_db: float = DB_FLOOR, out: np.ndarray | None = None
          ) -> np.ndarray:
    """Convert linear magnitude to dB, floored so no -inf/NaN escapes.

    Args:
        magnitude: nonnegative linear magnitudes (any shape); a NaN, found
            by one max over the clamped values, raises InvalidInputError.
        floor_db: lower clamp in dB, within +/-DB_LIMIT.
        out: a float64 array of magnitude's shape (at least 1-D) that
            receives the result, in place of a new one; magnitude itself
            converts in place.

    Returns:
        20*log10(magnitude) clamped to [floor_db, inf).
    """
    floor_db = check_number("floor_db", floor_db, minimum=-DB_LIMIT, maximum=DB_LIMIT)
    db = np.maximum(np.asarray(magnitude, dtype=float), 10.0 ** (floor_db / 20.0), out=out)
    if db.size and np.isnan(db.max()):
        raise InvalidInputError("magnitude must not be NaN")
    if db.ndim == 0:  # np.maximum returns a scalar, which has no buffer to reuse
        return 20.0 * np.log10(db)
    np.log10(db, out=db)
    db *= 20.0
    return db


def _check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    """arr, all finite (a complex one scanned as float64), else InvalidInputError naming it."""
    if not np.isfinite(arr.reshape(-1).view(np.float64) if np.iscomplexobj(arr) else arr).all():
        raise InvalidInputError(f"{name} must be finite")
    return arr


class _Owned:
    """An array handed over by the one code that holds it, which never writes
    it again: `_freeze_field` keeps it in place of a copy."""

    def __init__(self, array: np.ndarray):
        self.array = array


def _freeze_field(obj, name: str, dtype=float) -> np.ndarray:
    """Set obj.name to a finite (`_check_finite`) read-only copy the caller cannot
    change; an `_Owned` array of that dtype is kept, not copied."""
    value = getattr(obj, name)
    arr = _check_finite(name, np.asarray(value.array, dtype=dtype) if isinstance(value, _Owned)
                        else np.array(value, dtype=dtype))
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)
    return arr


def _axis_step(name: str, axis: np.ndarray) -> float:
    if axis.size < 2:
        raise InvalidInputError(f"{name} has one point, so no spacing")
    return float(axis[1] - axis[0])


def _freeze_grid(obj, values: str, axes: tuple, message: str) -> np.ndarray:
    """Freeze obj's axis fields, then its values field (see `_freeze_field`), and
    return the values.  The grid rule: every axis is 1-D and the values' shape is
    the tuple of the axis lengths, in order; else InvalidInputError(message).
    Then every axis must be nonempty; else InvalidInputError naming the axis."""
    frozen = [_freeze_field(obj, name) for name in axes]
    grid = _freeze_field(obj, values)
    if any(axis.ndim != 1 for axis in frozen) or grid.shape != tuple(a.size for a in frozen):
        raise InvalidInputError(message)
    for name, axis in zip(axes, frozen):
        if axis.size == 0:
            raise InvalidInputError(f"{name} must not be empty")
    return grid


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled complex baseband signal.

    Attributes:
        samples: complex sample values (dimensionless amplitude).
        sample_rate_hz: sampling rate fs.
        center_freq_hz: carrier frequency, used only for passband
            conversion and wideband (time-scale) Doppler models.

    The duration is not stored: `duration_s` derives it as len(samples)/fs.
    """

    samples: np.ndarray
    sample_rate_hz: float
    center_freq_hz: float = 0.0

    def __post_init__(self):
        samples = _freeze_field(self, "samples", np.complex128)
        if samples.ndim != 1 or samples.size < 2:
            raise InvalidInputError("signal must be a 1-D array of at least 2 samples")
        check_number("sample_rate_hz", self.sample_rate_hz, positive=True, maximum=MAX_RATE_HZ)
        check_number("center_freq_hz", self.center_freq_hz, minimum=0.0)

    @property
    def num_samples(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        """Signal duration N/fs."""
        return self.samples.size / self.sample_rate_hz

    def time_grid(self) -> np.ndarray:
        """Midpoint sample times t[n] = (n + 1/2)/fs."""
        return (np.arange(self.num_samples) + 0.5) / self.sample_rate_hz

    def energy(self) -> float:
        """Discrete energy sum(|s[n]|**2) (equals continuous energy by convention)."""
        return float(np.sum(np.abs(self.samples) ** 2))


@dataclass(frozen=True)
class Spectrum:
    """Two-sided baseband magnitude spectrum.

    magnitude is scaled |FFT|/sqrt(fs) so that sum(magnitude**2 * df)
    equals the time-domain energy exactly (discrete Parseval).
    """

    freqs_hz: np.ndarray
    magnitude: np.ndarray

    def __post_init__(self):
        magnitude = _freeze_grid(self, "magnitude", ("freqs_hz",),
                                 "spectrum axis/magnitude length mismatch")
        if np.any(magnitude < 0):
            raise InvalidInputError("spectrum magnitude must be nonnegative")

    @property
    def df_hz(self) -> float:
        return _axis_step("freqs_hz", self.freqs_hz)


@dataclass(frozen=True)
class Spectrogram:
    """Short-time spectral magnitudes in dB, peak-normalized to 0 dB."""

    times_s: np.ndarray
    freqs_hz: np.ndarray
    magnitude_db: np.ndarray

    def __post_init__(self):
        _freeze_grid(self, "magnitude_db", ("times_s", "freqs_hz"),
                     "spectrogram matrix does not match axis lengths")


def spectrum(signal: SampledSignal, zero_pad_factor: int = 4) -> Spectrum:
    """Compute the two-sided baseband spectrum of a signal.

    The transform length is `_fft_length(zero_pad_factor * N)`, the rule
    the optimizer's objective uses too, so `spectrum(s, 2)` and the
    objective read a signal on the same frequency grid.

    Args:
        signal: input signal.
        zero_pad_factor: int >= 1 controlling frequency resolution.

    Returns:
        Spectrum whose frequency axis spans [-fs/2, fs/2) and whose
        energy matches the time-domain energy.
    """
    zero_pad_factor = check_number("zero_pad_factor", zero_pad_factor, integer=True, minimum=1)
    fs = signal.sample_rate_hz
    nfft = _fft_length(zero_pad_factor * signal.num_samples)
    mag = np.abs(np.fft.fftshift(np.fft.fft(signal.samples, nfft))) / np.sqrt(fs)
    freqs = np.fft.fftshift(np.fft.fftfreq(nfft, d=1.0 / fs))
    return Spectrum(freqs_hz=freqs, magnitude=mag)


def _total_power(power: np.ndarray) -> float:
    """power.sum(), which must be nonzero: a spectrum's total energy."""
    total = power.sum()
    if total == 0.0:
        raise InvalidInputError("spectrum has zero energy")
    return total


def _signal_energy(signal: SampledSignal, name: str = "signal") -> float:
    """signal.energy(), which must be nonzero: correlation, ambiguity,
    Doppler-loss and matched-filter readings are normalized by it.  name is
    the argument the refusal names."""
    energy = signal.energy()
    if energy == 0.0:
        raise InvalidInputError(f"{name} has zero energy")
    return energy


def p99_bandwidth(spec: Spectrum, fraction: float = 0.99) -> float:
    """Width of the central band holding `fraction` of the spectral energy.

    The band edges are the (1-fraction)/2 and 1-(1-fraction)/2 energy
    quantiles of |S|^2, linearly interpolated between bins.
    """
    if not 0.0 < fraction < 1.0:
        raise InvalidInputError("fraction must lie in (0, 1)")
    power = spec.magnitude**2
    total = _total_power(power)
    cum = np.cumsum(power) / total
    tail = (1.0 - fraction) / 2.0
    f_lo = float(np.interp(tail, cum, spec.freqs_hz))
    f_hi = float(np.interp(1.0 - tail, cum, spec.freqs_hz))
    return f_hi - f_lo


def spectrogram(signal: SampledSignal, window_len: int, overlap: float) -> Spectrogram:
    """Hann-windowed short-time spectrogram, dB relative to the global peak.

    Args:
        signal: input signal.
        window_len: analysis window length in samples (<= signal length).
        overlap: fractional window overlap in [0, 1).

    Returns:
        Spectrogram with magnitudes floored at -120 dB.
    """
    n = signal.num_samples
    if check_number("window_len", window_len, integer=True, minimum=2) > n:
        raise InvalidInputError("window_len must be <= len(signal)")
    if not 0.0 <= overlap < 1.0:
        raise InvalidInputError("overlap must be in [0, 1)")
    fs = signal.sample_rate_hz
    hop = max(1, int(round(window_len * (1.0 - overlap))))
    # Symmetric Hann keeps the window even about its center, which makes
    # the time-reversal identity of the spectrogram exact on the frame grid.
    win = np.hanning(window_len) if window_len > 2 else np.ones(window_len)
    starts = np.arange(0, n - window_len + 1, hop)
    frames = np.lib.stride_tricks.sliding_window_view(signal.samples, window_len)[starts]
    spec = np.fft.fftshift(np.fft.fft(frames * win, axis=1), axes=1)
    mag = np.abs(spec)
    peak = mag.max()
    if peak == 0.0:
        peak = 1.0
    db = to_db(mag / peak)
    times = (starts + window_len / 2.0) / fs
    freqs = np.fft.fftshift(np.fft.fftfreq(window_len, d=1.0 / fs))
    return Spectrogram(times_s=times, freqs_hz=freqs, magnitude_db=db)


def to_passband(signal: SampledSignal) -> np.ndarray:
    """Convert a baseband signal to a real passband sample sequence.

    Returns Re{s(t) * exp(j*2*pi*fc*t)} evaluated on the signal's own
    midpoint time grid.  With fc = 0 this is just the real part of the
    baseband samples.

    Raises:
        InvalidInputError: if the carrier plus half the 99% energy
            bandwidth (see `p99_bandwidth`) exceeds the Nyquist frequency.
    """
    fc = signal.center_freq_hz
    if fc > 0:
        occupied = p99_bandwidth(spectrum(signal, zero_pad_factor=1))
        if fc + occupied / 2.0 >= signal.sample_rate_hz / 2.0:
            raise InvalidInputError(
                f"carrier {fc} Hz + half occupied bandwidth {occupied / 2:.1f} Hz "
                f"exceeds Nyquist {signal.sample_rate_hz / 2} Hz"
            )
        carrier = np.exp(2j * np.pi * fc * signal.time_grid())
        return np.real(signal.samples * carrier)
    return np.real(signal.samples).copy()
