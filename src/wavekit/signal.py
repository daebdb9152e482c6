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

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

DB_FLOOR = -120.0


def _next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    p = 1
    while p < n:
        p *= 2
    return p


def to_db(magnitude: np.ndarray, floor_db: float = DB_FLOOR) -> np.ndarray:
    """Convert linear magnitude to dB, floored so no -inf/NaN escapes.

    Args:
        magnitude: nonnegative linear magnitudes (any shape).
        floor_db: lower clamp in dB.

    Returns:
        20*log10(magnitude) clamped to [floor_db, inf).
    """
    floor_lin = 10.0 ** (floor_db / 20.0)
    db = np.maximum(np.asarray(magnitude, dtype=float), floor_lin)
    if db.ndim == 0:  # np.maximum returns a scalar, which has no buffer to reuse
        return 20.0 * np.log10(db)
    np.log10(db, out=db)
    db *= 20.0
    return db


def _freeze_field(obj, name: str, dtype=float) -> np.ndarray:
    """Set obj.name to a read-only dtype copy, so the caller's array cannot change obj."""
    arr = np.array(getattr(obj, name), dtype=dtype)
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)
    return arr


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled complex baseband signal.

    Attributes:
        samples: complex sample values (dimensionless amplitude).
        sample_rate_hz: sampling rate fs.
        center_freq_hz: carrier frequency, used only for passband
            conversion and wideband (time-scale) Doppler models.
        duration_s: signal duration; always equals len(samples)/fs.
    """

    samples: np.ndarray
    sample_rate_hz: float
    center_freq_hz: float = 0.0
    duration_s: float = field(default=0.0)

    def __post_init__(self):
        samples = _freeze_field(self, "samples", np.complex128)
        if samples.ndim != 1 or samples.size < 2:
            raise InvalidInputError("signal must be a 1-D array of at least 2 samples")
        if not np.all(np.isfinite(samples.view(np.float64))):
            raise InvalidInputError("signal samples must all be finite")
        if self.sample_rate_hz <= 0:
            raise InvalidInputError("sample_rate_hz must be positive")
        if self.center_freq_hz < 0:
            raise InvalidInputError("center_freq_hz must be nonnegative")
        duration = self.duration_s
        if duration == 0.0:
            duration = samples.size / self.sample_rate_hz
        if round(self.sample_rate_hz * duration) != samples.size:
            raise InvalidInputError(
                "duration_s inconsistent with sample count: "
                f"round({self.sample_rate_hz} * {duration}) != {samples.size}"
            )
        object.__setattr__(self, "duration_s", duration)

    @property
    def num_samples(self) -> int:
        return self.samples.size

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
    total_energy: float

    def __post_init__(self):
        _freeze_field(self, "freqs_hz")
        _freeze_field(self, "magnitude")
        if self.freqs_hz.shape != self.magnitude.shape:
            raise InvalidInputError("spectrum axis/magnitude length mismatch")
        if np.any(self.magnitude < 0):
            raise InvalidInputError("spectrum magnitude must be nonnegative")

    @property
    def df_hz(self) -> float:
        return float(self.freqs_hz[1] - self.freqs_hz[0])


@dataclass(frozen=True)
class Spectrogram:
    """Short-time spectral magnitudes in dB, peak-normalized to 0 dB."""

    times_s: np.ndarray
    freqs_hz: np.ndarray
    magnitude_db: np.ndarray
    window_len_samples: int
    overlap_fraction: float

    def __post_init__(self):
        for name in ("times_s", "freqs_hz", "magnitude_db"):
            _freeze_field(self, name)
        if self.magnitude_db.shape != (self.times_s.size, self.freqs_hz.size):
            raise InvalidInputError("spectrogram matrix does not match axis lengths")


def spectrum(signal: SampledSignal, zero_pad_factor: int = 4) -> Spectrum:
    """Compute the two-sided baseband spectrum of a signal.

    The transform length is the next power of two >= zero_pad_factor
    times the signal length, giving predictable bin spacing.

    Args:
        signal: input signal.
        zero_pad_factor: integer >= 1 controlling frequency resolution.

    Returns:
        Spectrum whose frequency axis spans [-fs/2, fs/2) and whose
        energy matches the time-domain energy.
    """
    if zero_pad_factor < 1 or int(zero_pad_factor) != zero_pad_factor:
        raise InvalidInputError("zero_pad_factor must be a positive integer")
    fs = signal.sample_rate_hz
    nfft = _next_pow2(int(zero_pad_factor) * signal.num_samples)
    mag = np.abs(np.fft.fftshift(np.fft.fft(signal.samples, nfft))) / np.sqrt(fs)
    freqs = np.fft.fftshift(np.fft.fftfreq(nfft, d=1.0 / fs))
    return Spectrum(freqs_hz=freqs, magnitude=mag, total_energy=signal.energy())


def _total_power(power: np.ndarray) -> float:
    """power.sum(), which must be nonzero: a spectrum's total energy."""
    total = power.sum()
    if total == 0.0:
        raise InvalidInputError("spectrum has zero energy")
    return total


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
    if window_len < 2 or window_len > n:
        raise InvalidInputError("window_len must be in [2, len(signal)]")
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
    return Spectrogram(
        times_s=times,
        freqs_hz=freqs,
        magnitude_db=db,
        window_len_samples=int(window_len),
        overlap_fraction=float(overlap),
    )


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
