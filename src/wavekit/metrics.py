"""Matched-filter, ambiguity, and scalar design metrics.

Correlation responses are computed with FFT acceleration and reported as
peak-referenced dB magnitudes floored at -120 dB.  Sidelobe metrics
(PSL/ISL) are evaluated over a two-sided delay region
{tau : inner <= |tau| <= outer} matching the red-dashed region picture
of a range response plot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .signal import (DB_FLOOR, SampledSignal, Spectrum, _freeze_field, _next_pow2,
                     _total_power, p99_bandwidth, spectrum, to_db)


@dataclass(frozen=True)
class RegionSpec:
    """Two-sided delay region {tau : inner <= |tau| <= outer}."""

    inner_delay_s: float
    outer_delay_s: float

    def __post_init__(self):
        if not (math.isfinite(self.inner_delay_s) and math.isfinite(self.outer_delay_s)):
            raise InvalidInputError("region delays must be finite")
        if self.inner_delay_s < 0:
            raise InvalidInputError("inner_delay_s must be nonnegative")
        if self.outer_delay_s <= self.inner_delay_s:
            raise InvalidInputError("outer_delay_s must exceed inner_delay_s")

    def mask(self, lags_s: np.ndarray) -> np.ndarray:
        a = np.abs(lags_s)
        return (a >= self.inner_delay_s) & (a <= self.outer_delay_s)


def _region_mask(region: RegionSpec, lags_s: np.ndarray) -> np.ndarray:
    """region.mask(lags_s), which must select at least one lag."""
    mask = region.mask(lags_s)
    if not np.any(mask):
        raise InvalidInputError("region contains no lag samples")
    return mask


@dataclass(frozen=True)
class CorrelationResponse:
    """Correlation magnitude versus delay.

    For an autocorrelation the peak sits at lag 0 and reads 0 dB.  For a
    cross-correlation the normalization is sqrt(Ea*Eb), so the global
    peak may sit below 0 dB.
    """

    lags_s: np.ndarray
    magnitude_db: np.ndarray

    def __post_init__(self):
        _freeze_field(self, "lags_s")
        _freeze_field(self, "magnitude_db")
        if self.lags_s.shape != self.magnitude_db.shape:
            raise InvalidInputError("lag/magnitude length mismatch")

    @property
    def lag_step_s(self) -> float:
        return float(self.lags_s[1] - self.lags_s[0])

    def magnitude_linear(self) -> np.ndarray:
        return 10.0 ** (self.magnitude_db / 20.0)


@dataclass(frozen=True)
class AmbiguitySurface:
    """Narrowband ambiguity magnitude |chi(tau, nu)|, normalized to 1 at (0,0)."""

    delays_s: np.ndarray
    dopplers_hz: np.ndarray
    magnitude: np.ndarray

    def __post_init__(self):
        for name in ("delays_s", "dopplers_hz", "magnitude"):
            _freeze_field(self, name)
        if self.magnitude.shape != (self.delays_s.size, self.dopplers_hz.size):
            raise InvalidInputError("ambiguity matrix does not match axis lengths")


@dataclass(frozen=True)
class MetricsReport:
    """Scalar design metrics for one waveform."""

    psl_db: float
    isl_db: float
    inband_energy_fraction: float
    rms_bandwidth_hz: float
    tbp: float
    p99_bandwidth_hz: float

    def to_dict(self) -> dict:
        return {
            "psl_db": self.psl_db,
            "isl_db": self.isl_db,
            "inband_energy_fraction": self.inband_energy_fraction,
            "rms_bandwidth_hz": self.rms_bandwidth_hz,
            "tbp": self.tbp,
            "p99_bandwidth_hz": self.p99_bandwidth_hz,
        }


@dataclass(frozen=True)
class DopplerTolerancePoint:
    """One point of a Doppler tolerance curve.

    peak_loss_db is the matched-filter peak level relative to the
    zero-mismatch peak (0 dB = no loss, strongly negative = destroyed);
    peak_shift_s is the delay bias of the surviving peak.
    """

    doppler_hz: float
    peak_loss_db: float
    peak_shift_s: float


# Complex points per block of Doppler rows in `_doppler_rows`.
_BLOCK_POINTS = 1 << 15


def _fft_length(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n, a length pocketfft transforms at
    nearly power-of-two speed per point."""
    best = _next_pow2(n)
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 * _next_pow2(-(-n // p35)))
            p35 *= 3
        p5 *= 5
    return best


def _linear_xcorr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear correlation y[k] = sum_n a[n] * conj(b[n-k]).

    Lags k run from -(len(b)-1) to len(a)-1 and a delayed copy of b
    inside a produces a peak at positive k equal to the delay.  When b
    is a, its transform is taken once and reused.  The circular
    correlation is taken at `_fft_length(len(a) + len(b) - 1)`, the
    shortest length at which no lag aliases onto another.
    """
    nfft = _fft_length(a.size + b.size - 1)
    fa = np.fft.fft(a, nfft)
    fb = fa if b is a else np.fft.fft(b, nfft)
    y = np.fft.ifft(fa * np.conj(fb))
    return np.concatenate([y[nfft - (b.size - 1):], y[:a.size]])


def _phase_ramps(dopplers: np.ndarray, n: int, fs: float) -> np.ndarray:
    """e^{j 2 pi nu t_k} on the midpoint grid t_k = (k + 1/2)/fs, k < n, one row per nu.

    With k = h*m + l and m = ceil(sqrt(n)), the ramp factors as
    e^{j 2 pi nu h m/fs} * e^{j 2 pi nu (l + 1/2)/fs}: two tables of about
    sqrt(n) exponentials per nu and one outer product, truncated to n
    points, in place of n complex exponentials.  The product is as
    accurate as np.exp of the whole phase, whose argument rounding grows
    with t just as the large-h table's does.
    """
    m = math.isqrt(n - 1) + 1
    w = (2j * np.pi / fs) * dopplers[:, None]
    hi = np.exp(w * (m * np.arange(-(-n // m))))
    lo = np.exp(w * (np.arange(m) + 0.5))
    return (hi[:, :, None] * lo[:, None, :]).reshape(dopplers.size, -1)[:, :n]


def _doppler_rows(a: np.ndarray, b: np.ndarray, fs: float,
                  dopplers: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """|_linear_xcorr(a, b * e^{j 2 pi nu t})| at the given lags, one row per nu.

    t is the midpoint grid (k + 1/2)/fs of b, the grid of every
    SampledSignal.  Lags lie in -(len(b)-1)..len(a)-1.  Circular lag k
    also holds the linear lags k +/- nfft, which fall outside that range,
    and so hold nothing, for every requested k once
    nfft >= len(a) - min(lags) and nfft >= max(lags) + len(b).  The
    transform takes the `_fft_length` of that bound, so a narrow lag
    window gets a short transform and the full lag range gets
    `_linear_xcorr`'s length.  (An input longer than nfft is cut by the
    FFT only past the samples those lags reach.)

    a is transformed once.  Rows go in blocks of _BLOCK_POINTS // nfft
    (at least one): each block builds its `_phase_ramps`, takes one
    forward and one inverse FFT along its rows, and writes the kept lags
    straight into the output.  A block holds at most the ramps and two
    transforms of _BLOCK_POINTS points each (0.5 MB) at once, however
    many rows there are: a 257 x 257 T/2 surface at N = 8192 peaks near
    1.8 MB under tracemalloc, 0.5 MB of it the surface, where one 2-D
    transform of all rows would take about 55 MB for the 201-row bank of
    a long pulse (N = 8192, 16875 points).  Each row is bitwise the
    one-row result at its nu.
    """
    nfft = _fft_length(max(a.size - lags.min(), lags.max() + b.size))
    fa = np.fft.fft(a, nfft)
    idx = lags % nfft  # lag k of the circular correlation sits at index k mod nfft
    rows = np.empty((dopplers.size, idx.size))
    step = max(1, _BLOCK_POINTS // nfft)
    for start in range(0, dopplers.size, step):
        block = slice(start, start + step)
        # Operands in _linear_xcorr's order: an FMA complex product is not
        # bitwise commutative.
        replicas = _phase_ramps(dopplers[block], b.size, fs)
        np.multiply(b, replicas, out=replicas)
        spectra = np.fft.fft(replicas, nfft, axis=1)
        del replicas
        np.conjugate(spectra, out=spectra)
        np.multiply(fa, spectra, out=spectra)
        np.abs(np.fft.ifft(spectra, axis=1)[:, idx], out=rows[block])
    return rows


def cross_correlation(a: SampledSignal, b: SampledSignal) -> CorrelationResponse:
    """Cross-correlation magnitude of two signals, normalized by sqrt(Ea*Eb).

    Raises:
        InvalidInputError: if the sample rates differ.
    """
    if a.sample_rate_hz != b.sample_rate_hz:
        raise InvalidInputError("cross_correlation requires equal sample rates")
    fs = a.sample_rate_hz
    y = _linear_xcorr(a.samples, b.samples)
    norm = np.sqrt(a.energy() * b.energy())
    if norm == 0.0:
        raise InvalidInputError("cross_correlation requires nonzero-energy signals")
    lags = np.arange(-(b.num_samples - 1), a.num_samples) / fs
    return CorrelationResponse(lags_s=lags, magnitude_db=to_db(np.abs(y) / norm))


def autocorrelation(signal: SampledSignal) -> CorrelationResponse:
    """Autocorrelation magnitude R(tau), peak-normalized (0 dB at lag 0)."""
    return cross_correlation(signal, signal)


def ambiguity_function(signal: SampledSignal, max_delay_s: float,
                       max_doppler_hz: float, num_delays: int = 129,
                       num_dopplers: int = 129) -> AmbiguitySurface:
    """Narrowband ambiguity surface chi(tau, nu) = integral s(t) s*(t+tau) e^{j2 pi nu t} dt.

    Delay samples lie on the signal's lag lattice; both axes are
    symmetric about zero and always include zero (odd grid sizes are
    enforced), so the surface can be peak-normalized at (0,0).

    Each Doppler column is a `_doppler_rows` row at the mirrored lags:
    the correlation of s against s e^{-j2 pi nu t} has magnitude
    |chi(-tau, nu)|.  Rows go through the FFT in blocks of a few rows,
    each with its phase ramps built from two small exponential tables,
    and keep only these lags; a block's temporaries stay near 1 MB and
    the surface is the only full-size array.  The transform length
    follows the delay window: N + max_delay*fs points, rounded up to a
    5-smooth length, not 2N.

    Args:
        signal: unit-energy waveform.
        max_delay_s: delay extent (<= T).
        max_doppler_hz: Doppler extent.
        num_delays: delay grid size (rounded up to odd, >= 3).
        num_dopplers: Doppler grid size (rounded up to odd, >= 3).
    """
    if max_delay_s <= 0 or max_delay_s > signal.duration_s:
        raise InvalidInputError("max_delay_s must lie in (0, T]")
    if max_doppler_hz <= 0:
        raise InvalidInputError("max_doppler_hz must be positive")
    if num_delays < 2 or num_dopplers < 2:
        raise InvalidInputError("grid sizes must be >= 2")
    num_delays += (num_delays + 1) % 2
    num_dopplers += (num_dopplers + 1) % 2
    s = signal.samples
    fs = signal.sample_rate_hz
    max_lag = min(s.size - 1, int(round(max_delay_s * fs)))
    lag_idx = np.unique(np.round(np.linspace(-max_lag, max_lag, num_delays)).astype(int))
    dopplers = np.linspace(-max_doppler_hz, max_doppler_hz, num_dopplers)
    surface = _doppler_rows(s, s, fs, -dopplers, -lag_idx).T
    i0 = int(np.where(lag_idx == 0)[0][0])
    j0 = int(np.argmin(np.abs(dopplers)))
    surface /= surface[i0, j0]
    return AmbiguitySurface(delays_s=lag_idx / fs, dopplers_hz=dopplers,
                            magnitude=surface)


def psl_region(resp: CorrelationResponse, region: RegionSpec) -> float:
    """Peak sidelobe level over the region, in dB relative to the mainlobe.

    Raises:
        InvalidInputError: if the region holds no lag samples.
    """
    mask = _region_mask(region, resp.lags_s)
    return float(resp.magnitude_db[mask].max())


def isl_region(resp: CorrelationResponse, region: RegionSpec) -> float:
    """Integrated sidelobe level 10*log10(sum |R|^2 dtau / |R(0)|^2) over the region.

    The underlying magnitudes are already peak-normalized, so this is
    the dimensioned sidelobe energy of the region in dB.  Results are
    floored at -120 dB.
    """
    mask = _region_mask(region, resp.lags_s)
    mag = resp.magnitude_linear()[mask]
    total = float(np.sum(mag**2) * resp.lag_step_s)
    return float(max(10.0 * np.log10(max(total, 1e-30)), DB_FLOOR))


def inband_energy_fraction(spec: Spectrum, bandwidth_hz: float) -> float:
    """Fraction of spectral energy inside [-B/2, B/2].

    Raises:
        InvalidInputError: if B is nonpositive or exceeds the spectral span.
    """
    if bandwidth_hz <= 0:
        raise InvalidInputError("bandwidth_hz must be positive")
    span = spec.freqs_hz[-1] - spec.freqs_hz[0] + spec.df_hz
    if bandwidth_hz >= span:
        raise InvalidInputError("bandwidth_hz must be below the sampled span")
    power = spec.magnitude**2
    total = _total_power(power)
    mask = np.abs(spec.freqs_hz) <= bandwidth_hz / 2.0
    return float(power[mask].sum() / total)


def rms_bandwidth(spec: Spectrum) -> float:
    """Centroid-removed RMS bandwidth sqrt(int (f-f0)^2 |S|^2 df / int |S|^2 df)."""
    return _rms_width(spec.freqs_hz, spec.magnitude**2)


def _rms_width(freqs: np.ndarray, power: np.ndarray) -> float:
    """Centroid-removed RMS width of a power density sampled on freqs.

    The moments are ratios, so power may carry any constant scale.
    """
    total = _total_power(power)
    centroid = float((freqs * power).sum() / total)
    return float(np.sqrt(((freqs - centroid) ** 2 * power).sum() / total))


def _parabolic_refine(mags: np.ndarray, idx: int) -> float:
    """Sub-sample peak offset in [-0.5, 0.5] via 3-point parabola."""
    if idx <= 0 or idx >= mags.size - 1:
        return 0.0
    y0, y1, y2 = mags[idx - 1], mags[idx], mags[idx + 1]
    denom = y0 - 2.0 * y1 + y2
    if denom == 0.0:
        return 0.0
    return float(np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5))


def _time_scaler(signal: SampledSignal):
    """eta -> time-scaled echo sqrt(eta) * s(eta t) * e^{j 2 pi fc (eta-1) t} at baseband.

    This is the complex-baseband form of physically time-compressing the
    passband waveform by eta, used by the wideband Doppler model.  The
    two cubic splines through the samples are built once here and shared
    by every eta.
    """
    from scipy.interpolate import CubicSpline

    t = signal.time_grid()
    spline_re = CubicSpline(t, signal.samples.real)
    spline_im = CubicSpline(t, signal.samples.imag)

    def replica(eta: float) -> np.ndarray:
        ts = eta * t
        inside = (ts >= t[0]) & (ts <= t[-1])
        scaled = np.zeros(signal.num_samples, dtype=np.complex128)
        scaled[inside] = spline_re(ts[inside]) + 1j * spline_im(ts[inside])
        carrier = np.exp(2j * np.pi * signal.center_freq_hz * (eta - 1.0) * t)
        return np.sqrt(eta) * scaled * carrier

    return replica


def doppler_tolerance_curve(signal: SampledSignal, dopplers_hz,
                            mode: str = "narrowband") -> list[DopplerTolerancePoint]:
    """Matched-filter peak loss and range bias versus Doppler mismatch.

    In "narrowband" mode the echo model is a frequency shift
    s(t)*e^{j2 pi nu t}.  In "wideband" mode the echo is the time-scaled
    replica with scale eta = 1 + nu/fc (fc taken from the signal's
    center_freq_hz), which is the physically correct sonar model and the
    one under which hyperbolic FM retains its peak.

    Narrowband rows are `_doppler_rows` of s against s e^{-j2 pi nu t},
    equal in magnitude to the echo against s at every lag.  Wideband
    echoes are time-scaled, not shifted, so each is correlated in turn.

    Args:
        signal: unit-energy waveform.
        dopplers_hz: Doppler shifts nu to evaluate.
        mode: "narrowband" or "wideband".

    Returns:
        One DopplerTolerancePoint per requested Doppler.
    """
    if mode not in ("narrowband", "wideband"):
        raise InvalidInputError("mode must be 'narrowband' or 'wideband'")
    if mode == "wideband" and signal.center_freq_hz <= 0:
        raise InvalidInputError("wideband mode requires a positive center_freq_hz")
    s = signal.samples
    fs = signal.sample_rate_hz
    energy = signal.energy()
    dopplers = np.atleast_1d(np.asarray(dopplers_hz, dtype=float))
    if mode == "narrowband":
        rows = _doppler_rows(s, s, fs, -dopplers,
                             np.arange(1 - s.size, s.size))
    else:
        replica = _time_scaler(signal)
        rows = (np.abs(_linear_xcorr(replica(1.0 + nu / signal.center_freq_hz), s))
                for nu in dopplers)
    points = []
    for nu, y in zip(dopplers, rows):
        idx = int(np.argmax(y))
        loss = float(to_db(y[idx] / energy))
        shift = (idx - (s.size - 1) + _parabolic_refine(y, idx)) / fs
        points.append(DopplerTolerancePoint(doppler_hz=float(nu),
                                            peak_loss_db=float(loss),
                                            peak_shift_s=float(shift)))
    return points


def default_region(bandwidth_hz: float, duration_s: float) -> RegionSpec:
    """Default sidelobe region: inner 2/B (two resolution cells), outer T/4.

    Falls back to [T/4, 3T/4] for low time-bandwidth waveforms where
    2/B reaches past T/4.
    """
    inner = 2.0 / bandwidth_hz
    outer = duration_s / 4.0
    if inner >= outer:
        return RegionSpec(inner_delay_s=duration_s / 4.0,
                          outer_delay_s=0.75 * duration_s)
    return RegionSpec(inner_delay_s=inner, outer_delay_s=outer)


def metrics_report(signal: SampledSignal, bandwidth_hz: float,
                   region: RegionSpec | None = None,
                   zero_pad_factor: int = 4) -> MetricsReport:
    """Assemble the scalar metrics bundle for one waveform.

    Args:
        signal: waveform under test.
        bandwidth_hz: design (swept) bandwidth used for the TBP, the
            inband fraction, and the default region.
        region: sidelobe region; default per `default_region`.
        zero_pad_factor: spectral zero padding for the bandwidth metrics.
    """
    if region is None:
        region = default_region(bandwidth_hz, signal.duration_s)
    resp = autocorrelation(signal)
    spec = spectrum(signal, zero_pad_factor)
    return MetricsReport(
        psl_db=psl_region(resp, region),
        isl_db=isl_region(resp, region),
        inband_energy_fraction=inband_energy_fraction(spec, bandwidth_hz),
        rms_bandwidth_hz=rms_bandwidth(spec),
        tbp=float(bandwidth_hz * signal.duration_s),
        p99_bandwidth_hz=p99_bandwidth(spec),
    )
