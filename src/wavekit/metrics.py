"""Matched-filter, ambiguity, and scalar design metrics.

Correlation responses are computed with FFT acceleration and reported as
peak-referenced dB magnitudes floored at -120 dB.  Sidelobe metrics
(PSL/ISL) are evaluated over a two-sided delay region
{tau : inner <= |tau| <= outer} matching the red-dashed region picture
of a range response plot.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidInputError, check_number
from .signal import (DB_FLOOR, SampledSignal, Spectrum, _axis_step, _check_finite, _fft_length,
                     _freeze_grid, _signal_energy, _total_power, p99_bandwidth, spectrum, to_db)


@dataclass(frozen=True)
class RegionSpec:
    """Two-sided delay region {tau : inner <= |tau| <= outer}."""

    inner_delay_s: float
    outer_delay_s: float

    def __post_init__(self):
        check_number("inner_delay_s", self.inner_delay_s, minimum=0.0)
        if check_number("outer_delay_s", self.outer_delay_s) <= self.inner_delay_s:
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
        _freeze_grid(self, "magnitude_db", ("lags_s",), "lag/magnitude length mismatch")

    @property
    def lag_step_s(self) -> float:
        return _axis_step("lags_s", self.lags_s)

    def magnitude_linear(self) -> np.ndarray:
        return 10.0 ** (self.magnitude_db / 20.0)


@dataclass(frozen=True)
class AmbiguitySurface:
    """Narrowband ambiguity magnitude |chi(tau, nu)|, normalized to 1 at (0,0)."""

    delays_s: np.ndarray
    dopplers_hz: np.ndarray
    magnitude: np.ndarray

    def __post_init__(self):
        _freeze_grid(self, "magnitude", ("delays_s", "dopplers_hz"),
                     "ambiguity matrix does not match axis lengths")


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
        return asdict(self)


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


# Least complex transform points per block of Doppler rows (see `_block_rows`).
_BLOCK_POINTS = 1 << 15


def _linear_xcorr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear correlation y[k] = sum_n a[n] * conj(b[n-k]).

    Lags k run from -(len(b)-1) to len(a)-1 and a delayed copy of b
    inside a produces a peak at positive k equal to the delay.  When b
    is a, its transform is taken once and reused.  The circular
    correlation is taken at `signal._fft_length` of len(a) + len(b) - 1,
    the shortest length at which no lag aliases onto another.
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


def _block_rows(num_rows: int, num_lags: int, nfft: int) -> int:
    """Rows per block of `_doppler_rows`: as many as fit max(_BLOCK_POINTS,
    num_rows * num_lags // 32) transform points, at least one and at most
    num_rows.  A block's two nfft-point buffers then take at most 1 MB or
    an eighth of the float64 output, whichever is larger."""
    points = max(_BLOCK_POINTS, num_rows * num_lags // 32)
    return min(num_rows, max(1, points // nfft))


def _lag_gathers(lags: np.ndarray, nfft: int) -> list:
    """(output columns, spectrum columns) pairs that read `lags` from a circular
    correlation of length nfft, where lag k sits at index k mod nfft.

    One contiguous run of lags is read as at most two slices, the negative
    lags from the end of the transform and the rest from its start; any
    other set keeps one index array.
    """
    if np.any(np.diff(lags) != 1):
        return [(slice(None), lags % nfft)]
    lo, hi = int(lags[0]), int(lags[-1])
    neg = min(lags.size, max(0, -lo))  # the run's negative lags come first
    pieces = [(slice(0, neg), slice(nfft + lo, nfft + lo + neg)),
              (slice(neg, None), slice(lo + neg, hi + 1))]
    return [(dst, src) for dst, src in pieces if src.stop > src.start]


def _doppler_rows(a: np.ndarray, b: np.ndarray, fs: float,
                  dopplers: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """|_linear_xcorr(a, b * e^{j 2 pi nu t})| at the given lags, one row per nu.

    t is the midpoint grid (k + 1/2)/fs of b, the grid of every
    SampledSignal.  Lags lie in -(len(b)-1)..len(a)-1.  Circular lag k
    also holds the linear lags k +/- nfft, which fall outside that range,
    and so hold nothing, for every requested k once
    nfft >= len(a) - min(lags) and nfft >= max(lags) + len(b).  The
    transform takes `signal._fft_length` of that bound, so a narrow lag
    window gets a short transform and the full lag range gets
    `_linear_xcorr`'s length.  (An input longer than nfft is cut by the
    FFT only past the samples those lags reach.)

    a is transformed once.  Rows go in blocks of `_block_rows` rows, a
    count that grows with the output: 6 rows for the 201-row bank of a
    long pulse (N = 8192, 16875 points), 2 for a 257 x 257 T/2 surface at
    N = 8192 (12288 points).  The call allocates one zero-padded replica
    buffer and one spectrum buffer, a block each, and reuses them: a
    block writes b times its `_phase_ramps` into the first columns of the
    replica buffer, transforms it into the spectrum buffer, inverts that
    in place and reads the kept lags straight into the output (at most
    two slices when they are one run, see `_lag_gathers`).  The two
    buffers take 1 MB or an eighth of the output, whichever is larger,
    and a block's ramps at most half that again.  The 257 x 257 surface
    at N = 8192 peaks under tracemalloc near 2.1 MB when an earlier call
    has run in the process, and near 3.2 MB on the first call in a fresh
    one, which also loads numpy.fft; 0.5 MB of either is the surface.
    Each row is bitwise the one-row result at its nu.
    """
    nfft = _fft_length(max(a.size - lags.min(), lags.max() + b.size))
    fa = np.fft.fft(a, nfft)
    gathers = _lag_gathers(lags, nfft)
    rows = np.empty((dopplers.size, lags.size))
    step = _block_rows(dopplers.size, lags.size, nfft)
    width = min(b.size, nfft)
    padded = np.zeros((step, nfft), dtype=complex)  # columns past width stay zero
    spectra = np.empty((step, nfft), dtype=complex)
    for start in range(0, dopplers.size, step):
        block = slice(start, start + step)
        ramps = _phase_ramps(dopplers[block], b.size, fs)
        count = ramps.shape[0]
        # Operands in _linear_xcorr's order: an FMA complex product is not
        # bitwise commutative.
        np.multiply(b[:width], ramps[:, :width], out=padded[:count, :width])
        del ramps
        spec = spectra[:count]
        np.fft.fft(padded[:count], axis=1, out=spec)
        np.conjugate(spec, out=spec)
        np.multiply(fa, spec, out=spec)
        np.fft.ifft(spec, axis=1, out=spec)
        for dst, src in gathers:
            np.abs(spec[:, src], out=rows[block, dst])
    return rows


def _doppler_grid(dopplers_hz, sample_rate_hz: float) -> np.ndarray:
    """dopplers_hz as a float array, 1-D (a scalar is one point), nonempty, finite
    and within +/-fs/2: on the sample grid, shifts nu and nu + fs give the same
    phase ramp, so a larger shift reads as an aliased one."""
    dopplers = np.atleast_1d(np.asarray(dopplers_hz, dtype=float))
    if dopplers.ndim != 1 or dopplers.size == 0:
        raise InvalidInputError("dopplers_hz must be a nonempty 1-D array")
    if np.abs(_check_finite("dopplers_hz", dopplers)).max() > sample_rate_hz / 2.0:
        raise InvalidInputError(f"dopplers_hz must lie within +/-fs/2 = {sample_rate_hz / 2.0} Hz")
    return dopplers


def cross_correlation(a: SampledSignal, b: SampledSignal) -> CorrelationResponse:
    """Cross-correlation magnitude of two signals, normalized by sqrt(Ea*Eb).

    Raises:
        InvalidInputError: if the sample rates differ or a signal has zero energy.
    """
    if a.sample_rate_hz != b.sample_rate_hz:
        raise InvalidInputError("cross_correlation requires equal sample rates")
    ea, eb = _signal_energy(a), _signal_energy(b)
    norm = np.sqrt(ea * eb) or np.sqrt(ea) * np.sqrt(eb)  # the product may underflow
    fs = a.sample_rate_hz
    y = _linear_xcorr(a.samples, b.samples)
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
    |chi(-tau, nu)|.  Rows go through the FFT in blocks of `_block_rows`
    rows (see `_doppler_rows` for the blocks and their buffers) and keep
    only these lags, so the surface is the only full-size array.  The
    transform length follows the delay window: N + max_delay*fs points,
    rounded up to a 5-smooth length, not 2N.

    Args:
        signal: unit-energy waveform; zero energy is refused.
        max_delay_s: delay extent (<= T).
        max_doppler_hz: Doppler extent (<= fs/2, see `_doppler_grid`).
        num_delays: delay grid size (rounded up to odd, >= 3).
        num_dopplers: Doppler grid size (rounded up to odd, >= 3).
    """
    if check_number("max_delay_s", max_delay_s, positive=True) > signal.duration_s:
        raise InvalidInputError("max_delay_s must be <= T")
    fs = signal.sample_rate_hz
    check_number("max_doppler_hz", max_doppler_hz, positive=True, maximum=fs / 2.0)
    _signal_energy(signal)
    num_delays = check_number("num_delays", num_delays, integer=True, minimum=2) | 1  # odd
    num_dopplers = check_number("num_dopplers", num_dopplers, integer=True, minimum=2) | 1
    s = signal.samples
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
    check_number("bandwidth_hz", bandwidth_hz, positive=True)
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
        signal: unit-energy waveform; zero energy is refused.
        dopplers_hz: Doppler shifts nu to evaluate, a nonempty finite grid
            within +/-fs/2 (see `_doppler_grid`); in wideband mode each
            must exceed -fc, so that eta > 0.
        mode: "narrowband" or "wideband".

    Returns:
        One DopplerTolerancePoint per requested Doppler.
    """
    if mode not in ("narrowband", "wideband"):
        raise InvalidInputError("mode must be 'narrowband' or 'wideband'")
    fs = signal.sample_rate_hz
    dopplers = _doppler_grid(dopplers_hz, fs)
    fc = signal.center_freq_hz
    if mode == "wideband" and not (fc > 0 and dopplers.min() > -fc):
        raise InvalidInputError("wideband mode requires center_freq_hz > 0 and dopplers_hz > -fc")
    s = signal.samples
    energy = _signal_energy(signal)
    if mode == "narrowband":
        rows = _doppler_rows(s, s, fs, -dopplers,
                             np.arange(1 - s.size, s.size))
    else:
        replica = _time_scaler(signal)
        rows = (np.abs(_linear_xcorr(replica(1.0 + nu / fc), s))
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
    inner = 2.0 / check_number("bandwidth_hz", bandwidth_hz, positive=True)
    outer = check_number("duration_s", duration_s, positive=True) / 4.0
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
