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


def _replica_rows(a: np.ndarray, replica_size: int, num_rows: int, fill,
                  lags: np.ndarray) -> np.ndarray:
    """|_linear_xcorr(a, r_i)| at the given lags for num_rows replicas r_i of
    replica_size samples, one row per replica.

    fill(block, out) writes the replicas r_i, i in the slice block, into the
    rows of out, each cut to out's width.  Lags lie in
    -(replica_size-1)..len(a)-1.  Circular lag k also holds the linear lags
    k +/- nfft, which fall outside that range, and so hold nothing, for every
    requested k once nfft >= len(a) - min(lags) and
    nfft >= max(lags) + replica_size.  The transform takes
    `signal._fft_length` of that bound, so a narrow lag window gets a short
    transform and the full lag range gets `_linear_xcorr`'s length.  (A
    replica longer than nfft is cut by the FFT only past the samples those
    lags reach.)

    a is transformed once.  Rows go in blocks of `_block_rows` rows, a
    count that grows with the output: 6 rows for the 201-row bank of a
    long pulse (N = 8192, 16875 points), 2 for a 257 x 257 T/2 surface at
    N = 8192 (12288 points).  The call allocates one zero-padded replica
    buffer and one spectrum buffer, a block each, and reuses them: a
    block fills the first columns of the replica buffer, transforms it
    into the spectrum buffer, inverts that in place and reads the kept
    lags straight into the output (at most two slices when they are one
    run, see `_lag_gathers`).  The two buffers take 1 MB or an eighth of
    the output, whichever is larger.  Each row is bitwise the one-row
    result of its replica.
    """
    nfft = _fft_length(max(a.size - lags.min(), lags.max() + replica_size))
    fa = np.fft.fft(a, nfft)
    gathers = _lag_gathers(lags, nfft)
    rows = np.empty((num_rows, lags.size))
    step = _block_rows(num_rows, lags.size, nfft)
    width = min(replica_size, nfft)
    padded = np.zeros((step, nfft), dtype=complex)  # columns past width stay zero
    spectra = np.empty((step, nfft), dtype=complex)
    for start in range(0, num_rows, step):
        block = slice(start, min(start + step, num_rows))
        count = block.stop - start
        fill(block, padded[:count, :width])
        spec = spectra[:count]
        np.fft.fft(padded[:count], axis=1, out=spec)
        np.conjugate(spec, out=spec)
        np.multiply(fa, spec, out=spec)
        np.fft.ifft(spec, axis=1, out=spec)
        for dst, src in gathers:
            np.abs(spec[:, src], out=rows[block, dst])
    return rows


def _doppler_rows(a: np.ndarray, b: np.ndarray, fs: float,
                  dopplers: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """|_linear_xcorr(a, b * e^{j 2 pi nu t})| at the given lags, one row per nu.

    t is the midpoint grid (k + 1/2)/fs of b, the grid of every
    SampledSignal.  The rows are `_replica_rows` whose block replicas are
    b times the block's `_phase_ramps`; a block's ramps take at most half
    the two buffers again.  The 257 x 257 surface at N = 8192 peaks under
    tracemalloc near 2.1 MB when an earlier call has run in the process,
    and near 3.2 MB on the first call in a fresh one, which also loads
    numpy.fft; 0.5 MB of either is the surface.  Each row is bitwise the
    one-row result at its nu.
    """
    def ramped(block, out):
        ramps = _phase_ramps(dopplers[block], b.size, fs)
        # Operands in _linear_xcorr's order: an FMA complex product is not
        # bitwise commutative.
        np.multiply(b[:out.shape[1]], ramps[:, :out.shape[1]], out=out)

    return _replica_rows(a, b.size, dopplers.size, ramped, lags)


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


def _parabolic_refine(rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Sub-sample offset in [-0.5, 0.5] of the peak at rows[i, idx[i]], from the
    3-point parabola through it; 0 at either end of a row or on a line."""
    j = np.clip(idx, 1, rows.shape[1] - 2)
    each = np.arange(rows.shape[0])
    y0, y1, y2 = rows[each, j - 1], rows[each, j], rows[each, j + 1]
    denom = y0 - 2.0 * y1 + y2
    fit = (j == idx) & (denom != 0.0)
    return np.where(fit, np.clip(0.5 * (y0 - y2) / np.where(fit, denom, 1.0), -0.5, 0.5), 0.0)


# The root of z^2 + 4z + 1 inside the unit circle: tridiag(1, 4, 1) factors as
# -(1 - z E)(1 - z E^-1)/z, E the unit shift.  |z|^32 < 1e-18.
_SPLINE_POLE = math.sqrt(3.0) - 2.0
_SPLINE_TAPS = 32


def _pole_filter(x: np.ndarray) -> np.ndarray:
    """y[i] = sum_{k < _SPLINE_TAPS} z^k x[i-k], z = _SPLINE_POLE: the causal
    recursion y[i] = x[i] + z y[i-1] from rest, to rounding, in log2(taps)
    vectorized passes."""
    y = x.copy()
    step = 1
    while step < _SPLINE_TAPS:
        y[step:] += _SPLINE_POLE ** step * y[:-step]
        step *= 2
    return y


def _solve_141(r: np.ndarray) -> np.ndarray:
    """x with x[i-1] + 4 x[i] + x[i+1] = r[i], x zero just outside r's span.

    The infinite system's solution p is -z times the causal then the
    anticausal `_pole_filter`, on r padded with room for p's decay; the
    homogeneous solutions z^i and z^(m+1-i) then bring p to zero at the two
    outside points 0 and m+1.  Each correction fades within _SPLINE_TAPS
    samples of its end.
    """
    m = r.size
    z = _SPLINE_POLE
    ext = np.zeros(m + 2 + _SPLINE_TAPS, dtype=r.dtype)
    ext[1:m + 1] = r
    p = -z * _pole_filter(_pole_filter(ext)[::-1])[::-1]
    q = z ** (m + 1)
    left = (q * p[m + 1] - p[0]) / (1.0 - q * q)
    right = (q * p[0] - p[m + 1]) / (1.0 - q * q)
    x = p[1:m + 1]
    k = min(m, _SPLINE_TAPS)
    fade = z ** np.arange(1, k + 1)
    x[:k] += left * fade
    x[m - k:] += right * fade[::-1]
    return x


def _not_a_knot_spline(y: np.ndarray) -> np.ndarray:
    """Power-basis coefficients c[0..3, i] of the not-a-knot cubic spline
    through y[0..n-1] at unit spacing: on [i, i+1] it is sum_p c[p, i] w^p,
    w the offset from i.  scipy's CubicSpline(bc_type="not-a-knot") in
    exact arithmetic: 2 points give a line, 3 a parabola.

    The second derivatives M solve M[i-1] + 4 M[i] + M[i+1] = 6 D[i] for
    0 < i < n-1, D[i] = y[i-1] - 2 y[i] + y[i+1], and not-a-knot sets
    M[0] - 2 M[1] + M[2] = 0 and its mirror.  Substituted, these fix
    M[1] = D[1] and M[n-2] = D[n-2], and leave a tridiag(1, 4, 1) system
    for the rest (`_solve_141`).
    """
    n = y.size
    curv = np.zeros_like(y)
    d2 = y[2:] - 2.0 * y[1:-1] + y[:-2]
    if n == 3:
        curv[:] = d2[0]
    elif n > 3:
        curv[1], curv[-2] = d2[0], d2[-1]
        rhs = 6.0 * d2[1:-1]
        if rhs.size:
            rhs[0] -= curv[1]
            rhs[-1] -= curv[-2]
            curv[2:-2] = _solve_141(rhs)
        curv[0] = 2.0 * curv[1] - curv[2]
        curv[-1] = 2.0 * curv[-2] - curv[-3]
    return np.stack([y[:-1], y[1:] - y[:-1] - (2.0 * curv[:-1] + curv[1:]) / 6.0,
                     curv[:-1] / 2.0, (curv[1:] - curv[:-1]) / 6.0])


def _time_scaler(signal: SampledSignal):
    """etas -> time-scaled echoes sqrt(eta) * s(eta t) * e^{j 2 pi fc (eta-1) t}
    at baseband, one row per eta, into out if given.

    This is the complex-baseband form of physically time-compressing the
    passband waveform by eta, used by the wideband Doppler model.  s(eta t)
    is the `_not_a_knot_spline` through the samples, built once here and
    shared by every eta, and zero where eta t leaves [t[0], t[-1]].  A
    block of etas is evaluated in one vectorized pass, each row bitwise as
    if alone; the carrier is the `_phase_ramps` of fc (eta - 1).
    """
    n, fs = signal.num_samples, signal.sample_rate_hz
    coefs = _not_a_knot_spline(signal.samples)
    grid = np.arange(n) + 0.5  # t * fs

    def replicas(etas: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        pos = etas[:, None] * grid - 0.5  # eta t on the sample index scale
        knot = np.floor(np.clip(pos, 0, n - 2)).astype(np.intp)
        w = pos - knot
        c = np.take(coefs, knot, axis=1)
        values = ((c[3] * w + c[2]) * w + c[1]) * w + c[0]
        values[(pos < 0) | (pos > n - 1)] = 0.0
        carrier = _phase_ramps(signal.center_freq_hz * (etas - 1.0), n, fs)
        carrier *= np.sqrt(etas)[:, None]
        return np.multiply(values, carrier, out=out)

    return replicas


def doppler_tolerance_curve(signal: SampledSignal, dopplers_hz,
                            mode: str = "narrowband") -> list[DopplerTolerancePoint]:
    """Matched-filter peak loss and range bias versus Doppler mismatch.

    In "narrowband" mode the echo model is a frequency shift
    s(t)*e^{j2 pi nu t}.  In "wideband" mode the echo is the time-scaled
    replica with scale eta = 1 + nu/fc (fc taken from the signal's
    center_freq_hz), which is the physically correct sonar model and the
    one under which hyperbolic FM retains its peak.

    Both modes read `_replica_rows` with s transformed once.  Narrowband
    rows are `_doppler_rows` of s against s e^{-j2 pi nu t}, equal in
    magnitude to the echo against s at every lag.  Wideband rows are
    `_time_scaled_rows`, the time-scaled echoes against s.  The peak, its
    parabolic refinement and its level are then read for every point at
    once (`_curve_points`).

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
    energy = _signal_energy(signal)
    if mode == "narrowband":
        s = signal.samples
        rows = _doppler_rows(s, s, fs, -dopplers, np.arange(1 - s.size, s.size))
    else:
        rows = _time_scaled_rows(signal, 1.0 + dopplers / fc)
    return _curve_points(dopplers, rows, energy, fs)


def _time_scaled_rows(signal: SampledSignal, etas: np.ndarray) -> np.ndarray:
    """|_linear_xcorr(r_eta, s)| for the `_time_scaler` echoes r_eta, one row per
    eta.  They are `_replica_rows` of s against r_eta, read with the lags
    mirrored: |xcorr(r, s)[k]| = |xcorr(s, r)[-k]|, and the full lag range
    1-N..N-1 is its own mirror."""
    s = signal.samples
    replicas = _time_scaler(signal)
    return _replica_rows(s, s.size, etas.size, lambda block, out: replicas(etas[block], out),
                         np.arange(1 - s.size, s.size))[:, ::-1]


def _curve_points(dopplers: np.ndarray, rows: np.ndarray, energy: float,
                  fs: float) -> list[DopplerTolerancePoint]:
    """One point per row of lags 1-N..N-1: the peak level over energy in dB
    and the peak's parabolically refined lag in seconds."""
    idx = np.argmax(rows, axis=1)
    losses = to_db(rows[np.arange(rows.shape[0]), idx] / energy)
    shifts = (idx - (rows.shape[1] - 1) // 2 + _parabolic_refine(rows, idx)) / fs
    return [DopplerTolerancePoint(doppler_hz=nu, peak_loss_db=loss, peak_shift_s=shift)
            for nu, loss, shift in zip(dopplers.tolist(), losses.tolist(), shifts.tolist())]


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
