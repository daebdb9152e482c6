"""Synthesis of the waveform bank: CW, LFM, HFM, Costas FSK, P4, comb, MTSFM.

Every FM-class waveform here has constant amplitude 1/sqrt(T) in
continuous time, unit energy, and is sampled on the midpoint grid (see
`wavekit.signal`).  Sample counts are N = round(fs*T), so a signal's
duration is snapped to N/fs and the unit-energy and constant-amplitude
invariants hold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costas import CostasCode
from .errors import InvalidInputError, check_number
from .signal import MAX_RATE_HZ, SampledSignal, _freeze_field, _sample_count

_SWEEP_POINTS = 4096


def _grid_rate(duration_s: float, sample_rate_hz: float) -> float:
    """sample_rate_hz, once both grid arguments pass their number rules; allocates nothing."""
    check_number("duration_s", duration_s, positive=True)
    return check_number("sample_rate_hz", sample_rate_hz, positive=True, maximum=MAX_RATE_HZ)


def _sample_grid(duration_s: float, sample_rate_hz: float, multiple_of: int = 1):
    """Snapped sample count, duration, and midpoint time grid.

    Args:
        duration_s: requested duration.
        sample_rate_hz: sampling rate.
        multiple_of: round the sample count to a multiple of this (used
            for chip-structured waveforms so chips divide the grid evenly).

    Returns:
        (n, duration, t) with n samples, duration = n/fs, midpoint grid t.

    Raises:
        InvalidInputError: as `signal._sample_count` for fs*T, for fewer
            samples than multiple_of (a chip without a sample), or for fewer
            than 2 samples.
    """
    _grid_rate(duration_s, sample_rate_hz)
    n = _sample_count("'duration_s' * 'sample_rate_hz'", sample_rate_hz * duration_s)
    if n < multiple_of:
        raise InvalidInputError(f"each chip needs a sample: round('duration_s' * "
                                f"'sample_rate_hz') = {n} is below 'num_chips' {multiple_of}")
    if multiple_of > 1:
        n = multiple_of * int(round(n / multiple_of))
    if n < 2:
        raise InvalidInputError("duration * sample_rate must give at least 2 samples")
    duration = n / sample_rate_hz
    t = (np.arange(n) + 0.5) / sample_rate_hz
    return n, duration, t


def _harmonic_basis(t: np.ndarray, num_harmonics: int, duration_s: float):
    """cos and sin of 2*pi*k*t/T for k = 1..K, one row per time, one column per k;
    len(t) * K above the cap is refused naming num_harmonics (`_sample_count`)."""
    _sample_count("num_harmonics", np.size(t) * num_harmonics)
    k = np.arange(1, num_harmonics + 1)
    arg = 2.0 * np.pi * np.outer(np.asarray(t, dtype=float), k) / duration_s
    return np.cos(arg), np.sin(arg)


def _unit_modulus(phase: np.ndarray) -> np.ndarray:
    """Unit-energy constant-amplitude samples exp(j*phase)/sqrt(N).

    cos and sin are written straight into the real and imaginary parts,
    which is bitwise np.exp(1j * phase) and skips the complex exponential.
    The + 0.0 turns a phase of -0.0 into +0.0, as 1j * phase does; it
    moves no other value.
    """
    samples = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=samples.real)
    np.sin(phase + 0.0, out=samples.imag)
    samples /= np.sqrt(phase.size)
    return samples


def _unit_fm(phase: np.ndarray, sample_rate_hz: float,
             center_freq_hz: float = 0.0) -> SampledSignal:
    """Wrap a phase function into a unit-energy constant-amplitude signal."""
    return SampledSignal(samples=_unit_modulus(phase), sample_rate_hz=sample_rate_hz,
                         center_freq_hz=center_freq_hz)


@dataclass(frozen=True)
class MtsfmParameters:
    """MTSFM design coefficients.

    The phase modulation function is a finite Fourier series

        phi(t) = sum_k alpha[k] * cos(2*pi*k*t/T) + beta[k] * sin(2*pi*k*t/T)

    for k = 1..K.  alpha and beta are modulation indices in radians and
    are the adaptive design coefficients of the waveform.

    Attributes:
        alpha: K cosine-harmonic indices, a nonempty 1-D array.
        beta: K sine-harmonic indices, the same length as alpha.
        duration_s: waveform duration T (one modulation period).

    K is not stored: `num_harmonics` derives it as len(alpha).
    """

    alpha: np.ndarray
    beta: np.ndarray
    duration_s: float

    def __post_init__(self):
        check_number("duration_s", self.duration_s, positive=True)
        alpha = _freeze_field(self, "alpha")
        if alpha.ndim != 1 or alpha.size == 0:
            raise InvalidInputError("alpha must be a nonempty 1-D array")
        if _freeze_field(self, "beta").shape != alpha.shape:
            raise InvalidInputError("beta must have length num_harmonics")

    @property
    def num_harmonics(self) -> int:
        """K, the number of harmonics."""
        return self.alpha.size

    def phase(self, t: np.ndarray) -> np.ndarray:
        """Evaluate phi(t) on an arbitrary time grid."""
        cos, sin = _harmonic_basis(t, self.num_harmonics, self.duration_s)
        return cos @ self.alpha + sin @ self.beta


def instantaneous_frequency(params: MtsfmParameters, t_grid) -> np.ndarray:
    """Closed-form instantaneous frequency f(t) = (1/2pi) dphi/dt.

        f(t) = sum_k (k/T) * [-alpha_k sin(2 pi k t/T) + beta_k cos(2 pi k t/T)]

    Args:
        params: MTSFM coefficients.
        t_grid: times in [0, T).

    Returns:
        Frequency in Hz at each requested time.

    Raises:
        InvalidInputError: if any time lies outside [0, T).
    """
    t = np.asarray(t_grid, dtype=float)
    if t.size and not (0.0 <= t.min() and t.max() < params.duration_s):  # NaN fails
        raise InvalidInputError("t_grid values must lie in [0, T)")
    period = params.duration_s
    k = np.arange(1, params.num_harmonics + 1)
    cos, sin = _harmonic_basis(t, params.num_harmonics, period)
    return (-sin * (k / period)) @ params.alpha + (cos * (k / period)) @ params.beta


def swept_bandwidth(params: MtsfmParameters) -> float:
    """Swept bandwidth B = 2 * max |f(t)| over _SWEEP_POINTS even times in [0, T)."""
    t = np.arange(_SWEEP_POINTS) * (params.duration_s / _SWEEP_POINTS)
    return 2.0 * float(np.max(np.abs(instantaneous_frequency(params, t))))


def synth_mtsfm(params: MtsfmParameters, sample_rate_hz: float,
                center_freq_hz: float = 0.0) -> SampledSignal:
    """Synthesize an MTSFM waveform s(t) = (1/sqrt(T)) exp{j phi(t)}.

    The caller is responsible for choosing a sample rate adequate for the
    implied swept bandwidth (fs = 8B by default at the CLI layer); this
    function only validates the coefficients themselves so optimizer
    candidates never fail mid-run.
    """
    n, duration, t = _sample_grid(params.duration_s, sample_rate_hz)
    if abs(duration - params.duration_s) > 1e-12 * params.duration_s:
        params = MtsfmParameters(alpha=params.alpha, beta=params.beta, duration_s=duration)
    return _unit_fm(params.phase(t), sample_rate_hz, center_freq_hz)


def synth_cw(duration_s: float, sample_rate_hz: float,
             center_freq_hz: float = 0.0) -> SampledSignal:
    """Continuous-wave pulse: constant 1/sqrt(T), unit energy."""
    n, _, _ = _sample_grid(duration_s, sample_rate_hz)
    samples = np.full(n, 1.0 / np.sqrt(n), dtype=np.complex128)
    return SampledSignal(samples=samples, sample_rate_hz=sample_rate_hz,
                         center_freq_hz=center_freq_hz)


def synth_lfm(bandwidth_hz: float, duration_s: float, sample_rate_hz: float,
              center_freq_hz: float = 0.0) -> SampledSignal:
    """Linear FM chirp sweeping -B/2 to +B/2 over [0, T).

    Args:
        bandwidth_hz: swept bandwidth B.
        duration_s: pulse length T.
        sample_rate_hz: sampling rate; must be >= 4B.
        center_freq_hz: carrier metadata (the samples stay at baseband).

    Raises:
        InvalidInputError: if undersampled (fs < 4B).
    """
    check_number("bandwidth_hz", bandwidth_hz, positive=True)
    if _grid_rate(duration_s, sample_rate_hz) < 4.0 * bandwidth_hz:
        raise InvalidInputError("LFM requires fs >= 4B")
    _, duration, t = _sample_grid(duration_s, sample_rate_hz)
    rate = bandwidth_hz / duration
    phase = 2.0 * np.pi * (-0.5 * bandwidth_hz * t + 0.5 * rate * t * t)
    return _unit_fm(phase, sample_rate_hz, center_freq_hz)


def synth_hfm(f1_hz: float, f2_hz: float, duration_s: float,
              sample_rate_hz: float) -> SampledSignal:
    """Hyperbolic FM sweeping instantaneous frequency f1 -> f2.

    The passband instantaneous frequency is f(t) = f1 / (1 - beta*t)
    with beta = (f2-f1)/(f2*T); the phase is its closed-form logarithmic
    integral.  The returned signal is stored at complex baseband about
    the arithmetic center (f1+f2)/2, recorded in center_freq_hz.

    Raises:
        InvalidInputError: for nonpositive or equal endpoint frequencies,
            or undersampling.
    """
    if check_number("f1_hz", f1_hz, positive=True) == check_number("f2_hz", f2_hz, positive=True):
        raise InvalidInputError("HFM requires f1 != f2")
    if _grid_rate(duration_s, sample_rate_hz) < 4.0 * abs(f2_hz - f1_hz):
        raise InvalidInputError("HFM requires fs >= 4|f2-f1|")
    _, duration, t = _sample_grid(duration_s, sample_rate_hz)
    beta = (f2_hz - f1_hz) / (f2_hz * duration)
    fc = 0.5 * (f1_hz + f2_hz)
    phase = -2.0 * np.pi * (f1_hz / beta) * np.log(1.0 - beta * t) - 2.0 * np.pi * fc * t
    return _unit_fm(phase, sample_rate_hz, center_freq_hz=fc)


def synth_costas_fsk(code: CostasCode, duration_s: float,
                     sample_rate_hz: float) -> SampledSignal:
    """Costas frequency-hopped waveform: N equal chips, one per code entry.

    Chip i (zero-based) lasts T/N seconds at baseband frequency
    (code[i] - (N+1)/2) * df with df = N/T, so the occupied band is
    B = N*df = N^2/T, centered about 0 Hz.  Each chip's phase restarts
    at zero (coherent within a chip).

    Args:
        code: Costas firing sequence.
        duration_s: total duration T; snapped so chips divide evenly.
        sample_rate_hz: sampling rate; must be >= 4B.
    """
    n_chips = len(code)
    if _grid_rate(duration_s, sample_rate_hz) < 4.0 * n_chips * (n_chips / duration_s):
        raise InvalidInputError("Costas FSK requires fs >= 4B")
    n, duration, t = _sample_grid(duration_s, sample_rate_hz, multiple_of=n_chips)
    df = n_chips / duration
    chip_len = n // n_chips
    t_chip = chip_len / sample_rate_hz
    freqs = (np.array(code.sequence) - (n_chips + 1) / 2.0) * df
    chip = np.arange(n) // chip_len
    phase = 2.0 * np.pi * freqs[chip] * (t - chip * t_chip)
    return _unit_fm(phase, sample_rate_hz)


def synth_p4(num_chips: int, duration_s: float, sample_rate_hz: float) -> SampledSignal:
    """P4 polyphase-coded waveform: N chips with phase pi(n-1)^2/N - pi(n-1).

    All chips share center frequency 0; the nominal bandwidth is the
    chip rate N/T.

    Args:
        num_chips: N >= 2.
        duration_s: total duration T; snapped so chips divide evenly.
        sample_rate_hz: sampling rate; must be >= N/T, one sample per chip.

    Raises:
        InvalidInputError: if a chip gets no sample (round(fs*T) < N).
    """
    check_number("num_chips", num_chips, integer=True, minimum=2)
    n, _, _ = _sample_grid(duration_s, sample_rate_hz, multiple_of=num_chips)
    phase = np.repeat(p4_chip_phases(num_chips), n // num_chips)
    return _unit_fm(phase, sample_rate_hz)


def p4_chip_phases(num_chips: int) -> np.ndarray:
    """The P4 phase code pi(n-1)^2/N - pi(n-1) for n = 1..N (radians), N >= 1."""
    check_number("num_chips", num_chips, integer=True, minimum=1)
    idx = np.arange(1, num_chips + 1, dtype=float)
    return np.pi * (idx - 1) ** 2 / num_chips - np.pi * (idx - 1)


def synth_geometric_comb(num_tones: int, ratio: float, bandwidth_hz: float,
                         duration_s: float, sample_rate_hz: float) -> SampledSignal:
    """Geometric comb: equal-amplitude tones at geometrically spaced frequencies.

    Tone m sits at f_min * ratio**m for m = 0..M-1 with f_min chosen so
    the tones span bandwidth_hz (f_max - f_min = B).  The sum is
    normalized to unit energy; its amplitude is NOT constant, unlike the
    FM-class waveforms.

    Raises:
        InvalidInputError: if N x num_tones is above the cap (`_sample_count`),
            any tone exceeds Nyquist, or as `comb_tone_frequencies`.
    """
    n = _sample_count("'duration_s' * 'sample_rate_hz'",
                      _grid_rate(duration_s, sample_rate_hz) * duration_s)
    _sample_count("num_tones", n * check_number("num_tones", num_tones, integer=True))
    freqs = comb_tone_frequencies(num_tones, ratio, bandwidth_hz)
    if freqs[-1] >= sample_rate_hz / 2.0:
        raise InvalidInputError("comb tones exceed the Nyquist frequency")
    _, _, t = _sample_grid(duration_s, sample_rate_hz)
    samples = np.exp(2j * np.pi * np.outer(t, freqs)).sum(axis=1)
    samples /= np.linalg.norm(samples)
    return SampledSignal(samples=samples, sample_rate_hz=sample_rate_hz)


def comb_tone_frequencies(num_tones: int, ratio: float, bandwidth_hz: float) -> np.ndarray:
    """Tone frequencies of the geometric comb above; ratio ** (num_tones - 1) must be finite."""
    num_tones = check_number("num_tones", num_tones, integer=True, minimum=2)
    if (ratio := check_number("ratio", ratio)) <= 1.0:
        raise InvalidInputError("ratio must be > 1")
    check_number("bandwidth_hz", bandwidth_hz, positive=True)
    try:  # a Python float power raises OverflowError where numpy's warns
        f_min = bandwidth_hz / (ratio ** (num_tones - 1) - 1.0)
    except OverflowError:
        raise InvalidInputError(f"ratio ** (num_tones - 1) overflows for ratio {ratio}") from None
    return f_min * ratio ** np.arange(num_tones)


_KINDS = ("cw", "lfm", "hfm", "costas_fsk", "p4", "geometric_comb", "mtsfm")


@dataclass(frozen=True)
class WaveformSpec:
    """A kind-discriminated description of one waveform design.

    bandwidth_hz is the design bandwidth B used for TBP bookkeeping,
    default sample rates, and region defaults; a CW has no sweep, so by
    convention its design bandwidth is its Rayleigh width 2/T.
    Kind-specific fields: mtsfm (MTSFM), costas (CostasFSK), num_chips
    (P4), num_tones/tone_ratio (GeometricComb), center_freq_hz (HFM
    sweep center; must exceed B/2 so the sweep stays positive).

    The spec owns every rule that needs no sample rate (Costas and P4
    bandwidths fixed at N^2/T and N/T, a P4's num_chips within the sample cap
    of `signal._sample_count`, num_tones >= 2, tone_ratio > 1, and
    tone_ratio ** (num_tones - 1) within the float range);
    fs >= 4B and comb tones below Nyquist stay with the synth functions.
    """

    kind: str
    bandwidth_hz: float
    duration_s: float
    mtsfm: MtsfmParameters | None = None
    costas: CostasCode | None = None
    num_chips: int | None = None
    num_tones: int | None = None
    tone_ratio: float | None = None
    center_freq_hz: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidInputError(f"kind must be one of {_KINDS}")
        check_number("bandwidth_hz", self.bandwidth_hz, positive=True)
        check_number("duration_s", self.duration_s, positive=True)
        check_number("center_freq_hz", self.center_freq_hz, minimum=0.0)
        if self.kind == "mtsfm":
            if self.mtsfm is None:
                raise InvalidInputError("mtsfm kind requires MtsfmParameters")
            if abs(self.mtsfm.duration_s - self.duration_s) > 1e-9:
                raise InvalidInputError(f"'duration_s' {self.duration_s} disagrees with the "
                                        f"mtsfm duration {self.mtsfm.duration_s}")
        band = None  # the bandwidth N and T fix: N^2/T for Costas, N/T for P4
        if self.kind == "costas_fsk":
            if self.costas is None:
                raise InvalidInputError("costas_fsk kind requires a CostasCode")
            band = len(self.costas) * (len(self.costas) / self.duration_s)
        if self.kind == "p4":  # a chip needs a sample
            chips = _sample_count("num_chips", check_number("num_chips", self.num_chips,
                                                            integer=True, minimum=2))
            band = chips / self.duration_s
        if band is not None and abs(self.bandwidth_hz - band) > 1e-3 * band:
            raise InvalidInputError(f"{self.kind} bandwidth is fixed at {band} Hz by N and T")
        if self.kind == "geometric_comb":
            tones = check_number("num_tones", self.num_tones, integer=True)
            if not (tones >= 2 and (ratio := check_number("tone_ratio", self.tone_ratio)) > 1.0):
                raise InvalidInputError(
                    "geometric_comb kind requires num_tones >= 2 and tone_ratio > 1")
            try:  # the float span comb_tone_frequencies divides by
                ratio ** (tones - 1)
            except OverflowError:
                raise InvalidInputError("geometric_comb kind requires 'tone_ratio' ** "
                                        "('num_tones' - 1) within the float range") from None
        if self.kind == "hfm" and self.center_freq_hz <= self.bandwidth_hz / 2.0:
            raise InvalidInputError("hfm requires center_freq_hz > bandwidth_hz / 2")
        if self.kind in ("costas_fsk", "p4", "geometric_comb") and self.center_freq_hz != 0.0:
            raise InvalidInputError(f"{self.kind} is synthesized at baseband only")

    @property
    def time_bandwidth_product(self) -> float:
        return self.bandwidth_hz * self.duration_s


def synth_waveform(spec: WaveformSpec, sample_rate_hz: float) -> SampledSignal:
    """Synthesize the waveform a WaveformSpec describes."""
    if spec.kind == "cw":
        return synth_cw(spec.duration_s, sample_rate_hz,
                        center_freq_hz=spec.center_freq_hz)
    if spec.kind == "lfm":
        return synth_lfm(spec.bandwidth_hz, spec.duration_s, sample_rate_hz,
                         center_freq_hz=spec.center_freq_hz)
    if spec.kind == "hfm":
        f1 = spec.center_freq_hz - spec.bandwidth_hz / 2.0
        f2 = spec.center_freq_hz + spec.bandwidth_hz / 2.0
        return synth_hfm(f1, f2, spec.duration_s, sample_rate_hz)
    if spec.kind == "costas_fsk":
        return synth_costas_fsk(spec.costas, spec.duration_s, sample_rate_hz)
    if spec.kind == "p4":
        return synth_p4(spec.num_chips, spec.duration_s, sample_rate_hz)
    if spec.kind == "geometric_comb":
        return synth_geometric_comb(spec.num_tones, spec.tone_ratio,
                                    spec.bandwidth_hz, spec.duration_s,
                                    sample_rate_hz)
    return synth_mtsfm(spec.mtsfm, sample_rate_hz,
                       center_freq_hz=spec.center_freq_hz)
