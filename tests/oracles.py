"""Independent reference implementations used to cross-check wavekit.

Everything here is deliberately direct — explicit per-lag sums, closed
forms, quartic pair scans — and shares no code with the package
internals, so agreement between the two is meaningful evidence that the
fast implementations compute what they claim.
"""

import numpy as np


def direct_corr_at_lag(a, b, m):
    """sum_n a[n] * conj(b[n - m]) for a single integer lag m."""
    j0 = max(0, -m)
    j1 = min(len(b), len(a) - m)
    if j1 <= j0:
        return 0.0 + 0.0j
    # vdot conjugates its first argument.
    return complex(np.vdot(b[j0:j1], a[j0 + m:j1 + m]))


def is_5_smooth(m):
    """True iff the integer m >= 1 has no prime factor above 5."""
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def linear_xcorr(a, b):
    """Full linear correlation y[k] = sum_n a[n] * conj(b[n-k]) by one FFT
    product, lags k from -(len(b)-1) to len(a)-1.

    The circular correlation is taken at the smallest 5-smooth length of at
    least len(a) + len(b) - 1, found by a scan of the integers, so that no
    lag aliases onto another.  Its product is fa * conj(fb) in that operand
    order at every length: the conjugate is named, so numpy's temporary
    elision cannot evaluate the product as conj(fb) * fa, which an FMA
    complex multiply does not round alike.
    """
    nfft = a.size + b.size - 1
    while not is_5_smooth(nfft):
        nfft += 1
    fa = np.fft.fft(a, nfft)
    fb_conj = np.conj(np.fft.fft(b, nfft))
    y = np.fft.ifft(fa * fb_conj)
    return np.concatenate([y[nfft - (b.size - 1):], y[:a.size]])


def direct_xcorr_mag(a, b):
    """|correlation| on the full lag set -(len(b)-1) .. len(a)-1.

    A delayed copy of b inside a peaks at positive lag equal to the
    delay (matched-filter orientation).
    """
    return np.array([abs(direct_corr_at_lag(a, b, m))
                     for m in range(-(len(b) - 1), len(a))])


def direct_ambiguity_mag(samples, sample_rate_hz, lag_indices, dopplers_hz):
    """|chi(m/fs, nu)| = |sum_n s[n] s*[n+m] e^{j 2 pi nu t[n]}|, lag by lag."""
    n = len(samples)
    t = (np.arange(n) + 0.5) / sample_rate_hz
    out = np.empty((len(lag_indices), len(dopplers_hz)))
    for i, m in enumerate(lag_indices):
        if m >= 0:
            prod = samples[:n - m] * np.conj(samples[m:])
            times = t[:n - m]
        else:
            prod = samples[-m:] * np.conj(samples[:n + m])
            times = t[-m:]
        out[i] = np.abs(np.exp(2j * np.pi * np.outer(dopplers_hz, times)) @ prod)
    return out


def dirichlet_magnitude(freqs_hz, num_samples, sample_rate_hz):
    """|sum_{n=0}^{N-1} e^{-j 2 pi f t[n]}| in closed form.

    The magnitude of the DFT of N ones is the Dirichlet kernel
    |sin(pi f N / fs) / sin(pi f / fs)| regardless of the half-sample
    grid offset (which only contributes phase).  This is the exact
    discrete spectrum of a sampled CW, aliasing tails included — unlike
    the continuous |sinc| it is compared against at coarse rates.
    """
    x = np.pi * np.asarray(freqs_hz, dtype=float) / sample_rate_hz
    den = np.sin(x)
    tiny = np.abs(den) < 1e-15
    num = np.sin(num_samples * x)
    out = np.where(tiny, float(num_samples), num / np.where(tiny, 1.0, den))
    return np.abs(out)


def spectral_moment_rms(freqs_hz, power):
    """Centroid-removed RMS width of a sampled power spectrum."""
    power = np.asarray(power, dtype=float)
    total = power.sum()
    centroid = float((freqs_hz * power).sum() / total)
    return float(np.sqrt((((freqs_hz - centroid) ** 2) * power).sum() / total))


def costas_brute_force(sequence):
    """O(N^4) Costas check: all displacement vectors between entry pairs
    must be pairwise distinct.  No hashing, no difference triangle —
    just the definition, slowly."""
    seq = list(sequence)
    n = len(seq)
    pairs = [(j - i, seq[j] - seq[i])
             for i in range(n) for j in range(i + 1, n)]
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            if pairs[a] == pairs[b]:
                return False
    return True


def cw_triangle(lags_s, duration_s):
    """Normalized CW autocorrelation magnitude: the unit triangle."""
    return np.clip(1.0 - np.abs(np.asarray(lags_s, dtype=float)) / duration_s,
                   0.0, None)


def costas_autocorr_mag(sequence, duration_s, taus):
    """Continuous-time |R(tau)| of a Costas FSK pulse, R(0) = 1.

    The pulse has len(sequence) = N chips of length Tc = T/N; chip i
    is the tone (sequence[i] - (N+1)/2)/Tc with its phase restarted at
    the chip edge, and amplitude 1/sqrt(T).  R(tau) = integral s(t)
    s*(t - tau) dt is summed chip pair by chip pair: the overlap of chip
    i with chip j delayed by tau is an interval [a, b], over which the
    product is one complex exponential at the tones' difference
    frequency, integrated in closed form.
    """
    seq = np.asarray(sequence, dtype=float)
    n = seq.size
    chip = duration_s / n
    freqs = (seq - (n + 1) / 2.0) / chip
    taus = np.asarray(taus, dtype=float)
    total = np.zeros(taus.shape, dtype=complex)
    for i in range(n):
        for j in range(n):
            a = np.maximum(i * chip, j * chip + taus)
            b = np.maximum(a, np.minimum((i + 1) * chip, (j + 1) * chip + taus))
            diff = freqs[i] - freqs[j]
            if diff == 0.0:
                integral = b - a
            else:
                integral = ((np.exp(2j * np.pi * diff * b)
                             - np.exp(2j * np.pi * diff * a))
                            / (2j * np.pi * diff))
            # s(t) on chip i is e^{j 2 pi f_i (t - i Tc)}; s*(t - tau) on
            # the delayed chip j is e^{-j 2 pi f_j (t - tau - j Tc)}.
            phase = np.exp(2j * np.pi * (freqs[j] * (taus + j * chip)
                                         - freqs[i] * i * chip))
            total += phase * integral
    return np.abs(total) / duration_s


def fsk_samples(sequence, duration_s, sample_rate_hz, tone_spacing_hz):
    """Frequency-hopped pulse on the midpoint grid, unit energy.

    len(sequence) equal chips; chip i is the tone (sequence[i] -
    (N+1)/2) * tone_spacing_hz with its phase restarted at the chip
    edge.  With tone_spacing_hz = N/T this is the Costas FSK pulse;
    other spacings and non-Costas sequences give the broken variants
    the plateau checks must reject.
    """
    n_chips = len(sequence)
    n = int(round(duration_s * sample_rate_hz))
    chip_len = n // n_chips
    out = np.empty(n, dtype=complex)
    for i, value in enumerate(sequence):
        freq = (value - (n_chips + 1) / 2.0) * tone_spacing_hz
        t_in_chip = (np.arange(chip_len) + 0.5) / sample_rate_hz
        out[i * chip_len:(i + 1) * chip_len] = np.exp(2j * np.pi * freq * t_in_chip)
    return out / np.sqrt(n)


def superposed_echo_mag(samples, sample_rate_hz, delays_s, levels_db, lags):
    """|sum_i 10^(level_i/20) R(lag - delay_i)| at integer sample lags.

    The zero-Doppler matched-filter output of a noiseless scene built by
    direct superposition: each echo contributes its level-scaled
    autocorrelation, computed as an explicit per-lag sum, shifted to its
    delay (snapped to the sample grid).
    """
    shifts = [int(round(d * sample_rate_hz)) for d in delays_s]
    amps = [10.0 ** (lvl / 20.0) for lvl in levels_db]
    return np.array([
        abs(sum(a * direct_corr_at_lag(samples, samples, m - k)
                for a, k in zip(amps, shifts)))
        for m in lags])


def percent_csv(header, columns) -> bytes:
    """A CSV file of equal-length columns, formatted one cell at a time:
    integers %d, floats %.6f, anything else (bools, strings) str()."""
    def cell(value):
        if isinstance(value, (bool, np.bool_)):
            return str(value)
        if isinstance(value, (int, np.integer)):
            return "%d" % value
        if isinstance(value, (float, np.floating)):
            return "%.6f" % value
        return str(value)

    lines = [",".join(header)] + [",".join(map(cell, row)) for row in zip(*columns)]
    return "".join(line + "\n" for line in lines).encode("utf-8")


def full_length_mtsfm_objective(x, num_samples, sample_rate_hz, nfft, region_s,
                                objective, target_hz, tolerance, weight, sharpness=50.0):
    """(objective, RMS bandwidth, gradient) of an MTSFM design x = [alpha, beta].

    The penalized region objective and its analytic coefficient gradient
    on full-length complex transforms only: the autocorrelation is
    ifft(S conj(S)) at every lag of both signs, the bandwidth reads the
    fftshift-ed power spectrum, and the region's lag weights go back to
    the spectrum through a complex fft.  region_s = (inner, outer) bounds
    the region's |lag| in seconds; T = N / fs.
    """
    x = np.asarray(x, dtype=float)
    k = x.size // 2
    n, fs, m = num_samples, sample_rate_hz, nfft
    t = (np.arange(n) + 0.5) / fs
    arg = 2.0 * np.pi * np.outer(t, np.arange(1, k + 1)) / (n / fs)
    cos_basis, sin_basis = np.cos(arg), np.sin(arg)
    samples = np.exp(1j * (cos_basis @ x[:k] + sin_basis @ x[k:])) / np.sqrt(n)
    spec = np.fft.fft(samples, m)
    freqs = np.fft.fftshift(np.fft.fftfreq(m, d=1.0 / fs))
    power = np.abs(np.fft.fftshift(spec)) ** 2
    bw = spectral_moment_rms(freqs, power)
    circular = np.fft.ifft(spec * np.conj(spec))
    lags = np.arange(-(n - 1), n)
    inner, outer = region_s
    bins = lags[(np.abs(lags / fs) >= inner) & (np.abs(lags / fs) <= outer)] % m
    region, lag0 = circular[bins], circular[0]
    mag = np.abs(region) / np.abs(lag0)
    if objective == "isl":
        metric = float(np.sum(mag**2)) / fs
        dmetric = 2.0 * mag / fs
    else:
        peak = mag.max()
        soft = np.exp(sharpness * (mag - peak))
        total = np.sum(soft)
        metric = peak + float(np.log(total)) / sharpness
        dmetric = soft / total
    excess = max(0.0, abs(bw - target_hz) / target_hz - tolerance)
    value = metric + weight * excess * excess
    radius = np.abs(region)
    lag_weight = np.zeros(m, dtype=complex)
    lag_weight[bins] = np.divide(dmetric * region, radius * abs(lag0),
                                 out=np.zeros_like(region), where=radius > 0)
    spec_weight = np.fft.fft(lag_weight).real
    if excess > 0.0:
        total = power.sum()
        centroid = (freqs * power).sum() / total
        scale = weight * excess * np.sign(bw - target_hz) / (target_hz * bw * total)
        spec_weight += np.fft.ifftshift(m * scale * ((freqs - centroid) ** 2 - bw * bw))
    dphase = 2.0 * np.imag(np.conj(samples) * np.fft.ifft(spec * spec_weight)[:n])
    return value, bw, np.concatenate([cos_basis.T @ dphase, sin_basis.T @ dphase])


def two_phase_wolfe_step(func, x, f, g, d, step, c1, c2, trials, cubic_step):
    """A strong-Wolfe step along d from x, or None, as two phases: Nocedal
    and Wright's Algorithm 3.5 doubles the trial step from `step` until one
    brackets an acceptable step, then Algorithm 3.6 (`zoom` below) narrows
    the bracket by cubic_step(lo, hi).  c1 and c2 are the sufficient-decrease
    and curvature constants, and trials the evaluations allowed in all.
    Returns (x + a d, phi(a), gradient there) or None."""
    slope0 = float(g @ d)
    if not slope0 < 0.0:
        return None
    decrease, curvature = c1 * slope0, -c2 * slope0

    def trial(a):
        xa = x + a * d
        fa, ga = func(xa)
        return a, float(fa), float(ga @ d), xa, ga

    def zoom(lo, hi, left):
        for _ in range(left):
            if lo[0] == hi[0]:
                return None
            a, fa, da, xa, ga = trial(cubic_step(lo, hi))
            if not fa <= f + a * decrease or fa >= lo[1]:
                hi = (a, fa, da)
                continue
            if abs(da) <= curvature:
                return xa, fa, ga
            if da * (hi[0] - lo[0]) >= 0.0:
                hi = lo
            lo = (a, fa, da)
        return None

    f = float(f)
    prev = (0.0, f, slope0)
    for i in range(trials):
        a, fa, da, xa, ga = point = trial(step)
        if not fa <= f + a * decrease or (i > 0 and fa >= prev[1]):
            return zoom(prev, point[:3], trials - i - 1)
        if abs(da) <= curvature:
            return xa, fa, ga
        if da >= 0.0:
            return zoom(point[:3], prev, trials - i - 1)
        prev, step = point[:3], 2.0 * a
    return None
