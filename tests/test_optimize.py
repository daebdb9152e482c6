"""Optimizer objective, gradient, and search-loop checks.

The objective is re-derived here from scratch (explicit correlation sums
plus spectral moments) so the workspace FFT path is cross-checked, not
just exercised.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavekit as wk
from wavekit import optimize
from wavekit.errors import InvalidInputError
from wavekit.optimize import (OptimizationProblem, _checked_workspace, _taylor_window,
                              default_initial_parameters,
                              evaluate_objective, finite_difference_gradient,
                              minimize_gradient_descent, minimize_lbfgs,
                              minimize_nelder_mead, nlfm_initial_parameters,
                              objective_db, optimize_waveform, params_to_vector,
                              vector_to_params)
from wavekit.signal import _fft_length
from wavekit.waveforms import MtsfmParameters, swept_bandwidth, synth_mtsfm

from oracles import (dirichlet_magnitude, full_length_mtsfm_objective, spectral_moment_rms,
                     two_phase_wolfe_step)


def _manual_objective(params, problem):
    """Independent re-derivation of the penalized objective."""
    fs = problem.sample_rate_hz
    n = int(round(fs * params.duration_s))
    t = (np.arange(n) + 0.5) / fs
    s = np.exp(1j * params.phase(t)) / np.sqrt(n)
    corr = np.correlate(s, s, mode="full")
    mag = np.abs(corr) / np.abs(corr[n - 1])
    lags = np.arange(-(n - 1), n) / fs
    mask = problem.region.mask(lags)
    region_mag = mag[mask]
    if problem.objective == "isl":
        metric = float(np.sum(region_mag**2)) / fs
    else:
        peak = region_mag.max()
        metric = peak + float(
            np.log(np.sum(np.exp(50.0 * (region_mag - peak))))) / 50.0
    nfft = _fft_length(2 * n)
    freqs = np.fft.fftshift(np.fft.fftfreq(nfft, d=1.0 / fs))
    power = np.abs(np.fft.fftshift(np.fft.fft(s, nfft))) ** 2
    bw = spectral_moment_rms(freqs, power)
    excess = max(0.0, abs(bw - problem.bandwidth_target_hz)
                 / problem.bandwidth_target_hz - problem.bandwidth_tolerance)
    return metric + problem.penalty_weight * excess**2, metric, bw


def _tiny_problem(objective="isl", tolerance=0.4, budget=4000, seed=3,
                  target=None, weight=1.0):
    initial = default_initial_parameters(16.0, 1.0, 2, seed=7)
    if target is None:
        sig = synth_mtsfm(initial, 256.0)
        target = wk.rms_bandwidth(wk.spectrum(sig, 2))
    return OptimizationProblem(
        initial=initial, region=wk.default_region(16.0, 1.0),
        objective=objective, bandwidth_target_hz=target,
        bandwidth_tolerance=tolerance, penalty_weight=weight,
        budget=budget, seed=seed, sample_rate_hz=256.0)


@pytest.fixture(scope="module")
def big_runs():
    """One 20k-evaluation Nelder-Mead/gradient-descent pair (slow)."""
    initial = default_initial_parameters(256.0, 1.0, 32, seed=99)
    sig = synth_mtsfm(initial, 2048.0)
    target = wk.rms_bandwidth(wk.spectrum(sig, 2))
    problem = OptimizationProblem(
        initial=initial, region=wk.default_region(256.0, 1.0),
        objective="isl", bandwidth_target_hz=target, bandwidth_tolerance=0.1,
        penalty_weight=1.0, budget=20000, seed=7, sample_rate_hz=2048.0)
    return {"problem": problem,
            "nm": minimize_nelder_mead(problem),
            "gd": minimize_gradient_descent(problem)}


# ------------------------------------------------------------ vector mapping

def test_params_vector_round_trip():
    params = MtsfmParameters(alpha=[1.0, -2.0, 3.0], beta=[0.5, 0.0, -0.5], duration_s=2.0)
    x = params_to_vector(params)
    np.testing.assert_array_equal(x, [1.0, -2.0, 3.0, 0.5, 0.0, -0.5])
    back = vector_to_params(x, 2.0)
    assert back.num_harmonics == 3 and type(back.num_harmonics) is int
    np.testing.assert_array_equal(back.alpha, params.alpha)
    np.testing.assert_array_equal(back.beta, params.beta)
    assert back.duration_s == 2.0


# -------------------------------------------------------- objective function

def test_isl_objective_matches_manual_derivation():
    problem = _tiny_problem()
    expected, _, _ = _manual_objective(problem.initial, problem)
    assert evaluate_objective(problem.initial, problem) == pytest.approx(
        expected, abs=1e-12)


def test_psl_objective_bounded_by_softmax_inequalities():
    """peak <= LSE softmax <= peak + ln(count)/sharpness."""
    problem = _tiny_problem(objective="psl")
    _, _, bw = _manual_objective(problem.initial, problem)
    # Re-target so the penalty term vanishes and only the softmax remains.
    problem = dataclasses.replace(problem, bandwidth_target_hz=bw)
    value = evaluate_objective(problem.initial, problem)

    fs, n = 256.0, 256
    t = (np.arange(n) + 0.5) / fs
    s = np.exp(1j * problem.initial.phase(t)) / np.sqrt(n)
    corr = np.correlate(s, s, mode="full")
    mag = np.abs(corr) / np.abs(corr[n - 1])
    mask = problem.region.mask(np.arange(-(n - 1), n) / fs)
    peak = mag[mask].max()
    count = int(mask.sum())
    assert peak <= value <= peak + np.log(count) / 50.0 + 1e-12


def test_penalty_inactive_inside_dead_band():
    base = _tiny_problem()
    _, metric, bw = _manual_objective(base.initial, base)
    inside = dataclasses.replace(base, bandwidth_target_hz=bw * 1.05,
                                 bandwidth_tolerance=0.1)
    assert evaluate_objective(base.initial, inside) == pytest.approx(
        metric, abs=1e-12)


def test_penalty_active_outside_dead_band():
    base = _tiny_problem()
    _, metric, bw = _manual_objective(base.initial, base)
    outside = dataclasses.replace(base, bandwidth_target_hz=2.0 * bw,
                                  bandwidth_tolerance=0.1, penalty_weight=3.0)
    excess = abs(bw - 2.0 * bw) / (2.0 * bw) - 0.1
    assert evaluate_objective(base.initial, outside) == pytest.approx(
        metric + 3.0 * excess**2, rel=1e-9)


def test_zero_coefficients_reduce_to_cw_metric():
    """All-zero coefficients synthesize a CW: triangle ISL + penalty."""
    problem = _tiny_problem(target=8.0, tolerance=0.1)
    zero = MtsfmParameters(alpha=np.zeros(2), beta=np.zeros(2), duration_s=1.0)
    fs, n = 256.0, 256
    lags = np.arange(-(n - 1), n)
    mask = problem.region.mask(lags / fs)
    triangle = 1.0 - np.abs(lags[mask]) / n
    metric = float(np.sum(triangle**2)) / fs
    nfft = _fft_length(2 * n)
    freqs = np.fft.fftshift(np.fft.fftfreq(nfft, d=1.0 / fs))
    power = dirichlet_magnitude(freqs, n, fs) ** 2
    excess = abs(spectral_moment_rms(freqs, power) - 8.0) / 8.0 - 0.1
    expected = metric + max(0.0, excess) ** 2
    assert excess > 0  # the CW cannot meet a bandwidth target of 8 Hz
    assert evaluate_objective(zero, problem) == pytest.approx(expected, rel=1e-9)


def test_objective_is_bitwise_deterministic():
    problem = _tiny_problem()
    assert evaluate_objective(problem.initial, problem) \
        == evaluate_objective(problem.initial, problem)


def test_objective_negation_invariances():
    """Conjugation and time reversal leave |R| and |S| unchanged."""
    problem = _tiny_problem()
    rng = np.random.default_rng(11)
    params = MtsfmParameters(alpha=rng.normal(size=2),
                             beta=rng.normal(size=2) + [4.0, 0.0],
                             duration_s=1.0)
    f = evaluate_objective(params, problem)
    for flipped in (
            dataclasses.replace(params, alpha=-np.asarray(params.alpha)),
            dataclasses.replace(params, beta=-np.asarray(params.beta))):
        assert evaluate_objective(flipped, problem) == pytest.approx(f, abs=1e-9)


def test_workspace_cache_is_bounded():
    cache = wk.optimize._workspace
    for fs in 64.0 + np.arange(12):
        problem = dataclasses.replace(_tiny_problem(), sample_rate_hz=fs)
        evaluate_objective(problem.initial, problem)
        assert cache.cache_info().currsize <= cache.cache_info().maxsize < 12


def test_objective_rejects_harmonic_mismatch():
    """Both public evaluators refuse a design off the problem's grid: another
    K, or a duration that snaps to another sample count (T = 2 s against the
    problem's T = 1 s).  The snapped final design of a start whose duration
    is not a whole number of samples stays on the grid."""
    problem = _tiny_problem()
    evaluators = (lambda params: evaluate_objective(params, problem),
                  lambda params: finite_difference_gradient(params, problem, 1e-4))
    other_k = MtsfmParameters(alpha=np.zeros(3), beta=np.zeros(3), duration_s=1.0)
    longer = dataclasses.replace(problem.initial, duration_s=2.0)
    for evaluate in evaluators:
        with pytest.raises(InvalidInputError, match="harmonic count"):
            evaluate(other_k)
        with pytest.raises(InvalidInputError, match="duration_s"):
            evaluate(longer)
    unsnapped = dataclasses.replace(problem, budget=5, initial=dataclasses.replace(
        problem.initial, duration_s=1.0001))  # 256.0256 samples at 256 Hz
    result = minimize_nelder_mead(unsnapped)
    assert result.final.duration_s == 1.0
    assert evaluate_objective(result.final, unsnapped) == result.trace[-1][1]
    assert finite_difference_gradient(result.final, unsnapped, 1e-4).shape == (4,)


# Finite coefficients whose phase, 1e308 * sum of cos and sin terms, overflows.
_OVERFLOWING = MtsfmParameters(alpha=np.full(4, 1e308), beta=np.full(4, 1e308), duration_s=1.0)


def test_a_design_whose_phase_overflows_is_refused():
    problem = dataclasses.replace(_tiny_problem(budget=600), initial=MtsfmParameters(
        alpha=np.zeros(4), beta=np.r_[8.0, 0.0, 0.0, 0.0], duration_s=1.0))
    for evaluate in (evaluate_objective,
                     lambda params, problem: finite_difference_gradient(params, problem, 1e-4)):
        with pytest.raises(InvalidInputError, match="params phase overflows"):
            evaluate(_OVERFLOWING, problem)
    for minimize in (minimize_nelder_mead, minimize_gradient_descent, minimize_lbfgs):
        with pytest.raises(InvalidInputError, match="initial phase overflows"):
            minimize(dataclasses.replace(problem, initial=_OVERFLOWING))


# The gradient of an infinite penalty is computed before the refusal, and
# numpy warns about its inf * 0 products.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("minimize", [minimize_nelder_mead, minimize_gradient_descent,
                                      minimize_lbfgs])
def test_a_start_whose_objective_overflows_is_refused(minimize):
    """A finite phase with a penalty weight near the float limit: 1e308 times
    an excess of about 99 overflows at the first evaluation, the start's."""
    problem = _tiny_problem()
    problem = dataclasses.replace(problem, penalty_weight=1e308,
                                  bandwidth_target_hz=problem.bandwidth_target_hz / 100.0)
    assert evaluate_objective(problem.initial, problem) == np.inf
    with pytest.raises(InvalidInputError, match="initial objective overflows"):
        minimize(problem)


def test_objective_db_scaling():
    assert objective_db(0.01, "isl") == pytest.approx(-20.0)
    assert objective_db(0.01, "psl") == pytest.approx(-40.0)
    assert objective_db(0.0, "isl") <= -290.0  # floored, never -inf


def test_problem_validation():
    initial = default_initial_parameters(16.0, 1.0, 2, seed=7)
    region = wk.default_region(16.0, 1.0)
    good = dict(initial=initial, region=region, objective="isl",
                bandwidth_target_hz=16.0, bandwidth_tolerance=0.1,
                penalty_weight=1.0, budget=100, seed=0, sample_rate_hz=256.0)
    OptimizationProblem(**good)
    for bad in ({"objective": "l2"}, {"bandwidth_target_hz": 0.0},
                {"bandwidth_tolerance": 0.5}, {"bandwidth_tolerance": 0.0},
                {"penalty_weight": 0.0}, {"budget": 0},
                {"sample_rate_hz": 0.0},
                {"region": wk.RegionSpec(0.1, 2.0)}):
        with pytest.raises(InvalidInputError):
            OptimizationProblem(**{**good, **bad})


@pytest.mark.parametrize("field, value", [
    ("bandwidth_target_hz", np.inf), ("bandwidth_target_hz", np.nan),
    ("penalty_weight", np.inf), ("penalty_weight", np.nan),
    ("sample_rate_hz", np.inf), ("sample_rate_hz", np.nan), ("seed", -1),
])
def test_problem_rejects_non_finite_values_and_negative_seeds(field, value):
    problem = _tiny_problem()
    with pytest.raises(InvalidInputError, match=field):
        dataclasses.replace(problem, **{field: value})


def test_vector_to_params_copies_the_vector():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    params = vector_to_params(x, 1.0)
    x[0] = 99.0
    assert params.alpha[0] == 1.0


# ------------------------------------------------------------------ gradient

def test_gradient_requires_positive_step():
    problem = _tiny_problem()
    with pytest.raises(InvalidInputError):
        finite_difference_gradient(problem.initial, problem, 0.0)
    with pytest.raises(InvalidInputError):
        finite_difference_gradient(problem.initial, problem, -1e-4)


def test_gradient_matches_explicit_central_differences():
    problem = _tiny_problem()
    step = 1e-3
    grad = finite_difference_gradient(problem.initial, problem, step)
    x = params_to_vector(problem.initial)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        expected = (evaluate_objective(vector_to_params(xp, 1.0), problem)
                    - evaluate_objective(vector_to_params(xm, 1.0), problem)
                    ) / (2.0 * step)
        assert grad[i] == pytest.approx(expected, abs=1e-15)


def test_gradient_step_refinement_consistency():
    """Central differences are O(h^2): 1e-4 and 1e-5 nearly agree."""
    problem = _tiny_problem()
    g4 = finite_difference_gradient(problem.initial, problem, 1e-4)
    g5 = finite_difference_gradient(problem.initial, problem, 1e-5)
    np.testing.assert_allclose(g4, g5, atol=1e-9)


def _analytic_gradient(params, problem):
    value, _, grad = _checked_workspace(params, problem).evaluate(
        params_to_vector(params), problem, gradient=True)
    return value, grad


# Finite differences at step 1e-5 carry O(h^2) truncation error, which the
# PSL soft-max (sharpness 50) makes larger, and an absolute round-off floor
# of about eps * f / h.
_GRADIENT_RTOL = {"isl": 1e-6, "psl": 1e-5}
_GRADIENT_ATOL = 1e-9


@settings(max_examples=30, deadline=None, derandomize=True)
@given(objective=st.sampled_from(("isl", "psl")), penalty=st.booleans(),
       coefficients=st.integers(1, 3).flatmap(lambda k: st.lists(
           st.floats(-6.0, 6.0, allow_nan=False), min_size=2 * k, max_size=2 * k)))
def test_analytic_gradient_matches_finite_differences(objective, penalty, coefficients):
    params = vector_to_params(np.array(coefficients), 1.0)
    bw = wk.rms_bandwidth(wk.spectrum(synth_mtsfm(params, 256.0), 2))
    # Tolerance 0.1 either side of the candidate's own bandwidth leaves the
    # penalty off; twice that bandwidth as target switches it on.
    problem = dataclasses.replace(
        _tiny_problem(objective=objective, tolerance=0.1,
                      target=2.0 * bw if penalty else bw), initial=params)
    value, grad = _analytic_gradient(params, problem)
    assert value == evaluate_objective(params, problem)
    excess = abs(bw - problem.bandwidth_target_hz) / problem.bandwidth_target_hz - 0.1
    assert (excess > 0) == penalty
    expected = finite_difference_gradient(params, problem, 1e-5)
    assert np.linalg.norm(grad - expected) <= (
        _GRADIENT_RTOL[objective] * np.linalg.norm(expected) + _GRADIENT_ATOL)


@pytest.mark.parametrize("objective", ["isl", "psl"])
@pytest.mark.parametrize("target_scale", [1.0, 1.5])
@pytest.mark.parametrize("fs", [2048.0, 1500.0])
def test_analytic_gradient_on_the_tbp256_start(objective, target_scale, fs):
    """K = 32 at N = 2048, and at N = 1500 (3000-point transforms), penalty
    off (scale 1) and on (scale 1.5)."""
    initial = nlfm_initial_parameters(256.0, 1.0, 32, fs)
    target = wk.rms_bandwidth(wk.spectrum(synth_mtsfm(initial, fs), 2))
    problem = OptimizationProblem(
        initial=initial, region=wk.default_region(256.0, 1.0), objective=objective,
        bandwidth_target_hz=target_scale * target, bandwidth_tolerance=0.1,
        penalty_weight=1.0, budget=100, seed=0, sample_rate_hz=fs)
    value, grad = _analytic_gradient(initial, problem)
    assert value == evaluate_objective(initial, problem)
    expected = finite_difference_gradient(initial, problem, 1e-5)
    assert np.linalg.norm(grad - expected) <= (
        _GRADIENT_RTOL[objective] * np.linalg.norm(expected))


# One transform-length rule: at N = 1013, 2N - 1 = 2025 is itself 5-smooth,
# yet the objective transforms at _fft_length(2N) = 2048, as spectrum(s, 2) does.
@pytest.mark.parametrize("n", [512, 1000, 1013, 1500, 2048])
def test_spectrum_and_objective_share_one_transform_length(n):
    """K = 4 at N = n samples (fs = n Hz, T = 1 s, B = fs/8)."""
    fs, band = float(n), n / 8.0
    initial = default_initial_parameters(band, 1.0, 4, seed=5)
    signal = synth_mtsfm(initial, fs)
    assert signal.num_samples == n
    for zero_pad_factor in (1, 2, 4):
        assert wk.spectrum(signal, zero_pad_factor).freqs_hz.size == _fft_length(
            zero_pad_factor * n)
    start_bw = wk.rms_bandwidth(wk.spectrum(signal, 2))
    problem = OptimizationProblem(
        initial=initial, region=wk.default_region(band, 1.0), objective="isl",
        bandwidth_target_hz=start_bw, bandwidth_tolerance=0.1, penalty_weight=1.0,
        budget=100, seed=0, sample_rate_hz=fs)
    workspace = _checked_workspace(initial, problem)
    assert workspace.nfft == _fft_length(2 * n)
    _, bw, _ = workspace.evaluate(params_to_vector(initial), problem)
    assert bw == pytest.approx(start_bw, rel=1e-12)


# Relative bounds against the full-length complex evaluator.  The value and
# the bandwidth differ in summation order only.  The gradient bound is
# wider: a region holding lag 0 adds a large constant to the spectral
# weight, which cancels in Im(conj(s) ...), and both evaluators keep the
# round-off of that cancellation (up to 6e-14 relative at these N).
_ORACLE_VALUE_RTOL = 1e-14
_ORACLE_GRADIENT_RTOL = 1e-12


@pytest.mark.parametrize("n", [512, 1000, 1012, 1013, 2048])  # 1012: odd M = 2025
@pytest.mark.parametrize("objective", ["isl", "psl"])
@pytest.mark.parametrize("target_scale", [1.0, 1.5])
@pytest.mark.parametrize("inner_s", [None, 0.0], ids=["default_region", "lag0_in_region"])
def test_evaluator_matches_full_length_complex_oracle(n, objective, target_scale, inner_s):
    """K = 16 tapered-NLFM start at N = n (fs = n Hz, T = 1 s, B = fs/8), penalty
    off (scale 1) and on (scale 1.5), on the default region and on one that
    holds lag 0, which the half-length evaluator counts once."""
    fs, band = float(n), n / 8.0
    initial = nlfm_initial_parameters(band, 1.0, 16, fs)
    bw = wk.rms_bandwidth(wk.spectrum(synth_mtsfm(initial, fs), 2))
    region = wk.default_region(band, 1.0)
    if inner_s is not None:
        region = wk.RegionSpec(inner_s, region.outer_delay_s)
    problem = OptimizationProblem(
        initial=initial, region=region, objective=objective,
        bandwidth_target_hz=target_scale * bw, bandwidth_tolerance=0.1,
        penalty_weight=1.0, budget=100, seed=0, sample_rate_hz=fs)
    x = params_to_vector(initial)
    value, rms, grad = _checked_workspace(initial, problem).evaluate(x, problem, gradient=True)
    ref_value, ref_rms, ref_grad = full_length_mtsfm_objective(
        x, n, fs, _fft_length(2 * n), (region.inner_delay_s, region.outer_delay_s),
        objective, problem.bandwidth_target_hz, 0.1, 1.0)
    assert _fft_length(2 * n) % 2 == (n == 1012)
    penalty = abs(ref_rms - problem.bandwidth_target_hz) / problem.bandwidth_target_hz > 0.1
    assert penalty == (target_scale > 1.0)
    assert value == pytest.approx(ref_value, rel=_ORACLE_VALUE_RTOL, abs=0.0)
    assert rms == pytest.approx(ref_rms, rel=_ORACLE_VALUE_RTOL, abs=0.0)
    assert np.linalg.norm(grad - ref_grad) <= _ORACLE_GRADIENT_RTOL * np.linalg.norm(ref_grad)


_FFT_ENTRY_POINTS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2", "ifft2",
                     "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


@pytest.mark.parametrize("objective", ["isl", "psl"])
@pytest.mark.parametrize("target_scale", [1.0, 1.5])
def test_evaluation_runs_at_its_transform_floor(monkeypatch, objective, target_scale):
    """One evaluation calls one complex forward and one real-input transform;
    the gradient adds one real-output and one complex inverse transform."""
    problem = _tiny_problem(objective=objective)
    problem = dataclasses.replace(
        problem, bandwidth_target_hz=target_scale * problem.bandwidth_target_hz)
    workspace = _checked_workspace(problem.initial, problem)
    x = params_to_vector(problem.initial)
    calls = []

    def counted(name, transform):
        return lambda *args, **kwargs: calls.append(name) or transform(*args, **kwargs)

    for name in _FFT_ENTRY_POINTS:
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    workspace.evaluate(x, problem)
    assert sorted(calls) == ["fft", "rfft"]
    calls.clear()
    workspace.evaluate(x, problem, gradient=True)
    assert sorted(calls) == ["fft", "ifft", "irfft", "rfft"]


def test_gradient_vanishes_at_symmetric_origin():
    """f(x) = f(-x), so all-zero coefficients are a stationary point."""
    problem = _tiny_problem()
    zero = MtsfmParameters(alpha=np.zeros(2), beta=np.zeros(2), duration_s=1.0)
    assert np.abs(finite_difference_gradient(zero, problem, 1e-4)).max() < 1e-9
    assert np.abs(_analytic_gradient(zero, problem)[1]).max() < 1e-12


# ------------------------------------------------------------ search methods

def test_nelder_mead_is_seed_deterministic():
    problem = _tiny_problem(budget=600)
    a = minimize_nelder_mead(problem)
    b = minimize_nelder_mead(problem)
    assert a.trace == b.trace
    np.testing.assert_array_equal(np.asarray(a.final.alpha),
                                  np.asarray(b.final.alpha))
    np.testing.assert_array_equal(np.asarray(a.final.beta),
                                  np.asarray(b.final.beta))
    c = minimize_nelder_mead(dataclasses.replace(problem, seed=4))
    assert c.trace != a.trace


def test_nelder_mead_trace_is_monotone_and_consistent():
    result = minimize_nelder_mead(_tiny_problem())
    evals = [e for e, _ in result.trace]
    values = [f for _, f in result.trace]
    assert evals == sorted(evals)
    assert all(b < a for a, b in zip(values, values[1:]))
    assert result.final_objective_db == pytest.approx(
        objective_db(values[-1], "isl"), abs=1e-12)
    assert result.initial_objective_db == pytest.approx(
        objective_db(values[0], "isl"), abs=1e-12)
    assert result.final_objective_db <= result.initial_objective_db


def test_nelder_mead_converges_on_tiny_problem():
    problem = _tiny_problem()
    result = minimize_nelder_mead(problem)
    assert result.converged
    assert result.evaluations_used < problem.budget
    assert result.final_objective_db < result.initial_objective_db - 4.0
    # Declared convergence implies the bandwidth constraint is met.
    sig = synth_mtsfm(result.final, 256.0)
    bw = wk.rms_bandwidth(wk.spectrum(sig, 2))
    assert abs(bw - problem.bandwidth_target_hz) / problem.bandwidth_target_hz \
        <= problem.bandwidth_tolerance + 1e-6


def _scipy_nelder_mead(problem):
    """The reference for the port: scipy.optimize.minimize's Nelder-Mead from the
    same simplex, under the same search contract and tolerances."""
    from scipy.optimize import minimize

    search = optimize._Search(problem)
    simplex = optimize._initial_simplex(search.x0, problem.seed)

    def simplex_search():
        res = minimize(search.value, search.x0, method="Nelder-Mead",
                       options={"initial_simplex": simplex, "xatol": optimize._NM_XATOL,
                                "fatol": optimize._NM_FATOL, "maxiter": 10**9,
                                "maxfev": 10**9, "adaptive": True})
        return bool(res.success), "tolerance" if res.success else "budget"

    return search.run(simplex_search)


def _assert_bitwise_equal_runs(port, reference):
    assert port.trace == reference.trace
    assert (port.stop_reason, port.evaluations_used, port.converged) == (
        reference.stop_reason, reference.evaluations_used, reference.converged)
    for name in ("alpha", "beta"):
        assert (np.asarray(getattr(port.final, name)).tobytes()
                == np.asarray(getattr(reference.final, name)).tobytes())


@pytest.mark.parametrize("objective", ["isl", "psl"])
@pytest.mark.parametrize("budget", [300, 600])
def test_nelder_mead_port_is_scipy_on_tbp256(tbp256, objective, budget):
    problem = dataclasses.replace(tbp256["problem"], objective=objective, budget=budget)
    port = minimize_nelder_mead(problem)
    assert port.stop_reason == "budget"
    _assert_bitwise_equal_runs(port, _scipy_nelder_mead(problem))


def _seeded_problem(num_harmonics, seed, objective, budget=20000):
    """A B = 64 Hz, T = 1 s sweep start with seeded jitter, sampled at 512 Hz."""
    initial = default_initial_parameters(64.0, 1.0, num_harmonics, seed=seed)
    target = wk.rms_bandwidth(wk.spectrum(synth_mtsfm(initial, 512.0), 2))
    return OptimizationProblem(
        initial=initial, region=wk.default_region(64.0, 1.0), objective=objective,
        bandwidth_target_hz=target, bandwidth_tolerance=0.1, penalty_weight=1.0,
        budget=budget, seed=seed, sample_rate_hz=512.0)


def _criterion_8_problem():
    """The seeded optimize run of acceptance criterion 8, as the CLI builds it."""
    return _seeded_problem(4, 1, "isl", budget=300)


@pytest.mark.parametrize("build, stop_reason", [
    (_criterion_8_problem, "budget"),
    (_tiny_problem, "tolerance"),
], ids=["criterion_8", "tolerance"])
def test_nelder_mead_port_is_scipy(build, stop_reason):
    problem = build()
    port = minimize_nelder_mead(problem)
    assert port.stop_reason == stop_reason
    _assert_bitwise_equal_runs(port, _scipy_nelder_mead(problem))


def test_budget_exhaustion_reports_not_converged():
    result = minimize_nelder_mead(_tiny_problem(budget=50))
    assert not result.converged
    assert result.evaluations_used == 50
    assert result.stop_reason == "budget"


@pytest.mark.parametrize("method", ["gradient_descent", "lbfgs"])
def test_gradient_methods_count_one_evaluation_per_gradient_call(method):
    result = optimize_waveform(_tiny_problem(budget=10), method=method)
    assert not result.converged
    assert result.evaluations_used == 10
    assert result.stop_reason == "budget"


def test_tbp256_fixture_stops_on_tolerance(tbp256):
    result = tbp256["result"]
    assert result.stop_reason == "tolerance"
    assert result.converged
    assert result.evaluations_used < tbp256["problem"].budget


def _scipy_lbfgs(problem):
    """The reference for the numpy loop: scipy.optimize.minimize's L-BFGS-B
    from the same start, under the same search contract and stop tolerances."""
    from scipy.optimize import minimize

    search = optimize._Search(problem)

    def quasi_newton():
        res = minimize(search.value_and_gradient, search.x0, jac=True, method="L-BFGS-B",
                       options={"maxfun": 10**9, "maxiter": 10**9,
                                "ftol": optimize._LBFGS_FTOL, "gtol": optimize._LBFGS_GTOL})
        return bool(res.success), "tolerance" if res.success else "line_search"

    return search.run(quasi_newton)


def test_lbfgs_matches_scipy_on_tbp256(tbp256):
    """The fixture's numpy L-BFGS run ends at scipy L-BFGS-B's design level
    (within 0.01 dB) in at most 1.5 times its evaluations."""
    result, reference = tbp256["result"], _scipy_lbfgs(tbp256["problem"])
    assert reference.stop_reason == "tolerance"
    assert abs(result.final_objective_db - reference.final_objective_db) <= 0.01
    assert result.evaluations_used <= 1.5 * reference.evaluations_used


@pytest.mark.parametrize("objective", ["isl", "psl"])
@pytest.mark.parametrize("num_harmonics", [2, 4, 8])
def test_lbfgs_matches_scipy_on_seeded_problems(objective, num_harmonics):
    """From seeded sweeps the objective is not convex, and the two searches
    can settle in different local minima; the numpy loop's design may be
    better than scipy's, but not worse by more than 0.25 dB, and it spends
    at most twice scipy's evaluations.  (scipy's own line search gives up
    on one of these problems, at its final design.)"""
    for seed in range(4):
        problem = _seeded_problem(num_harmonics, seed, objective)
        result, reference = minimize_lbfgs(problem), _scipy_lbfgs(problem)
        assert result.stop_reason == "tolerance", seed
        assert result.final_objective_db <= reference.final_objective_db + 0.25, seed
        assert result.evaluations_used <= 2 * reference.evaluations_used, seed


def _quadratic(n=20, log10_condition=4):
    """f = (x - m)'H(x - m)/2, H with condition number 10**log10_condition
    (1e4 by default), from x = 0; m.

    Written about its minimizer m, f is accurate to its last bits near m;
    the expanded form x'Hx/2 - b'x cancels, and its rounding noise there
    exceeds the decrease the line search is asked to confirm.
    """
    rng = np.random.default_rng(5)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    half = log10_condition / 2
    hessian = basis @ np.diag(np.logspace(-half, half, n)) @ basis.T
    minimizer = rng.standard_normal(n)

    def func(x):
        grad = hessian @ (x - minimizer)
        return 0.5 * (x - minimizer) @ grad, grad
    return func, np.zeros(n), minimizer


def _rosenbrock(n=8):
    """The extended Rosenbrock function from the classic (-1.2, 1) start."""
    def func(x):
        u, v = x[:-1], x[1:]
        grad = np.zeros_like(x)
        grad[:-1] = -400.0 * u * (v - u * u) - 2.0 * (1.0 - u)
        grad[1:] += 200.0 * (v - u * u)
        return float(np.sum(100.0 * (v - u * u) ** 2 + (1.0 - u) ** 2)), grad
    return func, np.tile([-1.2, 1.0], n // 2), np.ones(n)


def _checked_wolfe_run(monkeypatch, func, x0, minimizer, memory=optimize._LBFGS_MEMORY):
    """Run `_lbfgs` with `memory` pairs to convergence at the minimizer, and
    check that every step its line search accepts satisfies sufficient
    decrease and the strong curvature condition; (steps, trial steps,
    evaluations)."""
    steps, trial_steps = [], []
    line_search = optimize._wolfe_step

    def checked(func, x, f, g, d, step):
        accepted = line_search(func, x, f, g, d, step)
        steps.append((x, f, g, d, accepted))
        trial_steps.append(step)
        return accepted

    monkeypatch.setattr(optimize, "_wolfe_step", checked)
    calls = []
    converged, stop_reason = optimize._lbfgs(lambda x: calls.append(1) or func(x), x0, memory)
    assert converged, stop_reason
    assert len(steps) > 5
    for x, f, g, d, (x_new, f_new, g_new) in steps:
        alpha = float((x_new - x) @ d / (d @ d))
        np.testing.assert_allclose(x_new, x + alpha * d, rtol=1e-12, atol=1e-15)
        assert f_new <= f + optimize._WOLFE_C1 * alpha * (g @ d)
        assert abs(g_new @ d) <= optimize._WOLFE_C2 * abs(g @ d)
    assert func(x_new)[0] <= 1e-12
    np.testing.assert_allclose(x_new, minimizer, atol=1e-5)
    return steps, trial_steps, len(calls)


@pytest.mark.parametrize("build", [_quadratic, _rosenbrock], ids=["quadratic", "rosenbrock"])
def test_lbfgs_steps_meet_strong_wolfe(monkeypatch, build):
    """Every accepted step meets the strong Wolfe conditions, and the search
    reaches the minimizer in at most twice scipy L-BFGS-B's evaluations.
    The first trial step is min(1, 1/||g||), every later one 1."""
    from scipy.optimize import minimize

    func, x0, minimizer = build()
    steps, trial_steps, evaluations = _checked_wolfe_run(monkeypatch, func, x0, minimizer)
    g0 = steps[0][2]
    assert trial_steps == [min(1.0, 1.0 / float(np.sqrt(g0 @ g0)))] + [1.0] * (len(steps) - 1)
    reference = minimize(func, x0, jac=True, method="L-BFGS-B",
                         options={"ftol": optimize._LBFGS_FTOL, "gtol": optimize._LBFGS_GTOL})
    assert evaluations <= 2 * reference.nfev


def test_steepest_descent_steps_meet_strong_wolfe(monkeypatch):
    """With no pair kept (memory 0) every direction is -g, and every accepted
    step meets the strong Wolfe conditions.  The first trial step is
    min(1, 1/||g||); each later one is Nocedal and Wright's eq. 3.60,
    g_{k-1}.s_{k-1} / g_k.d_k, the last step's slope carried over."""
    func, x0, minimizer = _quadratic(log10_condition=1)
    steps, trial_steps, _ = _checked_wolfe_run(monkeypatch, func, x0, minimizer, 0)
    g0 = steps[0][2]
    expected = [min(1.0, 1.0 / float(np.sqrt(g0 @ g0)))]
    for (x, _, g, _, (x_new, _, _)), (_, _, g_next, d_next, _) in zip(steps, steps[1:]):
        expected.append(float(g @ (x_new - x)) / float(g_next @ d_next))
    assert trial_steps == expected
    for _, _, g, d, _ in steps:
        np.testing.assert_array_equal(d, -g)


def test_gradient_descent_steps_along_the_negative_gradient(monkeypatch):
    """Gradient descent is the L-BFGS loop keeping no pair: every line
    search runs along -g."""
    directions = []
    line_search = optimize._wolfe_step

    def recorded(func, x, f, g, d, step):
        directions.append((g, d))
        return line_search(func, x, f, g, d, step)

    monkeypatch.setattr(optimize, "_wolfe_step", recorded)
    assert minimize_gradient_descent(_tiny_problem()).stop_reason == "tolerance"
    assert len(directions) > 5
    for g, d in directions:
        np.testing.assert_array_equal(d, -g)


def test_lbfgs_keeps_no_pair_without_positive_curvature(monkeypatch):
    """A step that leaves the gradient unchanged (s.y = 0) is not kept: the
    next direction is steepest descent again, with the first-step length."""
    calls = []

    def flat_step(func, x, f, g, d, step):
        calls.append((g, d, step))
        return (x + step * d, f - 1.0, g.copy()) if len(calls) == 1 else None

    monkeypatch.setattr(optimize, "_wolfe_step", flat_step)
    assert optimize._lbfgs(lambda x: (float(x @ x), 2.0 * x), np.array([3.0, -4.0])) == (
        False, "line_search")
    (g0, d0, step0), (g1, d1, step1) = calls
    np.testing.assert_array_equal(d1, -g1)
    assert step0 == step1 == 0.1  # 1 / ||(6, -8)||


def test_line_search_refuses_a_direction_without_descent():
    """Along an ascent or a level direction no step is acceptable; the line
    search says so without spending an evaluation."""
    calls = []

    def func(x):
        calls.append(1)
        return float(x @ x), 2.0 * x

    x = np.array([1.0, 2.0])
    f, g = float(x @ x), 2.0 * x
    for d in (g, np.array([2.0, -1.0])):
        assert optimize._wolfe_step(func, x, f, g, d, 1.0) is None
    assert calls == []


def _scripted_line(respond):
    """A line search along d = [1] from x = [0] with phi(0) = 0 and phi'(0) =
    -1: func answers the k-th trial step a with respond(k, a) = (phi,
    phi') and records a.  Returns (func, trial steps, (x, f, g, d))."""
    steps = []

    def func(x):
        steps.append(float(x[0]))
        fa, da = respond(len(steps) - 1, steps[-1])
        return fa, np.array([da])

    return func, steps, (np.zeros(1), 0.0, -np.ones(1), np.ones(1))


def _wolfe_oracle(func, x, f, g, d, step):
    return two_phase_wolfe_step(func, x, f, g, d, step, optimize._WOLFE_C1,
                                optimize._WOLFE_C2, optimize._WOLFE_TRIALS,
                                optimize._cubic_step)


def _same_line_search(respond, step):
    """Run `_wolfe_step` and the two-phase oracle on one scripted line;
    assert the same trial steps and the same result, bit for bit."""
    runs = []
    for line_search in (optimize._wolfe_step, _wolfe_oracle):
        func, steps, (x, f, g, d) = _scripted_line(respond)
        runs.append((steps, line_search(func, x, f, g, d, step)))
    (steps, got), (expected_steps, expected) = runs
    assert np.array(steps).tobytes() == np.array(expected_steps).tobytes()
    assert (got is None) == (expected is None)
    if got is not None:
        for part, reference in zip(got, expected):
            assert np.asarray(part).tobytes() == np.asarray(reference).tobytes()
    return steps, got


def test_line_search_refuses_a_step_without_sufficient_decrease():
    """A trial below lo's value but above the sufficient-decrease line is not
    accepted, however flat it is there; it becomes the interval's new end,
    and the next trial lies below it."""
    def respond(k, a):
        # The first trial brackets; then a flat point above the line
        # phi(0) + c1 a phi'(0) = -1e-4 a, then a steep drop.
        return [(1.0, 2.0), (-0.5e-4 * a, 0.0), (-0.5 * a, 0.0)][k]

    steps, (xa, fa, _) = _same_line_search(respond, 1.0)
    assert len(steps) == 3 and steps[0] == 1.0
    assert (xa[0], fa) == (steps[2], -0.5 * steps[2])
    assert steps[2] < steps[1] < steps[0]


def test_line_search_ends_when_the_interval_is_one_step():
    """A first trial of 5e-324 fails sufficient decrease, so the interval is
    [0, 5e-324], whose bisection rounds back onto 0.  That trial is no lower
    than phi(0) and becomes hi, so the interval is the single step 0: the
    search returns None there, before `_cubic_step` divides by its width."""
    steps, result = _same_line_search(lambda k, a: (float(a > 0.0), -1.0), 5e-324)
    assert result is None
    assert steps == [5e-324, 0.0]


def _random_respond(seed):
    """respond(k, a) for `_scripted_line`, drawn per trial from a seeded table:
    phi above or below the sufficient-decrease line, or NaN; phi' steeply
    negative, within the curvature bound, positive, or NaN."""
    table = np.random.default_rng(seed).random((optimize._WOLFE_TRIALS, 4))

    def respond(k, a):
        u_kind, u_f, v_kind, v_d = table[k]
        if u_kind < 0.1:
            fa = np.nan
        elif u_kind < 0.5:
            fa = -1e-4 * a + u_f  # above the line
        else:
            fa = -(0.5 + u_f) * a  # below it
        if v_kind < 0.1:
            da = np.nan
        elif v_kind < 0.5:
            da = -1.0 - v_d  # too steep for the curvature bound
        elif v_kind < 0.65:
            da = -0.9 * v_d  # within it
        else:
            da = 3.0 * v_d + 1e-3  # positive
        return fa, da
    return respond


def test_line_search_doubles_until_the_trials_run_out():
    """Sufficient decrease holds at every trial but the slope stays too
    steep: the step doubles _WOLFE_TRIALS times and the search gives up."""
    steps, result = _same_line_search(lambda k, a: (-a, -2.0), 1.0)
    assert result is None
    assert steps == [2.0**k for k in range(optimize._WOLFE_TRIALS)]


def test_line_search_brackets_on_a_positive_slope():
    """On phi(a) = a (a - 2) / 2 a first trial of 1.95 meets sufficient
    decrease, but its slope, 0.95, rises past the curvature bound: it
    brackets the step from above, and the cubic through [0, 1.95] lands on
    the minimizer, 1, where the slope is 0."""
    steps, result = _same_line_search(lambda k, a: (a * (a - 2.0) / 2.0, a - 1.0), 1.95)
    assert steps == [1.95, pytest.approx(1.0, abs=1e-12)]
    assert result[0][0] == steps[1]


@pytest.mark.parametrize("respond", [
    lambda k, a: (np.nan, np.nan),
    lambda k, a: (-a, np.nan),
    lambda k, a: (np.nan, -0.5) if k == 0 else (-0.5 * a, -0.5),
    lambda k, a: (a**3 / 3.0 - a, a * a - 1.0),
], ids=["nan", "nan_slope", "nan_then_finite", "cubic"])
def test_line_search_is_the_two_phase_search_on_scripted_lines(respond):
    _same_line_search(respond, 8.0)


def test_line_search_never_refuses_the_first_trial_for_its_level():
    """At a first trial of 5e-324, a c1 phi'(0) rounds to -0, so phi(a) = phi(0)
    meets sufficient decrease.  Nocedal and Wright's i = 0 exception keeps
    it from being refused for not lying below phi(0), and its slope is
    within the curvature bound, so it is accepted."""
    steps, result = _same_line_search(lambda k, a: (0.0, -0.5), 5e-324)
    assert steps == [5e-324] and result[0][0] == 5e-324


def test_line_search_is_the_two_phase_search_on_random_lines():
    """On 300 seeded lines the one loop makes the two-phase search's trials
    and returns its result; some lines accept a step and some run out."""
    outcomes = set()
    for seed in range(300):
        step = float(np.random.default_rng(seed).choice([1e-3, 0.5, 1.0, 8.0]))
        steps, result = _same_line_search(_random_respond(seed), step)
        outcomes.add("accepted" if result is not None
                     else "exhausted" if len(steps) == optimize._WOLFE_TRIALS else "refused")
    assert {"accepted", "exhausted"} <= outcomes


def test_lbfgs_stops_stationary_at_symmetric_origin():
    zero = MtsfmParameters(alpha=np.zeros(2), beta=np.zeros(2), duration_s=1.0)
    result = minimize_lbfgs(dataclasses.replace(_tiny_problem(), initial=zero))
    assert (result.stop_reason, result.converged, result.evaluations_used) == (
        "stationary", True, 1)


_GRADIENT_METHODS = [minimize_gradient_descent, minimize_lbfgs]


@pytest.mark.parametrize("minimize", _GRADIENT_METHODS)
def test_gradient_methods_stop_on_tolerance(minimize):
    result = minimize(_tiny_problem())
    assert (result.stop_reason, result.converged) == ("tolerance", True)
    assert result.evaluations_used < 4000


@pytest.mark.parametrize("f, g", [
    (lambda x: 1.0, np.ones),
    (lambda x: -float(np.sum(x)), lambda n: -np.ones(n)),
], ids=["flat", "linear"])
@pytest.mark.parametrize("minimize", _GRADIENT_METHODS)
def test_gradient_methods_stop_on_line_search(monkeypatch, minimize, f, g):
    """The first line search spends all its trials and the run ends there,
    not converged.  On a flat objective with a nonzero gradient no trial
    decreases f.  On a linear one, f = -sum(x) with gradient -1, f falls
    without end along -g: every trial meets sufficient decrease but never
    the curvature condition, so the step doubles and brackets nothing."""
    monkeypatch.setattr(optimize._Workspace, "evaluate",
                        lambda self, x, problem, gradient=False:
                        (f(x), problem.bandwidth_target_hz, g(x.size)))
    result = minimize(_tiny_problem())
    assert (result.stop_reason, result.converged) == ("line_search", False)
    assert result.evaluations_used == 1 + optimize._WOLFE_TRIALS


def test_gradient_descent_stops_stationary_at_symmetric_origin():
    zero = MtsfmParameters(alpha=np.zeros(2), beta=np.zeros(2), duration_s=1.0)
    result = minimize_gradient_descent(dataclasses.replace(_tiny_problem(), initial=zero))
    assert result.stop_reason == "stationary"
    assert result.evaluations_used == 1


@pytest.mark.parametrize("minimize", [minimize_nelder_mead, minimize_gradient_descent,
                                      minimize_lbfgs])
def test_search_evaluates_once_per_counted_evaluation(monkeypatch, minimize):
    """The search reads feasibility from its record, so the objective runs
    exactly evaluations_used times, whether the budget ends the run or not."""
    calls = []
    evaluate = optimize._Workspace.evaluate
    monkeypatch.setattr(optimize._Workspace, "evaluate",
                        lambda *args: calls.append(1) or evaluate(*args))
    for budget in (6, 4000):
        calls.clear()
        result = minimize(_tiny_problem(budget=budget))
        assert len(calls) == result.evaluations_used
    assert result.stop_reason != "budget"


@pytest.mark.parametrize("minimize", _GRADIENT_METHODS)
def test_gradient_methods_at_budget_1_return_the_start(minimize):
    """One evaluation buys the start and nothing more: both methods return it,
    unconverged, with stop reason "budget"."""
    problem = _tiny_problem(budget=1)
    result = minimize(problem)
    assert (result.stop_reason, result.converged, result.evaluations_used) == ("budget", False, 1)
    assert len(result.trace) == 1
    assert result.final_objective_db == result.initial_objective_db
    assert np.array_equal(optimize.params_to_vector(result.final),
                          optimize.params_to_vector(problem.initial))


@pytest.mark.parametrize("budget", [1, 4])
def test_nelder_mead_budget_inside_the_simplex_returns_the_best_vertex(budget):
    """The budget is a cap for Nelder-Mead too: a budget below dim + 1 = 5
    ends inside the initial simplex, unconverged, with stop reason "budget"
    and the best of the vertices it evaluated as its design."""
    problem = _tiny_problem(budget=budget)
    result = minimize_nelder_mead(problem)
    assert (result.stop_reason, result.converged, result.evaluations_used) == \
        ("budget", False, budget)
    vertices = optimize._initial_simplex(params_to_vector(problem.initial),
                                         problem.seed)[:budget]
    values = [evaluate_objective(vector_to_params(v, 1.0), problem) for v in vertices]
    best = int(np.argmin(values))
    assert np.array_equal(params_to_vector(result.final), vertices[best])
    assert result.final_objective_db == objective_db(values[best], "isl")


def test_gradient_descent_improves_and_stays_monotone():
    result = minimize_gradient_descent(_tiny_problem())
    values = [f for _, f in result.trace]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert result.final_objective_db < result.initial_objective_db - 3.0


def test_lbfgs_improves():
    result = minimize_lbfgs(_tiny_problem())
    assert result.final_objective_db < result.initial_objective_db - 5.0


def test_gradient_descent_tracks_nelder_mead_on_tiny_problem():
    nm = minimize_nelder_mead(_tiny_problem())
    gd = minimize_gradient_descent(_tiny_problem())
    assert abs(nm.final_objective_db - gd.final_objective_db) <= 3.0


def test_optimize_waveform_dispatch():
    problem = _tiny_problem(budget=600)
    via = optimize_waveform(problem, method="nelder_mead")
    direct = minimize_nelder_mead(problem)
    assert via.trace == direct.trace
    assert optimize_waveform(problem, method="gradient_descent").trace \
        == minimize_gradient_descent(problem).trace
    with pytest.raises(InvalidInputError):
        optimize_waveform(problem, method="annealing")


def test_optimized_waveforms_keep_constant_amplitude():
    result = minimize_nelder_mead(_tiny_problem())
    sig = synth_mtsfm(result.final, 256.0)
    radius = np.abs(sig.samples) * np.sqrt(sig.num_samples)
    np.testing.assert_allclose(radius, 1.0, atol=1e-12)
    assert sig.energy() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.slow
def test_nelder_mead_large_problem_improves_10_db(big_runs):
    result = big_runs["nm"]
    gain = result.initial_objective_db - result.final_objective_db
    assert gain >= 10.0
    assert result.evaluations_used <= big_runs["problem"].budget


@pytest.mark.slow
def test_gradient_descent_within_3_db_of_nelder_mead(big_runs):
    gap = abs(big_runs["nm"].final_objective_db
              - big_runs["gd"].final_objective_db)
    assert gap <= 3.0


# ------------------------------------------------------------ initial guesses

def test_default_initial_parameters_sweep_the_requested_band():
    params = default_initial_parameters(256.0, 1.0, 32, seed=99)
    assert params.num_harmonics == 32
    assert params.beta[0] == pytest.approx(128.0, abs=0.1)
    assert swept_bandwidth(params) == pytest.approx(256.0, rel=0.05)
    again = default_initial_parameters(256.0, 1.0, 32, seed=99)
    np.testing.assert_array_equal(np.asarray(params.alpha),
                                  np.asarray(again.alpha))


def test_nlfm_initial_parameters_shape_the_sidelobes():
    nlfm = nlfm_initial_parameters(256.0, 1.0, 32, 2048.0)
    assert swept_bandwidth(nlfm) == pytest.approx(256.0, rel=0.05)
    region = wk.default_region(256.0, 1.0)
    nlfm_psl = wk.psl_region(
        wk.autocorrelation(synth_mtsfm(nlfm, 2048.0)), region)
    default_psl = wk.psl_region(
        wk.autocorrelation(
            synth_mtsfm(default_initial_parameters(256.0, 1.0, 32, seed=99),
                        2048.0)), region)
    assert nlfm_psl < default_psl - 10.0


@pytest.mark.parametrize("m", [2, 3, 16, 100, 511, 512, 1024, 2048, 4096, 8192, 8193])
def test_taylor_window_is_bitwise_scipy(m):
    from scipy.signal.windows import taylor
    for nbar in (2, 4, 10, 20):
        for sll in (20, 30, 45, 60, 100):
            expected = taylor(m, nbar=nbar, sll=sll, norm=False).astype(float)
            assert np.array_equal(_taylor_window(m, nbar, sll), expected), (nbar, sll)


@pytest.mark.parametrize("k, sll, nbar", [(32, 45.0, 10), (8, 30.0, 4), (64, 60.0, 20)])
def test_nlfm_start_is_bitwise_the_scipy_window_start(monkeypatch, k, sll, nbar):
    from scipy.signal.windows import taylor
    ours = nlfm_initial_parameters(256.0, 1.0, k, 2048.0, sidelobe_db=sll, nbar=nbar)
    monkeypatch.setattr(optimize, "_taylor_window",
                        lambda m, nbar, sll: taylor(m, nbar=nbar, sll=sll, norm=False))
    theirs = nlfm_initial_parameters(256.0, 1.0, k, 2048.0, sidelobe_db=sll, nbar=nbar)
    assert np.array_equal(ours.alpha, theirs.alpha)
    assert np.array_equal(ours.beta, theirs.beta)


def test_nlfm_nbar_cap_is_the_largest_taylor_table_within_the_sample_cap(monkeypatch):
    """nbar = 8193 makes 8192 x 8192 = 2^26 cells, the sample cap, and reaches
    the Taylor work; one more is refused before it."""
    from wavekit.signal import _MAX_SAMPLES

    class Reached(Exception):
        pass

    started = []

    def record(m, nbar, sll):
        started.append(nbar)
        raise Reached  # in place of the 8193^2-step Taylor work

    monkeypatch.setattr(optimize, "_taylor_window", record)
    with pytest.raises(Reached):
        nlfm_initial_parameters(64.0, 1.0, 4, 512.0, nbar=8193)
    assert started == [8193] and optimize._TAYLOR_POINTS * 8192 == _MAX_SAMPLES
    with pytest.raises(InvalidInputError, match="^nbar must be <= 8193$"):
        nlfm_initial_parameters(64.0, 1.0, 4, 512.0, nbar=8194)
    assert started == [8193]


def test_nelder_mead_simplex_above_the_cap_is_refused():
    """K = 4100 gives a simplex of 8201 x 8200 cells, past 2^26: refused before
    it is built, naming num_harmonics.  The start and its workspace are small."""
    initial = default_initial_parameters(16.0, 1.0, 4100, seed=7)
    problem = OptimizationProblem(
        initial=initial, region=wk.default_region(16.0, 1.0), objective="isl",
        bandwidth_target_hz=4.0, bandwidth_tolerance=0.4, penalty_weight=1.0,
        budget=10, seed=3, sample_rate_hz=64.0)
    with pytest.raises(InvalidInputError, match="^num_harmonics asks for 6.72482e\\+07 "
                       "samples, above the cap of 67108864$"):
        minimize_nelder_mead(problem)


def test_result_to_dict_keys():
    result = minimize_nelder_mead(_tiny_problem(budget=600))
    d = result.to_dict()
    assert set(d) == {"initial_objective_db", "final_objective_db",
                      "converged", "evaluations_used", "stop_reason",
                      "num_harmonics", "duration_s"}
    assert d["num_harmonics"] == 2
    assert d["duration_s"] == 1.0
