"""Optimizer objective, gradient, and search-loop checks.

The objective is re-derived here from scratch (explicit correlation sums
plus spectral moments) so the workspace FFT path is cross-checked, not
just exercised.
"""

import dataclasses
import types

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

from oracles import dirichlet_magnitude, full_length_mtsfm_objective, spectral_moment_rms


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
                       options={"initial_simplex": simplex, "xatol": 1e-8, "fatol": 1e-12,
                                "maxiter": 10**9, "maxfev": 10**9, "adaptive": True})
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


def _criterion_8_problem():
    """The seeded optimize run of acceptance criterion 8, as the CLI builds it."""
    initial = default_initial_parameters(64.0, 1.0, 4, seed=1)
    target = wk.rms_bandwidth(wk.spectrum(synth_mtsfm(initial, 512.0), 2))
    return OptimizationProblem(
        initial=initial, region=wk.default_region(64.0, 1.0), objective="isl",
        bandwidth_target_hz=target, bandwidth_tolerance=0.1, penalty_weight=1.0,
        budget=300, seed=1, sample_rate_hz=512.0)


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


_GTOL = optimize._LBFGS_GTOL


@pytest.mark.parametrize("status, message, jac, reason", [
    (0, "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL", [0.5 * _GTOL, -_GTOL], "stationary"),
    (0, "CONVERGENCE: NORM_OF_PROJECTED_GRADIENT_<=_PGTOL", [0.5 * _GTOL, -_GTOL], "stationary"),
    (0, "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH", [1e-6, 0.0], "tolerance"),
    (0, "CONVERGENCE: REL_REDUCTION_OF_F_<=_FACTR*EPSMCH", [0.0, -2.0 * _GTOL], "tolerance"),
    (1, "STOP: TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT", [0.0, 0.0], "budget"),
    (2, "ABNORMAL_TERMINATION_IN_LNSRCH", [1e-3, 0.0], "line_search"),
], ids=["pgtol", "pgtol_underscored", "factr", "factr_underscored", "limit", "abnormal"])
def test_lbfgs_stop_reason(status, message, jac, reason):
    """L-BFGS-B's status and final gradient, on stand-in results, map to each
    stop reason, whichever spelling of the message a scipy release uses."""
    res = types.SimpleNamespace(status=status, message=message, jac=np.array(jac))
    assert optimize._lbfgs_stop_reason(res) == reason


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


def test_gradient_descent_rejects_budget_1():
    with pytest.raises(InvalidInputError, match="budget >= 2"):
        minimize_gradient_descent(_tiny_problem(budget=1))


def test_nelder_mead_rejects_budget_below_simplex():
    with pytest.raises(InvalidInputError):
        minimize_nelder_mead(_tiny_problem(budget=4))  # dim + 1 = 5


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


def test_result_to_dict_keys():
    result = minimize_nelder_mead(_tiny_problem(budget=600))
    d = result.to_dict()
    assert set(d) == {"initial_objective_db", "final_objective_db",
                      "converged", "evaluations_used", "stop_reason",
                      "num_harmonics", "duration_s"}
    assert d["num_harmonics"] == 2
    assert d["duration_s"] == 1.0
