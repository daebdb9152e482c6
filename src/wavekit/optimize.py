"""Region-constrained sidelobe minimization over MTSFM coefficients.

The optimizer adjusts the 2K phase coefficients of an MTSFM design to
minimize a sidelobe metric (linear-scale ISL, or a log-sum-exp softened
PSL) over a delay region, with a smooth quadratic penalty holding the
RMS bandwidth near a target.  All candidate waveforms are constant
amplitude by construction, so the search never leaves the feasible
amplitude class.

Three minimizers run under one search contract: a seeded Nelder-Mead
simplex, a steepest-descent/backtracking scheme, and an L-BFGS
quasi-Newton refinement.  Each supplies only its search loop.  The
contract counts every objective or objective-plus-gradient call as one
evaluation, checks the budget before computing anything, keeps the
best-so-far design and its trace, and assembles the result; exhausting
the budget returns the best design found so far with converged=False
and stop_reason "budget".  The two gradient methods use the analytic
gradient, computed in the same call as the objective value (the chain
rule through s[n] = exp(j phi[n])/sqrt(N) onto the cos/sin basis).  The
objective reads only the region lags and lag 0 of the autocorrelation.

The tapered NLFM start shapes its spectrum with a Taylor window,
evaluated here in numpy by the closed form of Carrara, Goodman and
Majewski (1995, as cited by scipy's `taylor` window), bitwise equal to
scipy's.  scipy itself is imported only by the two minimizers that
call scipy.optimize.minimize.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError
from .metrics import RegionSpec, _region_mask, _rms_width
from .signal import _next_pow2
from .waveforms import MtsfmParameters, _harmonic_basis, _sample_grid, _unit_modulus

_OBJECTIVES = ("isl", "psl")
_PSL_SHARPNESS = 50.0
_GD_INITIAL_STEP = 0.5
_GD_SHRINK = 0.5
_GD_GROW = 1.3
_GD_ARMIJO_C = 1e-4
_GD_MAX_BACKTRACKS = 30


@dataclass(frozen=True)
class OptimizationProblem:
    """A sidelobe-minimization problem over MTSFM coefficients.

    Attributes:
        initial: starting design (defines K and T).
        region: sidelobe delay region for the metric.
        objective: "isl" or "psl".
        bandwidth_target_hz: RMS-bandwidth target for the penalty.
        bandwidth_tolerance: fractional dead band of the penalty, in (0, 0.5).
        penalty_weight: weight of the quadratic bandwidth penalty.
        budget: maximum number of objective evaluations.
        seed: seed for all optimizer randomness (initial simplex).
        sample_rate_hz: synthesis rate used for every candidate.
    """

    initial: MtsfmParameters
    region: RegionSpec
    objective: str
    bandwidth_target_hz: float
    bandwidth_tolerance: float
    penalty_weight: float
    budget: int
    seed: int
    sample_rate_hz: float

    def __post_init__(self):
        if self.objective not in _OBJECTIVES:
            raise InvalidInputError(f"objective must be one of {_OBJECTIVES}")
        if not 0.0 < self.bandwidth_target_hz < np.inf:
            raise InvalidInputError("bandwidth_target_hz must be positive and finite")
        if not 0.0 < self.bandwidth_tolerance < 0.5:
            raise InvalidInputError("bandwidth_tolerance must lie in (0, 0.5)")
        if not 0.0 < self.penalty_weight < np.inf:
            raise InvalidInputError("penalty_weight must be positive and finite")
        if self.budget < 1:
            raise InvalidInputError("budget must be >= 1")
        if self.seed < 0:
            raise InvalidInputError("seed must be >= 0")
        if not 0.0 < self.sample_rate_hz < np.inf:
            raise InvalidInputError("sample_rate_hz must be positive and finite")
        if self.region.outer_delay_s > self.initial.duration_s:
            raise InvalidInputError("region outer delay exceeds the waveform duration")


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a minimization run.

    initial/final_objective_db are dB conversions of the penalized
    objective (10*log10 for ISL, 20*log10 for the PSL soft-max); the
    trace holds (evaluation index, objective value) pairs at each
    best-so-far improvement, so it is nonincreasing by construction.
    stop_reason says why the search ended: "budget" (evaluations
    exhausted), "tolerance" (the change in f or in the simplex fell
    below the minimizer's tolerance), "stationary" (the gradient
    vanished) or "line_search" (no step along the search direction
    reduced f).
    """

    final: MtsfmParameters
    initial_objective_db: float
    final_objective_db: float
    trace: tuple
    converged: bool
    evaluations_used: int
    stop_reason: str

    def to_dict(self) -> dict:
        return {
            "initial_objective_db": self.initial_objective_db,
            "final_objective_db": self.final_objective_db,
            "converged": self.converged,
            "evaluations_used": self.evaluations_used,
            "stop_reason": self.stop_reason,
            "num_harmonics": self.final.num_harmonics,
            "duration_s": self.final.duration_s,
        }


class _Workspace:
    """Precomputed synthesis/analysis machinery for one problem geometry.

    Caches the harmonic basis, FFT size, region lag bins and frequency
    grid so a single objective evaluation costs one FFT pair: the
    forward transform of the samples feeds both the autocorrelation and
    the RMS bandwidth.  The analytic gradient adds one more FFT pair and
    two N x K products to that same evaluation.
    """

    def __init__(self, num_harmonics: int, duration_s: float, sample_rate_hz: float,
                 region: RegionSpec):
        n, self.duration_s, t = _sample_grid(duration_s, sample_rate_hz)
        self.num_samples = n
        self.sample_rate_hz = sample_rate_hz
        self.num_harmonics = num_harmonics
        self.cos_basis, self.sin_basis = _harmonic_basis(t, num_harmonics, self.duration_s)
        self.nfft = _next_pow2(2 * n)
        lags = np.arange(-(n - 1), n)
        in_region = _region_mask(region, lags / sample_rate_hz)
        # Where each region lag sits in the circular (unshifted) FFT order.
        self.region_bins = lags[in_region] % self.nfft
        self.freqs = np.fft.fftshift(np.fft.fftfreq(self.nfft, d=1.0 / sample_rate_hz))

    def _forward(self, x: np.ndarray, problem: OptimizationProblem):
        """Objective value of x (region lags and lag 0 only) and what its gradient reuses."""
        k = self.num_harmonics
        samples = _unit_modulus(self.cos_basis @ x[:k] + self.sin_basis @ x[k:])
        spec = np.fft.fft(samples, self.nfft)
        power = np.abs(np.fft.fftshift(spec)) ** 2
        bw = _rms_width(self.freqs, power)
        circular = np.fft.ifft(spec * np.conj(spec))
        region, lag0 = circular[self.region_bins], circular[0]
        mag = np.abs(region) / np.abs(lag0)
        if problem.objective == "isl":
            metric = float(np.sum(mag**2)) / self.sample_rate_hz
            dmetric = 2.0 * mag / self.sample_rate_hz
        else:
            peak = mag.max()
            soft = np.exp(_PSL_SHARPNESS * (mag - peak))
            total = np.sum(soft)
            metric = peak + float(np.log(total)) / _PSL_SHARPNESS
            dmetric = soft / total
        target = problem.bandwidth_target_hz
        excess = max(0.0, abs(bw - target) / target - problem.bandwidth_tolerance)
        value = metric + problem.penalty_weight * excess * excess
        return value, bw, (samples, spec, power, region, lag0, dmetric, excess)

    def objective_and_gradient(self, x: np.ndarray, problem: OptimizationProblem):
        """Objective value (bitwise equal to _forward's) and its analytic gradient.

        The objective is a function of the power spectrum P = |S|^2 of the
        samples s[n] = exp(j phi[n])/sqrt(N).  Its derivative h = df/dP
        gathers the region metric, carried back from the lag domain by one
        FFT, and the bandwidth penalty.  Then df/dphi[n] = 2 Im(conj(s[n])
        * ifft(S * M h)[n]) with M the FFT length, and the chain rule
        through phi = C alpha + S beta projects it onto the coefficients.
        """
        value, bw, (samples, spec, power, region, lag0, dmetric, excess) = self._forward(
            x, problem)
        n, m = self.num_samples, self.nfft
        # 2 df/d conj(R[k]) on the region, R normalized by its lag-0 value,
        # which unit-modulus synthesis holds fixed.
        radius = np.abs(region)
        lag_weight = np.zeros(m, dtype=complex)
        lag_weight[self.region_bins] = np.divide(
            dmetric * region, radius * abs(lag0),
            out=np.zeros_like(region), where=radius > 0)
        spec_weight = np.fft.fft(lag_weight).real
        if excess > 0.0:
            # d penalty/dB = 2 w excess sign(B - target) / target, and
            # dB/dP = ((f - centroid)^2 - B^2) / (2 B sum P) on the shifted grid.
            target = problem.bandwidth_target_hz
            total = power.sum()
            centroid = (self.freqs * power).sum() / total
            scale = problem.penalty_weight * excess * np.sign(bw - target) / (target * bw * total)
            spec_weight += np.fft.ifftshift(m * scale * ((self.freqs - centroid) ** 2 - bw * bw))
        dphase = 2.0 * np.imag(np.conj(samples) * np.fft.ifft(spec * spec_weight)[:n])
        return value, np.concatenate([self.cos_basis.T @ dphase, self.sin_basis.T @ dphase])


# Bounded so a long-lived process that meets many geometries does not grow.
_workspace = lru_cache(maxsize=8)(_Workspace)


def _get_workspace(problem: OptimizationProblem) -> _Workspace:
    return _workspace(problem.initial.num_harmonics, float(problem.initial.duration_s),
                      float(problem.sample_rate_hz), problem.region)


def params_to_vector(params: MtsfmParameters) -> np.ndarray:
    """Stack [alpha, beta] into the 2K optimization vector."""
    return np.concatenate([params.alpha, params.beta])


def vector_to_params(x: np.ndarray, duration_s: float) -> MtsfmParameters:
    """Inverse of params_to_vector."""
    x = np.asarray(x, dtype=float)
    k = x.size // 2
    return MtsfmParameters(num_harmonics=k, alpha=x[:k], beta=x[k:],
                           duration_s=duration_s)


def evaluate_objective(params: MtsfmParameters, problem: OptimizationProblem) -> float:
    """Penalized sidelobe objective for one candidate design.

    objective = region metric (linear-scale ISL, or log-sum-exp softened
    PSL with sharpness 50) + penalty_weight * max(0, |B_rms - B_target|
    / B_target - tolerance)^2.  Deterministic: identical inputs give
    bitwise-identical outputs.
    """
    if params.num_harmonics != problem.initial.num_harmonics:
        raise InvalidInputError("params harmonic count differs from the problem's")
    return _get_workspace(problem)._forward(params_to_vector(params), problem)[0]


class _BudgetExhausted(Exception):
    pass


class _Search:
    """One minimizer run: workspace, start x0, budget, best-so-far trace, result.

    value and value_and_gradient each count one evaluation, checked
    against the budget before anything is computed.  run(loop) calls the
    minimizer's loop for (converged, stop_reason); an exhausted budget
    ends it with (False, "budget").
    """

    def __init__(self, problem: OptimizationProblem):
        self.problem = problem
        self.ws = _get_workspace(problem)
        self.x0 = params_to_vector(problem.initial)
        self.count = 0
        self.best_f = np.inf
        self.best_x = None
        self.trace: list[tuple[int, float]] = []

    def value(self, x: np.ndarray) -> float:
        self._spend()
        return self._track(x, self.ws._forward(np.asarray(x, dtype=float), self.problem)[0])

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        self._spend()
        f, grad = self.ws.objective_and_gradient(np.asarray(x, dtype=float), self.problem)
        return self._track(x, f), grad

    def _spend(self) -> None:
        if self.count >= self.problem.budget:
            raise _BudgetExhausted()
        self.count += 1

    def _track(self, x: np.ndarray, f: float) -> float:
        if f < self.best_f:
            self.best_f = f
            self.best_x = np.array(x, dtype=float, copy=True)
            self.trace.append((self.count, float(f)))
        return f

    def run(self, loop) -> OptimizationResult:
        try:
            converged, stop_reason = loop()
        except _BudgetExhausted:
            converged, stop_reason = False, "budget"
        problem, ws = self.problem, self.ws
        if self.best_x is None:
            self.best_x = self.x0
            self.best_f = ws._forward(self.x0, problem)[0]
            self.trace.append((0, float(self.best_f)))
        _, bw, _ = ws._forward(self.best_x, problem)
        feasible = (abs(bw - problem.bandwidth_target_hz) / problem.bandwidth_target_hz
                    <= problem.bandwidth_tolerance + 1e-6)
        return OptimizationResult(
            final=vector_to_params(self.best_x, ws.duration_s),
            initial_objective_db=objective_db(self.trace[0][1], problem.objective),
            final_objective_db=objective_db(self.best_f, problem.objective),
            trace=tuple(self.trace),
            converged=bool(converged and feasible),
            evaluations_used=self.count,
            stop_reason=stop_reason,
        )


def objective_db(value: float, objective: str) -> float:
    """dB form of an objective value: 10log10 for ISL, 20log10 for PSL."""
    scale = 10.0 if objective == "isl" else 20.0
    return float(scale * np.log10(max(value, 1e-30)))


def minimize_nelder_mead(problem: OptimizationProblem) -> OptimizationResult:
    """Seeded Nelder-Mead simplex search over the 2K coefficients.

    The initial simplex is the starting point plus per-axis steps with a
    small seeded jitter, so reruns with the same seed reproduce the
    trace exactly.  Stops when the simplex diameter falls below 1e-8 or
    the budget is exhausted (converged=False, best design returned).
    The stop reason is "tolerance" on scipy's success flag and "budget"
    otherwise.
    """
    from scipy.optimize import minimize

    search = _Search(problem)
    x0 = search.x0
    dim = x0.size
    if problem.budget < dim + 1:
        raise InvalidInputError("Nelder-Mead needs budget >= dimension + 1")
    rng = np.random.default_rng(problem.seed)
    steps = np.maximum(0.05 * np.abs(x0), 0.1)
    simplex = np.tile(x0, (dim + 1, 1))
    for i in range(dim):
        simplex[i + 1, i] += steps[i]
        simplex[i + 1] += 0.01 * steps[i] * rng.standard_normal(dim)

    def simplex_search():
        res = minimize(
            search.value, x0, method="Nelder-Mead",
            options={
                "initial_simplex": simplex,
                "xatol": 1e-8,
                "fatol": 1e-12,
                "maxiter": 10**9,
                "maxfev": 10**9,
                "adaptive": True,
            },
        )
        return bool(res.success), "tolerance" if res.success else "budget"

    return search.run(simplex_search)


def finite_difference_gradient(params: MtsfmParameters, problem: OptimizationProblem,
                               step: float) -> np.ndarray:
    """Central-difference gradient of evaluate_objective per coefficient.

    Two objective calls per coefficient.  The minimizers use the analytic
    gradient instead; this is the oracle it is tested against.
    """
    if step <= 0:
        raise InvalidInputError("step must be positive")
    ws = _get_workspace(problem)
    x = params_to_vector(params)
    grad = np.empty(x.size)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        grad[i] = (ws._forward(xp, problem)[0] - ws._forward(xm, problem)[0]) / (2.0 * step)
    return grad


def minimize_gradient_descent(problem: OptimizationProblem) -> OptimizationResult:
    """Steepest descent with Armijo backtracking line search.

    Every line-search trial is an objective-plus-gradient call, so an
    accepted trial already carries the next gradient and each iteration
    costs only its line-search evaluations against the budget.  The line
    search only ever accepts improvements, so the best-so-far trace is
    monotone by construction.  Stops "stationary" when the gradient norm
    falls below 1e-10 and "line_search" when no backtracked step
    satisfies the Armijo condition; both count as converged.
    """
    if problem.budget < 2:
        raise InvalidInputError("gradient descent needs budget >= 2")
    search = _Search(problem)

    def descend():
        x, step = search.x0, _GD_INITIAL_STEP
        f, grad = search.value_and_gradient(x)
        while True:
            gnorm_sq = float(grad @ grad)
            if np.sqrt(gnorm_sq) < 1e-10:
                return True, "stationary"
            alpha = step
            for _ in range(_GD_MAX_BACKTRACKS):
                trial = x - alpha * grad
                f_trial, grad_trial = search.value_and_gradient(trial)
                if f_trial <= f - _GD_ARMIJO_C * alpha * gnorm_sq:
                    x, f, grad = trial, f_trial, grad_trial
                    step = alpha * _GD_GROW
                    break
                alpha *= _GD_SHRINK
            else:
                return True, "line_search"  # no descent step representable

    return search.run(descend)


def _lbfgs_stop_reason(res) -> str:
    """Map L-BFGS-B's termination status and message onto a stop reason."""
    if res.status == 0:
        return "stationary" if "PROJECTED GRADIENT" in res.message else "tolerance"
    if res.status == 1:
        return "budget"  # scipy's own iteration/evaluation limits
    return "line_search"  # ABNORMAL/WARNING: the line search made no progress


def minimize_lbfgs(problem: OptimizationProblem) -> OptimizationResult:
    """L-BFGS quasi-Newton refinement on the analytic gradient.

    An extension beyond the two baseline minimizers: markedly faster on
    the ill-conditioned TBP-256 design problems.  Each function-and-
    gradient call scipy makes is one evaluation of the budget.  Same
    determinism and result contract as the other minimizers; the stop
    reason comes from L-BFGS-B's termination message.
    """
    from scipy.optimize import minimize

    search = _Search(problem)

    def quasi_newton():
        res = minimize(
            search.value_and_gradient, search.x0, jac=True, method="L-BFGS-B",
            options={"maxfun": 10**9, "maxiter": 10**9, "ftol": 1e-15, "gtol": 1e-12},
        )
        return bool(res.success), _lbfgs_stop_reason(res)

    return search.run(quasi_newton)


_MINIMIZERS = {
    "nelder_mead": minimize_nelder_mead,
    "gradient_descent": minimize_gradient_descent,
    "lbfgs": minimize_lbfgs,
}


def optimize_waveform(problem: OptimizationProblem,
                      method: str = "nelder_mead") -> OptimizationResult:
    """Dispatch to one of the minimizers by name."""
    if not isinstance(method, str) or method not in _MINIMIZERS:
        raise InvalidInputError(f"method must be one of {tuple(_MINIMIZERS)}")
    return _MINIMIZERS[method](problem)


def default_initial_parameters(bandwidth_hz: float, duration_s: float,
                               num_harmonics: int, seed: int) -> MtsfmParameters:
    """Full-bandwidth sinusoidal-FM start: beta_1 = B*T/2 plus seeded jitter.

    The all-zero design (a CW) has zero bandwidth and sits in a punishing
    penalty landscape, so optimization starts from a sweep instead.
    """
    rng = np.random.default_rng(seed)
    x = 0.01 * rng.standard_normal(2 * num_harmonics)
    x[num_harmonics] += bandwidth_hz * duration_s / 2.0
    return vector_to_params(x, duration_s)


def _taylor_window(m: int, nbar: int, sll: float) -> np.ndarray:
    """Symmetric, unnormalized m-point Taylor window, -sll dB sidelobes.

    Every floating-point operation is scipy's `taylor`, in scipy's order, so
    the window is bitwise equal to taylor(m, nbar, sll, norm=False); the
    NLFM start, and every design traced from it, depend on those bits.
    """
    # A 0-d array, as in scipy, so each ** 2 takes numpy's array path (a
    # multiply) as scipy's does, not a scalar pow().
    a2 = (np.arccosh(np.asarray(10 ** (sll / 20))) / np.pi) ** 2
    s2 = nbar**2 / (a2 + (nbar - 0.5) ** 2)
    ma = np.arange(1, nbar, dtype=np.float64)
    m2 = ma * ma
    fm = np.array([(-1) ** i * np.prod(1 - m2[i] / s2 / (a2 + (ma - 0.5) ** 2))
                   / (2 * np.prod(1 - m2[i] / m2[:i]) * np.prod(1 - m2[i] / m2[i + 1:]))
                   for i in range(nbar - 1)])
    n = np.arange(m, dtype=np.float64)
    return 1 + 2 * np.matmul(fm, np.cos(2 * np.pi * ma[:, np.newaxis] * (n - m / 2.0 + 0.5) / m))


def nlfm_initial_parameters(bandwidth_hz: float, duration_s: float,
                            num_harmonics: int, sample_rate_hz: float,
                            sidelobe_db: float = 45.0, nbar: int = 10) -> MtsfmParameters:
    """Tapered nonlinear-FM start via stationary-phase synthesis.

    Shapes the design spectrum like a Taylor window by assigning group
    delay proportional to the window's cumulative energy, integrates the
    resulting frequency law into a phase, and projects that phase onto
    the harmonic basis.  Starting here instead of at a plain linear
    sweep lands the sidelobe optimizer in a far better basin.
    """
    n, duration, t = _sample_grid(duration_s, sample_rate_hz)
    m = 8192
    window = _taylor_window(m, nbar, sidelobe_db)
    cum = np.cumsum(window)
    cum /= cum[-1]
    f_grid = np.linspace(-bandwidth_hz / 2.0, bandwidth_hz / 2.0, m)
    f_of_t = np.interp(t, cum * duration, f_grid)
    phase = 2.0 * np.pi * np.cumsum(f_of_t) / sample_rate_hz
    cos, sin = _harmonic_basis(t, num_harmonics, duration)
    alpha = (2.0 / n) * (cos.T @ phase)
    beta = (2.0 / n) * (sin.T @ phase)
    return MtsfmParameters(num_harmonics=num_harmonics, alpha=alpha, beta=beta,
                           duration_s=duration)
