"""Region-constrained sidelobe minimization over MTSFM coefficients.

The optimizer adjusts the 2K phase coefficients of an MTSFM design to
minimize a sidelobe metric (linear-scale ISL, or a log-sum-exp softened
PSL) over a delay region, with a smooth quadratic penalty holding the
RMS bandwidth near a target.  All candidate waveforms are constant
amplitude by construction, so the search never leaves the feasible
amplitude class.

Three minimizers run under one search contract: a seeded Nelder-Mead
simplex (scipy's adaptive variant, ported to numpy), a steepest-descent/
backtracking scheme, and an L-BFGS quasi-Newton refinement.  Each
supplies only its search loop.  The contract counts every objective or
objective-plus-gradient call as one evaluation, checks the budget before
computing anything, keeps the best-so-far design, its bandwidth and its
trace, and assembles the result; exhausting the budget returns the best
design found so far with converged=False and stop_reason "budget".

One workspace method evaluates the objective, the RMS bandwidth and, for
the two gradient methods, the analytic gradient (the chain rule through
s[n] = exp(j phi[n])/sqrt(N) onto the cos/sin basis), and every public
evaluator first checks the design against the problem's grid.  The
objective reads only the region lags and lag 0 of the autocorrelation.
Its transforms are `signal._fft_length(2N)` points long, as
`spectrum(s, 2)`'s are, so both read one frequency grid.

The tapered NLFM start shapes its spectrum with a Taylor window,
evaluated here in numpy by the closed form of Carrara, Goodman and
Majewski (1995, as cited by scipy's `taylor` window), bitwise equal to
scipy's.  scipy itself is imported only by L-BFGS, which calls
scipy.optimize.minimize.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, check_number
from .metrics import RegionSpec, _region_mask, _rms_width
from .signal import DB_LIMIT, MAX_RATE_HZ, _fft_length
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
        check_number("bandwidth_target_hz", self.bandwidth_target_hz, positive=True)
        if not 0.0 < self.bandwidth_tolerance < 0.5:  # NaN fails
            raise InvalidInputError("bandwidth_tolerance must lie in (0, 0.5)")
        check_number("penalty_weight", self.penalty_weight, positive=True)
        check_number("budget", self.budget, integer=True, minimum=1)
        check_number("seed", self.seed, integer=True, minimum=0)
        check_number("sample_rate_hz", self.sample_rate_hz, positive=True, maximum=MAX_RATE_HZ)
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

    Caches the harmonic basis, FFT size (`_fft_length(2N)`, as in
    `spectrum(s, 2)`), region lag bins and frequency grid for `evaluate`,
    the one evaluator of the objective, its bandwidth and its gradient.
    """

    def __init__(self, num_harmonics: int, duration_s: float, sample_rate_hz: float,
                 region: RegionSpec):
        n, self.duration_s, t = _sample_grid(duration_s, sample_rate_hz)
        self.num_samples = n
        self.sample_rate_hz = sample_rate_hz
        self.num_harmonics = num_harmonics
        self.cos_basis, self.sin_basis = _harmonic_basis(t, num_harmonics, self.duration_s)
        self.nfft = _fft_length(2 * n)
        lags = np.arange(-(n - 1), n)
        in_region = _region_mask(region, lags / sample_rate_hz)
        # Where each region lag sits in the circular (unshifted) FFT order.
        self.region_bins = lags[in_region] % self.nfft
        self.freqs = np.fft.fftshift(np.fft.fftfreq(self.nfft, d=1.0 / sample_rate_hz))

    def evaluate(self, x: np.ndarray, problem: OptimizationProblem, gradient: bool = False):
        """(objective, RMS bandwidth, analytic gradient or None unless asked for) at x.

        One FFT pair gives the value and the bandwidth: the samples' forward
        transform feeds both, and only the region lags and lag 0 of the
        autocorrelation are read.  The gradient adds one FFT pair and two
        N x K products.  The objective is a function of the power spectrum
        P = |S|^2 of s[n] = exp(j phi[n])/sqrt(N).  Its derivative h = df/dP
        gathers the region metric, carried back from the lag domain by one
        FFT, and the bandwidth penalty.  Then df/dphi[n] = 2 Im(conj(s[n])
        * ifft(S * M h)[n]) with M the FFT length, and the chain rule
        through phi = C alpha + S beta projects it onto the coefficients.
        """
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
        if not gradient:
            return value, bw, None
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
            total = power.sum()
            centroid = (self.freqs * power).sum() / total
            scale = problem.penalty_weight * excess * np.sign(bw - target) / (target * bw * total)
            spec_weight += np.fft.ifftshift(m * scale * ((self.freqs - centroid) ** 2 - bw * bw))
        dphase = 2.0 * np.imag(np.conj(samples) * np.fft.ifft(spec * spec_weight)[:n])
        return value, bw, np.concatenate([self.cos_basis.T @ dphase, self.sin_basis.T @ dphase])


# Bounded so a long-lived process that meets many geometries does not grow.
_workspace = lru_cache(maxsize=8)(_Workspace)


def _checked_workspace(params: MtsfmParameters, problem: OptimizationProblem) -> _Workspace:
    """The problem's cached workspace, once params fits its grid: the same
    harmonic count, and a duration that snaps to the same sample count."""
    ws = _workspace(problem.initial.num_harmonics, float(problem.initial.duration_s),
                    float(problem.sample_rate_hz), problem.region)
    if params.num_harmonics != ws.num_harmonics:
        raise InvalidInputError("params harmonic count differs from the problem's")
    if int(round(problem.sample_rate_hz * params.duration_s)) != ws.num_samples:
        raise InvalidInputError("params duration_s gives another sample count than the problem's")
    return ws


def params_to_vector(params: MtsfmParameters) -> np.ndarray:
    """Stack [alpha, beta] into the 2K optimization vector."""
    return np.concatenate([params.alpha, params.beta])


def vector_to_params(x: np.ndarray, duration_s: float) -> MtsfmParameters:
    """Inverse of params_to_vector."""
    x = np.asarray(x, dtype=float)
    k = x.size // 2
    return MtsfmParameters(alpha=x[:k], beta=x[k:], duration_s=duration_s)


def evaluate_objective(params: MtsfmParameters, problem: OptimizationProblem) -> float:
    """Penalized sidelobe objective for one candidate design.

    objective = region metric (linear-scale ISL, or log-sum-exp softened
    PSL with sharpness 50) + penalty_weight * max(0, |B_rms - B_target|
    / B_target - tolerance)^2.  Deterministic: identical inputs give
    bitwise-identical outputs.
    """
    return _checked_workspace(params, problem).evaluate(params_to_vector(params), problem)[0]


class _BudgetExhausted(Exception):
    pass


class _Search:
    """One minimizer run: workspace, start x0, budget, best-so-far record, result.

    value and value_and_gradient go through `_evaluate`, which spends one
    evaluation (checked against the budget before anything is computed)
    and records the best value, design, bandwidth and trace.  run(loop)
    calls the minimizer's loop for (converged, stop_reason); an exhausted
    budget ends it with (False, "budget").
    """

    def __init__(self, problem: OptimizationProblem):
        self.problem = problem
        self.ws = _checked_workspace(problem.initial, problem)
        self.x0 = params_to_vector(problem.initial)
        self.count = 0
        self.best_f = np.inf
        self.best_x = self.best_bw = None
        self.trace: list[tuple[int, float]] = []

    def value(self, x: np.ndarray) -> float:
        return self._evaluate(x, False)[0]

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        return self._evaluate(x, True)

    def _evaluate(self, x: np.ndarray, gradient: bool):
        if self.count >= self.problem.budget:
            raise _BudgetExhausted()
        self.count += 1
        f, bw, grad = self.ws.evaluate(np.asarray(x, dtype=float), self.problem, gradient)
        if f < self.best_f:
            self.best_f, self.best_bw = f, bw
            self.best_x = np.array(x, dtype=float, copy=True)
            self.trace.append((self.count, float(f)))
        return f, grad

    def run(self, loop) -> OptimizationResult:
        try:
            converged, stop_reason = loop()
        except _BudgetExhausted:
            converged, stop_reason = False, "budget"
        problem, ws = self.problem, self.ws
        if self.best_x is None:
            self.best_x = self.x0
            self.best_f, self.best_bw, _ = ws.evaluate(self.x0, problem)
            self.trace.append((0, float(self.best_f)))
        feasible = (abs(self.best_bw - problem.bandwidth_target_hz) / problem.bandwidth_target_hz
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
    """dB form of a finite objective value: 10log10 for ISL, 20log10 for PSL."""
    scale = 10.0 if objective == "isl" else 20.0
    return float(scale * np.log10(max(check_number("value", value), 1e-30)))


def minimize_nelder_mead(problem: OptimizationProblem) -> OptimizationResult:
    """Seeded Nelder-Mead simplex search over the 2K coefficients.

    The initial simplex is the starting point plus per-axis steps with a
    small seeded jitter, so reruns with the same seed reproduce the
    trace exactly.  The search is scipy's adaptive Nelder-Mead, ported to
    numpy (see `_nelder_mead`).  It stops with stop_reason "tolerance"
    (converged) when the simplex spans at most 1e-8 in every coordinate
    and 1e-12 in f, and "budget" (converged=False, best design returned)
    when the evaluations run out first.
    """
    search = _Search(problem)
    if problem.budget < search.x0.size + 1:
        raise InvalidInputError("Nelder-Mead needs budget >= dimension + 1")
    simplex = _initial_simplex(search.x0, problem.seed)

    def simplex_search():
        _nelder_mead(search.value, simplex, xatol=1e-8, fatol=1e-12)
        return True, "tolerance"

    return search.run(simplex_search)


def _initial_simplex(x0: np.ndarray, seed: int) -> np.ndarray:
    """x0, then x0 stepped along each axis in turn, each step jittered by the seed."""
    dim = x0.size
    rng = np.random.default_rng(seed)
    steps = np.maximum(0.05 * np.abs(x0), 0.1)
    simplex = np.tile(x0, (dim + 1, 1))
    for i in range(dim):
        simplex[i + 1, i] += steps[i]
        simplex[i + 1] += 0.01 * steps[i] * rng.standard_normal(dim)
    return simplex


def _nelder_mead(func, initial_simplex: np.ndarray, xatol: float, fatol: float) -> None:
    """Adaptive Nelder-Mead on func from an (N+1, N) simplex.

    Operation for operation scipy 1.17.1's `_minimize_neldermead` with
    adaptive=True and no bounds, evaluation limit or callback: the Gao-Han
    coefficients, the same vertex updates and argsort/take ordering, and a
    copy of each vertex passed to func.  So it makes the same calls as
    scipy.optimize.minimize(method="Nelder-Mead") does, bit for bit.  It
    returns once the simplex is within xatol and fatol of its best vertex,
    tested before each iteration; func ends it otherwise by raising.
    """
    sim = np.array(initial_simplex, dtype=np.float64)
    n = sim.shape[1]
    dim = float(n)
    rho, chi, psi, sigma = 1, 1 + 2 / dim, 0.75 - 1 / (2 * dim), 1 - 1 / dim

    def f(x):
        return func(np.copy(x))

    fsim = np.full((n + 1,), np.inf, dtype=float)
    for k in range(n + 1):
        fsim[k] = f(sim[k])
    # scipy sorts twice here; an unstable argsort can reorder equal values.
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    while not (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
               and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = f(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            shrink = False
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:  # inside contraction
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)


def finite_difference_gradient(params: MtsfmParameters, problem: OptimizationProblem,
                               step: float) -> np.ndarray:
    """Central-difference gradient of evaluate_objective per coefficient.

    Two objective calls per coefficient.  The minimizers use the analytic
    gradient instead; this is the oracle it is tested against.
    """
    check_number("step", step, positive=True)
    ws = _checked_workspace(params, problem)
    x = params_to_vector(params)
    grad = np.empty(x.size)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        grad[i] = (ws.evaluate(xp, problem)[0] - ws.evaluate(xm, problem)[0]) / (2.0 * step)
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
    check_number("bandwidth_hz", bandwidth_hz, positive=True)
    check_number("num_harmonics", num_harmonics, integer=True, minimum=1)
    rng = np.random.default_rng(check_number("seed", seed, integer=True, minimum=0))
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
    sidelobe_db <= DB_LIMIT keeps the Taylor window's 10**(sll/20) finite.
    """
    check_number("bandwidth_hz", bandwidth_hz, positive=True)
    check_number("num_harmonics", num_harmonics, integer=True, minimum=1)
    check_number("sidelobe_db", sidelobe_db, positive=True, maximum=DB_LIMIT)
    check_number("nbar", nbar, integer=True, minimum=2)
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
    return MtsfmParameters(alpha=alpha, beta=beta, duration_s=duration)
