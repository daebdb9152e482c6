"""The `design` workload: the TBP-256 sidelobe-optimized MTSFM problem.

B = 256 Hz, T = 1 s, fs = 2048 Hz (N = 2048), K = 32, tapered-NLFM start
(Taylor 45 dB, nbar = 10), region [2/B, T/4], ISL objective with the
start's RMS bandwidth (zero-pad factor 2) as target, tolerance 0.1,
weight 1.  L-BFGS runs at budget 20000; Nelder-Mead at budget 3000 is
seeded by the workload seed.

The end-to-end figure is the time L-BFGS takes to reach a fixed design
quality (best objective <= -48.0 dB), not the time of a fixed budget, so
a cheaper or better gradient shows as a gain rather than as a change in
evaluation cost.  The search path is deterministic, so a call with the
budget set to the evaluation that first reached the target reproduces
that prefix exactly; its wall time is the time to target.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import wavekit as wk
from harness import Checks, Tracer, sha256_bytes

BANDWIDTH_HZ, DURATION_S, SAMPLE_RATE_HZ, HARMONICS = 256.0, 1.0, 2048.0, 32
TARGET_DB = -48.0
LBFGS_BUDGET = 20000
NM_BUDGET = 3000
LBFGS_SEED = 12345
# Budgets tried, in order, to find the target evaluation.  The first is
# enough today; the search path is the same whichever budget finds it.
LOCATE_BUDGETS = (4096, LBFGS_BUDGET)


@dataclass(frozen=True)
class DesignInputs:
    region: wk.RegionSpec
    initial: wk.MtsfmParameters
    target_hz: float
    seed: int

    def problem(self, budget: int, seed: int = LBFGS_SEED) -> wk.OptimizationProblem:
        return wk.OptimizationProblem(
            initial=self.initial, region=self.region, objective="isl",
            bandwidth_target_hz=self.target_hz, bandwidth_tolerance=0.1,
            penalty_weight=1.0, budget=budget, seed=seed,
            sample_rate_hz=SAMPLE_RATE_HZ)


def make_inputs(seed: int, workdir=None) -> DesignInputs:
    region = wk.default_region(BANDWIDTH_HZ, DURATION_S)
    initial = wk.nlfm_initial_parameters(BANDWIDTH_HZ, DURATION_S, HARMONICS,
                                         SAMPLE_RATE_HZ, sidelobe_db=45.0, nbar=10)
    target = wk.rms_bandwidth(wk.spectrum(wk.synth_mtsfm(initial, SAMPLE_RATE_HZ), 2))
    return DesignInputs(region=region, initial=initial, target_hz=target, seed=seed)


def target_index(result: wk.OptimizationResult):
    """First evaluation whose best-so-far objective is <= TARGET_DB, or None."""
    for index, value in result.trace:
        if wk.objective_db(value, "isl") <= TARGET_DB:
            return index
    return None


def coefficient_digest(result: wk.OptimizationResult) -> str:
    x = np.concatenate([result.final.alpha, result.final.beta]).astype("<f8")
    return sha256_bytes(x.tobytes())


def check_result(checks: Checks, inputs: DesignInputs, problem, result, what: str) -> None:
    """Invariants every optimizer result must hold, computed independently."""
    samples = wk.synth_mtsfm(result.final, SAMPLE_RATE_HZ).samples
    energy = float(np.sum(np.abs(samples) ** 2))
    modulus = np.abs(samples) * np.sqrt(samples.size)
    checks.expect(abs(energy - 1.0) <= 1e-9, f"{what}: energy {energy!r} != 1")
    checks.expect(float(np.ptp(modulus)) <= 1e-9, f"{what}: modulus not constant")
    values = [v for _, v in result.trace]
    checks.expect(all(b <= a for a, b in zip(values, values[1:])),
                  f"{what}: trace increases")
    checks.expect(result.evaluations_used <= problem.budget,
                  f"{what}: {result.evaluations_used} evaluations > budget {problem.budget}")
    again = wk.objective_db(wk.evaluate_objective(result.final, problem), "isl")
    checks.expect(abs(again - result.final_objective_db) <= 1e-9,
                  f"{what}: evaluate_objective(final) {again} != reported "
                  f"{result.final_objective_db}")


def region_levels(inputs: DesignInputs, result) -> tuple[float, float]:
    """(ISL dB, PSL dB) of a design over the problem region."""
    report = wk.metrics_report(wk.synth_mtsfm(result.final, SAMPLE_RATE_HZ),
                               BANDWIDTH_HZ, region=inputs.region, zero_pad_factor=2)
    return report.isl_db, report.psl_db


class _Repeats:
    """Digests of one operation's repeats; any difference is a failure."""

    def __init__(self):
        self.digests: dict = {}

    def check(self, checks: Checks, name: str, digest: str) -> None:
        first = self.digests.setdefault(name, digest)
        checks.expect(first == digest, f"{name}: digest differs between repeats")


def _locate(inputs: DesignInputs, checks: Checks, tracer: Tracer, budgets):
    """Run L-BFGS until some budget reaches the target; returns (result, index)."""
    for budget in budgets:
        checks.start()
        problem = inputs.problem(budget)
        with tracer.op("op.design.lbfgs", f"budget={budget}"):
            with tracer.span("optimize.minimize_lbfgs", f"budget={budget}"):
                result = wk.minimize_lbfgs(problem)
        check_result(checks, inputs, problem, result, f"lbfgs budget {budget}")
        index = target_index(result)
        last = budget == budgets[-1]
        checks.expect(index is not None or not last,
                      f"lbfgs never reached {TARGET_DB} dB in {budget} evaluations")
        checks.finish()
        if index is not None or last:
            return result, index


def _to_target(inputs, checks, tracer, located, index, repeats) -> float:
    checks.start()
    problem = inputs.problem(index)
    with tracer.op("op.design.to_target"):
        start = time.perf_counter()
        with tracer.span("optimize.minimize_lbfgs", "to_target"):
            result = wk.minimize_lbfgs(problem)
        elapsed = time.perf_counter() - start
    check_result(checks, inputs, problem, result, "lbfgs to target")
    prefix = tuple(t for t in located.trace if t[0] <= index)
    checks.expect(result.trace == prefix, "lbfgs to target: trace is not the located prefix")
    checks.expect(target_index(result) == index, "lbfgs to target: target not reached")
    repeats.check(checks, "lbfgs to target", coefficient_digest(result))
    checks.finish()
    return elapsed


def _nelder_mead(inputs, checks, tracer, repeats):
    checks.start()
    problem = inputs.problem(NM_BUDGET, seed=inputs.seed)
    with tracer.op("op.design.nm"):
        start = time.perf_counter()
        with tracer.span("optimize.minimize_nelder_mead"):
            result = wk.minimize_nelder_mead(problem)
        elapsed = time.perf_counter() - start
    check_result(checks, inputs, problem, result, "nelder-mead")
    repeats.check(checks, "nelder-mead", coefficient_digest(result))
    checks.finish()
    return elapsed, result


class Session:
    """Untraced measurement: Nelder-Mead twice at set-up (its time and its
    repeatability), then one time-to-target call per operation."""

    parts = ("to_target",)
    min_operations = 5

    def __init__(self, inputs: DesignInputs, checks: Checks):
        self.inputs, self.checks, self.tracer = inputs, checks, Tracer(False)
        self.repeats = _Repeats()
        self.nm_s = [_nelder_mead(inputs, checks, self.tracer, self.repeats)[0]
                     for _ in range(2)]
        self.located, self.index = _locate(inputs, checks, self.tracer, LOCATE_BUDGETS)
        if self.index is None:
            raise RuntimeError(f"L-BFGS never reached {TARGET_DB} dB")

    def operation(self) -> dict:
        return {"to_target": _to_target(self.inputs, self.checks, self.tracer,
                                        self.located, self.index, self.repeats)}

    def record(self) -> dict:
        return {"nm_s": self.nm_s, "evals_to_target": self.index,
                "digests": self.repeats.digests}


def census(inputs: DesignInputs, checks: Checks, tracer: Tracer) -> tuple[dict, dict]:
    """One traced pass: the full-budget L-BFGS run, time to target, Nelder-Mead.

    Returns (per-layer metrics, sha256 digests of the final coefficients).
    """
    repeats = _Repeats()
    full, index = _locate(inputs, checks, tracer, (LBFGS_BUDGET,))
    lbfgs_s = tracer.durations("optimize.minimize_lbfgs", f"budget={LBFGS_BUDGET}")[0]
    isl, psl = region_levels(inputs, full)
    out = {
        "optimize.lbfgs_s": lbfgs_s,
        "optimize.lbfgs_evals": full.evaluations_used,
        "optimize.lbfgs_us_per_eval": lbfgs_s / full.evaluations_used * 1e6,
        # L-BFGS-B builds each gradient from 2K forward differences plus
        # the point itself: 2K+1 evaluations per function-and-gradient call.
        "optimize.lbfgs_grad_calls": full.evaluations_used / (2 * HARMONICS + 1),
        "optimize.final_isl_db": isl,
        "optimize.final_psl_db": psl,
    }
    if index is not None:
        out["optimize.time_to_target_s"] = _to_target(inputs, checks, tracer, full,
                                                      index, repeats)
        out["optimize.evals_to_target"] = index
        out["optimize.useful_eval_ratio"] = index / full.evaluations_used
    nm_s, nm = _nelder_mead(inputs, checks, tracer, repeats)
    out.update({
        "optimize.nm_s": nm_s,
        "optimize.nm_evals": nm.evaluations_used,
        "optimize.nm_us_per_eval": nm_s / nm.evaluations_used * 1e6,
        "optimize.nm_final_isl_db": region_levels(inputs, nm)[0],
    })
    return out, {"lbfgs_final": coefficient_digest(full), **repeats.digests}
