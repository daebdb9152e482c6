"""Shared fixtures: the TBP-256 reference design and the Costas baseline.

The expensive sidelobe-optimization run is computed once per session and
shared by the optimizer regression tests and the acceptance suite.
"""

import os
import pathlib

import numpy as np
import pytest

import wavekit as wk

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict:
    """os.environ with src/ first on PYTHONPATH, so a child interpreter
    imports this checkout's wavekit, as the suite does."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


# One-line verdicts appended by the acceptance tests and echoed after
# the run summary, so each numbered criterion's outcome is readable in
# the plain pytest output even when the test body passes.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def tbp256():
    """The TBP-256 sidelobe-optimized MTSFM design (K=32, ISL objective).

    Tapered-NLFM start refined by L-BFGS on the analytic gradient under
    a 20k evaluation budget.  It stops by its own tolerance test after
    about 540 evaluations (under half a second); it runs once per session.
    """
    bandwidth, duration, fs = 256.0, 1.0, 2048.0
    region = wk.default_region(bandwidth, duration)
    initial = wk.nlfm_initial_parameters(bandwidth, duration, 32, fs,
                                         sidelobe_db=45.0, nbar=10)
    target = wk.metrics_report(wk.synth_mtsfm(initial, fs), bandwidth,
                               region=region,
                               zero_pad_factor=2).rms_bandwidth_hz
    problem = wk.OptimizationProblem(
        initial=initial, region=region, objective="isl",
        bandwidth_target_hz=target, bandwidth_tolerance=0.1,
        penalty_weight=1.0, budget=20000, seed=12345, sample_rate_hz=fs)
    result = wk.minimize_lbfgs(problem)
    signal = wk.synth_mtsfm(result.final, fs)
    response = wk.autocorrelation(signal)
    return {
        "bandwidth_hz": bandwidth,
        "duration_s": duration,
        "sample_rate_hz": fs,
        "region": region,
        "initial": initial,
        "problem": problem,
        "result": result,
        "signal": signal,
        "psl_db": wk.psl_region(response, region),
        "isl_db": wk.isl_region(response, region),
        "swept_bandwidth_hz": wk.swept_bandwidth(result.final),
    }


@pytest.fixture(scope="session")
def costas16():
    """Costas-16 FSK baseline: Welch construction p=17, g=3, T=1 s."""
    code = wk.generate_welch_costas(17, 3)
    signal = wk.synth_costas_fsk(code, 1.0, 2048.0)
    return {"code": code, "signal": signal}
