"""wavekit benchmark: one command for every end-to-end and per-layer figure.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {design,analysis,cli} --seed N \
        --seconds S --trace {0,1}

It runs wavekit from the checkout's own `src/`, checks every output, prints
each metric by name with its unit, writes the full record (environment,
counts, digests, failures, spans) under `.bench_out/`, and prints as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.

Load model: one benchmark process, a closed loop with one caller; each call
or child process starts after the previous one ended.  BLAS/OpenMP are
capped at one thread.  The seed generates the inputs; wavekit sees only
those inputs.

--trace 0 measures the chosen workload untraced for S seconds and reports
the end-to-end metrics, which every workload has:
  setup_s      median time from a fresh interpreter to ready (import
               wavekit plus the workload's input generation); 5 samples
               paced evenly across the S seconds, rescaled like latency_s
  latency_s    time of the workload's operation: design = L-BFGS time to
               the -48 dB target (time_to_target_s), analysis = one pass
               over the bank (pass_s), cli = the five-command sequence
               (cli_s).  The parts of an operation (the waveforms of the
               pass, the commands of the sequence) run in turn, one per
               step, and latency_s sums their medians over the run.  Each
               step's time is rescaled to a nominal machine speed by a
               reference kernel timed around it (harness.REFERENCE_S),
               because the speed of a shared machine drifts by more than
               the bound from one run to the next; the plain wall time is
               printed too.
  peak_rss_mb  peak resident memory of the benchmark process or any child
The failed/attempted ratio, the Nelder-Mead time (nm_s), every part's
median and tail, the digests and the environment are printed as well.

--trace 1 is the layer census: it runs every workload's operation once
with spans around each call into wavekit, plus the import, objective-step
and writer probes, and reports every per-layer metric whatever the
workload; the chosen workload's operation also runs once untraced to
give the tracing overhead.  The census takes as long as it takes
(about a minute); --seconds applies to untraced runs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import harness

WORKLOADS = {"design": "design", "analysis": "analysis", "cli": "commands"}
SETUP_SAMPLES = 5

END_TO_END = {"setup_s": "s", "latency_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of the traced run, grouped by the end-to-end metric
# each is predicted to move (and on which workload); elsewhere the
# prediction is no change.
PER_LAYER = {
    # Start-up, from fresh interpreters: setup_s on every workload and
    # latency_s on cli; not latency_s on design or analysis.
    **{key: "s" for key in harness.IMPORT_MODULES.values()},
    "import.interpreter_s": "s", "import.process_s": "s",
    # The objective and the optimizers: latency_s on design.  The gradient
    # moves time to target and not nm_s; nlfm_initial moves setup_s.
    "optimize.objective_us": "us", "optimize.fd_gradient_ms": "ms",
    "optimize.nlfm_initial_ms": "ms",
    "optimize.lbfgs_s": "s", "optimize.lbfgs_evals": "count",
    "optimize.lbfgs_us_per_eval": "us", "optimize.lbfgs_grad_calls": "count",
    "optimize.time_to_target_s": "s", "optimize.evals_to_target": "count",
    "optimize.useful_eval_ratio": "ratio",
    "optimize.final_isl_db": "dB", "optimize.final_psl_db": "dB",
    "optimize.nm_s": "s", "optimize.nm_evals": "count", "optimize.nm_us_per_eval": "us",
    "optimize.nm_final_isl_db": "dB",
    # The objective's steps through their public twins: latency_s on
    # analysis and cli today; on design too once the optimizer shares them.
    "waveforms.synth_mtsfm_us": "us", "metrics.autocorrelation_us": "us",
    "signal.spectrum_us": "us", "metrics.rms_bandwidth_us": "us",
    # Doppler-domain kernels: latency_s on analysis, a little on cli.
    "analysis.pass_s": "s",
    "metrics.metrics_report_ms": "ms", "metrics.ambiguity_ms": "ms",
    "metrics.ambiguity_long_ms": "ms", "metrics.doppler_nb_ms": "ms",
    "metrics.doppler_wb_ms": "ms",
    "scene.simulate_returns_us": "us", "scene.mf_bank_ms": "ms",
    "scene.mf_bank_row_us": "us", "scene.mf_bank_long_ms": "ms",
    "scene.resolvability_us": "us",
    # Controls: setup_s only, by very little.
    "waveforms.synth_bank_ms": "ms", "costas.welch_us": "us", "costas.verify_us": "us",
    "config.load_config_ms": "ms",
    # Writers fed with one sequence's rows: latency_s on cli, mostly via
    # simulate; not analysis or design.
    "fileio.csv_cells": "count", "fileio.bytes_written": "count",
    "fileio.write_csv_s": "s", "fileio.cells_per_s": "1/s",
    "fileio.write_json_ms": "ms", "fileio.write_wav_ms": "ms",
    # Each command in a fresh process: latency_s on cli.
    "cli.synth_s": "s", "cli.analyze_s": "s", "cli.optimize_s": "s",
    "cli.simulate_s": "s", "cli.compare_s": "s", "cli.sequence_s": "s",
    "cli.startup_share": "ratio",
    # Self time per layer of each workload's headline operation, and the
    # cost of tracing itself.
    "self.design.total_s": "s", "self.design.optimize_s": "s",
    "self.design.bench_s": "s", "self.design.coverage": "ratio",
    "self.analysis.total_s": "s", "self.analysis.waveforms_s": "s",
    "self.analysis.metrics_s": "s", "self.analysis.scene_s": "s",
    "self.analysis.bench_s": "s", "self.analysis.coverage": "ratio",
    "self.cli.total_s": "s", "self.cli.cli_s": "s",
    "self.cli.bench_s": "s", "self.cli.coverage": "ratio",
    "trace.spans": "count", "trace.span_cost_us": "us",
    "trace.overhead_est_s": "s", "trace.overhead_s": "s", "trace.overhead_share": "ratio",
    # Per-layer times are plain wall times; the reference kernel's time
    # around the census tells how fast the machine ran (nominal 46 ms).
    "trace.reference_kernel_ms": "ms",
}
# Layers whose self time is reported for each workload's headline operation.
SELF_LAYERS = {"design": ("op.design.to_target", ("optimize",)),
               "analysis": ("op.analysis.waveform", ("waveforms", "metrics", "scene")),
               "cli": ("op.cli.sequence", ("cli",))}


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_sample(module: str, seed: int, workdir: Path, index: int,
                 checks: harness.Checks):
    """One fresh interpreter importing wavekit and making the inputs; seconds or None."""
    sample_dir = workdir / f"setup{index}"
    sample_dir.mkdir()
    checks.start()
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_child.py")), module,
         str(seed), str(sample_dir)],
        cwd=harness.ROOT, env=harness.child_env(), capture_output=True, text=True,
        timeout=120)
    checks.expect(proc.returncode == 0, f"setup child failed: {proc.stderr.strip()[-300:]}")
    shutil.rmtree(sample_dir)
    return float(proc.stdout.split()[-1]) - start if checks.finish() else None


def measure(seconds: float, session, setup):
    """The session's operations for `seconds`, and then up to the end of a
    round of its parts; the set-up samples paced evenly across the same
    window; and the reference kernel timed between every two steps.

    Returns ([(operation parts, reference s)], [(set-up s, reference s)]),
    where a step's reference time is the mean of the kernel times just
    before and just after it.
    """
    operations, setups = [], []
    ref = harness.reference_kernel()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        due = len(setups) < SETUP_SAMPLES and len(setups) <= SETUP_SAMPLES * elapsed / seconds
        done = len(operations)
        if (not due and elapsed >= seconds and done >= session.min_operations
                and done % len(session.parts) == 0):
            if len(setups) == SETUP_SAMPLES:
                return operations, [s for s in setups if s[0] is not None]
            due = True
        step = setup(len(setups)) if due else session.operation()
        after = harness.reference_kernel()
        (setups if due else operations).append((step, (ref + after) / 2.0))
        ref = after


def untraced(workload, module, inputs, seed, seconds, workdir, checks, record) -> dict:
    """End-to-end metrics.  The session runs its parts (the commands of a
    CLI sequence, the waveforms of a pass) in turn, one per step; every
    step's time is rescaled to the nominal machine speed by the reference
    kernel timed around it, and latency_s sums the parts' medians."""
    session = module.Session(inputs, checks)
    operations, setups = measure(
        seconds, session,
        lambda i: setup_sample(WORKLOADS[workload], seed, workdir, i, checks))
    wall = {name: [p[name] for p, _ in operations if name in p] for name in session.parts}
    scaled = {name: [p[name] * harness.REFERENCE_S / ref for p, ref in operations if name in p]
              for name in session.parts}
    setup = [t * harness.REFERENCE_S / ref for t, ref in setups]
    latency = sum(statistics.median(v) for v in scaled.values())
    extra = session.record()
    record["digests"] = extra.pop("digests")
    if "quantities" in extra:
        record["quantities"] = extra.pop("quantities")
    record["samples"] = {"operations": operations, "setups": setups, **extra}
    record["summary"] = {"setup_s": harness.summary(setup),
                         "setup_wall_s": harness.summary([t for t, _ in setups]),
                         "reference_s": harness.summary([r for _, r in operations + setups])}
    for name in session.parts:
        record["summary"][f"{workload}.{name}_s"] = harness.summary(scaled[name])
        record["summary"][f"{workload}.{name}_wall_s"] = harness.summary(wall[name])
    if "nm_s" in extra:
        record["summary"]["optimize.nm_s"] = harness.summary(extra["nm_s"])
    record["latency_wall_s"] = sum(statistics.median(v) for v in wall.values())
    return {"setup_s": statistics.median(setup) if setup else 0.0,
            "latency_s": latency,
            "peak_rss_mb": _peak_rss_mb()}


def _headline_untraced(workload: str, modules: dict, inputs: dict, checks) -> float:
    """The chosen workload's operation once more, untraced: one round of parts."""
    session = modules[workload].Session(inputs[workload], checks)
    return sum(sum(session.operation().values()) for _ in session.parts)


def traced(workload, modules, seed, workdir, checks, record) -> dict:
    import probes
    tracer = harness.Tracer(True)
    inputs = {"design": modules["design"].make_inputs(seed),
              "analysis": modules["analysis"].make_inputs(seed),
              "cli": modules["cli"].make_inputs(seed, workdir)}
    metrics, digests = {}, {}
    refs = [harness.reference_kernel()]
    metrics.update(probes.imports(checks, tracer))
    m, digests["design"] = modules["design"].census(inputs["design"], checks, tracer)
    metrics.update(m)
    m, digests["analysis"] = modules["analysis"].census(inputs["analysis"], checks, tracer)
    metrics.update(m)
    m, digests["cli"], out_root = modules["cli"].census(inputs["cli"], checks, tracer)
    metrics.update(m)
    metrics.update(probes.writers(out_root, workdir, checks, tracer))
    shutil.rmtree(out_root)
    metrics.update(probes.layers(inputs["design"], inputs["cli"], checks, tracer))
    refs.append(harness.reference_kernel())
    metrics["cli.startup_share"] = (5 * metrics["import.wavekit_s"]
                                    / metrics["cli.sequence_s"])

    for name, (op_name, layers) in SELF_LAYERS.items():
        total, self_times = tracer.self_times(op_name)
        metrics[f"self.{name}.total_s"] = total
        metrics[f"self.{name}.bench_s"] = self_times.get("bench", 0.0)
        for layer in layers:
            metrics[f"self.{name}.{layer}_s"] = self_times.get(layer, 0.0)
        metrics[f"self.{name}.coverage"] = (
            sum(self_times.get(layer, 0.0) for layer in layers) / total if total else 0.0)
        record.setdefault("self_times", {})[name] = self_times

    traced_s = metrics[{"design": "self.design.total_s", "analysis": "self.analysis.total_s",
                        "cli": "self.cli.total_s"}[workload]]
    plain_s = _headline_untraced(workload, modules, inputs, checks)
    refs.append(harness.reference_kernel())
    cost = harness.span_cost_us()
    metrics.update({
        "trace.spans": len(tracer.spans),
        "trace.span_cost_us": cost,
        "trace.overhead_est_s": len(tracer.spans) * cost / 1e6,
        "trace.overhead_s": traced_s - plain_s,
        "trace.overhead_share": (traced_s - plain_s) / plain_s,
        "trace.reference_kernel_ms": statistics.median(refs) * 1e3,
    })
    record["digests"] = digests
    record["bases"] = {
        "optimize.useful_eval_ratio": "evals_to_target / lbfgs_evals",
        "cli.startup_share": "5 x import.wavekit_s / cli.sequence_s",
        "fileio.cells_per_s": "csv_cells / write_csv_s",
        "scene.mf_bank_row_us": f"mf_bank_ms / {modules['analysis'].MF_ROWS} rows",
        "self.*.coverage": "layer self time / operation wall time",
        "trace.overhead_share": f"traced - untraced {workload} operation / untraced",
    }
    design, cli = modules["design"], modules["cli"]
    n = int(design.SAMPLE_RATE_HZ * design.DURATION_S)
    record["counts"] = {
        "objective_fft_length": 1 << (2 * n - 1).bit_length(),
        "evaluations_per_lbfgs_gradient": 2 * design.HARMONICS + 1,
        "evaluations_per_central_gradient": 4 * design.HARMONICS,
        "simulate_mf_bank_fft_length": 1 << cli.SIM_LAGS.bit_length(),
        "simulate_csv_rows": cli.MF_ROWS * cli.SIM_LAGS,
    }
    tracer.dump(workdir.parent / f"spans_{workload}_seed{seed}.tsv")
    missing = [key for key in PER_LAYER if key not in metrics]
    checks.expect(not missing, f"per-layer metrics not measured: {missing}")
    return {key: metrics.get(key, 0.0) for key in PER_LAYER}


def _print_report(workload, trace, metrics, units, checks, record) -> None:
    print(f"wavekit benchmark  workload={workload} seed={record['environment']['seed']} "
          f"trace={trace}")
    env = record["environment"]
    print(f"  env: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} threads<={env['thread_cap']} "
          f"commit={env['commit']}")
    for key, value in metrics.items():
        print(f"  {key:34s} {value:>16.6g} {units[key]}")
    for key, s in record.get("summary", {}).items():
        tail = f" p{s['tail_pct']}={s['tail']:.6g}" if s["tail"] is not None else ""
        print(f"  {key:34s} median={s['median']:.6g} n={s['n']}{tail}")
    if "latency_wall_s" in record:
        print(f"  latency_wall_s (not rescaled) = {record['latency_wall_s']:.6g} s; "
              f"reference kernel nominal {harness.REFERENCE_S} s")
    for section in ("quantities", "counts", "bases"):
        for key, value in record.get(section, {}).items():
            print(f"  {section}: {key} = {value}")
    digests = record.get("digests") or {}
    for group, values in digests.items():
        for key, value in (values.items() if isinstance(values, dict) else [(group, values)]):
            print(f"  digest {key} {value}")
    ratio = checks.failed / checks.attempted if checks.attempted else 0.0
    print(f"  failed_ratio = {checks.failed}/{checks.attempted} = {ratio:.4g}")
    for message in checks.messages[:20]:
        print(f"  FAILED: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (harness.SRC / "wavekit" / "__init__.py").is_file() or not harness.SCHEMAS.is_dir():
        print(f"error: no wavekit source tree (src/wavekit, docs/schemas) under "
              f"{harness.ROOT}", file=sys.stderr)
        return 2
    for var in harness.THREAD_VARS:
        os.environ[var] = str(harness.THREAD_CAP)
    sys.path.insert(0, str(harness.SRC))
    modules = {name: importlib.import_module(mod) for name, mod in WORKLOADS.items()}

    out_dir = harness.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    checks = harness.Checks()
    record = {"environment": harness.environment(args.seed), "workload": args.workload,
              "trace": args.trace}
    try:
        checks.start()
        checks.expect(harness.THREAD_CAP <= harness.nproc(), "thread cap exceeds nproc")
        checks.finish()
        if args.trace:
            metrics = traced(args.workload, modules, args.seed, workdir, checks, record)
            units = PER_LAYER
        else:
            module = modules[args.workload]
            inputs = module.make_inputs(args.seed, workdir)
            metrics = untraced(args.workload, module, inputs, args.seed, args.seconds,
                               workdir, checks, record)
            units = END_TO_END
    except Exception as exc:  # a crash in wavekit is a failed operation, not a crash here
        checks.start()
        checks.error(exc, "run aborted")
        checks.finish()
        record["traceback"] = traceback.format_exc()
        print(record["traceback"], file=sys.stderr)
        units = PER_LAYER if args.trace else END_TO_END
        metrics = {key: 0.0 for key in units}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update({"metrics": metrics, "units": units, "attempted": checks.attempted,
                   "failed": checks.failed, "failures": checks.messages})
    (out_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")
    _print_report(args.workload, args.trace, metrics, units, checks, record)
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
