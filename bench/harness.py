"""Measurement plumbing shared by the workloads: spans, statistics, checks,
child processes, the import-time parser, the environment record and the
machine-speed reference.

Nothing here imports wavekit or, at import time, numpy, so run.py
can load it before it caps the BLAS threads and puts the package on the
path.
"""

from __future__ import annotations

import hashlib
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCHEMAS = ROOT / "docs" / "schemas"

# One BLAS/OpenMP thread: the benchmark is a single closed-loop caller, and
# a fixed cap keeps the summation order, and so the search paths, stable.
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = str(THREAD_CAP)
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ------------------------------------------------------------------ spans

class _Span:
    __slots__ = ("tracer", "name", "tag", "index")

    def __init__(self, tracer, name, tag):
        self.tracer, self.name, self.tag = tracer, name, tag

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr.stack[-1] if tr.stack else -1
        tr.spans.append([self.name, self.tag, tr.op_id, parent,
                         time.perf_counter(), 0.0])
        tr.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][5] = time.perf_counter()
        tr.stack.pop()
        return False


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class Tracer:
    """In-memory span recorder around calls into wavekit.

    A span is [name, tag, op id, parent index, start, end]; the spans of
    one workload operation share its op id.  The layer is the part of the
    name before the first dot.  A disabled tracer hands out one shared
    no-op context, so untraced runs pay only an attribute lookup.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.stack: list = []
        self.op_id = -1
        self._ops = 0

    def span(self, name: str, tag: str = ""):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, name, tag)

    def op(self, name: str, tag: str = ""):
        """Root span of one workload operation; starts a new op id."""
        if not self.enabled:
            return _NO_SPAN
        self.op_id = self._ops
        self._ops += 1
        return _Span(self, name, tag)

    def durations(self, name: str, tag: str | None = None) -> list:
        return [s[5] - s[4] for s in self.spans
                if s[0] == name and (tag is None or s[1] == tag)]

    def self_times(self, op_name: str) -> tuple[float, dict]:
        """Wall time of the ops named op_name and each layer's self time.

        Self time is a span's duration minus the time its children cover.
        Spans of one caller nest strictly, so the children's durations sum
        to the covered part.  The root span's own self time is the
        harness's glue, reported as layer "bench".
        """
        child_sum = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child_sum[s[3]] += s[5] - s[4]
        ops = {s[2] for s in self.spans if s[3] < 0 and s[0] == op_name}
        total, layers = 0.0, {}
        for i, s in enumerate(self.spans):
            if s[2] not in ops:
                continue
            duration = s[5] - s[4]
            layer = "bench" if s[3] < 0 else s[0].split(".", 1)[0]
            if s[3] < 0:
                total += duration
            layers[layer] = layers.get(layer, 0.0) + duration - child_sum[i]
        return total, layers

    def dump(self, path: Path) -> None:
        """Write the spans as tab-separated text when the run ends."""
        lines = ["name\ttag\top\tparent\tstart_s\tend_s"]
        lines += ["\t".join(str(v) for v in s) for s in self.spans]
        path.write_text("\n".join(lines) + "\n")


def span_cost_us(repeats: int = 20000) -> float:
    """Measured cost of recording one span, in microseconds."""
    tr = Tracer(True)
    start = time.perf_counter()
    for _ in range(repeats):
        with tr.span("bench.empty"):
            pass
    return (time.perf_counter() - start) / repeats * 1e6


# ------------------------------------------------------------- statistics

def summary(values) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it.

    With n samples, percentile p leaves n*(1-p/100) samples above it, so
    the reported tail is p = 100*(n-10)/n, or none when n <= 10.
    """
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n,
           "tail_pct": None, "tail": None}
    if n > 10:
        pct = 100.0 * (n - 10) / n
        out["tail_pct"] = round(pct, 1)
        out["tail"] = values[max(0, int(n * pct / 100.0) - 1)]
    return out


# ----------------------------------------------------------------- checks

class Checks:
    """Counts operations and the ones that failed any check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []
        self._current_ok = True

    def start(self) -> None:
        self.attempted += 1
        self._current_ok = True

    def expect(self, ok, message: str) -> None:
        if not ok:
            self.messages.append(message)
            self._current_ok = False

    def error(self, exc: BaseException, where: str) -> None:
        self.expect(False, f"{where}: {type(exc).__name__}: {exc}")

    def finish(self) -> bool:
        if not self._current_ok:
            self.failed += 1
        return self._current_ok


def sha256_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def sha256_file(path: Path) -> str:
    return sha256_bytes(Path(path).read_bytes())


# ------------------------------------------------------- child processes

def run_child(args, timeout: float = 170.0) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child process to completion; returns (wall seconds, result)."""
    start = time.perf_counter()
    proc = subprocess.run(args, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    return time.perf_counter() - start, proc


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")
IMPORT_MODULES = {
    "wavekit": "import.wavekit_s",
    "wavekit.cli": "import.wavekit_cli_s",
    "numpy": "import.numpy_s",
    "scipy.optimize": "import.scipy_optimize_s",
    "scipy.interpolate": "import.scipy_interpolate_s",
    "scipy.signal": "import.scipy_signal_s",
    "scipy.io": "import.scipy_io_s",
}


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds of each module of interest from -X importtime.

    A module's cumulative time covers the submodules it imported first;
    a module already loaded by an earlier import is not counted again.
    A module never imported reads 0.
    """
    found = {key: 0.0 for key in IMPORT_MODULES.values()}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m and m.group(4) in IMPORT_MODULES:
            found[IMPORT_MODULES[m.group(4)]] = int(m.group(2)) / 1e6
    return found


# ------------------------------------------------------------ environment

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_cap": THREAD_CAP,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": _commit(),
        "seed": seed,
    }


# ---------------------------------------------------------- machine speed

# The speed of a shared virtual machine can drift by 20-50% over minutes,
# more than any useful bound on a run-to-run comparison.  So end-to-end
# times are rescaled to a nominal machine speed: a fixed kernel of numpy
# FFTs and interpreted arithmetic, which touches no wavekit code, is timed
# just before and just after every measured step, and the step's wall time
# is multiplied by REFERENCE_S over the mean of those two kernel times.
# REFERENCE_S is the kernel's median time on a 2-vCPU Intel Xeon VM with
# Python 3.11 and numpy 2.4.
REFERENCE_S = 0.046


def reference_kernel() -> float:
    """Wall seconds of the fixed machine-speed kernel."""
    import numpy as np
    x = np.random.default_rng(0).standard_normal(4096) + 0j
    start = time.perf_counter()
    for _ in range(200):
        np.abs(np.fft.ifft(np.fft.fft(x))).sum()
    total = 0
    for i in range(200000):
        total += i
    return time.perf_counter() - start
