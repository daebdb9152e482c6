"""Seeded mutation fuzz of the CLI's configs: every run must exit 0, 2 or 3.

Run from the repository root (not part of the test suite; a few minutes):

    python tools/configfuzz.py [--seed 0] [--count 200]

It imports the five `CLI_CONFIGS` (and `CLI_FLAGS`) of tools/golden.py and
makes `--count` mutants.  Half the mutants first insert one entry of
`ABSENT_KEYS`, keys their command reads that its config lacks, so that the
mutations can reach them.  Each mutant then applies one to three mutations
at random places in one config: a number scaled by 10^k for k in +-1..12, a
key dropped, or a value swapped for one of another JSON type.  Mutants run
one at a time through `python -m wavekit.cli`, each in a child under a
1 GiB RLIMIT_AS set in its own preexec_fn, with one BLAS thread, so that a
size no check refuses fails to allocate instead of allocating for real.

It prints each mutant that exits outside {0, 2, 3}, prints a `Traceback`,
runs past TIMEOUT_S seconds, or leaves `--out` behind after an exit 2,
with its mutations and the last line of its stderr, then a count of the
exit codes.  It exits 1 if it printed a finding, else 0.
"""

import argparse
import collections
import copy
import json
import os
import pathlib
import random
import resource
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
ADDRESS_SPACE = 1 << 30
TIMEOUT_S = 60
_SWAPS = (None, True, "x", [], {}, 0, -1, 2.5, [1.0])
# Valid keys each command reads that its CLI_CONFIGS entry lacks; a mutant may
# merge one entry into its config before it mutates.
ABSENT_KEYS = {
    "synth": [{"zero_pad_factor": 4},
              {"waveform": {"kind": "geometric_comb", "num_tones": 8, "tone_ratio": 1.2}}],
    "analyze": [{"zero_pad_factor": 4}, {"ambiguity": {"num_delays": 129, "num_dopplers": 129}},
                {"spectrogram": {"window_len_samples": 64}}],
    "optimize": [{"problem": {"initial": "nlfm", "nlfm_nbar": 10}}],
    "simulate": [{"window_s": 2.0}],
    "compare": [{"zero_pad_factor": 4}],
}


def _places(doc, path=()):
    """(container, key, path) of every value in a JSON tree, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key, path + (key,)
        if isinstance(value, (dict, list)):
            yield from _places(value, path + (key,))


def _merge(doc: dict, entry: dict) -> None:
    """Merge entry into doc in place, subtree by subtree."""
    for key, value in entry.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            _merge(doc[key], value)
        else:
            doc[key] = copy.deepcopy(value)


def mutate(doc: dict, rng: random.Random, absent: list) -> list:
    """Merge one entry of absent into doc half the time, then apply one to
    three random mutations to doc in place; their descriptions."""
    done = []
    if rng.random() < 0.5:
        entry = rng.choice(absent)
        _merge(doc, entry)
        done.append(f"insert {json.dumps(entry)}")
    for _ in range(rng.randint(1, 3)):
        places = [p for p in _places(doc) if p[2] != ("command",)]
        if not places:  # every key but the command is gone
            break
        container, key, path = rng.choice(places)
        value = container[key]
        where = ".".join(map(str, path))
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        kind = rng.choice(("scale", "scale", "drop", "swap") if numeric else ("drop", "swap"))
        if kind == "scale":
            k = rng.choice([-1, 1]) * rng.randint(1, 12)
            container[key] = value * 10**k if isinstance(value, int) and k > 0 else value * 10.0**k
            done.append(f"{where} *= 1e{k}")
        elif kind == "drop" and isinstance(container, dict):
            del container[key]
            done.append(f"drop {where}")
        else:
            container[key] = copy.deepcopy(rng.choice([s for s in _SWAPS if s != value]))
            done.append(f"{where} = {json.dumps(container[key])}")
    return done


def _limit_child():
    """preexec_fn: cap the child's address space."""
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_mutant(command: str, doc: dict, flags: list, workdir: pathlib.Path) -> tuple:
    """(exit code or "timeout", stderr, whether --out exists) of one CLI run."""
    config = workdir / "config.json"
    config.write_text(json.dumps(doc))
    out = workdir / "out"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "wavekit.cli", command, "--config", str(config),
            "--out", str(out), *flags]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, stdin=subprocess.DEVNULL,
                              env=env, preexec_fn=_limit_child, timeout=TIMEOUT_S, cwd=workdir)
        status, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as exc:
        stderr = exc.stderr or ""
        status = "timeout"
        stderr = stderr.decode(errors="replace") if isinstance(stderr, bytes) else stderr
    return status, stderr, out.exists()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=200)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "tools"))
    from golden import CLI_CONFIGS as configs, CLI_FLAGS as flags
    rng = random.Random(args.seed)
    codes = collections.Counter()
    findings = 0
    for i in range(args.count):
        command = rng.choice(sorted(configs))
        doc = copy.deepcopy(configs[command])
        mutations = mutate(doc, rng, ABSENT_KEYS[command])
        with tempfile.TemporaryDirectory(prefix="configfuzz-") as tmp:
            status, stderr, out_left = run_mutant(command, doc, flags.get(command, []),
                                                  pathlib.Path(tmp))
        codes[status] += 1
        problems = []
        if status not in (0, 2, 3):
            problems.append(f"exit {status}")
        if "Traceback" in stderr:
            problems.append("Traceback")
        if status == 2 and out_left:
            problems.append("--out after exit 2")
        if problems:
            findings += 1
            last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
            print(f"#{i} {command}: {', '.join(problems)}: {'; '.join(mutations)}\n    {last}",
                  flush=True)
    print(f"{args.count} mutants, seed {args.seed}: exit codes "
          f"{dict(sorted(codes.items(), key=str))}, {findings} findings")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
