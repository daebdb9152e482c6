"""Set-up of one workload in a fresh interpreter, for `setup_s`.

Usage: python3 bench/setup_child.py MODULE SEED WORKDIR

Imports wavekit, generates the workload's inputs from the seed with
MODULE.make_inputs, and prints CLOCK_MONOTONIC at the moment it is ready;
the parent subtracts the moment it started the process.
"""

import importlib
import sys
import time
from pathlib import Path

import wavekit  # noqa: F401  (set-up time includes the package import)

if __name__ == "__main__":
    module, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    importlib.import_module(module).make_inputs(seed, workdir)
    print(time.monotonic())
