"""Atomic, byte-stable result serialization: CSV, JSON, and WAV.

CSV files carry a single header row and LF line endings.  Each column
prints by the numpy dtype its cells promote to: integers %d, floats at
6 decimals (%.6f), anything else as str(), so reruns are byte-identical.
JSON is written with sorted keys and full float precision.
WAV export is 32-bit IEEE float mono (format tag 3), sidestepping
quantization decisions.  All writes go through a temp file plus rename
so readers never observe a partial file.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from itertools import chain, islice

import numpy as np
from scipy.io import wavfile

from .errors import ConfigError, OutputError

# mkstemp creates files with mode 0600; artifacts get the mode open() would
# give them.  The umask can only be read by setting it, so read it once here.
_UMASK = os.umask(0)
os.umask(_UMASK)
_BLOCK_ROWS = 8192  # CSV rows per %-format pass; bounds a long table's memory
_CELL_FORMATS = {"i": "%d", "u": "%d", "f": "%.6f"}  # by numpy dtype kind, else %s


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".wavekit-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.chmod(tmp, 0o666 & ~_UMASK)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def write_csv(path: str, header, rows) -> None:
    """Write one header row plus data rows, LF-terminated, by one % over a
    repeated row template per _BLOCK_ROWS rows.  A column prints by the numpy
    dtype its cells in the block promote to: integer kinds %d (exact at any
    size), float kinds %.6f, anything else (bools, strings) %s."""
    rows = iter(rows)
    parts = [(",".join(header) + "\n").encode("utf-8")]
    while block := list(islice(rows, _BLOCK_ROWS)):
        kinds = (np.result_type(*set(map(type, col))).kind for col in zip(*block))
        row_format = ",".join(_CELL_FORMATS.get(k, "%s") for k in kinds) + "\n"
        cells = tuple(chain.from_iterable(block))
        parts.append((row_format * len(block) % cells).encode("utf-8"))
    _atomic_write_bytes(path, b"".join(parts))


def write_json(path: str, obj) -> None:
    """Write JSON with sorted keys and full float precision."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    _atomic_write_bytes(path, (text + "\n").encode("utf-8"))


def write_wav(path: str, samples, sample_rate_hz: float) -> None:
    """Write a real sample series as float32 mono WAV (format tag 3).

    The caller converts baseband complex signals to a real passband
    series first (see `wavekit.signal.to_passband`).  WAV sample rates
    are integral, so the stored rate is round(sample_rate_hz).
    """
    buf = io.BytesIO()
    wavfile.write(buf, int(round(sample_rate_hz)),
                  np.asarray(samples, dtype=np.float32))
    _atomic_write_bytes(path, buf.getvalue())


def read_json(path: str) -> dict:
    """Load a JSON document: OutputError if unreadable, ConfigError if malformed."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise OutputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
