"""Atomic, byte-stable result serialization: CSV, JSON, and WAV.

CSV files carry a single header row, LF line endings, and fixed
6-decimal float formatting so seeded reruns are byte-identical across
platforms.  JSON is written with sorted keys and full float precision.
WAV export is 32-bit IEEE float mono (format tag 3), sidestepping
quantization decisions.  All writes go through a temp file plus rename
so readers never observe a partial file.
"""

from __future__ import annotations

import io
import json
import os
import tempfile

import numpy as np
from scipy.io import wavfile

from .errors import ConfigError, OutputError

# mkstemp creates files with mode 0600; artifacts get the mode open() would
# give them.  The umask can only be read by setting it, so read it once here.
_UMASK = os.umask(0)
os.umask(_UMASK)


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


def format_cell(value) -> str:
    """One CSV cell: integers verbatim, floats at fixed 6 decimals."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.6f}"
    return str(value)


def write_csv(path: str, header, rows) -> None:
    """Write one header row plus formatted data rows, LF-terminated."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(cell) for cell in row))
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


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
