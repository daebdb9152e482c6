"""Atomic, byte-stable result serialization: CSV, JSON, and WAV.

CSV files carry a single header row and LF line endings.  Each column
prints by the numpy dtype its cells promote to: integers %d, floats at
6 decimals (%.6f), anything else as str(), so reruns are byte-identical.
JSON is written with sorted keys and full float precision.
WAV export is 32-bit IEEE float mono (format tag 3), sidestepping
quantization decisions.  Its header is packed by hand with `struct`, in
the layout scipy's wavfile writer uses for float data (an 18-byte fmt
chunk and a fact chunk), so the bytes match scipy's without importing
it.  All writes go through a temp file plus rename so readers never
observe a partial file.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from itertools import chain, islice

import numpy as np

from .errors import ConfigError, OutputError

# mkstemp creates files with mode 0600; artifacts get the mode open() would
# give them.  The umask can only be read by setting it, so read it once here.
_UMASK = os.umask(0)
os.umask(_UMASK)
_BLOCK_ROWS = 8192  # CSV rows per %-format pass; bounds a long table's memory
_CELL_FORMATS = {"i": "%d", "u": "%d", "f": "%.6f"}  # by numpy dtype kind, else %s
_WAV_HEADER_BYTES = 58  # RIFF + 18-byte fmt + fact + data chunk headers


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
    data = np.asarray(samples, dtype="<f4")
    header = _wav_header(data.nbytes, int(round(sample_rate_hz)))
    _atomic_write_bytes(path, header + data.tobytes())


def _wav_header(data_bytes: int, rate: int) -> bytes:
    """RIFF header of a float32 mono WAV holding data_bytes of samples."""
    riff_size = _WAV_HEADER_BYTES - 8 + data_bytes
    if riff_size > 0xFFFFFFFF:
        raise OutputError(f"WAV data of {data_bytes} bytes exceeds the 4 GiB RIFF limit")
    try:
        return struct.pack("<4sI4s4sIHHIIHHH4sII4sI", b"RIFF", riff_size, b"WAVE",
                           b"fmt ", 18, 3, 1, rate, rate * 4, 4, 32, 0,
                           b"fact", 4, data_bytes // 4, b"data", data_bytes)
    except struct.error as exc:
        raise OutputError(f"WAV sample rate {rate} Hz does not fit the header") from exc


def read_json(path: str) -> dict:
    """Load a JSON document: OutputError if unreadable, ConfigError if malformed."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise OutputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
