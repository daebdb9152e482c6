"""Atomic, byte-stable result serialization: CSV, JSON, and WAV.

CSV files carry a single header row and LF line endings.  Each column
prints by the numpy dtype its cells promote to: integers %d, floats at
6 decimals (%.6f), anything else as str(), so reruns are byte-identical.
Rows are formatted in blocks of _BLOCK_ROWS.  A block whose every column
holds float64 cells, all finite and below 2**33 in magnitude, is
formatted by numpy: an exact round-half-even of x * 10**6, then digit
groups looked up in small tables.  Its bytes are those of `'%.6f' % x`.
Every other block (NaN, infinities, larger values, integer, bool or text
columns) is formatted by one % pass over a repeated row template.
JSON is written with sorted keys and full float precision.
WAV export is 32-bit IEEE float mono (format tag 3), sidestepping
quantization decisions.  Its header is packed by hand with `struct`, in
the layout scipy's wavfile writer uses for float data (an 18-byte fmt
chunk and a fact chunk), so the bytes match scipy's without importing
it.  Each writer is an encoder to bytes plus one write through a temp
file and a rename, so readers never observe a partial file.
"""

from __future__ import annotations

import json
import os
import struct
from functools import lru_cache
from itertools import chain, islice

import numpy as np

from .errors import ConfigError, InvalidInputError, OutputError

_BLOCK_ROWS = 8192  # CSV rows per formatting pass; bounds a long table's memory
_CELL_FORMATS = {"i": "%d", "u": "%d", "f": "%.6f"}  # by numpy dtype kind, else %s
_FLOAT_TYPES = {float, np.float64}
# |x| * 10**6 stays below 2**53, so every scaled cell is an exact float64 integer.
_FIXED_LIMIT = 2.0**33
_LEAD, _INNER, _BLANK, _POINT, _LAST = 0, 2000, 3000, 3001, 4001  # offsets into _pieces()
_WAV_HEADER_BYTES = 58  # RIFF + 18-byte fmt + fact + data chunk headers


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        # Mode 0666 less the live umask, as open() gives; O_EXCL never reuses a file.
        tmp = os.path.join(directory, f".wavekit-{os.urandom(8).hex()}")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def write_csv(path: str, header, rows) -> None:
    """Write one header row plus data rows, LF-terminated.

    Each block of _BLOCK_ROWS rows is transposed and formatted as
    `encode_csv` formats its columns, so both give the same bytes.
    """
    rows = iter(rows)
    blocks = []
    while block := list(islice(rows, _BLOCK_ROWS)):
        blocks.append(_csv_block(list(zip(*block))))
    _atomic_write_bytes(path, _csv_bytes(header, blocks))


def encode_csv(header, columns) -> bytes:
    """One header row plus the rows of equal-length columns, LF-terminated.

    A column is any sliceable sequence (an array, list or range).  It prints
    by the numpy dtype its cells in a block promote to: integer kinds %d
    (exact at any size), float kinds %.6f, anything else (bools, strings) %s.
    """
    lengths = {len(col) for col in columns}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns differ in length: {sorted(lengths)}")
    num_rows = lengths.pop() if lengths else 0
    return _csv_bytes(header, (
        _csv_block([col[start:start + _BLOCK_ROWS] for col in columns])
        for start in range(0, num_rows, _BLOCK_ROWS)))


def _csv_bytes(header, blocks) -> bytes:
    return b"".join(chain([(",".join(header) + "\n").encode("utf-8")], blocks))


def _csv_block(columns) -> bytes:
    """The CSV lines of one block of equal-length columns."""
    floats = [_float64_cells(col) for col in columns]
    if all(x is not None and (np.abs(x) < _FIXED_LIMIT).all() for x in floats):
        return _fixed6_block(floats)
    kinds = (np.result_type(*set(map(type, col))).kind for col in columns)
    row_format = ",".join(_CELL_FORMATS.get(k, "%s") for k in kinds) + "\n"
    cells = tuple(chain.from_iterable(zip(*columns)))
    return (row_format * len(columns[0]) % cells).encode("utf-8")


def _float64_cells(col):
    """col as a float64 array if every cell is a float64, else None."""
    if isinstance(col, np.ndarray):
        return col if col.dtype == np.float64 else None
    return np.array(col, dtype=np.float64) if set(map(type, col)) <= _FLOAT_TYPES else None


def _fixed6_block(columns) -> bytes:
    """'%.6f' CSV lines of float64 columns, every cell finite and below _FIXED_LIMIT.

    Each cell is assembled from 4-byte pieces: its integer digits in groups
    of three, highest first, then ".ddd", then "ddd" and the separator.
    The pieces' padding spaces are stripped from the finished block.
    """
    fields = []
    for j, x in enumerate(columns):
        whole, frac = np.divmod(np.abs(_round_scaled(x)).astype(np.int64), 10**6)
        lead = _LEAD + 1000 * np.signbit(x)  # x's sign: -0.0 and -1e-9 print "-0.000000"
        groups = (len(str(int(whole.max()))) + 2) // 3  # of the widest cell
        top = sum(whole >= 1000**g for g in range(1, groups))  # each cell's leading group
        for g in reversed(range(groups)):
            digits = whole // 1000**g % 1000
            fields.append(np.where(g < top, _INNER + digits,
                                   np.where(g == top, lead + digits, _BLANK)))
        high, low = np.divmod(frac, 1000)
        fields += [_POINT + high, _LAST + 1000 * (j == len(columns) - 1) + low]
    return _pieces()[np.stack(fields, axis=1)].tobytes().translate(None, b" ")


def _round_scaled(x: np.ndarray) -> np.ndarray:
    """x * 10**6 rounded half to even, exactly, as integral float64s.

    The product's double p rounds the same way unless p is itself a
    half-integer.  Below 2**52 every half-integer is a double, so rounding
    to the nearest double never carries a value across one; from 2**52 up
    p is an integer, and the half-even rounding.  A half-integer p rounds
    toward x * 10**6, or to even if the two are equal.  The sign of
    x * 10**6 - p is exact: Veltkamp's split gives x = high + low with
    26-bit halves, so each half times 10**6 (14 significant bits) is exact,
    and high * 10**6 - p is exact by Sterbenz's lemma.
    """
    scaled = x * 1e6
    rounded = np.rint(scaled)
    half = np.flatnonzero(np.abs(scaled - rounded) == 0.5)
    if half.size:
        xh, ph = x[half], scaled[half]
        split = xh * 134217729.0  # 2**27 + 1
        high = split - (split - xh)
        residual = (high * 1e6 - ph) + (xh - high) * 1e6
        rounded[half] = np.where(residual == 0, rounded[half], ph + 0.5 * np.sign(residual))
    return rounded


@lru_cache(maxsize=1)
def _pieces() -> np.ndarray:
    """The 4-byte pieces of a '%.6f' cell as read-only uint32, built on first use.

    At _LEAD + 1000 * sign + v: v right-aligned, after a "-" if sign is 1
    (a cell's leading integer group).  At _INNER + v: v zero-filled (a lower
    group).  _BLANK: a group above the leading one.  At _POINT + v: ".ddd".
    At _LAST + 1000 * last + v: "ddd" then "," or, in a row's last column, LF.
    """
    text = ([f"{v:>4}" for v in range(1000)] + [f"{'-' + str(v):>4}" for v in range(1000)]
            + [f" {v:03d}" for v in range(1000)] + ["    "]
            + [f".{v:03d}" for v in range(1000)]
            + [f"{v:03d}," for v in range(1000)] + [f"{v:03d}\n" for v in range(1000)])
    table = np.array(text, dtype="S4").view(np.uint32)
    table.flags.writeable = False
    return table


def write_json(path: str, obj) -> None:
    """Write `encode_json(obj)`."""
    _atomic_write_bytes(path, encode_json(obj))


def encode_json(obj) -> bytes:
    """JSON with sorted keys and full float precision; InvalidInputError for NaN or inf."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise InvalidInputError(f"result cannot be written as JSON: {exc}") from exc
    return (text + "\n").encode("utf-8")


def write_wav(path: str, samples, sample_rate_hz: float) -> None:
    """Write `encode_wav(samples, sample_rate_hz)`."""
    _atomic_write_bytes(path, encode_wav(samples, sample_rate_hz))


def encode_wav(samples, sample_rate_hz: float) -> bytes:
    """A real sample series as float32 mono WAV (format tag 3).

    The caller converts baseband complex signals to a real passband
    series first (see `wavekit.signal.to_passband`).  WAV sample rates
    are integral, so the stored rate is round(sample_rate_hz).
    """
    data = np.asarray(samples, dtype="<f4")
    return _wav_header(data.nbytes, int(round(sample_rate_hz))) + data.tobytes()


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
