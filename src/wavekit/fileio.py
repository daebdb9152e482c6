"""Atomic, streamed, byte-stable result serialization: CSV, JSON, and WAV.

CSV files carry a single header row and LF line endings.  Each column
prints by the numpy dtype its cells promote to: integers %d, floats at
6 decimals (%.6f), anything else as str(), so reruns are byte-identical.
Rows are encoded in blocks of _BLOCK_ROWS.  A block whose every column
holds float64 cells, all finite and below 2**33 in magnitude, is
formatted by numpy: an exact round-half-even of x * 10**6, then digit
groups looked up in small tables and gathered into one uint32 array of
4-byte pieces.  Its bytes are those of `'%.6f' % x`.  Every other block
(NaN, infinities, larger values, integer, bool or text columns) is
formatted by one % pass over a repeated row template.  A grid CSV (a
`_Grid`: one row per cell of a 2-D table, beside its two axis values)
formats each axis value into its pieces once and gathers each block's
rows from those, so no column of repeated axis values is ever built.
JSON is written with sorted keys and full float precision.
WAV export is 32-bit IEEE float mono (format tag 3), sidestepping
quantization decisions.  Its header is packed by hand with `struct`, in
the layout scipy's wavfile writer uses for float data (an 18-byte fmt
chunk and a fact chunk), so the bytes match scipy's without importing
it.

Every file goes through `_publish`: each is encoded block by block into
its own temp file beside its path, and the temp files are renamed into
place only once all are complete.  So an artifact holds at most one
encoded block in memory, readers never observe a partial file, and a set
of files that fails to encode or write publishes none of them.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice

import numpy as np

from .errors import ConfigError, InvalidInputError, OutputError

_BLOCK_ROWS = 8192  # CSV rows or WAV samples per encoding pass; bounds an artifact's memory
_CELL_FORMATS = {"i": "%d", "u": "%d", "f": "%.6f"}  # by numpy dtype kind, else %s
_FLOAT_TYPES = {float, np.float64}
# |x| * 10**6 stays below 2**53, so every scaled cell is an exact float64 integer.
_FIXED_LIMIT = 2.0**33
_LEAD, _INNER, _BLANK, _POINT, _LAST = 0, 2000, 3000, 3001, 4001  # offsets into _pieces()
_WAV_HEADER_BYTES = 58  # RIFF + 18-byte fmt + fact + data chunk headers


def _publish(files: dict) -> None:
    """Write {path: byte chunks} all together, or none of them.

    Each file's chunks go, as they are produced, into its own O_EXCL temp
    file in the path's directory (made, with any missing parents, if
    absent).  Only once every temp file is complete is each renamed onto
    its path.  On any error, in an encoder or the file system, every temp
    file and every directory made here is removed, and an OSError is
    raised as OutputError.  Only a rename failing after another succeeded
    leaves a file published.
    """
    made, temps = [], []
    try:
        for path, chunks in files.items():
            directory = os.path.dirname(os.path.abspath(path))
            _make_directory(directory, made)
            # Mode 0666 less the live umask, as open() gives; O_EXCL never reuses a file.
            tmp = os.path.join(directory, f".wavekit-{os.urandom(8).hex()}")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            temps.append(tmp)
            with os.fdopen(fd, "wb") as handle:
                for chunk in chunks:
                    handle.write(chunk)
        for tmp, path in zip(temps, files):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in temps:
            with suppress(FileNotFoundError):
                os.unlink(tmp)
        for directory in reversed(made):
            with suppress(OSError):
                os.rmdir(directory)
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {path}: {exc}") from exc
        raise


def _make_directory(directory: str, made: list) -> None:
    """Make the absolute path directory and its missing parents, appending
    to made each one made here, outermost first.  One walk up finds the
    first existing directory, so a path of any depth takes no recursion."""
    missing = []
    while not os.path.isdir(directory) and os.path.dirname(directory) != directory:
        missing.append(directory)
        directory = os.path.dirname(directory)
    for path in reversed(missing):
        try:
            os.mkdir(path)
        except FileExistsError:
            if not os.path.isdir(path):
                raise
        else:
            made.append(path)


def _encode(name: str, content):
    """The byte chunks of one artifact, by its file name: a .csv's content is
    (header, columns or a `_Grid`), a .json's a document, a .wav's
    (samples, sample rate)."""
    if name.endswith(".csv"):
        return _csv_chunks(*content)
    if name.endswith(".json"):
        return [encode_json(content)]
    return _wav_chunks(*content)


@dataclass(frozen=True)
class _Grid:
    """CSV columns of a len(outer) x len(inner) table of float64 values, one
    row per cell, outer-major: (inner, outer, value) if inner_first, else
    (outer, inner, value).  values[o, i] is the cell at outer[o], inner[i]."""

    outer: np.ndarray
    inner: np.ndarray
    values: np.ndarray
    inner_first: bool = False


def write_csv(path: str, header, rows) -> None:
    """Write one header row plus data rows, LF-terminated.

    Each block of _BLOCK_ROWS rows is transposed and formatted as
    `encode_csv` formats its columns, so both give the same bytes.
    """
    rows = iter(rows)
    blocks = iter(lambda: list(zip(*islice(rows, _BLOCK_ROWS))), [])  # columns, until no rows
    _publish({path: chain([_header_line(header)], map(_csv_block, blocks))})


def encode_csv(header, columns) -> bytes:
    """One header row plus the rows of equal-length columns, LF-terminated.

    A column is any sliceable sequence (an array, list or range).  It prints
    by the numpy dtype its cells in a block promote to: integer kinds %d
    (exact at any size), float kinds %.6f, anything else (bools, strings) %s.
    columns may also be a `_Grid`, which prints as its three full columns.
    """
    return b"".join(_csv_chunks(header, columns))


def _csv_chunks(header, columns):
    """`encode_csv`'s bytes: the header line, then one chunk per block."""
    yield _header_line(header)
    if isinstance(columns, _Grid):
        yield from _grid_blocks(columns)
        return
    lengths = {len(col) for col in columns}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns differ in length: {sorted(lengths)}")
    for start in range(0, lengths.pop() if lengths else 0, _BLOCK_ROWS):
        yield _csv_block([col[start:start + _BLOCK_ROWS] for col in columns])


def _header_line(header) -> bytes:
    return (",".join(header) + "\n").encode("utf-8")


def _grid_blocks(grid: _Grid):
    """The CSV lines of a `_Grid`, _BLOCK_ROWS rows at a time.

    Blocks split rows, not outer values: a block may start or end inside an
    outer row.  Each axis is formatted once; a block whose values are all
    fixed-6 gathers its axis pieces by row and appends its values' pieces.
    Any other block (or every block, if an axis is not fixed-6) prints the
    block's three columns as `_csv_block` does, so the bytes are those of
    the full columns either way.
    """
    axes = [_float64_cells(grid.outer), _float64_cells(grid.inner)]
    axes = [_fixed6_pieces(x, last=False) for x in axes] if all(map(_fixed6, axes)) else None

    def in_order(outer, inner) -> list:
        return [inner, outer] if grid.inner_first else [outer, inner]

    for start in range(0, grid.values.size, _BLOCK_ROWS):
        rows = np.arange(start, min(start + _BLOCK_ROWS, grid.values.size))
        o, i = np.divmod(rows, len(grid.inner))
        cells = grid.values[o, i]
        if axes is not None and _fixed6(_float64_cells(cells)):
            yield _joined(in_order(axes[0].take(o, axis=0), axes[1].take(i, axis=0))
                          + [_fixed6_pieces(cells, last=True)])
        else:
            yield _csv_block(in_order(grid.outer[o], grid.inner[i]) + [cells])


def _csv_block(columns) -> bytes:
    """The CSV lines of one block of equal-length columns."""
    floats = [_float64_cells(col) for col in columns]
    if all(_fixed6(x) for x in floats):
        return _joined([_fixed6_pieces(x, last=j == len(floats) - 1)
                        for j, x in enumerate(floats)])
    kinds = (np.result_type(*set(map(type, col))).kind for col in columns)
    row_format = ",".join(_CELL_FORMATS.get(k, "%s") for k in kinds) + "\n"
    cells = tuple(chain.from_iterable(zip(*columns)))
    return (row_format * len(columns[0]) % cells).encode("utf-8")


def _float64_cells(col):
    """col as a float64 array if every cell is a float64, else None."""
    if isinstance(col, np.ndarray):
        return col if col.dtype == np.float64 else None
    return np.array(col, dtype=np.float64) if set(map(type, col)) <= _FLOAT_TYPES else None


def _fixed6(x) -> bool:
    """Whether x (from `_float64_cells`) is float64 cells `_fixed6_pieces` prints."""
    return x is not None and bool((np.abs(x) < _FIXED_LIMIT).all())


def _joined(pieces) -> bytes:
    """The CSV lines of piece arrays (rows x fields each, the columns of a
    row in order) side by side, with the pieces' padding spaces stripped.
    Each array's row is copied as one item of a record, which is several
    times faster than numpy's column-by-column concatenation of narrow rows."""
    items = [p.view(f"V{4 * p.shape[1]}")[:, 0] for p in pieces]
    lines = np.empty(len(items[0]), dtype=[(f"f{k}", x.dtype) for k, x in enumerate(items)])
    for k, x in enumerate(items):
        lines[f"f{k}"] = x
    return lines.tobytes().translate(None, b" ")


def _fixed6_pieces(x: np.ndarray, last: bool) -> np.ndarray:
    """The '%.6f' cells of float64 x, finite and below _FIXED_LIMIT, as
    uint32 4-byte pieces, one row per cell: its integer digits in groups
    of three, highest first (as many groups as the widest cell has), then
    ".ddd", then "ddd" and "," or, if last, LF.
    """
    whole, frac = np.divmod(np.abs(_round_scaled(x)).astype(np.int64), 10**6)
    lead = _LEAD + 1000 * np.signbit(x)  # x's sign: -0.0 and -1e-9 print "-0.000000"
    groups = (len(str(int(whole.max()))) + 2) // 3  # of the widest cell
    top = sum(whole >= 1000**g for g in range(1, groups))  # each cell's leading group
    table = _pieces()
    pieces = np.empty((x.size, groups + 2), dtype=np.uint32)
    for g in range(groups):  # lowest group first, into the columns right to left
        digits = whole // 1000**g if g else whole
        if g < groups - 1:  # the top group is below 1000 already
            digits = digits % 1000
        if groups == 1:  # every cell's one group leads
            index = lead + digits
        else:
            index = np.where(g < top, _INNER + digits, np.where(g == top, lead + digits, _BLANK))
        pieces[:, groups - 1 - g] = table[index]
    high, low = np.divmod(frac, 1000)
    pieces[:, -2] = table[_POINT + high]
    pieces[:, -1] = table[_LAST + 1000 * last + low]
    return pieces


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
    _publish({path: [encode_json(obj)]})


def encode_json(obj) -> bytes:
    """JSON with sorted keys and full float precision; InvalidInputError for NaN or inf."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise InvalidInputError(f"result cannot be written as JSON: {exc}") from exc
    return (text + "\n").encode("utf-8")


def write_wav(path: str, samples, sample_rate_hz: float) -> None:
    """A real sample series as float32 mono WAV (format tag 3).

    The caller converts baseband complex signals to a real passband
    series first (see `wavekit.signal.to_passband`).  WAV sample rates
    are integral, so the stored rate is round(sample_rate_hz).
    """
    _publish({path: _wav_chunks(samples, sample_rate_hz)})


def _wav_chunks(samples, sample_rate_hz: float):
    """`write_wav`'s bytes: the header, then float32 samples in blocks."""
    data = np.ravel(samples)
    yield _wav_header(4 * data.size, int(round(sample_rate_hz)))
    for start in range(0, data.size, _BLOCK_ROWS):
        yield data[start:start + _BLOCK_ROWS].astype("<f4").tobytes()


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
    """Load a JSON document: OutputError if unreadable, ConfigError if malformed
    or nested deeper than the parser's recursion limit."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise OutputError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
