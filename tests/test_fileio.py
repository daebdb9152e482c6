"""Serialization: exact bytes of the CSV writers and `fileio.write_wav`.

The CSV writers are checked against `oracles.percent_csv`, which formats
one cell at a time with %, on fuzzed columns and on every CSV artifact
the five CLI commands write.  A grid CSV (`fileio._Grid`) is checked
against `encode_csv` of its columns built in full with np.repeat and
np.tile, and its encoding's memory against one block.
"""

import io
import json
import os
import stat
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from wavekit import cli, fileio
from wavekit.errors import OutputError
from wavekit.fileio import encode_csv, write_csv, write_json, write_wav

from oracles import percent_csv

# %.6f of 1e300: every integer digit of the double nearest 1e300.
_E300 = ("1000000000000000052504760255204420248704468581108159154915854115511802457"
         "9889081957863713750804478640437044438328838781769425232353604305756447921"
         "8478670698284838720092657580373783023379478809005936895323497079994508111"
         "9038967640880074652742780142494579258788820056842838115669472196386865459"
         "400540160.000000")


def _written(tmp_path, header, rows) -> str:
    path = tmp_path / "t.csv"
    write_csv(str(path), header, rows)
    return path.read_bytes().decode("utf-8")


def test_write_csv_golden_bytes(tmp_path, monkeypatch):
    """Each column keeps its type's format across block boundaries (3-row blocks)."""
    monkeypatch.setattr(fileio, "_BLOCK_ROWS", 3)
    index = list(range(7))
    names = ["lfm", "p4", "costas", "a b", "", "x", "-1"]
    values = np.array([-0.0, np.nan, 1e300, 0.5e-6, 1.5e-6, 2.5e-6, -1234.5678915])
    flags = [True, False, np.True_, np.False_, True, False, True]
    expected = ("index,name,value,flag\n"
                "0,lfm,-0.000000,True\n"
                "1,p4,nan,False\n"
                f"2,costas,{_E300},True\n"
                "3,a b,0.000000,False\n"
                "4,,0.000002,True\n"
                "5,x,0.000003,False\n"
                "6,-1,-1234.567892,True\n")
    assert _written(tmp_path, ("index", "name", "value", "flag"),
                    zip(index, names, values, flags)) == expected


@pytest.mark.parametrize("umask", [0o077, 0o027, 0o002], ids=["077", "027", "002"])
def test_file_mode_follows_the_umask_at_write_time(tmp_path, umask):
    """Set after import, as a process that tightens its umask late would."""
    previous = os.umask(umask)
    try:
        write_json(str(tmp_path / "t.json"), {"a": 1})
    finally:
        os.umask(previous)
    assert stat.S_IMODE((tmp_path / "t.json").stat().st_mode) == 0o666 & ~umask
    assert os.listdir(tmp_path) == ["t.json"]  # no temp file left behind


def test_failed_rename_removes_the_temp_file(tmp_path):
    """The target is a directory, so os.replace fails after the temp file is written."""
    (tmp_path / "t.json").mkdir()
    with pytest.raises(OutputError, match="cannot write"):
        write_json(str(tmp_path / "t.json"), {"a": 1})
    assert os.listdir(tmp_path) == ["t.json"]
    assert os.listdir(tmp_path / "t.json") == []


def test_write_csv_header_only(tmp_path):
    assert _written(tmp_path, ("a", "b"), []) == "a,b\n"


@pytest.mark.parametrize("extra", [0, 1])
def test_write_csv_full_blocks(tmp_path, extra):
    """Integer columns (numpy or Python, beyond 64 bits too) print in full."""
    n = 2 * fileio._BLOCK_ROWS + extra
    big = [2**70 + i for i in range(n)]
    lines = _written(tmp_path, ("i", "big", "q"),
                     zip(np.arange(n), big, np.arange(n) / 8.0)).splitlines()
    assert len(lines) == n + 1
    assert lines[1] == "0,1180591620717411303424,0.000000"
    assert lines[-1] == f"{n - 1},{2**70 + n - 1},{(n - 1) / 8.0:.6f}"


def _both_writers(header, columns, block_rows) -> bytes:
    """The bytes encode_csv gives for the columns and write_csv writes for
    their rows, checked equal, with _BLOCK_ROWS set to block_rows."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(fileio, "_BLOCK_ROWS", block_rows):
        by_rows = os.path.join(tmp, "r.csv")
        data = encode_csv(header, columns)
        write_csv(by_rows, header, zip(*columns))
        with open(by_rows, "rb") as handle:
            assert handle.read() == data
    return data


def _odd_128ths():
    """(2m + 1)/128: a tie of %.6f, as x * 10**6 is an odd multiple of 1/2."""
    return st.integers(-2**40, 2**40).map(lambda m: (2 * m + 1) / 128)


_FLOAT_CELLS = st.one_of(
    st.floats(),  # NaN and infinities included: they take the % path
    st.builds(lambda x, e: x * 2.0**-e, _odd_128ths(), st.integers(0, 30)),
    st.builds(lambda x, up: float(np.nextafter(x, np.inf if up else -np.inf)),
              _odd_128ths(), st.booleans()),
    st.sampled_from([0.0, -0.0, -1e-9, -4e-7, -5e-7, -6e-7, -5e-324]),
    st.builds(lambda edge, sign, offset: sign * edge + offset,
              st.sampled_from([1e3, 1e6, 2.0**33]), st.sampled_from([1.0, -1.0]),
              st.one_of(st.floats(-2.0, 2.0), st.sampled_from([-1e-6, -5e-7, 0.0, 5e-7]))),
    st.sampled_from([2.0**33, -2.0**33]).map(lambda x: float(np.nextafter(x, 0.0))),
    st.builds(lambda x, sign: sign * x, st.floats(2.0**32, 2.0**35), st.sampled_from([1.0, -1.0])),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_FLOAT_CELLS, min_size=1, max_size=40), st.integers(1, 16))
def test_float_cells_print_as_percent(values, block_rows):
    """Ties, their neighbours, signed zeros, tiny negatives and values on both
    sides of 1000, 10**6 and 2**33, as an array and as a list."""
    expected = "".join(["x\n"] + ["%.6f\n" % v for v in values]).encode()
    assert _both_writers(("x",), (np.array(values),), block_rows) == expected
    assert _both_writers(("x",), (values,), block_rows) == expected


_TEXT = st.text(st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)))
_COLUMNS = {  # kind: (cells, column of the drawn cells)
    "float": (_FLOAT_CELLS, np.array),
    "float_list": (_FLOAT_CELLS, list),
    "int": (st.integers(), list),
    "int64": (st.integers(-2**63, 2**63 - 1), lambda cells: np.array(cells, dtype=np.int64)),
    "bool": (st.booleans(), list),
    "str": (_TEXT, list),
}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mixed_columns_match_the_percent_oracle(data):
    """Blocks with int, bool and str columns beside float ones keep the % rule."""
    kinds = data.draw(st.lists(st.sampled_from(sorted(_COLUMNS)), min_size=1, max_size=5))
    num_rows = data.draw(st.integers(0, 25))
    columns = []
    for kind in kinds:
        cells, as_column = _COLUMNS[kind]
        columns.append(as_column(data.draw(st.lists(cells, min_size=num_rows,
                                                    max_size=num_rows))))
    header = [f"c{i}" for i in range(len(columns))]
    block_rows = data.draw(st.integers(1, 8))
    assert _both_writers(header, columns, block_rows) == percent_csv(header, columns)


def test_csv_columns_must_have_one_length():
    with pytest.raises(ValueError, match="differ in length"):
        encode_csv(("a", "b"), ([1.0, 2.0], [1.0]))


# Configs shaped like the benchmark's five commands, at sizes a test can afford:
# fs = 2048 Hz puts spectrum and Doppler-axis values past 1000, and the
# range-Doppler map spans several blocks.
_LFM = {"kind": "lfm", "bandwidth_hz": 256.0, "duration_s": 0.25}
_COSTAS = {"kind": "costas_fsk", "prime": 7, "generator": 3, "duration_s": 0.25}
_CLI_RUNS = {
    "synth": ({"waveform": _LFM, "sample_rate_hz": 2048.0}, ["--format", "csv,json,wav"]),
    "analyze": ({"waveform": _COSTAS, "sample_rate_hz": 2048.0}, []),
    "optimize": ({"problem": {"num_harmonics": 2, "duration_s": 1.0, "bandwidth_hz": 32.0,
                              "sample_rate_hz": 128.0, "budget": 40}}, ["--seed", "1"]),
    "simulate": ({"waveform": _LFM, "sample_rate_hz": 2048.0,
                  "scene": {"benchmark_bandwidth_hz": 256.0},
                  "doppler_span_hz": 40.0, "num_dopplers": 15}, ["--seed", "7"]),
    "compare": ({"num_doppler_points": 11, "sample_rate_hz": 2048.0,
                 "waveforms": [{"name": "lfm", "waveform": _LFM},
                               {"name": "p4", "waveform": {"kind": "p4", "num_chips": 32,
                                                           "duration_s": 0.25}},
                               {"name": "costas7", "waveform": _COSTAS}]}, []),
}


def _cli_artifacts(tmp_path, monkeypatch) -> dict:
    """Run the five commands; "<command>/<file name>" -> the content each
    command returned for that file (CSV (header, columns or `_Grid`), JSON
    document or WAV (samples, rate)), checked to be every file written."""
    handed = {}

    def keep_content(command, run):
        def run_and_keep(tree, args, formats):
            artifacts = run(tree, args, formats)
            for name, content in artifacts.items():
                handed[os.path.join(command, name)] = content
            return artifacts
        return run_and_keep

    for command, run in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, command, keep_content(command, run))
    for command, (config, extra) in _CLI_RUNS.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps({"command": command, **config}))
        assert cli.main([command, "--config", str(path),
                         "--out", str(tmp_path / command), *extra]) == 0
    assert sorted(handed) == sorted(str(p.relative_to(tmp_path))
                                    for p in tmp_path.glob("*/*.*"))
    return handed


def _columns_of(columns):
    """A `_Grid`'s three columns in header order, its axes repeated and
    tiled out to one cell per row; any other columns as they are."""
    if not isinstance(columns, fileio._Grid):
        return columns
    outer = np.repeat(columns.outer, len(columns.inner))
    inner = np.tile(columns.inner, len(columns.outer))
    axes = (inner, outer) if columns.inner_first else (outer, inner)
    return (*axes, np.ravel(columns.values))


def test_every_cli_csv_artifact_matches_the_percent_oracle(tmp_path, monkeypatch):
    """Each CSV the five commands write equals the oracle's file of the
    columns the command returned for that file name, a grid's in full."""
    handed = {name: content for name, content in _cli_artifacts(tmp_path, monkeypatch).items()
              if name.endswith(".csv")}
    assert len(handed) == 14
    for name, (header, columns) in handed.items():
        assert (tmp_path / name).read_bytes() == percent_csv(header, _columns_of(columns)), name
    range_doppler = handed[os.path.join("simulate", "range_doppler.csv")][1]
    assert range_doppler.values.size > 2 * fileio._BLOCK_ROWS
    assert np.abs(handed[os.path.join("analyze", "spectrum.csv")][1][0]).max() >= 1000


def test_row_writers_give_the_cli_bytes(tmp_path, monkeypatch):
    """write_csv (fed rows), write_json and write_wav re-write every artifact
    of the five commands byte for byte, each into a directory they make."""
    handed = _cli_artifacts(tmp_path, monkeypatch)
    assert {os.path.splitext(name)[1] for name in handed} == {".csv", ".json", ".wav"}
    for name, content in handed.items():
        copy = str(tmp_path / "copies" / name)
        if name.endswith(".csv"):
            header, columns = content
            write_csv(copy, header, zip(*_columns_of(columns)))
        elif name.endswith(".json"):
            write_json(copy, content)
        else:
            write_wav(copy, *content)
        assert (tmp_path / "copies" / name).read_bytes() == (tmp_path / name).read_bytes(), name
    assert not list(tmp_path.glob("**/.wavekit-*"))


_TIES = [(2 * m + 1) / 128 for m in (-3, 0, 1, 2)]  # x * 10**6 ends in .5 exactly
_GRIDS = {  # name: (outer axis, inner axis, values as outer x inner)
    "signed_zero_and_ties": ([-0.0, 1 / 128, -3 / 128], [0.0, -1e-9, 5 / 128, 2.5e-6],
                             [_TIES, [-0.0, 0.0, -5e-7, 4e-7], [-1 / 128] * 4]),
    "digit_groups": ([1000.0, -123456.5 / 128, 2.0**33 - 1], [0.25, -999.9999995, 1e6, 7.0],
                     [[1234567.891011, -1e9, 999.9999996, -0.0]] * 3),
    "large_and_nonfinite_values": ([-20.0, 0.0, 20.0], [0.5, 1.5, 2.5, 3.5],
                                   [[1.0, 2.0**33, 3.0, 4.0], [5.0, np.nan, np.inf, -np.inf],
                                    [-1.0, -2.0, -3.0, -4.0]]),
    "large_axis": ([1.0, -2.0**40, 3.0], [0.0, 1.0, 2.0, 3.0], np.arange(12.0).reshape(3, 4)),
    "one_point_outer": ([7.5], [0.0, 0.1, 0.2, 0.3, 0.4], [[-1.0, -2.0, -3.0, -4.0, -5.0]]),
    "one_point_inner": ([1.0, 2.0, 3.0, 4.0], [-0.5], [[-1.0], [-2.0], [-3.0], [-4.0]]),
}


@pytest.mark.parametrize("block_rows", [1, 3, 5, 8192])
@pytest.mark.parametrize("inner_first", [True, False], ids=["inner_first", "outer_first"])
@pytest.mark.parametrize("name", sorted(_GRIDS))
def test_grid_prints_as_its_full_columns(name, inner_first, block_rows):
    """Signed zeros, half-even ties, several digit groups, values and axes
    from 2**33 up (a % block) and NaN or infinities in a block, one-point
    axes, both column orders (range-Doppler and ambiguity put the inner
    axis first, the spectrogram the outer), and blocks of 3 and 5 rows
    that split inside and across outer rows of 4 cells."""
    outer, inner, values = (np.array(a, dtype=float) for a in _GRIDS[name])
    grid = fileio._Grid(outer, inner, values, inner_first=inner_first)
    header = ("a", "b", "db")
    with mock.patch.object(fileio, "_BLOCK_ROWS", block_rows):
        data = encode_csv(header, grid)
        assert data == encode_csv(header, _columns_of(grid))
    assert data == percent_csv(header, _columns_of(grid))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fuzzed_grids_print_as_their_full_columns(data):
    shape = data.draw(st.tuples(st.integers(1, 5), st.integers(1, 5)))
    outer, inner, values = (np.array(data.draw(st.lists(_FLOAT_CELLS, min_size=n, max_size=n)))
                            for n in (shape[0], shape[1], shape[0] * shape[1]))
    grid = fileio._Grid(outer, inner, values.reshape(shape), inner_first=data.draw(st.booleans()))
    with mock.patch.object(fileio, "_BLOCK_ROWS", data.draw(st.integers(1, 12))):
        assert encode_csv(("a", "b", "c"), grid) == percent_csv(("a", "b", "c"), _columns_of(grid))


def test_grid_encoding_memory_is_one_block_not_the_table():
    """A 201 x 4479 grid, the benchmark's range-Doppler map (900279 rows,
    27.5 MB of CSV), encodes within a few encoded blocks' bytes under
    tracemalloc (about 7: the block's int64 and float64 temporaries), not
    within the table's.  Building its columns in full and joining the
    file's blocks peaked at 69.4 MB."""
    rng = np.random.default_rng(0)
    grid = fileio._Grid(np.linspace(-20.0, 20.0, 201), (np.arange(4479) - 2047) / 2048.0,
                        -120.0 * rng.random((201, 4479)), inner_first=True)
    fileio._pieces()  # the shared, cached piece table
    tracemalloc.start()
    try:
        size = sum(len(chunk) for chunk in fileio._csv_chunks(("tau_s", "nu_hz", "db"), grid))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = size * fileio._BLOCK_ROWS / grid.values.size  # the bytes of one encoded block
    assert size > 25e6
    assert peak < 12 * block, (peak, block)


@pytest.mark.parametrize("num_samples", [1, 2, 5, 2048, 20000])  # 20000: three blocks
@pytest.mark.parametrize("rate", [2048, 44100, 2047.6])
def test_write_wav_matches_scipy_bytes(tmp_path, num_samples, rate):
    samples = np.random.default_rng(num_samples).standard_normal(num_samples)
    expected = io.BytesIO()
    wavfile.write(expected, int(round(rate)), samples.astype(np.float32))
    path = tmp_path / "t.wav"
    write_wav(str(path), samples, rate)
    assert path.read_bytes() == expected.getvalue()


def test_wav_header_rejects_data_beyond_the_riff_size():
    """Checked on the header alone: no 4 GiB sample buffer is allocated."""
    limit = 0xFFFFFFFF - (fileio._WAV_HEADER_BYTES - 8)
    assert len(fileio._wav_header(limit, 2048)) == fileio._WAV_HEADER_BYTES
    with pytest.raises(OutputError, match="RIFF"):
        fileio._wav_header(limit + 4, 2048)

