"""Serialization: exact bytes of the CSV writers and `fileio.write_wav`.

The CSV writers are checked against `oracles.percent_csv`, which formats
one cell at a time with %, on fuzzed columns and on every CSV artifact
the five CLI commands write.
"""

import io
import json
import os
import stat
import tempfile
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


def test_every_cli_csv_artifact_matches_the_percent_oracle(tmp_path, monkeypatch):
    """Each CSV the five commands write equals the oracle's file of the
    columns the command returned for that file name."""
    handed = {}  # "<command>/<file name>" -> the (header, columns) returned for it

    def keep_columns(command, run):
        def run_and_keep(tree, args, formats):
            artifacts = run(tree, args, formats)
            for name, content in artifacts.items():
                if name.endswith(".csv"):
                    handed[os.path.join(command, name)] = content
            return artifacts
        return run_and_keep

    for command, run in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, command, keep_columns(command, run))
    for command, (config, extra) in _CLI_RUNS.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps({"command": command, **config}))
        assert cli.main([command, "--config", str(path),
                         "--out", str(tmp_path / command), *extra]) == 0
    assert sorted(handed) == sorted(str(p.relative_to(tmp_path))
                                    for p in tmp_path.glob("*/*.csv"))
    assert len(handed) == 14
    for name, (header, columns) in handed.items():
        assert (tmp_path / name).read_bytes() == percent_csv(header, columns), name
    range_doppler = handed[os.path.join("simulate", "range_doppler.csv")][1]
    assert len(range_doppler[0]) > 2 * fileio._BLOCK_ROWS
    assert np.abs(handed[os.path.join("analyze", "spectrum.csv")][1][0]).max() >= 1000


@pytest.mark.parametrize("num_samples", [1, 2, 5, 2048])
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

