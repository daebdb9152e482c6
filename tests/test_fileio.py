"""Serialization: exact bytes of `fileio.write_csv` and `fileio.write_wav`."""

import io
import os
import stat

import numpy as np
import pytest
from scipy.io import wavfile

from wavekit import fileio
from wavekit.errors import OutputError
from wavekit.fileio import write_csv, write_json, write_wav

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

