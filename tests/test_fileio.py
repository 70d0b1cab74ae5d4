import csv

import numpy as np
import pytest

import wavekernel as wk
from wavekernel import fileio
from wavekernel.cli import _write_series_csv
from wavekernel.errors import ConfigError

_FMT = "%.17g"


def csv_writer_series(path, axis, grid, **series):
    """Reference: the csv.writer series writer the CLI used before fileio."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([axis] + [f"{name}{c}_{p}" for name, values in series.items()
                                  for c in range(values.shape[1]) for p in ("re", "im")])
        for k, x in enumerate(grid):
            row = [_FMT % x]
            for values in series.values():
                for z in values[k]:
                    row += [_FMT % z.real, _FMT % z.imag]
            writer.writerow(row)


def _planted(rng, rows, dim):
    z = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
    z[0, 0] = complex(-0.0, 5e-324)
    z[1, -1] = complex(1e300, -0.0)
    z[2, 0] = complex(-5e-324, -1e300)
    return z


@pytest.mark.parametrize("axis, names, dim", [
    ("x", ("u", "ux", "uxx"), 2),      # snapshot.csv, fd_snapshot.csv
    ("t", ("u",), 1),                  # wave.csv
    ("t", ("f",), 3),                  # control_recovered.csv
], ids=["snapshot", "wave", "recovered"])
def test_series_writer_matches_csv_writer(tmp_path, axis, names, dim):
    rng = np.random.default_rng(7)
    grid = np.linspace(0.0, 1.0, 9)
    grid[1] = 5e-324
    series = {name: _planted(rng, grid.size, dim) for name in names}
    _write_series_csv(tmp_path / "new.csv", axis, grid, **series)
    csv_writer_series(tmp_path / "ref.csv", axis, grid, **series)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_table_round_trips_bit_for_bit(tmp_path):
    rng = np.random.default_rng(3)
    real = rng.normal(size=(6, 2))
    real[0] = [-0.0, 5e-324]
    cplx = _planted(rng, 6, 2)
    cplx[3, 1] = complex(-0.0, -0.0)
    fileio.write_table(tmp_path / "t.csv", ("a", "b"), ("z0", "z1"), real, cplx)
    head, real_back, cplx_back = fileio.read_table(tmp_path / "t.csv", "table", ConfigError, 2)
    assert head == "a,b,z0_re,z0_im,z1_re,z1_im"
    assert real_back.tobytes() == real.tobytes()
    assert cplx_back.tobytes() == cplx.tobytes()        # signed zeros and subnormals too
    assert np.signbit(cplx_back[3, 1].real) and np.signbit(cplx_back[3, 1].imag)


@pytest.mark.parametrize("body, match", [
    ("", None),
    ("t,f0_re,f0_im\r\n", None),
    ("0,1,2\n0,1\n", "malformed"),
    ("0,1\n", "2 columns"),
    ("0,nan,1\n", "non-finite"),
], ids=["empty", "header_only", "ragged", "odd_pairs", "nan"])
def test_read_table_empty_and_malformed(tmp_path, body, match):
    (tmp_path / "t.csv").write_text(body)
    if match is None:
        _, real, cplx = fileio.read_table(tmp_path / "t.csv", "table", ConfigError, 1)
        assert real.shape == (0, 1) and len(cplx) == 0
    else:
        with pytest.raises(ConfigError, match=match):
            fileio.read_table(tmp_path / "t.csv", "table", ConfigError, 1)


def test_missing_files_raise_the_callers_error(tmp_path):
    for read in (lambda p: fileio.read_table(p, "table", ConfigError, 1),
                 lambda p: fileio.read_json(p, "summary", ConfigError),
                 lambda p: fileio.read_key_values(p, "config", ConfigError)):
        with pytest.raises(ConfigError, match="cannot read"):
            read(tmp_path / "missing")


def test_repeated_key_names_both_lines(tmp_path):
    # a repeated key used to overwrite the earlier one
    (tmp_path / "run.cfg").write_text("T = 1\n# comment\nN = 4\nT = 0.5\n")
    with pytest.raises(ConfigError, match=r"run.cfg:4: key 'T' repeats line 1"):
        fileio.read_key_values(tmp_path / "run.cfg", "config", ConfigError)


def test_dump_weyl_ends_lines_in_crlf(tmp_path):
    K = wk.weyl_solution(wk.constant_potential(1.0, x_max=2.0, step=1 / 128), 1.5, 1.0)
    wk.dump_weyl(K, tmp_path / "weyl.csv")
    lines = (tmp_path / "weyl.csv").read_bytes().split(b"\r\n")
    assert lines[0] == b"x,K00_re,K00_im" and lines[-1] == b""
    assert len(lines) == len(K.grid) + 2 and b"\n" not in b"".join(lines)
