import csv

import numpy as np
import pytest

import wavekernel as wk
from wavekernel import fileio
from wavekernel.cli import _write_series_csv
from wavekernel.errors import ConfigError, DomainError

from conftest import shortest


def csv_writer_series(path, axis, grid, **series):
    """Reference: the csv.writer series writer the CLI used before fileio,
    with every value spelled by shortest."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([axis] + [f"{name}{c}_{p}" for name, values in series.items()
                                  for c in range(values.shape[1]) for p in ("re", "im")])
        for k, x in enumerate(grid):
            row = [shortest(x)]
            for values in series.values():
                for z in values[k]:
                    row += [shortest(z.real), shortest(z.imag)]
            writer.writerow(row)


def _planted(rng, rows, dim):
    """Random values plus the spellings that differ from repr or %.17g."""
    z = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
    z[0, 0] = complex(-0.0, 5e-324)
    z[1, -1] = complex(1e300, -0.0)
    z[2, 0] = complex(-5e-324, -1e300)
    z[3, 0] = complex(1e16, -1.2345678901234567e-7)
    z[4, -1] = complex(-1.5e-5, 0.0025000000000000001)
    return z


@pytest.mark.parametrize("axis, names, dim", [
    ("x", ("u", "ux", "uxx"), 2),      # snapshot.csv, fd_snapshot.csv
    ("t", ("u",), 1),                  # one series of one component
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


def test_written_tokens_are_shortest_round_trips(tmp_path):
    # finite values over the whole exponent range, the spellings that differ from repr among them
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2 ** 64, size=20000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([
        bits[np.isfinite(bits)],
        rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-323, 308, 4000),
        rng.uniform(1e-5, 1e-4, 500), np.round(rng.normal(size=500), 3),
        [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-5, 1e-4],
    ])
    fileio.write_table(tmp_path / "t.csv", ("x",), (), values[:, None],
                       np.empty((values.size, 0)))
    lines = (tmp_path / "t.csv").read_bytes().split(b"\r\n")
    assert lines[0] == b"x" and lines[-1] == b"" and len(lines) == values.size + 2
    digits = lambda s: len(s.lstrip("-").partition("e")[0].replace(".", "").strip("0"))
    for x, token in zip(values.tolist(), lines[1:-1]):
        token = token.decode()
        assert np.float64(float(token)).tobytes() == np.float64(x).tobytes(), token
        assert digits(token) <= digits(repr(x)), (token, repr(x))
        # orjson spells [1e-5, 1e-4) positionally: 0.00001 is two characters longer than 1e-05
        assert len(token) <= len(repr(x)) + 2 * (1e-5 <= abs(x) < 1e-4), (token, repr(x))
        assert token == shortest(x)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["real", "complex"])
def test_write_table_refuses_non_finite_and_writes_nothing(tmp_path, bad, where):
    real = np.zeros((5, 1))
    cplx = np.ones((5, 2), dtype=complex)
    if where == "real":
        real[3, 0] = bad
    else:
        cplx[4, 1] = complex(0.0, bad)
    path = tmp_path / "out" / "t.csv"
    with pytest.raises(DomainError, match="table .*t.csv must be finite"):
        fileio.write_table(path, ("x",), ("z0", "z1"), real, cplx)
    assert not path.exists()


@pytest.mark.parametrize("body, match", [
    ("", None),
    ("t,f0_re,f0_im\r\n", None),
    ("0,1,2\n0,1\n", "malformed"),
    ("0,1\n", "2 columns"),
    ("0,nan,1\n", "table .*t.csv must be finite"),
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


def test_malformed_json_raises_the_callers_error(tmp_path):
    (tmp_path / "k.json").write_text('{"T": 1.0,')
    with pytest.raises(DomainError, match=r"^malformed kernel summary .*k\.json: "):
        fileio.read_json(tmp_path / "k.json", "kernel summary", DomainError)


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
