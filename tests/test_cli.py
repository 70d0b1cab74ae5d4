import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavekernel as wk
from wavekernel import cli, goursat
from wavekernel.cli import main


def write_pot(path, body):
    path.write_text(body)
    return path


def zero_pot(tmp_path):
    return write_pot(tmp_path / "pot.txt",
                     "kind = zero\ndimension = 1\nx_max = 2.0\nstep = 0.0078125\n")


def one_pot(tmp_path):
    return write_pot(tmp_path / "pot.txt",
                     "kind = preset\nname = one\nx_max = 2.0\nstep = 0.0009765625\n")


def write_cfg(tmp_path, extra="", pot="pot.txt"):
    """Default run config; the `key = value` lines of extra replace or add keys."""
    defaults = {"potential": pot, "T": "1.0", "h": "0.02", "N": "100", "tol": "1e-10",
                "control": "bump start=0.1 stop=0.9 amp=1", "out": "out", "seed": "3"}
    given = {line.partition("=")[0].strip() for line in extra.splitlines()}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in defaults.items() if k not in given)
                   + extra)
    return cfg


@pytest.mark.parametrize("argv, message", [
    (["nosuch", "--config", "run.cfg"], "invalid choice: 'nosuch'"),
    # apply wrote propagate's u alone to wave.csv before it left the CLI
    (["apply", "--config", "run.cfg"], "invalid choice: 'apply'"),
    (["kernel"], "required: --config"),
    (["kernel", "--config", "run.cfg", "--seed", "abc"], "invalid int value: 'abc'"),
], ids=["unknown_command", "apply", "missing_config", "seed_not_integer"])
def test_usage_error_is_an_input_error(tmp_path, capsys, monkeypatch, argv, message):
    # argparse used to exit 2, the code of a kernel residual above tol
    one_pot(tmp_path)
    write_cfg(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: wavekernel") and "error: " in err and message in err
    if "invalid choice" in message:
        assert all(repr(command) in err for command in cli._COMMANDS)
    assert not (tmp_path / "out").exists()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: wavekernel")


def test_kernel_zero_potential(tmp_path):
    zero_pot(tmp_path)
    cfg = write_cfg(tmp_path, extra="trials = 2\n")
    assert main(["kernel", "--config", str(cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "kernel.json").read_text())
    assert summary["iterations"] == 100 + 2       # the march's M + 2 anti-diagonals, M = 2T/h
    assert summary["tail_bound"] == 0.0
    assert (tmp_path / "out" / "manifest.json").exists()
    # the kernel constants are reported by bounds, on the same config
    assert main(["bounds", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "bounds.json").read_text())
    assert report["b1"] == 0.0 and report["b4"] == 0.0


def test_kernel_constant_summary(tmp_path):
    one_pot(tmp_path)
    cfg = write_cfg(tmp_path, extra="h = 0.005\ntrials = 2\n")
    assert main(["kernel", "--config", str(cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "kernel.json").read_text())
    assert summary["tail_bound"] < 1e-4
    # the kernel constants are reported by bounds, on the same config
    assert main(["bounds", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "bounds.json").read_text())
    assert report["b4"] == pytest.approx(0.5, abs=1e-4)


def test_kernel_summary_keys(tmp_path):
    # kernel.json holds what load_kernel reads; the kernel constants b1-b4 are
    # in bounds.json and validate.json
    one_pot(tmp_path)
    assert main(["kernel", "--config", str(write_cfg(tmp_path))]) == 0
    summary = json.loads((tmp_path / "out" / "kernel.json").read_text())
    assert set(summary) == {"T", "h", "n", "iterations", "tail_bound"}


def test_kernel_computes_no_constants_and_builds_no_table(tmp_path, monkeypatch):
    # the kernel command solves and dumps: it never calls kernel_constants, and
    # its field holds v alone afterwards
    one_pot(tmp_path)
    fields, solve = [], cli.solve_goursat
    monkeypatch.setattr(cli, "solve_goursat", lambda *a, **kw: fields.append(solve(*a, **kw)) or fields[-1])
    calls, constants = [], goursat.kernel_constants
    monkeypatch.setattr(goursat, "kernel_constants", lambda f: calls.append(f) or constants(f))
    assert main(["kernel", "--config", str(write_cfg(tmp_path))]) == 0
    assert calls == [] and len(fields) == 1
    assert fields[0]._wx_lat is None and fields[0]._wtt_lat is None


def test_kernel_malformed_potential(tmp_path, capsys):
    write_pot(tmp_path / "pot.txt", "kind = banana\n")
    cfg = write_cfg(tmp_path)
    assert main(["kernel", "--config", str(cfg)]) == 1
    assert "banana" in capsys.readouterr().err


def test_kernel_nonconvergence_exit(tmp_path, capsys):
    # no lattice field has a residual below 1e-300, so the march's certificate fails
    one_pot(tmp_path)
    cfg = write_cfg(tmp_path, extra="tol = 1e-300\n")
    assert main(["kernel", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: march residual")


def test_kernel_singular_step_matrix(tmp_path, capsys):
    # q = -16/h^2: the march's step matrix I + h^2/16 q_k is zero at every offset
    write_pot(tmp_path / "pot.txt",
              "kind = constant\nmatrix = -256\nx_max = 1.0\nstep = 0.015625\n")
    cfg = write_cfg(tmp_path, extra="h = 0.25\n")
    assert main(["kernel", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: march step matrix") and "k = j - i = 0" in err
    assert "h = 0.25" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_kernel_out_of_memory_is_an_input_error(tmp_path, capsys, monkeypatch):
    # h = 1e-6 makes the march ask numpy for ~29 TiB.  The failed allocation is
    # simulated: a real one can succeed lazily under overcommit and then touch
    # memory.
    def too_fine(*args, **kwargs):
        raise MemoryError("Unable to allocate 29.1 TiB for an array with shape "
                          "(1000002, 2000001, 1, 1) and data type complex128")

    monkeypatch.setattr(cli, "solve_goursat", too_fine)
    one_pot(tmp_path)
    cfg = write_cfg(tmp_path)
    assert main(["kernel", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory (Unable to allocate 29.1 TiB")
    assert "larger h" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_propagate_zero_reflects_control(tmp_path):
    zero_pot(tmp_path)
    cfg = write_cfg(tmp_path)
    assert main(["propagate", "--config", str(cfg)]) == 0
    raw = np.loadtxt(tmp_path / "out" / "snapshot.csv", delimiter=",", skiprows=1)
    grid = raw[:, 0]
    u = raw[:, 1] + 1j * raw[:, 2]
    f = wk.bump_control(1.0, 0.1, 0.9, 1.0)
    assert np.abs(u - f.sample(1.0 - grid)[0][:, 0]).max() < 1e-15


def test_propagate_missing_kernel_dump(tmp_path, capsys):
    zero_pot(tmp_path)
    cfg = write_cfg(tmp_path, extra="kernel_dump = nowhere.csv\n")
    assert main(["propagate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read kernel summary")


def test_propagate_golden_against_library(tmp_path):
    one_pot(tmp_path)
    cfg = write_cfg(tmp_path)
    assert main(["propagate", "--config", str(cfg)]) == 0
    raw = np.loadtxt(tmp_path / "out" / "snapshot.csv", delimiter=",", skiprows=1)
    p = wk.build_potential(wk.parse_potential_file(tmp_path / "pot.txt"))
    fld = wk.solve_goursat(p, 1.0, 0.02, 1e-10, method="march")
    f = wk.bump_control(1.0, 0.1, 0.9, 1.0)
    snap = wk.propagate(fld, f, 1.0, 100)
    assert np.abs(raw[:, 1] + 1j * raw[:, 2] - snap.u[:, 0]).max() == 0.0


def test_propagate_from_dump(tmp_path):
    one_pot(tmp_path)
    cfg = write_cfg(tmp_path)
    assert main(["kernel", "--config", str(cfg)]) == 0
    cfg2 = write_cfg(tmp_path, extra="kernel_dump = out/kernel.csv\n")
    assert main(["propagate", "--config", str(cfg2), "--out", str(tmp_path / "out2")]) == 0
    a = (tmp_path / "out" / "kernel.json").read_text()
    assert json.loads(a)["n"] == 1
    raw = np.loadtxt(tmp_path / "out2" / "snapshot.csv", delimiter=",", skiprows=1)
    assert raw.shape[0] == 101


def _drop_field(lines):
    lines[3] = lines[3].rsplit(",", 1)[0]


def _set_field(row, col, value):
    def edit(lines):
        cells = lines[row].split(",")
        cells[col] = value
        lines[row] = ",".join(cells)
    return edit


def _swap_xi_eta(lines):
    xi, eta, rest = lines[2].split(",", 2)
    lines[2] = ",".join([eta, xi, rest])


def _duplicate_row(lines):
    lines[2] = lines[3]


def _drop_row(lines):
    del lines[5]


def _swap_rows(lines):
    # every node once, but row 3 holds node (0, 3), where the dump's i-major
    # order puts node (0, 2)
    lines[3], lines[4] = lines[4], lines[3]


def _header_only(lines):
    del lines[1:-1]


def _wrong_header(lines):
    lines[0] = "xi,eta,v00_re,v00_im,v01_re,v01_im,v10_re,v10_im,v11_re,v11_im"


def _beyond_region(lines):
    # node (25, 78) of the M = 100 lattice: above the diagonal, but i + j > M + 1
    lines[4] = ",".join(["0.5", "1.56"] + lines[4].split(",")[2:])


def _whole_triangle(lines):
    # every node i <= j of the M = 100 lattice, as a dump of the whole triangle holds
    lines[1:] = [f"{i * 0.02:.17g},{j * 0.02:.17g},0,0\r"
                 for i in range(101) for j in range(i, 101)] + [""]


@pytest.mark.parametrize("edit, message", [
    (_wrong_header, "header"),
    (_set_field(4, 2, "nan"), "must be finite"),
    (_set_field(4, 3, "-inf"), "must be finite"),
    (_set_field(4, 2, "1.0.0"), "malformed"),
    (_drop_field, "malformed"),
    (_set_field(4, 0, "0.013"), "not node"),
    (_set_field(4, 1, "5.0"), "not node"),
    (_set_field(4, 0, "-0.02"), "not node"),
    (_swap_xi_eta, "not node"),
    (_duplicate_row, "not node"),
    (_swap_rows, "row 3 at (xi, eta) = (0.0, 0.06) is not node (i, j) = (0, 2)"),
    (_drop_row, "rows"),
    (_header_only, "rows"),
    (_beyond_region, "regenerate it with `wavekernel kernel`"),
    (_whole_triangle, "regenerate it with `wavekernel kernel`"),
    # a dict replaces keys of the kernel.json summary; each of these used to load
    ({"n": 1.7}, "kernel dimension n must be an integer >= 1, got 1.7"),
    ({"n": True}, "kernel dimension n must be an integer >= 1, got True"),
    ({"iterations": 3.9}, "iterations must be an integer >= 0, got 3.9"),
    ({"iterations": -5}, "iterations must be an integer >= 0, got -5"),
    ({"T": True}, "T must be a finite real number > 0, not a bool, got True"),
    ({"h": True}, "h must be a finite real number > 0, not a bool, got True"),
    ({"T": "1.0"}, "T must be a finite real number > 0, not a bool, got '1.0'"),
], ids=["header", "nan", "inf", "unparsable", "short_row", "off_grid", "beyond_lattice",
        "negative", "below_diagonal", "duplicate", "swapped", "missing", "empty", "beyond_region",
        "whole_triangle", "n_fraction", "n_bool", "iterations_fraction", "iterations_negative",
        "T_bool", "h_bool", "T_string"])
def test_malformed_kernel_dump_rejected(tmp_path, capsys, edit, message):
    one_pot(tmp_path)
    cfg = write_cfg(tmp_path)
    assert main(["kernel", "--config", str(cfg)]) == 0
    if isinstance(edit, dict):
        summary = tmp_path / "out" / "kernel.json"
        summary.write_text(json.dumps({**json.loads(summary.read_text()), **edit}))
    else:
        dump = tmp_path / "out" / "kernel.csv"
        lines = dump.read_text().split("\n")
        edit(lines)
        dump.write_text("\n".join(lines))
    cfg2 = write_cfg(tmp_path, extra="kernel_dump = out/kernel.csv\n")
    assert main(["propagate", "--config", str(cfg2), "--out", str(tmp_path / "out2")]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out2" / "snapshot.csv").exists()


def test_kernel_dump_of_another_dimension_rejected(tmp_path, capsys):
    # a 2x2 dump read with a scalar potential used to end in an IndexError traceback
    write_pot(tmp_path / "herm2.txt",
              "kind = preset\nname = herm2\nx_max = 2.0\nstep = 0.0009765625\n")
    assert main(["kernel", "--config", str(write_cfg(tmp_path, pot="herm2.txt"))]) == 0
    one_pot(tmp_path)
    cfg = write_cfg(tmp_path, extra="kernel_dump = out/kernel.csv\nN = 32\ntrials = 3\n")
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dimension 2 != potential dimension 1" in err
    assert not (tmp_path / "b" / "bounds.json").exists()


def test_invert_rejects_off_grid_snapshot(tmp_path, capsys):
    one_pot(tmp_path)
    cfg = write_cfg(tmp_path)
    assert main(["propagate", "--config", str(cfg)]) == 0
    snap = tmp_path / "out" / "snapshot.csv"
    raw = np.loadtxt(snap, delimiter=",", skiprows=1)
    raw[:, 0] *= 0.5                    # uniform, but on [0, T/2]
    np.savetxt(snap, raw, delimiter=",", header="x,u0_re,u0_im", comments="")
    cfg2 = write_cfg(tmp_path, extra="snapshot = out/snapshot.csv\n")
    assert main(["invert", "--config", str(cfg2), "--out", str(tmp_path / "inv")]) == 1
    assert "uniform grid" in capsys.readouterr().err
    assert not (tmp_path / "inv" / "control_recovered.csv").exists()


def test_propagate_and_invert_round_trip(tmp_path):
    one_pot(tmp_path)
    cfg = write_cfg(tmp_path, extra="N = 150\n")
    assert main(["propagate", "--config", str(cfg)]) == 0
    cfg2 = write_cfg(tmp_path, extra="N = 150\nsnapshot = out/snapshot.csv\n")
    assert main(["invert", "--config", str(cfg2), "--out", str(tmp_path / "inv")]) == 0
    summary = json.loads((tmp_path / "inv" / "invert.json").read_text())
    assert summary["roundtrip_rel_l2"] < 1e-10
    rec = np.loadtxt(tmp_path / "inv" / "control_recovered.csv", delimiter=",", skiprows=1)
    f = wk.bump_control(1.0, 0.1, 0.9, 1.0)
    ref = f.sample(rec[:, 0])[0][:, 0]
    assert np.abs(rec[:, 1] + 1j * rec[:, 2] - ref).max() < 1e-10


@pytest.mark.parametrize("source", ["solve_goursat", "load_kernel"])
def test_invert_builds_no_derived_table(tmp_path, monkeypatch, source):
    # invert samples only v: its field, solved or read from a dump, never
    # builds wx_lat or wtt
    one_pot(tmp_path)
    dump = "kernel_dump = out/kernel.csv\n" if source == "load_kernel" else ""
    assert main(["kernel", "--config", str(write_cfg(tmp_path))]) == 0
    assert main(["propagate", "--config", str(write_cfg(tmp_path))]) == 0
    fields, make = [], getattr(cli, source)
    monkeypatch.setattr(cli, source, lambda *a, **kw: fields.append(make(*a, **kw)) or fields[-1])
    cfg = write_cfg(tmp_path, extra=dump + "snapshot = out/snapshot.csv\n")
    assert main(["invert", "--config", str(cfg), "--out", str(tmp_path / "inv")]) == 0
    assert len(fields) == 1
    assert fields[0]._wx_lat is None and fields[0]._wtt_lat is None


def test_invert_reads_snapshot_with_or_without_header(tmp_path):
    one_pot(tmp_path)
    assert main(["propagate", "--config", str(write_cfg(tmp_path))]) == 0
    lines = (tmp_path / "out" / "snapshot.csv").read_text().splitlines(keepends=True)
    (tmp_path / "bare.csv").write_text("".join(lines[1:]))
    recovered = []
    for snap, out in (("out/snapshot.csv", tmp_path / "inv"), ("bare.csv", tmp_path / "inv_bare")):
        cfg = write_cfg(tmp_path, extra=f"snapshot = {snap}\n")
        assert main(["invert", "--config", str(cfg), "--out", str(out)]) == 0
        recovered.append((out / "control_recovered.csv").read_bytes())
    assert recovered[0] == recovered[1]


def _strip_header(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[1:]))


def test_kernel_dump_reads_with_or_without_header(tmp_path):
    one_pot(tmp_path)
    assert main(["kernel", "--config", str(write_cfg(tmp_path))]) == 0
    bare = tmp_path / "bare"
    bare.mkdir()
    for name in ("kernel.csv", "kernel.json"):
        (bare / name).write_bytes((tmp_path / "out" / name).read_bytes())
    _strip_header(bare / "kernel.csv")
    snaps = []
    for dump in ("out/kernel.csv", "bare/kernel.csv"):
        out = tmp_path / dump.split("/")[0] / "prop"
        cfg = write_cfg(tmp_path, extra=f"kernel_dump = {dump}\n")
        assert main(["propagate", "--config", str(cfg), "--out", str(out)]) == 0
        snaps.append((out / "snapshot.csv").read_bytes())
    assert snaps[0] == snaps[1]


def test_control_csv_reads_with_or_without_header(tmp_path):
    one_pot(tmp_path)
    ts = np.linspace(0.0, 1.0, 41)
    f = wk.bump_control(1.0, 0.1, 0.9, 1.0 - 0.5j)
    body = "".join(f"{t:.17g},{z.real:.17g},{z.imag:.17g}\n"
                   for t, z in zip(ts, f.sample(ts)[0][:, 0]))
    (tmp_path / "head.csv").write_text("t,f0_re,f0_im\n" + body)
    (tmp_path / "bare.csv").write_text(body)
    snaps = []
    for name in ("head", "bare"):
        cfg = write_cfg(tmp_path, extra=f"control = csv {name}.csv\n")
        assert main(["propagate", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        snaps.append((tmp_path / name / "snapshot.csv").read_bytes())
    assert snaps[0] == snaps[1]


def test_propagate_zero_grid_exit(tmp_path, capsys):
    zero_pot(tmp_path)
    cfg = write_cfg(tmp_path, extra="N = 0\n")
    assert main(["propagate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "grid size N" in err and "Traceback" not in err


def test_non_integral_config_int(tmp_path, capsys):
    zero_pot(tmp_path)
    cfg = write_cfg(tmp_path, extra="N = 200.7\n")
    assert main(["propagate", "--config", str(cfg)]) == 1
    assert "not an integer" in capsys.readouterr().err
    assert not (tmp_path / "out" / "snapshot.csv").exists()


def herm2_pot(tmp_path):
    return write_pot(tmp_path / "pot.txt",
                     "kind = preset\nname = herm2\nx_max = 2.0\nstep = 0.0009765625\n")


def _drop_key(cfg, key):
    lines = cfg.read_text().splitlines(keepends=True)
    cfg.write_text("".join(line for line in lines if line.partition("=")[0].strip() != key))
    return cfg


@pytest.mark.parametrize("command, key, value, message", [
    ("kernel", "potential", None, "config is missing required key 'potential'"),
    ("kernel", "T", None, "config is missing required key 'T'"),
    ("propagate", "N", None, "config is missing required key 'N'"),
    ("invert", "h", None, "config is missing required key 'h'"),
    ("kernel", "T", "abc", "config key 'T' is not a number: 'abc'"),
], ids=["no_potential", "no_T", "no_N", "no_h", "T_not_a_number"])
def test_required_key_missing_or_not_a_number(tmp_path, capsys, command, key, value, message):
    one_pot(tmp_path)
    cfg = _drop_key(write_cfg(tmp_path), key)
    if value is not None:
        cfg.write_text(cfg.read_text() + f"{key} = {value}\n")
    assert main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_left_out_key_takes_its_default(tmp_path):
    # tol defaults to 1e-10: a config without it dumps the same kernel as one that names it
    one_pot(tmp_path)
    cfg = write_cfg(tmp_path)
    assert "tol = 1e-10\n" in cfg.read_text()
    assert main(["kernel", "--config", str(cfg), "--out", str(tmp_path / "given")]) == 0
    assert main(["kernel", "--config", str(_drop_key(cfg, "tol")),
                 "--out", str(tmp_path / "default")]) == 0
    for name in ("kernel.csv", "kernel.json"):
        given, default = (tmp_path / d / name for d in ("given", "default"))
        assert given.read_bytes() == default.read_bytes()
    manifest = json.loads((tmp_path / "default" / "manifest.json").read_text())
    assert "tol" not in manifest["config"]


def test_scalar_amplitude_fills_every_component(tmp_path):
    herm2_pot(tmp_path)
    snaps = []
    for amp in ("2", "2,2"):
        cfg = write_cfg(tmp_path, extra=f"control = bump start=0.1 stop=0.9 amp={amp}\n")
        assert main(["propagate", "--config", str(cfg), "--out", str(tmp_path / amp)]) == 0
        snaps.append((tmp_path / amp / "snapshot.csv").read_bytes())
    assert snaps[0] == snaps[1]


@pytest.mark.parametrize("pot, files, control, message", [
    (herm2_pot, {}, "bump start=0.1 stop=0.9 amp=1,2,3", "control amplitude has 3 entries, need 2"),
    (zero_pot, {"ctrl.csv": "".join(f"{k / 10},0,0,0,0\n" for k in range(11))}, "csv ctrl.csv",
     "needs columns t plus 1 re/im pair(s), got 2 pair(s)"),
], ids=["amp_count", "csv_pairs"])
def test_control_of_another_dimension(tmp_path, capsys, pot, files, control, message):
    pot(tmp_path)
    for name, body in files.items():
        (tmp_path / name).write_text(body)
    cfg = write_cfg(tmp_path, extra=f"control = {control}\n")
    assert main(["propagate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(message + "\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("pot, snapshot, message", [
    (one_pot, None, "invert needs a 'snapshot' key pointing at wave samples"),
    (herm2_pot, "x,u0_re,u0_im\n" + "".join(f"{k / 4},1,0\n" for k in range(5)),
     "has too few columns for dimension 2"),
    (one_pot, "0,1,0\n1,1,0\n", "snapshot needs at least 3 rows"),
], ids=["no_snapshot", "too_few_columns", "two_rows"])
def test_invert_refuses_the_snapshot(tmp_path, capsys, pot, snapshot, message):
    pot(tmp_path)
    extra = ""
    if snapshot is not None:
        (tmp_path / "snap.csv").write_text(snapshot)
        extra = "snapshot = snap.csv\n"
    assert main(["invert", "--config", str(write_cfg(tmp_path, extra=extra))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(message + "\n")
    assert not (tmp_path / "out").exists()


ZERO_CONTROL_CSV = "".join(f"{k / 10},0,0\n" for k in range(11))


@pytest.mark.parametrize("command, pot, extra, files", [
    ("propagate", "kind = zero\n", "control = bump start=abc stop=0.9 amp=1\n", {}),
    ("propagate", "kind = zero\n", "control = csv\n", {}),
    ("propagate", "kind = zero\n", "control = csv ctrl.csv\n",
     {"ctrl.csv": "".join(f"{k / 10},0\n" for k in range(11))}),       # t, re only
    ("propagate", "kind = zero\n", "control = csv ctrl.csv\n",
     {"ctrl.csv": "".join(f"{t},{float(t > 0.3)},0\n"                  # 0.6 before 0.5
                          for t in (0, .1, .2, .3, .4, .6, .5, .7, .8, .9, 1))}),
    ("kernel", "kind = zero\ndimension = one\n", "", {}),
    ("kernel", "kind = zero\nx_max = big\n", "", {}),
    ("kernel", "kind = zero\ndimension = 0\n", "", {}),
    ("kernel", "kind = zero\nx_max = -1\n", "", {}),
    ("kernel", "kind = zero\nstep = 0\n", "", {}),
    ("kernel", "kind = zero\nstep = nan\n", "", {}),
    ("propagate", "kind = zero\n", "control = bump start=0.1 stop=0.9 amp=nan\n", {}),
    ("propagate", "kind = zero\n", "control = ramp start=0.1 stop=0.9 amp=inf\n", {}),
    # unknown, repeated or stray control tokens used to be ignored
    ("propagate", "kind = zero\n", "control = bump start=0.1 stop=0.9 amplitude=5\n", {}),
    ("propagate", "kind = zero\n", "control = ramp amp=2 amp=5\n", {}),
    ("propagate", "kind = zero\n", "control = bump start=0.1 stop=0.9 amp=5 x.csv\n", {}),
    ("propagate", "kind = zero\n", "control = zero amp=5\n", {}),
    ("propagate", "kind = zero\n", "control = csv a.csv b.csv\n",
     {"a.csv": ZERO_CONTROL_CSV, "b.csv": ZERO_CONTROL_CSV}),
    ("propagate", "kind = zero\n", "control = csv a.csv amp=2\n", {"a.csv": ZERO_CONTROL_CSV}),
    ("propagate", "kind = zero\n", "control =\n", {}),
    # a repeated key used to overwrite the earlier one
    ("propagate", "kind = zero\n", "T = 0.5\nT = 1\n", {}),
    ("kernel", "kind = preset\nkind = zero\n", "", {}),
], ids=["bump_start", "csv_no_path", "csv_columns", "csv_unordered_times", "pot_dimension",
        "pot_x_max", "pot_dimension_zero", "pot_x_max_negative", "pot_step_zero",
        "pot_step_nan", "amp_nan", "amp_inf", "control_unknown_key",
        "control_repeated_key", "control_stray_token", "zero_control_token",
        "csv_two_paths", "csv_key_token", "control_empty", "cfg_repeated_key",
        "pot_repeated_key"])
def test_malformed_spec_rejected(tmp_path, capsys, command, pot, extra, files):
    write_pot(tmp_path / "pot.txt", pot)
    for name, body in files.items():
        (tmp_path / name).write_text(body)
    cfg = write_cfg(tmp_path, extra=extra)
    assert main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


SAMPLES_CSV = "".join(f"{k / 8},1,0\n" for k in range(17))


@pytest.mark.parametrize("command, pot, extra, key", [
    ("validate", "kind = zero\n", "NN = 7\n", "NN"),
    # validate's thresholds and the oracle grid were config keys before they became
    # constants; each default value below used to be accepted and run
    ("validate", "kind = zero\n", "fd_nx = 200\n", "fd_nx"),
    ("validate", "kind = zero\n", "edge_tol = 1e-4\n", "edge_tol"),
    ("validate", "kind = zero\n", "interior_tol = 0.2\n", "interior_tol"),
    ("validate", "kind = zero\n", "oracle_rel_tol = 1e-2\n", "oracle_rel_tol"),
    ("validate", "kind = zero\n", "dq_slope_min = 0.9\n", "dq_slope_min"),
    ("validate", "kind = zero\n", "dq_t = 0.75\n", "dq_t"),
    # the CLI's march has no sweeps to bound; max_sweeps = 0 used to be a range error
    ("kernel", "kind = zero\n", "max_sweeps = 100\n", "max_sweeps"),
    ("kernel", "kind = zero\n", "max_sweeps = 0\n", "max_sweeps"),
    # potential spec keys the kind does not read used to be parsed and dropped
    ("kernel", "kind = zero\nstpe = 0.01\n", "", "stpe"),
    ("kernel", "kind = sampled\ncsv = q.csv\nstep = 0.125\n", "", "step"),
    ("kernel", "kind = preset\nname = one\ndimension = 1\nx_max = 2.0\n", "", "dimension"),
], ids=["cfg_NN", "cfg_fd_nx", "cfg_edge_tol", "cfg_interior_tol", "cfg_oracle_rel_tol",
        "cfg_dq_slope_min", "cfg_dq_t", "cfg_max_sweeps", "max_sweeps_zero", "pot_stpe",
        "sampled_step", "preset_dimension"])
def test_unknown_key_rejected(tmp_path, capsys, command, pot, extra, key):
    write_pot(tmp_path / "pot.txt", pot)
    (tmp_path / "q.csv").write_text(SAMPLES_CSV)
    cfg = write_cfg(tmp_path, extra=extra)
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "unknown" in err and repr(key) in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra, message", [
    ("control = bump start=0.1 stop=0.9 amplitude=5\n", "unexpected token 'amplitude=5'"),
    ("control = ramp amp=2 x.csv\n", "unexpected token 'x.csv'"),
], ids=["unknown_key", "stray_token"])
def test_control_error_names_the_token(tmp_path, capsys, extra, message):
    zero_pot(tmp_path)
    assert main(["propagate", "--config", str(write_cfg(tmp_path, extra=extra))]) == 1
    assert message in capsys.readouterr().err


def test_control_csv_reads_recovered_control(tmp_path):
    # kernel -> propagate -> invert -> propagate on invert's own control csv
    one_pot(tmp_path)
    dump = "N = 150\nkernel_dump = out/kernel.csv\n"
    assert main(["kernel", "--config", str(write_cfg(tmp_path))]) == 0
    assert main(["propagate", "--config", str(write_cfg(tmp_path, extra=dump))]) == 0
    cfg = write_cfg(tmp_path, extra=dump + "snapshot = out/snapshot.csv\n")
    assert main(["invert", "--config", str(cfg), "--out", str(tmp_path / "inv")]) == 0
    cfg = write_cfg(tmp_path, extra=dump + "control = csv inv/control_recovered.csv\n")
    assert main(["propagate", "--config", str(cfg), "--out", str(tmp_path / "again")]) == 0
    first, again = (np.loadtxt(tmp_path / d / "snapshot.csv", delimiter=",", skiprows=1)
                    for d in ("out", "again"))
    u, u_again = (raw[:, 1] + 1j * raw[:, 2] for raw in (first, again))
    assert np.abs(u_again - u).max() <= 1e-12 * np.abs(u).max()


def test_invert_wrong_length_snapshot(tmp_path):
    one_pot(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("x,u0_re,u0_im\n0,1\n")
    cfg = write_cfg(tmp_path, extra="snapshot = bad.csv\n")
    assert main(["invert", "--config", str(cfg)]) == 1


def test_bounds_report(tmp_path):
    one_pot(tmp_path)
    cfg = write_cfg(tmp_path, extra="trials = 10\nN = 64\n")
    assert main(["bounds", "--config", str(cfg)]) == 0
    rep = json.loads((tmp_path / "out" / "bounds.json").read_text())
    for key in ("a1", "a2", "b1", "b2", "b3", "b4", "bounds", "ratios",
                "empirical_ratio", "sigma_min", "sigma_max", "cond", "seed"):
        assert key in rep
    assert rep["ratios"]["i"] <= rep["bounds"]["i"]


def test_bounds_rejects_zero_trials(tmp_path, capsys):
    one_pot(tmp_path)
    cfg = write_cfg(tmp_path, extra="trials = 0\nN = 64\n")
    assert main(["bounds", "--config", str(cfg)]) == 1
    assert "trials must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "out" / "bounds.json").exists()


@pytest.mark.parametrize("command", ["bounds", "validate"])
@pytest.mark.parametrize("source", ["config", "flag"])
def test_negative_seed_rejected(tmp_path, capsys, command, source):
    # numpy's generator used to end the run in a ValueError traceback
    one_pot(tmp_path)
    cfg = write_cfg(tmp_path, extra="trials = 2\nN = 32\n"
                    + ("seed = -1\n" if source == "config" else ""))
    argv = [command, "--config", str(cfg)] + (["--seed", "-1"] if source == "flag" else [])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be an integer >= 0" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_validate_zero_potential(tmp_path):
    zero_pot(tmp_path)
    cfg = write_cfg(tmp_path, extra="control = zero\ntrials = 5\n")
    assert main(["validate", "--config", str(cfg)]) == 0
    text = (tmp_path / "out" / "validate.json").read_text()
    rep = json.loads(text)
    assert rep["pass"] is True
    assert rep["cond"]["cond"] == 1.0
    assert rep["goursat"]["edge"] == 0.0
    # a zero wave has no slope to fit: null, not the non-JSON Infinity
    assert rep["dq_slope"] is None and "Infinity" not in text


def test_validate_q1_passes(tmp_path):
    one_pot(tmp_path)
    cfg = write_cfg(tmp_path, extra="trials = 10\n")
    assert main(["validate", "--config", str(cfg)]) == 0


def test_validate_threshold_failure(tmp_path, capsys, monkeypatch):
    # the interior threshold is max(10 h, 0.05) = 0.2 here; report a residual above it
    from wavekernel import cli
    check = cli.check_goursat
    monkeypatch.setattr(cli, "check_goursat",
                        lambda p, f: dataclasses.replace(check(p, f), interior_residual=1.0))
    one_pot(tmp_path)
    cfg = write_cfg(tmp_path, extra="trials = 5\n")
    assert main(["validate", "--config", str(cfg)]) == 3
    assert "goursat_interior" in capsys.readouterr().err
    rep = json.loads((tmp_path / "out" / "validate.json").read_text())
    assert rep["failing"] == ["goursat_interior"]


def _report(**changes):
    """cli.check_goursat with the given fields of its report replaced."""
    check = cli.check_goursat
    return "check_goursat", lambda p, f: dataclasses.replace(check(p, f), **changes)


@pytest.mark.parametrize("patch, check", [
    (_report(diag_residual=1e-3), "goursat_diagonal"),
    (_report(edge_residual=1.0), "goursat_edge"),
    (_report(bound_violations=1), "apriori_bound"),
    (("_ORACLE_REL_TOL", 0.0), "oracle_agreement"),
    (("_DQ_SLOPE_MIN", 1e9), "difference_quotient"),
], ids=["goursat_diagonal", "goursat_edge", "apriori_bound", "oracle_agreement",
        "difference_quotient"])
def test_validate_reports_each_failing_check(tmp_path, capsys, monkeypatch, patch, check):
    # no real input fails these checks, so one value or threshold is set past its rule
    monkeypatch.setattr(cli, *patch)
    one_pot(tmp_path)
    cfg = write_cfg(tmp_path, extra="trials = 5\n")
    assert main(["validate", "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == f"validation failed: {check}\n"
    rep = json.loads((tmp_path / "out" / "validate.json").read_text())
    assert rep["failing"] == [check] and rep["pass"] is False


def test_validate_reports_h2_failure(tmp_path, capsys, monkeypatch):
    from wavekernel import control_op
    monkeypatch.setattr(control_op, "norm_constants", lambda p, T: (0.0, 0.0))
    monkeypatch.setattr(control_op, "kernel_constants",
                        lambda f: wk.KernelConstants(0.0, 0.0, 0.0, 0.0))
    one_pot(tmp_path)
    cfg = write_cfg(tmp_path, extra="trials = 5\n")
    assert main(["validate", "--config", str(cfg)]) == 3
    assert "h2_bounds" in capsys.readouterr().err
    rep = json.loads((tmp_path / "out" / "validate.json").read_text())
    assert rep["failing"] == ["h2_bounds"] and rep["pass"] is False
    assert rep["h2"]["empirical_ratio"] > rep["h2"]["composite_bound"] == 0.0


@pytest.mark.parametrize("excess, codes", [(1e-10, (0, 0)), (1e-6, (1, 3))],
                         ids=["within_slack", "beyond_slack"])
def test_bounds_and_validate_share_the_h2_verdict(tmp_path, monkeypatch, excess, codes):
    # bounds exits 1 on CertificationError, validate 3 on a failed check; a ratio
    # 1e-10 above its bound used to pass bounds and fail validate
    from wavekernel import cli, control_op
    measure = control_op.measure_h2_bound

    def nudged(*args, **kwargs):
        rep = measure(*args, **kwargs)
        return dataclasses.replace(rep, ratio_ii=rep.bound_ii * (1 + excess))

    monkeypatch.setattr(control_op, "measure_h2_bound", nudged)
    monkeypatch.setattr(cli, "measure_h2_bound", nudged)
    one_pot(tmp_path)
    cfg = write_cfg(tmp_path, extra="trials = 3\n")
    assert (main(["bounds", "--config", str(cfg)]), main(["validate", "--config", str(cfg)])) \
        == codes
    rep = json.loads((tmp_path / "out" / "validate.json").read_text())
    assert rep["failing"] == ([] if codes == (0, 0) else ["h2_bounds"])


def test_oracle_command(tmp_path):
    one_pot(tmp_path)
    cfg = write_cfg(tmp_path)
    assert main(["oracle", "--config", str(cfg)]) == 0
    rep = json.loads((tmp_path / "out" / "oracle.json").read_text())
    assert rep["rel_l2"] < 1e-2


def test_deterministic_outputs(tmp_path):
    # every command in each of two fresh processes: every output file byte for byte
    one_pot(tmp_path)
    cfg = write_cfg(tmp_path, extra="trials = 3\nN = 64\nsnapshot = propagate/a/snapshot.csv\n")
    src_dir = str(Path(wk.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))}
    outputs = {"kernel": {"kernel.csv", "kernel.json", "manifest.json"},
               "propagate": {"snapshot.csv", "manifest.json"},
               "invert": {"control_recovered.csv", "invert.json", "manifest.json"},
               "bounds": {"bounds.json", "manifest.json"},
               "validate": {"validate.json", "manifest.json"},
               "oracle": {"fd_snapshot.csv", "oracle.json", "manifest.json"}}
    script = ("import sys\n"
              "from wavekernel.cli import main\n"
              "cfg, side, *commands = sys.argv[1:]\n"
              "for command in commands:\n"
              "    if main([command, '--config', cfg, '--out', f'{command}/{side}']):\n"
              "        sys.exit(f'{command} failed')\n")
    for side in ("a", "b"):
        subprocess.run([sys.executable, "-c", script, str(cfg), side, *outputs],
                       check=True, cwd=tmp_path, env=env)
    for command, names in outputs.items():
        a, b = tmp_path / command / "a", tmp_path / command / "b"
        assert {p.name for p in a.iterdir()} == {p.name for p in b.iterdir()} == names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), (command, name)
