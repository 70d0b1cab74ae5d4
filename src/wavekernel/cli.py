"""Batch front-end: reproducible runs driven by flat key-value config files.

Subcommands: kernel, propagate, invert, bounds, validate, oracle.
Exit codes: 0 ok, 1 input error (a usage error, and a lattice or grid too
fine for memory, included), 2 kernel residual above tol, 3 validation
failure.  The kernel is solved by the anti-diagonal march (solve_goursat's
method="march").
A config key outside _CONFIG_KEYS is an input error.  Every command that
returns writes a manifest echoing the resolved configuration, and identical
configurations with identical seeds produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .control_op import (build_volterra, certify_h2_bound, condition_estimate, invert_W,
                         measure_h2_bound, reflect)
from .errors import (CertificationError, ConfigError, ControlError,
                     ConvergenceError, DomainError, PotentialError,
                     SingularSystemError, check_count)
from .fileio import read_key_values, read_table, reject_unknown_keys, write_json, write_table
# kernel_constants is not called here; it stays importable from cli, where
# bench/tracer.py wraps it by name
from .goursat import (check_goursat, dump_kernel, load_kernel, solve_goursat,
                      kernel_constants)
from .oracle import FDConfig, compare, fd_solve
from .potential import build_potential, parse_complex, parse_potential_file
from .propagator import (Control, _l2, bump_control, control_from_samples,
                         difference_quotient_test, propagate, ramp_control,
                         zero_control)


# Every key a command reads.  One set serves all commands, so one config file
# can drive each of them; any other key is an input error.
_CONFIG_KEYS = frozenset({"potential", "T", "h", "tol", "N", "control", "kernel_dump",
                          "snapshot", "trials", "out", "seed"})

# validate's fixed thresholds; its interior threshold is max(10 h, 0.05)
_EDGE_TOL = 1e-4
_ORACLE_REL_TOL = 1e-2
_DQ_SLOPE_MIN = 0.9
# the difference-quotient test measures u at _DQ_T * T, with steps T/16 ... T/256
_DQ_T = 0.75

# grid intervals of the condition number: its dense SVD holds ((N+1)n)^2 entries,
# and condition_estimate refuses N above control_op._DENSE_SVD_CAP = 1024
_COND_N = 512


def _parse_config(path: Path) -> dict:
    cfg = read_key_values(path, "config", ConfigError)
    reject_unknown_keys(cfg, _CONFIG_KEYS, path, "config", ConfigError)
    cfg["_dir"] = path.parent
    return cfg


def _cfg_float(cfg: dict, key: str, default=None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"config is missing required key {key!r}")
        return default
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key!r} is not a number: {cfg[key]!r}") from exc


def _cfg_int(cfg: dict, key: str, default=None) -> int:
    value = _cfg_float(cfg, key, default)
    if not float(value).is_integer():
        raise ConfigError(f"config key {key!r} is not an integer: {cfg[key]!r}")
    return int(value)


def _load_potential(cfg: dict):
    if "potential" not in cfg:
        raise ConfigError("config is missing required key 'potential'")
    pot_path = (cfg["_dir"] / cfg["potential"]).resolve()
    return build_potential(parse_potential_file(pot_path))


_CONTROL_KEYS = {"zero": (), "bump": ("start", "stop", "amp"),
                 "ramp": ("start", "stop", "amp"), "csv": ()}


def _load_control(cfg: dict, T: float, dim: int) -> Control:
    spec = cfg.get("control", "zero")
    kind, *tokens = spec.split() or [""]
    if kind not in _CONTROL_KEYS:
        raise ControlError(f"unknown control kind {kind!r}")
    kv, bare = {}, []
    for tok in tokens:
        k, eq, v = tok.partition("=")
        if not eq:
            bare.append(tok)
        elif k in _CONTROL_KEYS[kind] and k not in kv:
            kv[k] = v
        else:
            raise ControlError(f"control {spec!r}: unexpected token {tok!r}")
    n_bare = 1 if kind == "csv" else 0      # the csv file path
    if len(bare) > n_bare:
        raise ControlError(f"control {spec!r}: unexpected token {bare[n_bare]!r}")
    if kind == "zero":
        return zero_control(T, dim)
    if kind in ("bump", "ramp"):
        try:
            start, stop = float(kv.get("start", 0.1 * T)), float(kv.get("stop", 0.9 * T))
        except ValueError as exc:
            raise ControlError(f"control {spec!r}: start/stop must be numbers") from exc
        amp = [parse_complex(tok) for tok in kv.get("amp", "1").split(",")]
        if len(amp) == 1 and dim > 1:
            amp = amp * dim
        if len(amp) != dim:
            raise ControlError(f"control amplitude has {len(amp)} entries, need {dim}")
        maker = bump_control if kind == "bump" else ramp_control
        return maker(T, start, stop, np.asarray(amp))
    if not bare:
        raise ControlError("control 'csv' needs a file path: control = csv <file>")
    path = (cfg["_dir"] / bare[0]).resolve()
    _, ts, vals = read_table(path, "control csv", ControlError, 1)
    if vals.shape[1] != dim:
        raise ControlError(f"control csv {path} needs columns t plus {dim} re/im "
                           f"pair(s), got {vals.shape[1]} pair(s)")
    return control_from_samples(ts[:, 0], vals, T=T)


def _write_series_csv(path: Path, axis: str, grid: np.ndarray, **series) -> None:
    """One row per grid node: the node, then every component of every series."""
    names = [f"{name}{c}" for name, values in series.items() for c in range(values.shape[1])]
    write_table(path, [axis], names, grid[:, None], np.hstack(list(series.values())))


def _solve_field(cfg: dict, p):
    T = _cfg_float(cfg, "T")
    h = _cfg_float(cfg, "h")
    tol = _cfg_float(cfg, "tol", 1e-10)
    return solve_goursat(p, T, h, tol, method="march")


def _field_for(cfg: dict, p):
    """Field from a dump when the config names one, else a fresh solve."""
    if "kernel_dump" in cfg:
        csv_path = (cfg["_dir"] / cfg["kernel_dump"]).resolve()
        return load_kernel(csv_path, csv_path.with_suffix(".json"), p)
    return _solve_field(cfg, p)


# --- subcommands -------------------------------------------------------------

def cmd_kernel(cfg: dict, out: Path, seed: int) -> int:
    p = _load_potential(cfg)
    field = _solve_field(cfg, p)
    dump_kernel(field, out / "kernel.csv", out / "kernel.json")
    return 0


def _wave(cfg: dict):
    """Potential, control and the wave it drives, from the config's T and N."""
    p = _load_potential(cfg)
    field = _field_for(cfg, p)
    T = _cfg_float(cfg, "T")
    N = _cfg_int(cfg, "N")
    f = _load_control(cfg, T, p.dim)
    return p, f, propagate(field, f, T, N)


def cmd_propagate(cfg: dict, out: Path, seed: int) -> int:
    _, _, snap = _wave(cfg)
    _write_series_csv(out / "snapshot.csv", "x", snap.grid, u=snap.u, ux=snap.u_x,
                      uxx=snap.u_xx)
    return 0


def cmd_invert(cfg: dict, out: Path, seed: int) -> int:
    p = _load_potential(cfg)
    field = _field_for(cfg, p)
    T = _cfg_float(cfg, "T")
    if "snapshot" not in cfg:
        raise ConfigError("invert needs a 'snapshot' key pointing at wave samples")
    snap_path = (cfg["_dir"] / cfg["snapshot"]).resolve()
    _, x, values = read_table(snap_path, "snapshot", ConfigError, 1)
    n = p.dim
    if values.shape[1] < n:
        raise ConfigError(f"snapshot {snap_path} has too few columns for dimension {n}")
    u = values[:, :n]
    N = len(x) - 1
    if N < 2:
        raise ConfigError("snapshot needs at least 3 rows")
    if not np.max(np.abs(x[:, 0] - np.linspace(0.0, T, N + 1))) <= 1e-9 * T:
        raise ConfigError(f"snapshot {snap_path} x column is not the uniform grid on [0, {T}]")
    tab = build_volterra(field, T, N)
    g = invert_W(tab, u)
    recovered = reflect(g)
    _write_series_csv(out / "control_recovered.csv", "t", tab.grid, f=recovered)
    summary = {"N": N, "T": T}
    if "control" in cfg:
        ref = _load_control(cfg, T, n).sample(tab.grid)[0]
        num, den = _l2(tab.grid, recovered - ref), _l2(tab.grid, ref)
        summary["roundtrip_rel_l2"] = float(num / den) if den > 0 else 0.0
    write_json(out / "invert.json", summary)
    return 0


def cmd_bounds(cfg: dict, out: Path, seed: int) -> int:
    p = _load_potential(cfg)
    field = _field_for(cfg, p)
    T = _cfg_float(cfg, "T")
    N = _cfg_int(cfg, "N", 256)
    trials = _cfg_int(cfg, "trials", 100)
    # the dense SVD runs before the trials: after them, the command's peak memory
    # moved by ~1 MB with where the heap had placed earlier blocks
    s_min, s_max, cond = condition_estimate(build_volterra(field, T, min(N, _COND_N)))
    rep = certify_h2_bound(field, p, T, trials=trials, N=N, seed=seed)
    payload = {
        "a1": rep.a1, "a2": rep.a2, "b1": rep.b1, "b2": rep.b2, "b3": rep.b3,
        "b4": rep.b4,
        "bounds": {"i": rep.bound_i, "ii": rep.bound_ii, "iii": rep.bound_iii},
        "ratios": {"i": rep.ratio_i, "ii": rep.ratio_ii, "iii": rep.ratio_iii},
        "empirical_ratio": rep.empirical_ratio,
        "composite_bound": rep.composite_bound,
        "inverse_ratio": rep.inverse_ratio,
        "sigma_min": s_min, "sigma_max": s_max, "cond": cond,
        "seed": seed, "trials": trials,
    }
    write_json(out / "bounds.json", payload)
    return 0


def cmd_validate(cfg: dict, out: Path, seed: int) -> int:
    p = _load_potential(cfg)
    T = _cfg_float(cfg, "T")
    field = _solve_field(cfg, p)
    N = _cfg_int(cfg, "N", 200)
    f = _load_control(cfg, T, p.dim)

    report = check_goursat(p, field)
    snap = propagate(field, f, T, N)
    fd = fd_solve(p, f, FDConfig(N_x=2 * N, T=T))
    _, _, rel = compare(snap, fd)
    rep = measure_h2_bound(field, p, T, trials=_cfg_int(cfg, "trials", 25),
                           N=min(N, 256), seed=seed)
    steps = [T * 2.0**-k for k in range(4, 9)]
    dq_slope = difference_quotient_test(field, f, _DQ_T * T, steps).slope
    if math.isinf(dq_slope):        # a zero wave: no slope to fit, nothing to fail
        dq_slope = None
    s_min, s_max, cond = condition_estimate(build_volterra(field, T, min(N, _COND_N)))

    thresholds = {
        "edge_tol": _EDGE_TOL,
        "interior_tol": max(10.0 * field.step, 0.05),
        "oracle_rel_tol": _ORACLE_REL_TOL,
        "dq_slope_min": _DQ_SLOPE_MIN,
    }
    failing = []
    if report.diag_residual > 0.0:
        failing.append("goursat_diagonal")
    if report.edge_residual > thresholds["edge_tol"]:
        failing.append("goursat_edge")
    if report.interior_residual > thresholds["interior_tol"]:
        failing.append("goursat_interior")
    if report.bound_violations > 0:
        failing.append("apriori_bound")
    if rel > thresholds["oracle_rel_tol"]:
        failing.append("oracle_agreement")
    if rep.violations():
        failing.append("h2_bounds")
    if dq_slope is not None and dq_slope < thresholds["dq_slope_min"]:
        failing.append("difference_quotient")

    payload = {
        "goursat": {
            "diag": report.diag_residual, "edge": report.edge_residual,
            "interior": report.interior_residual,
            "bound_violations": report.bound_violations,
        },
        "constants": {"b1": rep.b1, "b2": rep.b2, "b3": rep.b3, "b4": rep.b4},
        "oracle_rel_l2": rel,
        "h2": {
            "ratio_i": rep.ratio_i, "bound_i": rep.bound_i,
            "ratio_ii": rep.ratio_ii, "bound_ii": rep.bound_ii,
            "ratio_iii": rep.ratio_iii, "bound_iii": rep.bound_iii,
            "empirical_ratio": rep.empirical_ratio,
            "composite_bound": rep.composite_bound,
        },
        "dq_slope": dq_slope,
        "cond": {"sigma_min": s_min, "sigma_max": s_max, "cond": cond},
        "thresholds": thresholds,
        "failing": failing,
        "pass": not failing,
    }
    write_json(out / "validate.json", payload)
    if failing:
        print(f"validation failed: {', '.join(failing)}", file=sys.stderr)
        return 3
    return 0


def cmd_oracle(cfg: dict, out: Path, seed: int) -> int:
    p, f, snap = _wave(cfg)
    N = snap.grid.size - 1
    fd = fd_solve(p, f, FDConfig(N_x=2 * N, T=snap.T))
    l2, mx, rel = compare(snap, fd)
    _write_series_csv(out / "fd_snapshot.csv", "x", fd.grid, u=fd.u, ux=fd.u_x, uxx=fd.u_xx)
    write_json(out / "oracle.json", {"l2_err": l2, "max_err": mx, "rel_l2": rel})
    return 0


_COMMANDS = {
    "kernel": cmd_kernel,
    "propagate": cmd_propagate,
    "invert": cmd_invert,
    "bounds": cmd_bounds,
    "validate": cmd_validate,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wavekernel",
        description="Transmutation kernels and control operators for the "
                    "boundary-driven telegraph equation.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--seed", type=int, default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:       # --help exits 0; a usage error is an input error
        return 1 if exc.code else 0

    try:
        cfg = _parse_config(args.config)
        out = Path.cwd() / args.out if args.out is not None else cfg["_dir"] / cfg.get("out", ".")
        seed = args.seed if args.seed is not None else _cfg_int(cfg, "seed", 0)
        check_count(seed, "seed", 0, ConfigError)
        code = _COMMANDS[args.command](cfg, out, seed)
        echo = {k: v for k, v in cfg.items() if not k.startswith("_")}
        write_json(out / "manifest.json", {"command": args.command, "version": __version__,
                                           "seed": seed, "config": echo})
        return code
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, PotentialError, ControlError, DomainError,
            SingularSystemError, CertificationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory ({str(exc) or 'allocation failed'}); a coarser "
              "lattice (larger h) or grid (smaller N) needs less", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
