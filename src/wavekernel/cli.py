"""Batch front-end: reproducible runs driven by flat key-value config files.

Subcommands: kernel, propagate, apply, invert, bounds, validate, oracle.
Exit codes: 0 ok, 1 input error, 2 non-convergence, 3 validation failure.
Every command writes a manifest echoing the resolved configuration, and
identical configurations with identical seeds produce byte-identical
output files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .control_op import (_l2, build_volterra, certify_h2_bound, condition_estimate,
                         invert_W, measure_h2_bound, reflect)
from .errors import (CertificationError, ConfigError, ControlError,
                     ConvergenceError, DomainError, PotentialError,
                     SingularSystemError)
# kernel_constants is not called here; it stays importable from cli, where
# bench/tracer.py wraps it by name
from .goursat import (check_goursat, dump_kernel, load_kernel, solve_goursat,
                      kernel_constants)
from .oracle import FDConfig, compare, fd_solve
from .potential import (_read_key_values, build_potential, parse_complex,
                        parse_potential_file)
from .propagator import (Control, bump_control, control_from_samples,
                         difference_quotient_test, propagate, ramp_control,
                         zero_control)

_FMT = "%.17g"


def _parse_config(path: Path) -> dict:
    cfg = _read_key_values(path, "config", ConfigError)
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


def _read_csv_table(path: Path) -> np.ndarray:
    """Numeric rows of a comma-separated file, with or without a header line.

    The first line is a header when its first field is not a number.
    Raises OSError or ValueError for the caller to report.
    """
    lines = path.read_text().splitlines()
    try:
        float(lines[0].split(",", 1)[0])
    except (IndexError, ValueError):
        lines = lines[1:]
    return np.loadtxt(lines, delimiter=",", ndmin=2)


def _read_control_csv(path: Path, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Times and complex values from rows t, f0_re, f0_im, ...; a header row is skipped."""
    try:
        raw = _read_csv_table(path)
    except (OSError, ValueError) as exc:
        raise ControlError(f"cannot read control csv {path}: {exc}") from exc
    if raw.shape[1] != 1 + 2 * dim or not np.all(np.isfinite(raw)):
        raise ControlError(f"control csv {path} needs finite columns t plus {dim} "
                           f"re/im pair(s), got {raw.shape[1]} columns")
    return raw[:, 0], raw[:, 1::2] + 1j * raw[:, 2::2]


def _load_control(cfg: dict, T: float, dim: int) -> Control:
    spec = cfg.get("control", "zero")
    parts = spec.split()
    kind = parts[0]
    kv = {}
    for tok in parts[1:]:
        if "=" in tok:
            k, _, v = tok.partition("=")
            kv[k] = v
        else:
            kv["path"] = tok
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
    if kind == "csv":
        if "path" not in kv:
            raise ControlError("control 'csv' needs a file path: control = csv <file>")
        ts, vals = _read_control_csv((cfg["_dir"] / kv["path"]).resolve(), dim)
        return control_from_samples(ts, vals, T=T)
    raise ControlError(f"unknown control kind {kind!r}")


def _write_manifest(out: Path, command: str, cfg: dict, seed: int) -> None:
    echo = {k: v for k, v in cfg.items() if not k.startswith("_")}
    payload = {"command": command, "version": __version__, "seed": seed, "config": echo}
    (out / "manifest.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_series_csv(path: Path, axis: str, grid: np.ndarray, **series) -> None:
    """One row per grid node: the node, then re/im of every component of every series."""
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


def _solve_field(cfg: dict, p):
    T = _cfg_float(cfg, "T")
    h = _cfg_float(cfg, "h")
    tol = _cfg_float(cfg, "tol", 1e-10)
    max_sweeps = _cfg_int(cfg, "max_sweeps", 100)
    return solve_goursat(p, T, h, tol, max_sweeps=max_sweeps)


def _field_for(cfg: dict, p):
    """Field from a dump when the config names one, else a fresh solve."""
    if "kernel_dump" in cfg:
        csv_path = (cfg["_dir"] / cfg["kernel_dump"]).resolve()
        json_path = csv_path.with_suffix(".json")
        if not csv_path.exists() or not json_path.exists():
            raise ConfigError(f"kernel dump {csv_path} (with sibling .json) not found")
        return load_kernel(csv_path, json_path, p)
    return _solve_field(cfg, p)


# --- subcommands -------------------------------------------------------------

def cmd_kernel(cfg: dict, out: Path, seed: int) -> int:
    p = _load_potential(cfg)
    field = _solve_field(cfg, p)
    dump_kernel(field, p, out / "kernel.csv", out / "kernel.json")
    _write_manifest(out, "kernel", cfg, seed)
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
    _write_manifest(out, "propagate", cfg, seed)
    return 0


def cmd_apply(cfg: dict, out: Path, seed: int) -> int:
    _, _, snap = _wave(cfg)
    _write_series_csv(out / "wave.csv", "t", snap.grid, u=snap.u)
    _write_manifest(out, "apply", cfg, seed)
    return 0


def cmd_invert(cfg: dict, out: Path, seed: int) -> int:
    p = _load_potential(cfg)
    field = _field_for(cfg, p)
    T = _cfg_float(cfg, "T")
    if "snapshot" not in cfg:
        raise ConfigError("invert needs a 'snapshot' key pointing at wave samples")
    snap_path = (cfg["_dir"] / cfg["snapshot"]).resolve()
    try:
        raw = _read_csv_table(snap_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read snapshot {snap_path}: {exc}") from exc
    n = p.dim
    if raw.shape[1] < 1 + 2 * n:
        raise ConfigError(f"snapshot {snap_path} has too few columns for dimension {n}")
    u = raw[:, 1:1 + 2 * n:2] + 1j * raw[:, 2:2 + 2 * n:2]
    N = raw.shape[0] - 1
    if N < 2:
        raise ConfigError("snapshot needs at least 3 rows")
    if not np.max(np.abs(raw[:, 0] - np.linspace(0.0, T, N + 1))) <= 1e-9 * T:
        raise ConfigError(f"snapshot {snap_path} x column is not the uniform grid on [0, {T}]")
    sysv = build_volterra(field, T, N)
    g = invert_W(sysv, u)
    recovered = reflect(g)
    _write_series_csv(out / "control_recovered.csv", "t", sysv.grid, f=recovered)
    summary = {"N": N, "T": T}
    if "control" in cfg:
        ref = _load_control(cfg, T, n).sample(sysv.grid)[0]
        num, den = _l2(sysv.grid, recovered - ref), _l2(sysv.grid, ref)
        summary["roundtrip_rel_l2"] = float(num / den) if den > 0 else 0.0
    _write_json(out / "invert.json", summary)
    _write_manifest(out, "invert", cfg, seed)
    return 0


def cmd_bounds(cfg: dict, out: Path, seed: int) -> int:
    p = _load_potential(cfg)
    field = _field_for(cfg, p)
    T = _cfg_float(cfg, "T")
    N = _cfg_int(cfg, "N", 256)
    trials = _cfg_int(cfg, "trials", 100)
    rep = certify_h2_bound(field, p, T, trials=trials, N=N, seed=seed)
    s_min, s_max, cond = condition_estimate(build_volterra(field, T, min(N, 512)))
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
    _write_json(out / "bounds.json", payload)
    _write_manifest(out, "bounds", cfg, seed)
    return 0


def cmd_validate(cfg: dict, out: Path, seed: int) -> int:
    p = _load_potential(cfg)
    field = _solve_field(cfg, p)
    T = _cfg_float(cfg, "T")
    N = _cfg_int(cfg, "N", 200)
    f = _load_control(cfg, T, p.dim)

    report = check_goursat(p, field)
    snap = propagate(field, f, T, N)
    fd = fd_solve(p, f, FDConfig(N_x=_cfg_int(cfg, "fd_nx", 2 * N), T=T))
    _, _, rel = compare(snap, fd)
    rep = measure_h2_bound(field, p, T, trials=_cfg_int(cfg, "trials", 25),
                           N=min(N, 256), seed=seed)
    dq_t = _cfg_float(cfg, "dq_t", 0.75 * T)
    dq_h = [2.0**-k for k in range(4, 9)]
    nonzero = f.sample(np.linspace(0, T, 64))[0]
    if np.max(np.abs(nonzero)) == 0.0 or dq_t + max(dq_h) > field.T:
        dq_slope = float("inf")
    else:
        dq_slope = difference_quotient_test(field, f, dq_t, dq_h).slope
    s_min, s_max, cond = condition_estimate(build_volterra(field, T, min(N, 512)))

    thresholds = {
        "edge_tol": _cfg_float(cfg, "edge_tol", 1e-4),
        "interior_tol": _cfg_float(cfg, "interior_tol", max(10.0 * field.step, 0.05)),
        "oracle_rel_tol": _cfg_float(cfg, "oracle_rel_tol", 1e-2),
        "dq_slope_min": _cfg_float(cfg, "dq_slope_min", 0.9),
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
    if rep.ratio_i > rep.bound_i or rep.ratio_ii > rep.bound_ii \
            or rep.ratio_iii > rep.bound_iii or rep.empirical_ratio > rep.composite_bound:
        failing.append("h2_bounds")
    if dq_slope < thresholds["dq_slope_min"]:
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
    _write_json(out / "validate.json", payload)
    _write_manifest(out, "validate", cfg, seed)
    if failing:
        print(f"validation failed: {', '.join(failing)}", file=sys.stderr)
        return 3
    return 0


def cmd_oracle(cfg: dict, out: Path, seed: int) -> int:
    p, f, snap = _wave(cfg)
    N = snap.grid.size - 1
    fd = fd_solve(p, f, FDConfig(N_x=_cfg_int(cfg, "fd_nx", 2 * N), T=snap.T))
    l2, mx, rel = compare(snap, fd)
    _write_series_csv(out / "fd_snapshot.csv", "x", fd.grid, u=fd.u, ux=fd.u_x, uxx=fd.u_xx)
    _write_json(out / "oracle.json", {"l2_err": l2, "max_err": mx, "rel_l2": rel})
    _write_manifest(out, "oracle", cfg, seed)
    return 0


_COMMANDS = {
    "kernel": cmd_kernel,
    "propagate": cmd_propagate,
    "apply": cmd_apply,
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
    args = parser.parse_args(argv)

    try:
        cfg = _parse_config(args.config)
        out = args.out if args.out is not None else Path(cfg.get("out", "."))
        if not out.is_absolute():
            base = Path.cwd() if args.out is not None else cfg["_dir"]
            out = base / out
        out.mkdir(parents=True, exist_ok=True)
        seed = args.seed if args.seed is not None else _cfg_int(cfg, "seed", 0)
        return _COMMANDS[args.command](cfg, out, seed)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, PotentialError, ControlError, DomainError,
            SingularSystemError, CertificationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
