"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py --root R --workload W --seed S --size full \
        --dir D --result out.json [--setup-only [--env] | --trace]

Times the set-up a CLI user pays before any numerics (importing wavekernel
and building the workload's potential), then runs the workload's CLI
commands in process through ``wavekernel.cli.main`` and times each one.
With ``--trace`` the calls into the program's modules are wrapped in spans
and, after the commands, one extra ``initial_v0`` call on the same lattice
times the derivative tables on their own.  The parent process reads this
process's peak RSS when it reaps it.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=workloads.SIZES, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--env", action="store_true", help="also report library versions")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    size = workloads.SIZES[args.size]

    sys.path.insert(0, str(args.root / "src"))
    import wavekernel
    from wavekernel import cli

    potential = wavekernel.build_potential(
        wavekernel.parse_potential_file(args.dir.parent / "inputs" / "pot.txt"))
    result = {"setup_s": time.perf_counter() - _T0, "module": wavekernel.__file__}
    if args.env:
        result.update(_library_versions())
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    # Sweep counter on every pass, traced or not: one call wrapper, no clock.
    sweeps = []
    solve = cli.solve_goursat

    def counted_solve(*a, **kw):
        field = solve(*a, **kw)
        sweeps.append(field.iterations)
        return field

    cli.solve_goursat = counted_solve

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    runs = []
    for idx, cmd in enumerate(workloads.commands(args.workload, args.seed, size)):
        cfg = args.dir / cmd.config
        cfg.write_text(cmd.text)
        argv = [cmd.name, "--config", str(cfg), "--out", str(args.dir / cmd.out)]
        if tracer is None:
            t0 = time.perf_counter()
            rc = _main(cli, argv)
            seconds = time.perf_counter() - t0
        else:
            tracer.command = idx
            with tracer.span(f"cli.{cmd.name}") as sp:
                rc = _main(cli, argv)
            tracer.command = None
            seconds = sp["end"] - sp["start"]
        runs.append({"name": cmd.name, "rc": rc, "seconds": seconds})
    result["commands"] = runs
    result["sweeps"] = sum(sweeps)

    if tracer is not None:
        T, h = workloads.lattice_of(args.workload, size)
        with tracer.span("goursat.initial_v0"):
            wavekernel.initial_v0(potential, T, h)
        result["spans"] = tracer.spans
    args.result.write_text(json.dumps(result))
    return 0


def _main(cli, argv: list[str]):
    """`cli.main`; a traceback is a failed operation, not a benchmark crash."""
    try:
        return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return "traceback"


def _library_versions() -> dict:
    import numpy as np
    import scipy

    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{deps['blas'].get('name')} {deps['blas'].get('version')}",
            "lapack": f"{deps['lapack'].get('name')} {deps['lapack'].get('version')}"}


if __name__ == "__main__":
    sys.exit(main())
