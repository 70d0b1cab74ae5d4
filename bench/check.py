"""Oracle gap of one pass's outputs, outside the timed part.

    python3 bench/check.py --root R --workload W --seed S --size full \
        --dir D --result out.json

`lattice`: load the kernel dump, propagate a seeded bump control at
N = n_check and compare with the finite-difference oracle at N_x = 2N.
`controls`: compare the `propagate` snapshot with the oracle at N_x = 2N.
(`validate` reports its own gap in validate.json.)
"""

import argparse
import json
import sys
from pathlib import Path

import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", choices=("lattice", "controls"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=workloads.SIZES, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()
    size = workloads.SIZES[args.size]

    sys.path.insert(0, str(args.root / "src"))
    import numpy as np
    import wavekernel as wk
    from wavekernel.potential import parse_complex

    p = wk.build_potential(wk.parse_potential_file(args.dir.parent / "inputs" / "pot.txt"))
    amp = np.asarray([parse_complex(z) for z in
                      workloads.control_amplitude(args.workload, args.seed)])
    T = 1.0
    control = wk.bump_control(T, *workloads.BUMP, amp)
    if args.workload == "lattice":
        kdir = args.dir / "kernel"
        field = wk.load_kernel(kdir / "kernel.csv", kdir / "kernel.json", p)
        snap = wk.propagate(field, control, T, size.n_check)
    else:
        raw = np.loadtxt(args.dir / "propagate" / "snapshot.csv", delimiter=",",
                         skiprows=1, ndmin=2)
        n = p.dim
        u, ux, uxx = (c[:, 0::2] + 1j * c[:, 1::2] for c in
                      (raw[:, 1:1 + 2 * n], raw[:, 1 + 2 * n:1 + 4 * n], raw[:, 1 + 4 * n:]))
        snap = wk.WaveSnapshot(T=T, grid=raw[:, 0], u=u, u_x=ux, u_xx=uxx)
    N = len(snap.grid) - 1
    fd = wk.fd_solve(p, control, wk.FDConfig(N_x=2 * N, T=T))
    _, _, rel = wk.compare(snap, fd)
    args.result.write_text(json.dumps({"oracle_rel_l2": rel, "N": N}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
