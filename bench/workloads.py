"""Seeded inputs and command sequences for the benchmark workloads.

Every input the program sees is generated here from the benchmark seed and
written as plain files; the program only ever receives those files.

The potential is a fixed Hermitian base matrix plus a few seeded smooth
terms.  The seeded part has zero mean over [0, 1] and a fixed sup-norm, so
the integral of |q| over the kernel horizon barely moves between seeds and
the Picard sweep count repeats: a seed change must not look like a speed-up.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

X_MAX = 4.0
X_STEP = 1.0 / 2048
PERTURBATION = 0.25            # sup of the operator norm of the seeded part
TERMS = 3
# The bases put the last Picard change (tol 1e-10) about 0.6 decades below
# tol and the one before it about 1 decade above, so the count holds.
BASE = {
    1: [[2.0]],
    2: [[0.93, 0.279 + 0.372j], [0.279 - 0.372j, 1.86]],
}


@dataclass(frozen=True)
class Size:
    """Problem sizes; `tiny` is for the self-test only."""

    h_fine: float       # lattice step of `lattice` and `validate`
    h_coarse: float     # lattice step of `controls`
    n_prop: int         # N of propagate/invert on `controls`
    n_bounds: int       # N of bounds on `controls`
    trials: int         # bounds trials on `controls`
    n_validate: int     # N of `validate`
    validate_trials: int
    n_check: int        # N of the benchmark's own oracle check on `lattice`


FULL = Size(h_fine=1 / 400, h_coarse=1 / 100, n_prop=800, n_bounds=256,
            trials=100, n_validate=400, validate_trials=25, n_check=200)
TINY = Size(h_fine=1 / 10, h_coarse=1 / 10, n_prop=32, n_bounds=32,
            trials=3, n_validate=32, validate_trials=3, n_check=32)
SIZES = {"full": FULL, "tiny": TINY}

WORKLOADS = ("lattice", "controls", "validate")
DIM = {"lattice": 2, "controls": 2, "validate": 1}
# the command charged when the workload's wave misses the FD oracle
ORACLE_COMMAND = {"lattice": "kernel", "controls": "propagate", "validate": "validate"}


def _hermitian(rng: random.Random, n: int) -> list[list[complex]]:
    a = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in range(n)]
    return [[0.5 * (a[i][j] + a[j][i].conjugate()) for j in range(n)] for i in range(n)]


def _opnorm(m: list[list[complex]]) -> float:
    if len(m) == 1:
        return abs(m[0][0])
    # largest singular value of a 2x2 matrix, closed form
    fro2 = sum(abs(z) ** 2 for row in m for z in row)
    det = abs(m[0][0] * m[1][1] - m[0][1] * m[1][0])
    return math.sqrt(0.5 * (fro2 + math.sqrt(max(fro2 * fro2 - 4 * det * det, 0.0))))


def potential_samples(seed: int, n: int) -> tuple[list[float], list[list[list[complex]]]]:
    """Node samples of the seeded potential on [0, X_MAX] at step X_STEP."""
    rng = random.Random(f"potential-{n}-{seed}")
    terms = [(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2 * math.pi), _hermitian(rng, n))
             for _ in range(TERMS)]
    xs = [k * X_STEP for k in range(int(round(X_MAX / X_STEP)) + 1)]
    # exact mean of sin(f x + p) over [0, 1]
    means = [(math.cos(p) - math.cos(f + p)) / f for f, p, _ in terms]
    pert = []
    for x in xs:
        wts = [math.sin(f * x + p) - mu for (f, p, _), mu in zip(terms, means)]
        pert.append([[sum(w * H[i][j] for w, (_, _, H) in zip(wts, terms))
                      for j in range(n)] for i in range(n)])
    scale = PERTURBATION / max(_opnorm(m) for m in pert)
    base = BASE[n]
    vals = [[[base[i][j] + scale * m[i][j] for j in range(n)] for i in range(n)] for m in pert]
    return xs, vals


def bump_amplitude(seed: int, n: int, tag: str) -> list[str]:
    """Seeded unit-norm complex amplitude, as the CLI's `amp=` tokens."""
    rng = random.Random(f"{tag}-{n}-{seed}")
    amp = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
    norm = math.sqrt(sum(abs(z) ** 2 for z in amp))
    return [f"{z.real / norm:.12g}{z.imag / norm:+.12g}i" for z in amp]


def program_seed(seed: int) -> int:
    """Seed handed to `bounds`/`validate` for their random trial controls."""
    return random.Random(f"program-{seed}").randrange(2**31)


def write_inputs(workload: str, seed: int, inputs: Path) -> None:
    """Write the potential spec and its sample CSV into `inputs`."""
    n = DIM[workload]
    xs, vals = potential_samples(seed, n)
    inputs.mkdir(parents=True, exist_ok=True)
    with open(inputs / "q.csv", "w") as fh:
        for x, m in zip(xs, vals):
            cells = [f"{x:.17g}"]
            for row in m:
                for z in row:
                    cells += [f"{z.real:.17g}", f"{z.imag:.17g}"]
            fh.write(",".join(cells) + "\n")
    (inputs / "pot.txt").write_text("kind = sampled\ncsv = q.csv\n")


@dataclass(frozen=True)
class Command:
    """One CLI call: `wavekernel <name> --config <config> --out <out>`."""

    name: str
    config: str         # file name inside the pass directory
    out: str            # output directory inside the pass directory
    text: str           # config file body


BUMP = (0.1, 0.9)   # support of every boundary control; only amplitudes are seeded


def control_amplitude(workload: str, seed: int) -> list[str]:
    return bump_amplitude(seed, DIM[workload], f"control-{workload}")


def control_spec(workload: str, seed: int) -> str:
    amp = ",".join(control_amplitude(workload, seed))
    return f"bump start={BUMP[0]} stop={BUMP[1]} amp={amp}"


def commands(workload: str, seed: int, size: Size) -> list[Command]:
    """The CLI calls of one pass, in order; paths are relative to the pass dir."""
    pot = "potential = ../inputs/pot.txt\nT = 1\ntol = 1e-10\n"
    pseed = f"seed = {program_seed(seed)}\n"
    if workload == "lattice":
        return [Command("kernel", "kernel.cfg", "kernel", pot + f"h = {size.h_fine!r}\n")]
    if workload == "controls":
        lat = pot + f"h = {size.h_coarse!r}\n"
        dump = "kernel_dump = kernel/kernel.csv\n"
        ctrl = f"control = {control_spec(workload, seed)}\n"
        return [
            Command("kernel", "kernel.cfg", "kernel", lat),
            Command("propagate", "propagate.cfg", "propagate",
                    lat + dump + ctrl + f"N = {size.n_prop}\n"),
            Command("invert", "invert.cfg", "invert",
                    lat + dump + ctrl + "snapshot = propagate/snapshot.csv\n"),
            Command("bounds", "bounds.cfg", "bounds",
                    lat + dump + pseed + f"N = {size.n_bounds}\ntrials = {size.trials}\n"),
        ]
    if workload == "validate":
        return [Command("validate", "validate.cfg", "validate",
                        pot + f"h = {size.h_fine!r}\n" + pseed
                        + f"control = {control_spec(workload, seed)}\n"
                        + f"N = {size.n_validate}\ntrials = {size.validate_trials}\n")]
    raise ValueError(f"unknown workload {workload!r}")


def lattice_of(workload: str, size: Size) -> tuple[float, float]:
    """(T, h) of the kernel lattice the workload solves."""
    return 1.0, size.h_coarse if workload == "controls" else size.h_fine


def table_n(workload: str, size: Size) -> int:
    """Largest N-grid on which a workload samples the kernel (0: none)."""
    return {"lattice": 0, "controls": size.n_prop, "validate": size.n_validate}[workload]
