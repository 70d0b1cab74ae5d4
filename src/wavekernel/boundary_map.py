"""Decaying matrix solution of the stationary problem and the control lift.

For potentials that are constant and positive definite beyond a cutoff X,
the square-integrable matrix solution of -K'' + q K = 0 is computed by
matching the exact exponential decay at the cutoff and integrating the
ODE backward to the origin, then normalizing to K(0) = I.  The lift maps
a vector-valued boundary control to a kernel-element-valued one through
x -> -K(x) v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ControlError, DomainError, PotentialError, SingularSystemError,
                     check_array, check_real)
from .fileio import write_table
from .potential import PotentialGrid, _lerp

_PD_TOL = 1e-12


def _sqrtm_pd(c, n: int) -> np.ndarray:
    """Hermitian square root of a positive definite n x n matrix (PotentialError otherwise)."""
    c = np.atleast_2d(check_array(c, "decay matrix", PotentialError, complex))
    if c.shape != (n, n):
        raise PotentialError(f"decay matrix shape {c.shape} != potential dim {n}")
    herm = 0.5 * (c + c.conj().T)
    if np.max(np.abs(c - herm)) > 1e-10 * max(np.max(np.abs(c)), 1.0):
        raise PotentialError("decay matrix must be Hermitian")
    vals, vecs = np.linalg.eigh(herm)
    if vals.min() <= _PD_TOL * max(vals.max(), 1.0):
        raise PotentialError(f"decay matrix is not positive definite (min eig {vals.min():.3e})")
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


@dataclass(frozen=True)
class WeylSolution:
    """Square-integrable matrix solution on [0, X], normalized to K(0) = I."""

    cutoff: float
    grid: np.ndarray
    samples: np.ndarray        # (m+1, n, n) values of K
    deriv: np.ndarray          # (m+1, n, n) values of K'
    decay_matrix: np.ndarray   # Hermitian square root governing the tail

    @property
    def dim(self) -> int:
        return self.samples.shape[-1]

    def eval(self, x) -> np.ndarray:
        """K(x) anywhere on the half-line; exponential formula beyond the cutoff.

        x must be finite, real and >= 0 up to a 1e-12 rounding allowance (DomainError).
        """
        x = check_array(x, "x", DomainError)
        if not np.all(x >= -1e-12):
            raise DomainError(f"K(x) needs finite x >= 0, got x in [{x.min()}, {x.max()}]")
        scal = x.ndim == 0
        xs = np.atleast_1d(x)
        out = np.empty(xs.shape + (self.dim, self.dim), dtype=complex)
        inside = xs <= self.cutoff + 1e-12
        if inside.any():
            out[inside] = _lerp(self.samples, xs[inside], self.cutoff, self.grid[1] - self.grid[0])
        if (~inside).any():
            vals, vecs = np.linalg.eigh(self.decay_matrix)
            dx = xs[~inside] - self.cutoff
            expd = np.exp(-np.einsum("r,a->ra", dx, vals))
            tail = np.einsum("pa,ra,qa->rpq", vecs, expd, vecs.conj())
            out[~inside] = np.einsum("rab,bc->rac", tail, self.samples[-1])
        return out[0] if scal else out


def weyl_solution(p: PotentialGrid, X: float, c) -> WeylSolution:
    """Decaying solution for a potential equal to the constant c beyond X.

    The caller asserts q(x) = c for x >= X with c positive definite.  The
    ODE is integrated backward from the cutoff with classical fourth-order
    steps on the sampled potential; failure to renormalize at the origin
    signals that the positivity assertion does not hold.  The cutoff X must
    be a finite positive number, not a bool, within the sampled domain, and
    c finite, Hermitian and positive definite (PotentialError).
    """
    check_real(X, "cutoff X", PotentialError, 0.0, p.x_max * (1 + 1e-12))
    n = p.dim
    root_c = _sqrtm_pd(c, n)
    steps_per_cell = 2
    m = int(round(X / p.step)) * steps_per_cell
    m = max(m, 64)
    h = X / m
    xs = X - np.arange(m + 1) * h            # backward from the cutoff
    K = np.empty((m + 1, n, n), dtype=complex)
    P = np.empty_like(K)
    K[0] = np.eye(n)
    P[0] = -root_c
    q_of = p.eval

    def rhs(x, K_val, P_val):
        return P_val, q_of(float(np.clip(x, 0.0, p.x_max))) @ K_val

    for r in range(m):
        x0 = xs[r]
        k1K, k1P = rhs(x0, K[r], P[r])
        k2K, k2P = rhs(x0 - h / 2, K[r] - h / 2 * k1K, P[r] - h / 2 * k1P)
        k3K, k3P = rhs(x0 - h / 2, K[r] - h / 2 * k2K, P[r] - h / 2 * k2P)
        k4K, k4P = rhs(x0 - h, K[r] - h * k3K, P[r] - h * k3P)
        K[r + 1] = K[r] - h / 6 * (k1K + 2 * k2K + 2 * k3K + k4K)
        P[r + 1] = P[r] - h / 6 * (k1P + 2 * k2P + 2 * k3P + k4P)

    K = K[::-1]
    P = P[::-1]
    K0 = K[0]
    cond = np.linalg.cond(K0)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularSystemError(
            "solution matrix is singular at the origin; the potential likely "
            "violates the positivity assertion"
        )
    K0_inv = np.linalg.inv(K0)
    K = np.einsum("rab,bc->rac", K, K0_inv)
    P = np.einsum("rab,bc->rac", P, K0_inv)
    K[0] = np.eye(n)
    return WeylSolution(cutoff=float(X), grid=np.linspace(0.0, X, m + 1),
                        samples=K, deriv=P, decay_matrix=root_c)


def dump_weyl(K: WeylSolution, path) -> None:
    """Write the solution samples as numeric CSV: x, then entries row-major (re, im)."""
    n = K.dim
    write_table(path, ["x"], [f"K{a}{b}" for a in range(n) for b in range(n)],
                K.grid[:, None], K.samples.reshape(len(K.grid), n * n))


def lambda_map(K: WeylSolution, vec) -> callable:
    """The isomorphism sending a vector to the kernel element x -> -K(x) v.

    vec must hold K.dim finite entries (DomainError).
    """
    v = check_array(vec, "vector", DomainError, complex)
    if v.size != K.dim:
        raise DomainError(f"vector must hold {K.dim} finite entries, got {v.tolist()}")
    v = v.reshape(K.dim)

    def fn(x):
        return -K.eval(x) @ v

    return fn


def lift_control(K: WeylSolution, f_v) -> callable:
    """Lift a vector-valued control to a kernel-element-valued one.

    Returns a two-argument evaluator (t, x) -> -K(x) f_v(t).  The control's
    dimension must be K's (ControlError), and t and x must hold finite real
    numbers in shapes that broadcast (DomainError).
    """
    if f_v.dim != K.dim:
        raise ControlError(f"control dimension {f_v.dim} != solution dimension {K.dim}")

    def fn(t, x):
        try:
            np.broadcast_shapes(np.shape(t), np.shape(x))
        except ValueError:
            raise DomainError(f"times of shape {np.shape(t)} and points of shape "
                              f"{np.shape(x)} do not broadcast") from None
        ft = f_v.sample(t)[0]
        return -np.einsum("...ab,...b->...a", K.eval(x), ft)

    return fn
