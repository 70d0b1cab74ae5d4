"""Independent verification engines for the kernel and the propagator.

A leapfrog finite-difference march of the telegraph equation provides a
solution oracle that shares no code with the representation formula, and
the constant-potential kernel has a closed Bessel form whose power series
is evaluated here directly.  The substitution check pushes that closed
form through the kernel's integral equation with fine quadrature before
it is trusted as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ControlError, DomainError, check_array, check_count, check_order, check_real
from .potential import PotentialGrid
from .propagator import Control, WaveSnapshot, _l2

_N_QUAD = 400        # Simpson cells per axis (even) in bessel_substitution_residual


@dataclass(frozen=True)
class FDConfig:
    """Leapfrog discretization: N_x space cells on [0, T], time step cfl*dx, cfl in (0, 1]."""

    N_x: int
    T: float
    cfl: float = 1.0

    def __post_init__(self):
        check_count(self.N_x, "N_x (space cells)", 16, DomainError)
        check_real(self.T, "horizon T", DomainError, 0.0)
        check_order("cfl <= 1", DomainError, check_real(self.cfl, "cfl", DomainError, 0.0), 1.0)


def fd_solve(p: PotentialGrid, f: Control, cfg: FDConfig) -> WaveSnapshot:
    """Explicit leapfrog march of the boundary-driven telegraph equation.

    The spatial domain extends two cells beyond x = T so the wave front
    never reaches the artificial right edge; at cfl = 1 the scheme is
    exact for potential-free transport.  The control's dimension must be the
    potential's (ControlError).
    """
    T = cfg.T
    dx = T / cfg.N_x
    n_ext = cfg.N_x + 2
    xs = np.arange(n_ext + 1) * dx
    check_order(f"potential domain [0, {p.x_max}] too short", DomainError, xs[-1], p.x_max)
    n = p.dim
    if f.dim != n:
        raise ControlError(f"control dimension {f.dim} != potential dimension {n}")
    qs = p.eval(xs)
    n_t = int(np.ceil(T / (cfg.cfl * dx) - 1e-12))
    dt = T / n_t
    lam2 = (dt / dx) ** 2

    # the boundary value at every step time (m + 1) dt, sampled at once
    boundary = f.sample(np.arange(1, n_t + 1) * dt)[0]
    u_prev = np.zeros((n_ext + 1, n), dtype=complex)
    u_cur = np.zeros_like(u_prev)
    u_cur[0] = boundary[0]
    for m in range(1, n_t):
        lap = u_cur[2:] - 2.0 * u_cur[1:-1] + u_cur[:-2]
        qu = np.einsum("iab,ib->ia", qs[1:-1], u_cur[1:-1])
        u_next = np.empty_like(u_cur)
        u_next[1:-1] = 2.0 * u_cur[1:-1] - u_prev[1:-1] + lam2 * lap - dt**2 * qu
        u_next[0] = boundary[m]
        u_next[-1] = 0.0
        u_prev, u_cur = u_cur, u_next

    keep = cfg.N_x + 1
    u = u_cur[:keep]
    u_x = np.gradient(u, dx, axis=0)
    u_xx = np.zeros_like(u)
    u_xx[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / dx**2
    u_xx[0] = u_xx[1]
    u_xx[-1] = u_xx[-2]
    return WaveSnapshot(T=T, grid=xs[:keep], u=u, u_x=u_x, u_xx=u_xx)


def bessel_j1_over_z(z2: np.ndarray) -> np.ndarray:
    """Power series for J1(z)/z as a function of z^2; limit 1/2 at zero.

    Terms decay factorially; the truncation keeps the relative error below
    1e-13 on the argument ranges the kernel comparisons use.
    """
    z2 = np.asarray(z2, dtype=float)
    out = np.full(z2.shape, 0.5)
    term = np.full(z2.shape, 0.5)
    for k in range(1, 60):
        term = term * (-z2 / 4.0) / (k * (k + 1))
        out = out + term
        if np.max(np.abs(term), initial=0.0) < 1e-17 * np.max(np.abs(out), initial=1e-30):
            break
    return out


def bessel_kernel_constant(c: float, x, t) -> np.ndarray:
    """Closed-form scalar kernel for a constant potential c > 0.

    c (not a bool), x and t finite reals in shapes that broadcast, with 0 <= x <= t (DomainError).
    """
    check_real(c, "constant c", DomainError, 0.0)
    x, t = check_array(x, "x", DomainError), check_array(t, "t", DomainError)
    check_order("need 0 <= x <= t", DomainError, 0.0, x, t)
    z2 = c * np.maximum(t**2 - x**2, 0.0)
    return -c * x * bessel_j1_over_z(z2)


def bessel_substitution_residual(c: float, points) -> float:
    """Residual of the closed-form kernel in the characteristic integral equation.

    Substitutes the Bessel form into v = v0 + V v at the given (xi, eta)
    points, evaluating the double integral with an independent fine
    Simpson rule of _N_QUAD cells per axis.  A small residual certifies the
    closed form before it is used as an oracle.  points: (k, 2) finite reals (DomainError).
    """
    points = check_array(points, "points", DomainError)
    if points.ndim != 2 or points.shape[1] != 2:
        raise DomainError(f"points must be (xi, eta) pairs, got shape {points.shape}")

    def v_of(xi, eta):
        xs = (eta - xi) / 2.0
        ts = (eta + xi) / 2.0
        return bessel_kernel_constant(c, xs, ts)

    worst = 0.0
    for xi, eta in points:
        v_val = v_of(xi, eta)
        v0 = -0.5 * c * (eta - xi) / 2.0
        if xi < 1e-14:
            integral = 0.0
        else:
            s1 = np.linspace(0.0, xi, _N_QUAD + 1)
            s2 = np.linspace(xi, eta, _N_QUAD + 1)
            X1, X2 = np.meshgrid(s1, s2, indexing="ij")
            vals = c * v_of(X1, X2)
            w = np.ones(_N_QUAD + 1)
            w[1:-1:2] = 4.0
            w[2:-1:2] = 2.0
            w1 = w * (xi / _N_QUAD / 3.0)
            w2 = w * ((eta - xi) / _N_QUAD / 3.0)
            integral = -0.25 * np.einsum("i,ij,j->", w1, vals, w2)
        worst = max(worst, abs(float(v_val) - (v0 + integral)))
    return worst


def compare(a: WaveSnapshot, b: WaveSnapshot) -> tuple[float, float, float]:
    """L2, max, and relative L2 distance between snapshots.

    Grids are resampled to the coarser one by linear interpolation.  The
    snapshots must be WaveSnapshots of one horizon and dimension (DomainError).
    """
    if not all(isinstance(s, WaveSnapshot) for s in (a, b)):
        raise DomainError(f"compare takes WaveSnapshots, got {type(a).__name__, type(b).__name__}")
    if abs(a.T - b.T) > 1e-12 * max(1.0, a.T):
        raise DomainError(f"horizon mismatch: {a.T} vs {b.T}")
    if a.dim != b.dim:
        raise DomainError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if len(a.grid) < len(b.grid):
        coarse, fine = a, b
    else:
        coarse, fine = b, a
    grid = coarse.grid
    fine_u = np.empty_like(coarse.u)
    for comp in range(fine.u.shape[1]):
        fine_u[:, comp] = np.interp(grid, fine.grid, fine.u[:, comp].real) \
            + 1j * np.interp(grid, fine.grid, fine.u[:, comp].imag)
    diff = fine_u - coarse.u
    l2 = float(_l2(grid, diff))
    mx = float(np.max(np.abs(diff)))
    base = float(_l2(a.grid, a.u))
    rel = 0.0 if (l2 == 0.0 and base == 0.0) else (np.inf if base == 0.0 else l2 / base)
    return l2, mx, rel
