"""Transmutation kernel of the half-line telegraph equation.

The kernel w(x,t) is computed in characteristic coordinates xi = t - x,
eta = t + x, where the hyperbolic problem becomes a fixed-point equation
v = v0 + V v for the field v on the triangle 0 <= xi <= eta <= 2T.  The
fixed point is reached by Picard sweeps; every integral is a composite
trapezoid on a uniform characteristic lattice with spacing h, so one
sweep costs O(M^2) via cumulative prefix sums (M = 2T/h).

Alongside the field itself the solver precomputes cumulative line
integrals of q*v along lattice rows and columns.  Those tables give the
first derivatives of the kernel and the explicit second time derivative
of its smooth part in closed vectorized form.

Layout: every KernelField array is node-major, (M+1, M+1, n, n), so that
one index pair gives one matrix.  The Picard sweeps work plane-major
instead: a contiguous (n, n, M+1, M+1) array holds one (M+1)^2 plane per
matrix entry, so the products and the cumulative sums of a sweep run
along contiguous memory.  solve_goursat and apply_V convert on entry and
on exit; no other code sees that layout.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, DomainError
from .potential import PotentialGrid, _cumtrapz, _mul, _opnorms, integral_Q

_TOL = 1e-9


def _grids(M: int):
    idx = np.arange(M + 1)
    A, B = np.meshgrid(idx, idx, indexing="ij")
    return idx, A, B


def _triangle_mask(M: int) -> np.ndarray:
    _, A, B = _grids(M)
    return A <= B


@dataclass
class KernelField:
    """Kernel values on the characteristic triangle plus derived tables.

    v[i, j] holds the field at (xi_i, eta_j) = (i*h, j*h) for i <= j; entries
    below the diagonal are zero.  qh holds the potential sampled at half-step
    points m*h/2, the resolution every internal quadrature uses.
    """

    T: float
    step: float
    v: np.ndarray                   # (M+1, M+1, n, n)
    v0: np.ndarray
    iterations: int
    tail_bound: float
    qh: np.ndarray = field(repr=False, default=None)       # (M+1, n, n)
    e_cum: np.ndarray = field(repr=False, default=None)    # row integrals of q*v
    d_cum: np.ndarray = field(repr=False, default=None)    # column integrals of q*v
    wx_lat: np.ndarray = field(repr=False, default=None)   # d/dx of the smooth part
    _wtt_lat: np.ndarray = field(repr=False, default=None)

    @property
    def M(self) -> int:
        return self.v.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.v.shape[-1]

    def q_at(self, pts) -> np.ndarray:
        """Potential at arbitrary points of [0, T], interpolated from qh."""
        pts = np.asarray(pts, dtype=float)
        pos = np.clip(pts, 0.0, self.T) / (0.5 * self.step)
        k = np.minimum(np.floor(pos).astype(int), self.M - 1)
        frac = (pos - k)[..., None, None]
        return self.qh[k] * (1.0 - frac) + self.qh[k + 1] * frac

    def wtilde_lattice(self) -> np.ndarray:
        return self.v - self.v0

    def wtt_lattice(self) -> np.ndarray:
        """Explicit second time derivative of the smooth kernel part.

        Lazily cached; recomputation is idempotent, so concurrent readers
        at worst duplicate work.
        """
        if self._wtt_lat is None:
            self._wtt_lat = _assemble_wtt(self)
        return self._wtt_lat

    def wxx_lattice(self) -> np.ndarray:
        """Second space derivative of the smooth part via the interior identity."""
        idx = np.arange(self.M + 1)
        return _wxx(self.qh[np.clip(idx - idx[:, None], 0, self.M)], self.v, self.wtt_lattice())


def _wxx(q: np.ndarray, v: np.ndarray, wtt: np.ndarray) -> np.ndarray:
    """The interior identity w_xx = q(x) w + w_tt at nodes of q, v and wtt alike."""
    out = _mul(q, v)
    out += wtt
    return out


def _interp_triangle(arr: np.ndarray, xi, eta, h: float, M: int) -> np.ndarray:
    """Interpolate a lattice field at points of the characteristic triangle.

    Off-diagonal cells use bilinear interpolation; cells touching the
    diagonal use linear interpolation on their three valid corners, which
    keeps diagonal values exact.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    top = M * h
    if np.any(xi < -_TOL) or np.any(eta > top + _TOL * (1 + top)) or np.any(xi > eta + _TOL):
        raise DomainError("interpolation point outside the characteristic triangle")
    xic = np.clip(xi, 0.0, top)
    etac = np.clip(np.maximum(eta, xic), 0.0, top)
    i = np.minimum((xic / h).astype(int), M - 1)
    j = np.minimum((etac / h).astype(int), M - 1)
    j = np.maximum(j, i)
    s = (xic / h - i)[..., None, None]
    u = (etac / h - j)[..., None, None]
    bilin = (
        arr[i, j] * (1 - s) * (1 - u)
        + arr[i + 1, j] * s * (1 - u)
        + arr[i, j + 1] * (1 - s) * u
        + arr[i + 1, j + 1] * s * u
    )
    bary = arr[i, j] * (1 - u) + arr[i + 1, j + 1] * s + arr[i, j + 1] * (u - s)
    diag = (i == j)[..., None, None]
    return np.where(diag, bary, bilin)


# --- construction ----------------------------------------------------------

def _lattice_setup(p: PotentialGrid, T: float, h: float):
    if not (math.isfinite(T) and math.isfinite(h) and T > 0 and h > 0):
        raise DomainError(f"T = {T} and h = {h} must be finite and positive")
    M = int(round(2.0 * T / h))
    if abs(M * h - 2.0 * T) > _TOL * max(1.0, T):
        raise DomainError(f"step h = {h} does not divide 2T = {2 * T}")
    if M % 2 != 0:
        raise DomainError(f"step h = {h} must divide T (even lattice), got M = {M}")
    if M < 2:
        raise DomainError("lattice too coarse; need at least two steps")
    if p.x_max < T - _TOL * max(1.0, T):
        raise DomainError(f"potential domain [0, {p.x_max}] does not cover [0, {T}]")
    qh = p.eval(np.minimum(np.arange(M + 1) * (h / 2.0), p.x_max))
    return M, qh


def _v0_lattice(qh: np.ndarray, h: float) -> np.ndarray:
    M = qh.shape[0] - 1
    q_cum = _cumtrapz(qh, h / 2.0, axis=0)
    v0 = -0.5 * (q_cum[None, :, :, :] - q_cum[:, None, :, :])
    v0[~_triangle_mask(M)] = 0.0
    return v0


def initial_v0(p: PotentialGrid, T: float, h: float) -> KernelField:
    """Field holding only the explicit part: the potential integral between
    the two characteristic coordinates."""
    M, qh = _lattice_setup(p, T, h)
    v0 = _v0_lattice(qh, h)
    f = KernelField(T=float(T), step=float(h), v=v0.copy(), v0=v0, iterations=0,
                    tail_bound=float("inf"), qh=qh)
    _attach_tables(f)
    return f


def apply_V(p: PotentialGrid, values: np.ndarray, h: float) -> np.ndarray:
    """One application of the fixed-point integral operator to a lattice field.

    values and the result are node-major, (M+1, M+1, n, n).
    """
    M = values.shape[0] - 1
    qh = p.eval(np.arange(M + 1) * (h / 2.0))
    out = _apply_V_core(_toeplitz_planes(qh), _planes(values), h)
    return np.ascontiguousarray(_node_view(out))


def _planes(a: np.ndarray) -> np.ndarray:
    """Plane-major copy (n, n, M+1, M+1) of a node-major lattice array."""
    return np.ascontiguousarray(np.moveaxis(a, (0, 1), (2, 3)))


def _node_view(a: np.ndarray) -> np.ndarray:
    """Node-major view (M+1, M+1, n, n) of a plane-major array."""
    return np.moveaxis(a, (2, 3), (0, 1))


def _toeplitz_planes(qh: np.ndarray) -> np.ndarray:
    """Plane-major q at each node: plane (a, b) holds qh[j - i, a, b] at (i, j).

    Below the diagonal it holds qh[0]; _apply_V_core masks those nodes.
    """
    idx = np.arange(qh.shape[0])
    return np.moveaxis(qh, 0, -1)[..., np.clip(idx - idx[:, None], 0, qh.shape[0] - 1)]


def _apply_V_core(q_planes: np.ndarray, v_planes: np.ndarray, h: float,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The fixed-point operator V in the plane-major work layout.

    q_planes (from _toeplitz_planes) and v_planes are (n, n, M+1, M+1): one
    contiguous (M+1)^2 plane per matrix entry, where KernelField arrays are
    node-major (M+1, M+1, n, n).  The product g = q v is formed for all
    entries at once; then each plane in turn is masked to the triangle,
    integrated by a cumulative trapezoid along eta and then along xi (one
    reused work plane), shifted by its diagonal and scaled by -1/4.  Nodes
    on and below the diagonal come out zero.  The result is written into
    out when given, which must not overlap v_planes.
    """
    M = v_planes.shape[-1] - 1
    if out is None:
        out = np.empty(v_planes.shape, dtype=np.result_type(q_planes, v_planes))
    _mul(_node_view(q_planes), _node_view(v_planes), out=_node_view(out))
    below = np.tri(M + 1, k=-1, dtype=bool)
    inner = np.empty((M + 1, M + 1), dtype=out.dtype)
    for g in out.reshape(-1, M + 1, M + 1):
        np.copyto(g, 0.0, where=below)
        _cumtrapz(g, h, axis=1, out=inner)      # along eta
        _cumtrapz(inner, h, axis=0, out=g)      # along xi
        g -= g.diagonal()[:, None].copy()
        g *= -0.25
        np.copyto(g, 0.0, where=below)
        np.fill_diagonal(g, 0.0)
    return out


def _tail_bound(S: float, width: float, n_done: int) -> float:
    """Factorial tail of the iteration remainder after n_done sweeps."""
    if S <= 0.0 or width <= 0.0:
        return 0.0
    total = 0.0
    for k in range(n_done + 1, n_done + 400):
        term = math.exp((k + 1) * math.log(S) + k * math.log(width) - math.lgamma(k + 1))
        total += term
        if term < 1e-30 * max(total, 1e-300):
            break
    return total


def solve_goursat(p: PotentialGrid, T: float, h: float, tol: float,
                  max_sweeps: int = 100) -> KernelField:
    """Solve the kernel fixed-point equation by Picard sweeps.

    Stops when the sup-norm change over all nodes falls below tol, or when
    the analytic factorial tail of the remainder does; raises
    ConvergenceError at the sweep cap.  Diagonal nodes are pinned to zero.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and positive, got {tol}")
    M, qh = _lattice_setup(p, T, h)
    v0 = _v0_lattice(qh, h)
    S_full = float(0.5 * np.trapezoid(_opnorms(qh), dx=h / 2.0))
    q_planes, v0_planes = _toeplitz_planes(qh), _planes(v0)
    v, v_new = v0_planes.copy(), np.empty_like(v0_planes)
    iterations = 0
    delta = math.inf
    tail = _tail_bound(S_full, 2.0 * T, 0)
    while not (tail < tol or delta < tol):
        if iterations >= max_sweeps:
            raise ConvergenceError(
                f"no convergence after {max_sweeps} sweeps "
                f"(last change {delta:.3e}, tol {tol:.3e}); "
                "tol may be below the quadrature floor for this h"
            )
        _apply_V_core(q_planes, v, h, out=v_new)
        v_new += v0_planes
        delta = _max_node_change(v_new, v)
        v, v_new = v_new, v
        iterations += 1
        tail = _tail_bound(S_full, 2.0 * T, iterations)
    del q_planes, v0_planes, v_new
    v = np.ascontiguousarray(_node_view(v))
    f = KernelField(T=float(T), step=float(h), v=v, v0=v0, iterations=max(iterations, 1),
                    tail_bound=tail, qh=qh)
    _attach_tables(f)
    return f


def _max_node_change(new: np.ndarray, old: np.ndarray) -> float:
    """Largest Frobenius norm of new - old over the nodes of two plane-major fields."""
    sq = np.zeros(new.shape[-2:])
    for a, b in zip(new.reshape(-1, *sq.shape), old.reshape(-1, *sq.shape)):
        sq += np.abs(a - b) ** 2
    return float(np.max(np.sqrt(sq)))


def _attach_tables(f: KernelField) -> None:
    """Cumulative line integrals of q*v along both lattice directions.

    e_cum[j, m] integrates q(s) v(eta_j - 2s, eta_j) over s in [0, m*h/2]
    (constant eta); d_cum[i, m] integrates q(s) v(xi_i, xi_i + 2s) over the
    same range (constant xi).  Both power the derivative formulas.
    """
    M, h = f.M, f.step
    idx = np.arange(M + 1)
    row, col = idx[:, None], idx[None, :]

    ge = _mul(f.qh, f.v[np.clip(row - col, 0, M), row])
    ge[col > row] = 0.0
    f.e_cum = _cumtrapz(ge, h / 2.0, axis=1)
    del ge

    gd = _mul(f.qh, f.v[row, np.clip(row + col, 0, M)])
    gd[row + col > M] = 0.0
    f.d_cum = _cumtrapz(gd, h / 2.0, axis=1)
    del gd

    # d/dx of the smooth part at node (i, j), from the derivative formulas in
    # characteristic coordinates:
    #   wx = -(1/2) e_cum[j, j] + (1/2) e_cum[j, j-i] + (1/2) d_cum[i, j-i]
    #        -(1/2) e_cum[i, i]
    e_diag = f.e_cum[idx, idx]
    jm = np.clip(col - row, 0, M)
    wx = f.e_cum[col, jm]
    wx -= e_diag[None, :]
    wx += f.d_cum[row, jm]
    wx -= e_diag[:, None]
    wx *= 0.5
    wx[row > col] = 0.0
    f.wx_lat = wx


def _assemble_wtt(f: KernelField) -> np.ndarray:
    """Explicit second time derivative of the smooth kernel part.

    Assembled from the differentiated fixed-point equation: pointwise
    products of q with edge kernel values, six single q*q integrals, and
    the remaining double-integral terms built from e_cum/d_cum by one more
    cumulative trapezoid along the outer integration variable.  Each
    full-lattice temporary is dropped once consumed, and factors that
    depend on one lattice index are formed on the (M+1) vectors.
    """
    M, h = f.M, f.step
    idx = np.arange(M + 1)
    row, col = idx[:, None], idx[None, :]
    jm = np.clip(col - row, 0, M)         # jm[i, j] = j - i on the triangle
    e_diag = f.e_cum[idx, idx]

    # outer integrand over tau = m*h/2 at fixed xi_i (row i, column m):
    #   q(tau) [ d_cum[i, m] - e_cum[i, i] + e_cum[i+m, i+m] - e_cum[i+m, m] ]
    ipm = np.clip(row + col, 0, M)
    t = f.d_cum - e_diag[:, None]
    t += e_diag[ipm]
    t -= f.e_cum[ipm, col]
    g1 = _mul(f.qh, t)
    del t
    g1[row + col > M] = 0.0
    cum_x1 = _cumtrapz(g1, h / 2.0, axis=1)
    del g1

    # outer integrand over tau at fixed eta_j (row j, column m):
    #   q(tau) [ d_cum[j-m, m] - e_cum[j-m, j-m] + e_cum[j, j] - e_cum[j, m] ]
    jmm = np.clip(row - col, 0, M)
    t = f.d_cum[jmm, col]
    t -= e_diag[jmm]
    t += e_diag[:, None]
    t -= f.e_cum
    g3 = _mul(f.qh, t)
    del t
    g3[col > row] = 0.0
    cum_x3 = _cumtrapz(g3, h / 2.0, axis=1)
    del g3
    x3_diag = cum_x3[idx, idx]

    w_hat = cum_x1[row, jm]
    del cum_x1
    w_hat -= x3_diag[:, None]
    w_hat += x3_diag[None, :]
    w_hat -= cum_x3[col, jm]
    del cum_x3
    w_hat *= 0.25

    # single q*q integrals; cc1 integrates q(s) q(xi/2 + s), cc6 integrates
    # q(s) q(c - s) up to the diagonal (the self-convolution at full range)
    q_cum = _cumtrapz(f.qh, h / 2.0, axis=0)
    qq_fwd = _mul(f.qh, f.qh[ipm])
    qq_fwd[row + col > M] = 0.0
    cc1 = _cumtrapz(qq_fwd, h / 2.0, axis=1)
    del qq_fwd
    eighth = cc1[row, jm]
    del cc1
    eighth -= _mul(q_cum[jm], f.qh[:, None])
    qq_bwd = _mul(f.qh, f.qh[jmm])
    qq_bwd[col > row] = 0.0
    cc6 = _cumtrapz(qq_bwd, h / 2.0, axis=1)
    del qq_bwd
    cc6_diag = cc6[idx, idx]
    eighth += cc6_diag[:, None]
    eighth -= _mul(q_cum, f.qh)[:, None]
    eighth += _mul(q_cum[None, :] - q_cum[jm], f.qh[None, :])
    eighth -= cc6_diag[None, :]
    eighth += cc6[col, jm]
    del cc6
    eighth *= 0.125

    # pointwise edge terms
    qv_edge = _mul(f.qh, f.v[0])
    out = qv_edge[:, None] - qv_edge[None, :]
    out *= 0.25
    out += eighth
    del eighth
    out += w_hat
    out[row > col] = 0.0
    return out


# --- point evaluation -------------------------------------------------------

def kernel_w(f: KernelField, x, t) -> np.ndarray:
    """Kernel value w(x, t) by interpolation of the characteristic lattice."""
    _check_xt(f, x, t)
    return _interp_triangle(f.v, np.asarray(t) - x, np.asarray(t) + x, f.step, f.M)


def split_w(p: PotentialGrid, f: KernelField, x: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Split the kernel into its explicit potential integral and the smooth rest."""
    _check_xt(f, x, t)
    w0 = -0.5 * integral_Q(p, (t - x) / 2.0, (t + x) / 2.0)
    return w0, kernel_w(f, x, t) - w0


def _check_xt(f: KernelField, x, t) -> None:
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(x < -_TOL) or np.any(x > t + _TOL) or np.any(t > f.T * (1 + _TOL) + _TOL):
        raise DomainError(f"(x, t) outside the triangle 0 <= x <= t <= {f.T}")


def derivatives_v(p: PotentialGrid, f: KernelField, xi: float, eta: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """First derivatives of the field at one characteristic point.

    Evaluates the explicit formulas: a pointwise q term plus single line
    integrals of q*v along lattice-parallel segments, by trapezoid
    quadrature of the interpolated field.
    """
    if not (-_TOL <= xi <= eta + _TOL and eta <= 2 * f.T * (1 + _TOL) + _TOL):
        raise DomainError("characteristic point outside the triangle")
    h = f.step

    def _line(a: float, b: float, q_arg, v_pt):
        if b - a < 1e-14:
            return np.zeros((f.dim, f.dim), dtype=complex)
        k = max(2, int(np.ceil((b - a) / (h / 2.0))) + 1)
        s = np.linspace(a, b, k)
        qv = _mul(p.eval(q_arg(s)), _interp_triangle(f.v, *v_pt(s), h, f.M))
        return np.trapezoid(qv, x=s, axis=0)

    int1 = _line(xi, eta, lambda s: (s - xi) / 2.0, lambda s: (np.full_like(s, xi), s))
    int2 = _line(0.0, xi, lambda s: (xi - s) / 2.0, lambda s: (s, np.full_like(s, xi)))
    int3 = _line(0.0, xi, lambda s: (eta - s) / 2.0, lambda s: (s, np.full_like(s, eta)))
    v_xi = 0.25 * p.eval(xi / 2.0) - 0.25 * int1 + 0.25 * int2
    v_eta = -0.25 * p.eval(eta / 2.0) - 0.25 * int3
    return v_xi, v_eta


def wtilde_x(p: PotentialGrid, f: KernelField, x: float, t: float) -> np.ndarray:
    """Space derivative of the smooth kernel part at (x, t)."""
    _check_xt(f, x, t)
    return _interp_triangle(f.wx_lat, t - x, t + x, f.step, f.M)


def wtt_explicit(p: PotentialGrid, f: KernelField, x: float, t: float) -> np.ndarray:
    """Second time derivative of the smooth kernel part at (x, t)."""
    _check_xt(f, x, t)
    return _interp_triangle(f.wtt_lattice(), t - x, t + x, f.step, f.M)


# --- diagnostics ------------------------------------------------------------

@dataclass(frozen=True)
class KernelConstants:
    b1: float   # sup norm of the smooth part
    b2: float   # sup norm of its space derivative
    b3: float   # integrated squared L1 profile of its second space derivative
    b4: float   # sup norm of the full kernel


def kernel_constants(p: PotentialGrid, f: KernelField) -> KernelConstants:
    """Sup norms and the integrated second-derivative constant of the kernel.

    All suprema run over the physical region 0 <= x <= t <= T, i.e. lattice
    nodes with i + j <= M.
    """
    M, h = f.M, f.step
    i, j = np.triu_indices(M + 1)
    phys = i + j <= M
    i, j = i[phys], j[phys]
    b1 = float(np.max(_opnorms(f.v[i, j] - f.v0[i, j])))
    b2 = float(np.max(_opnorms(f.wx_lat[i, j])))
    b4 = float(np.max(_opnorms(f.v[i, j])))
    # w_xx on the even diagonals j - i = d, i = 0..(M - d)/2, one diagonal after another
    ds = np.arange(0, M + 1, 2)
    rows = (M - ds) // 2 + 1
    d = np.repeat(ds, rows)
    i = np.arange(d.size) - np.repeat(np.cumsum(rows) - rows, rows)
    j = i + d
    wxx_norm = _opnorms(_wxx(f.qh[d], f.v[i, j], f.wtt_lattice()[i, j]))
    inner = [float(np.trapezoid(vals, dx=h)) if vals.size > 1 else 0.0
             for vals in np.split(wxx_norm, np.cumsum(rows)[:-1])]
    b3 = float(np.trapezoid(np.asarray(inner) ** 2, x=ds * h / 2.0))
    return KernelConstants(b1=b1, b2=b2, b3=b3, b4=b4)


@dataclass(frozen=True)
class GoursatReport:
    diag_residual: float      # max violation of the zero diagonal condition
    edge_residual: float      # max violation of the explicit edge condition
    interior_residual: float  # max mixed-difference residual of the PDE
    bound_violations: int     # nodes exceeding the a priori growth bound
    bound_excess: float       # worst exceedance (0 when none)


def check_goursat(p: PotentialGrid, f: KernelField) -> GoursatReport:
    """Residuals of the two characteristic conditions and the interior equation.

    The edge condition is checked against the potential's own (finer)
    quadrature, the interior equation as a mixed second difference against
    the pointwise product q*v at the lower cell corner.
    """
    M, h = f.M, f.step
    idx, A, B = _grids(M)
    diag = float(np.max(_opnorms(f.v[idx, idx])))
    ref = np.stack([integral_Q(p, 0.0, j * h / 2.0) for j in idx])
    edge = float(np.max(_opnorms(f.v[0] + 0.5 * ref)))
    mixed = (f.v[1:, 1:] - f.v[:-1, 1:] - f.v[1:, :-1] + f.v[:-1, :-1]) / h**2
    q_cell = f.qh[np.clip(B - A, 0, M)][:-1, :-1]
    resid = mixed + 0.25 * _mul(q_cell, f.v[:-1, :-1])
    interior_mask = (A[:-1, :-1] + 1) <= B[:-1, :-1]
    interior = float(np.max(_opnorms(resid)[interior_mask])) if interior_mask.any() else 0.0
    count, excess = bound_violations(f)
    return GoursatReport(diag_residual=diag, edge_residual=edge,
                         interior_residual=interior,
                         bound_violations=count, bound_excess=excess)


def bound_violations(f: KernelField, rel_slack: float = 1e-10) -> tuple[int, float]:
    """Nodes where the field exceeds its exponential a priori bound.

    The majorant is evaluated with the same lattice quadrature the solver
    uses, so the edge-equality case is reproduced exactly.
    """
    M, h = f.M, f.step
    norms_qh = _opnorms(f.qh)
    s_lat = 0.5 * _cumtrapz(norms_qh, h / 2.0)
    xi = np.arange(M + 1) * h
    bound = s_lat[None, :] * np.exp(xi[:, None] * s_lat[None, :]) + f.tail_bound
    excess = _opnorms(f.v) - (bound + rel_slack * (1.0 + bound))
    bad = (excess > 0) & _triangle_mask(M)
    worst = float(np.max(excess[bad])) if bad.any() else 0.0
    return int(np.count_nonzero(bad)), worst


# --- persistence ------------------------------------------------------------

_DUMP_BLOCK = 4096      # rows formatted per write


def _dump_header(n: int) -> str:
    cols = ["xi", "eta"]
    for a in range(n):
        for b in range(n):
            cols += [f"v{a}{b}_re", f"v{a}{b}_im"]
    return ",".join(cols)


def dump_kernel(f: KernelField, p: PotentialGrid, csv_path, json_path) -> None:
    """Write the lattice field as CSV plus a JSON summary.

    One row per node of the upper triangle, i-major: xi, eta, then the
    real and imaginary parts of each entry of v in row-major order, each
    as %.17g so that load_kernel restores the field bit for bit.  Rows end
    in CRLF.
    """
    M, n = f.M, f.dim
    kc = kernel_constants(p, f)
    i, j = np.triu_indices(M + 1)
    vals = f.v[i, j].reshape(i.size, n * n)
    table = np.empty((i.size, 2 + 2 * n * n))
    table[:, 0] = i * f.step
    table[:, 1] = j * f.step
    table[:, 2::2] = vals.real
    table[:, 3::2] = vals.imag
    row = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    with open(csv_path, "w", newline="") as fh:
        fh.write(_dump_header(n) + "\r\n")
        for start in range(0, len(table), _DUMP_BLOCK):
            block = table[start:start + _DUMP_BLOCK]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
    summary = {
        "T": f.T, "h": f.step, "n": n,
        "iterations": f.iterations, "tail_bound": f.tail_bound,
        "b1": kc.b1, "b2": kc.b2, "b3": kc.b3, "b4": kc.b4,
    }
    Path(json_path).write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")


def load_kernel(csv_path, json_path, p: PotentialGrid) -> KernelField:
    """Reconstruct a field from a dump; derivative tables are recomputed.

    Raises DomainError when the dump is malformed: a header that does not
    match the dimension, a non-finite or unparsable value, a short row, a
    node off the lattice or below the diagonal, or a triangle whose nodes
    do not each appear exactly once.
    """
    try:
        meta = json.loads(Path(json_path).read_text())
        T, h, n = float(meta["T"]), float(meta["h"]), int(meta["n"])
        iterations, tail = int(meta["iterations"]), float(meta["tail_bound"])
    except (ValueError, KeyError, TypeError) as exc:
        raise DomainError(f"malformed kernel summary {json_path}: {exc!r}") from exc
    M, qh = _lattice_setup(p, T, h)
    with open(csv_path) as fh:
        header = fh.readline().rstrip("\n")
        if header != _dump_header(n):
            raise DomainError(f"{csv_path}: header does not match dimension {n}")
        try:
            with warnings.catch_warnings():   # an empty body fails the row count below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DomainError(f"{csv_path}: malformed kernel dump: {exc}") from exc
    rows = (M + 1) * (M + 2) // 2
    if data.shape != (rows, 2 + 2 * n * n):
        raise DomainError(f"{csv_path}: expected {rows} rows of {2 + 2 * n * n} values, "
                          f"got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise DomainError(f"{csv_path}: non-finite value in kernel dump")
    pos = data[:, :2] / h
    node = np.rint(pos)
    if np.max(np.abs(pos - node)) > 1e-6 or node.min() < 0 or node.max() > M:
        raise DomainError(f"{csv_path}: node off the lattice of step {h} and size {M}")
    i, j = node.astype(int).T
    if np.any(i > j):
        raise DomainError(f"{csv_path}: node below the diagonal xi <= eta")
    if np.unique(i * (M + 1) + j).size != rows:
        raise DomainError(f"{csv_path}: lattice nodes repeated or missing")
    v = np.zeros((M + 1, M + 1, n, n), dtype=complex)
    v.real[i, j] = data[:, 2::2].reshape(rows, n, n)
    v.imag[i, j] = data[:, 3::2].reshape(rows, n, n)
    f = KernelField(T=T, step=h, v=v, v0=_v0_lattice(qh, h),
                    iterations=iterations, tail_bound=tail, qh=qh)
    _attach_tables(f)
    return f
