"""Transmutation kernel of the half-line telegraph equation.

The kernel w(x,t) is computed in characteristic coordinates xi = t - x,
eta = t + x, where the hyperbolic problem becomes a fixed-point equation
v = v0 + V v for the field v on the triangle 0 <= xi <= eta <= 2T.  Every
integral is a composite trapezoid on a uniform characteristic lattice with
spacing h (M = 2T/h), and the discrete equation v = v0 + V_h v has two
solvers (solve_goursat's method):

- the march: V_h is lower-triangular in the lattice's partial order, so
  one pass over the anti-diagonals d = i + j = 0..M+1 solves the discrete
  equation exactly (the marching scheme for 2-D Volterra equations; H.
  Brunner, Collocation Methods for Volterra Integral and Related
  Functional Equations, CUP 2004).  It is certified by its residual, which
  the line-integral tables below give on the region; the CLI runs it;
- Picard sweeps, each O(M^2) via cumulative prefix sums, stopped by the
  sweep-to-sweep change or an analytic factorial tail: the library default
  and the reference the march is tested against.

Alongside the field itself the solver streams cumulative line integrals
of q*v along lattice rows and columns.  Those give the first derivatives
of the kernel and the explicit second time derivative of its smooth part
in closed vectorized form.

Layout: the representation formula reads the kernel only for t <= T,
that is i + j <= M, and a bilinear cell on that line reads one node beyond
it.  So v and every table derived from it (wx_lat, wtt, wxx) are stored on
the region i <= j, i + j <= M + 1 only, indexed by node (i, j), one index
pair per matrix, as a half-square (M/2+2, M+1, n, n) that is zero off the
region; its last row exists for the interpolators' i + 1 reads.  The dump
holds the same node set, so a field read back from it equals the solved
field array for array.  The march writes straight into the half-square and
keeps O(M) state besides.  The line integrals of q*v along xi and eta, and
every other cumulation behind wx and wtt, exist one block of rows at a
time: one generator (_table_rows) yields wx and wtt block by block,
carrying the last row of each cumulation along xi from block to block.  A
field holds only v until a caller asks for wx_lat or wtt_lattice(), which
keep both tables from one pass of the stream; kernel_constants reads them
that way too, so it builds and keeps them.  Within a block,
cc1 of the wtt assembly keeps rows that start on the diagonal and shifts
them to the node layout.  V_h itself is one step over a block of rows in
the same node layout (_V_rows), streamed like the tables: the march's
residual applies it to the region, and the Picard sweeps to the whole
square (M+1, M+1, n, n), which solve_goursat crops to the region after
the last sweep.  Every pass over a half-square's row blocks (the table
stream, the residual, the constants and the Goursat check) computes on a
window of columns per block, the region's columns in those rows plus one
zero column on the left (_row_windows), so the half of the half-square that
lies off the region is not computed on; a field writes the windows of its
tables into zeroed half-squares.  The streams and the half-square products
read q_{j-i} at their nodes through a strided view of qh (_toeplitz).

Arithmetic: a potential whose samples qh have no nonzero imaginary part
(every scalar potential, and real-symmetric matrices) is set up as a
float64 qh (_lattice_setup), and v and every table derived from it follow
qh's dtype; a complex Hermitian qh keeps complex128.  Elementwise
arithmetic on numbers with zero imaginary part gives the real part's bits,
and the two divisions (the 2x2 step inverse and the mixed difference of
check_goursat) multiply by a reciprocal, which is what complex division by
a number with zero imaginary part computes.  So a real field holds the bits
its complex twin would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import fileio
from .errors import (ConvergenceError, DomainError, SingularSystemError, check_array,
                     check_count, check_real)
from .potential import PotentialGrid, _cumtrapz, _lerp, _mul, _opnorms, integral_Q

_TOL = 1e-9
_BOUND_SLACK = 1e-10      # relative slack of bound_violations, for rounding


def _region(M: int) -> np.ndarray:
    """Half-square mask (M/2+2, M+1) of the nodes i <= j, i + j <= M + 1."""
    i, j = np.arange(M // 2 + 2)[:, None], np.arange(M + 1)
    return (i <= j) & (j <= M + 1 - i)


def _toeplitz(a: np.ndarray, rows: int) -> np.ndarray:
    """a[j - i] at each node (i, j) of the rows i < rows, a[0] below the diagonal.

    A read-only (rows, len(a), ...) view of a padded with rows - 1 copies of
    a[0]: _toeplitz(qh, rows) is q_{j-i} at the nodes without a gather.
    """
    pad = np.concatenate([np.broadcast_to(a[:1], (rows - 1,) + a.shape[1:]), a])
    return np.moveaxis(sliding_window_view(pad, a.shape[0], axis=0), -1, 1)[::-1]


@dataclass
class KernelField:
    """Kernel values on the characteristic triangle plus derived tables.

    v[i, j] holds the field at (xi_i, eta_j) = (i*h, j*h) on the region
    i <= j, i + j <= M + 1 (t <= T plus one halo anti-diagonal), as a
    half-square (M/2+2, M+1, n, n) that is zero off the region.  A solved
    field and a field read back from its dump hold the same arrays.  qh
    holds the potential sampled at half-step points m*h/2, the resolution
    every internal quadrature uses: float64 when the potential is real,
    complex128 otherwise.  v and the derived tables have qh's dtype (a
    field loaded from a dump with a nonzero imaginary part keeps
    complex128).

    The derived tables wx_lat and wtt_lattice() are half-squares like v and
    read only the region's nodes.  They are built from two line integrals,
    e_cum[i, j] of q(eta_j/2 - s) v(2s, eta_j) over s in [0, xi_i/2] and
    d_cum[i, j] of q(s) v(xi_i, xi_i + 2s) over s in [0, (eta_j - xi_i)/2],
    which exist only one block of rows at a time (_table_rows).  A field
    builds both tables in one pass of that stream the first time a caller
    asks for either, and keeps them; until then it holds v alone.  A copy
    made by dataclasses.replace starts without tables and builds its own
    from its own v.
    """

    T: float
    step: float
    v: np.ndarray                   # (M/2+2, M+1, n, n)
    iterations: int                 # Picard sweeps, or the march's M + 2 anti-diagonals
    tail_bound: float               # Picard's factorial tail, or the march's residual
    qh: np.ndarray = field(repr=False, default=None)       # (M+1, n, n)
    _wx_lat: np.ndarray = field(repr=False, default=None, init=False)
    _wtt_lat: np.ndarray = field(repr=False, default=None, init=False)

    @property
    def M(self) -> int:
        return self.v.shape[1] - 1

    @property
    def dim(self) -> int:
        return self.v.shape[-1]

    def q_at(self, pts) -> np.ndarray:
        """Potential at finite real points, interpolated from qh, held constant beyond [0, T]."""
        return _lerp(self.qh, check_array(pts, "points", DomainError), self.T, 0.5 * self.step)

    @property
    def wx_lat(self) -> np.ndarray:
        """d/dx of the smooth part, a half-square like v; built with wtt on first use."""
        if self._wx_lat is None:
            self._build_tables()
        return self._wx_lat

    def wtt_lattice(self) -> np.ndarray:
        """Explicit second time derivative of the smooth kernel part.

        A half-square like v, built with wx_lat on first use and kept.
        """
        if self._wtt_lat is None:
            self._build_tables()
        return self._wtt_lat

    def _build_tables(self) -> None:
        """Keep wx_lat and wtt from one pass of _table_rows.

        Both are filled in locals and kept only once complete, so a caller
        never sees a half-built table; two first calls at once only repeat
        the work.
        """
        wx, wtt = np.zeros_like(self.v), np.zeros_like(self.v)
        for b, w, wx_rows, wtt_rows in _table_rows(self):
            wx[b, w], wtt[b, w] = wx_rows, wtt_rows
        self._wx_lat, self._wtt_lat = wx, wtt

    def wxx_lattice(self) -> np.ndarray:
        """Second space derivative of the smooth part via the interior identity.

        A half-square like wtt_lattice(), zero off the region like v and wtt.
        """
        return _wxx(_toeplitz(self.qh, self.v.shape[0]), self.v, self.wtt_lattice())


def _wxx(q: np.ndarray, v: np.ndarray, wtt: np.ndarray) -> np.ndarray:
    """The interior identity w_xx = q(x) w + w_tt at nodes of q, v and wtt alike."""
    out = _mul(q, v)
    out += wtt
    return out


def _interp_triangle(arr: np.ndarray, xi, eta, h: float, M: int) -> np.ndarray:
    """Interpolate a half-square lattice field at points with t <= T.

    Off-diagonal cells use bilinear interpolation; cells touching the
    diagonal use linear interpolation on their three valid corners, which
    keeps diagonal values exact.  The points must be finite and satisfy
    0 <= xi <= eta, xi + eta <= M*h = 2T.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    top = M * h
    if not np.all((xi >= -_TOL) & (xi <= eta + _TOL) & (xi + eta <= top + _TOL * (1 + top))):
        raise DomainError("interpolation point outside 0 <= xi <= eta, xi + eta <= 2T")
    xic = np.clip(xi, 0.0, top)
    etac = np.clip(np.maximum(eta, xic), 0.0, top)
    i = np.minimum((xic / h).astype(int), arr.shape[0] - 2)
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
    T, h = check_real(T, "T", DomainError, 0.0), check_real(h, "h", DomainError, 0.0)
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
    if not np.any(qh.imag):         # a real potential runs in real arithmetic
        qh = np.ascontiguousarray(qh.real)
    return M, qh


def _v0_at(q_cum: np.ndarray, i, j) -> np.ndarray:
    """The explicit part v0 = -1/2 (Q(eta_j/2) - Q(xi_i/2)) at nodes (i, j).

    q_cum = _cumtrapz(qh, h/2) holds Q at the half-step points; i and j
    index it (integers, slices or broadcasting index arrays).
    """
    return -0.5 * (q_cum[j] - q_cum[i])


def _v0_lattice(qh: np.ndarray, h: float) -> np.ndarray:
    """The explicit part v0 as a half-square, zero off the region."""
    region = _region(qh.shape[0] - 1)
    v0 = _v0_at(_cumtrapz(qh, h / 2.0, axis=0), np.arange(region.shape[0])[:, None],
                np.arange(qh.shape[0]))
    v0[~region] = 0.0
    return v0


def initial_v0(p: PotentialGrid, T: float, h: float) -> KernelField:
    """Field holding only the explicit part: the potential integral between
    the two characteristic coordinates.  Its derived tables are built at once."""
    _, qh = _lattice_setup(p, T, h)
    f = KernelField(T=float(T), step=float(h), v=_v0_lattice(qh, h), iterations=0,
                    tail_bound=float("inf"), qh=qh)
    f._build_tables()
    return f


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


_METHODS = ("picard", "march")
_MAX_SWEEPS = 100     # Picard's sweep cap; the march solves what needs more


def solve_goursat(p: PotentialGrid, T: float, h: float, tol: float,
                  method: str = "picard") -> KernelField:
    """Solve the kernel fixed-point equation v = v0 + V v on the lattice.

    method="picard", the default and the reference, runs sweeps on the
    whole triangle (_picard).  They stop when the largest change of a node
    over the triangle falls below tol, or when the analytic factorial tail
    of the remainder does; ConvergenceError after _MAX_SWEEPS (100) sweeps.
    The field records the sweeps as iterations and the tail as tail_bound.

    method="march" solves the same discrete equation exactly, one
    anti-diagonal at a time (_march), with no sweeps to bound.  Its
    certificate is the residual max |v - v0 - V v| over the region, streamed
    by blocks of rows (_residual): ConvergenceError when it exceeds tol,
    SingularSystemError when a step matrix I + h^2/16 q_k is singular.  The
    field records the M + 2 anti-diagonals as iterations and the residual
    as tail_bound.

    Diagonal nodes are zero, and the field keeps the region i + j <= M + 1.
    Either way the field holds v alone; its derived tables are built on
    first use.
    """
    check_real(tol, "tol", DomainError, 0.0)
    if method not in _METHODS:
        raise DomainError(f"method must be one of {_METHODS}, got {method!r}")
    M, qh = _lattice_setup(p, T, h)
    if method == "picard":
        v, iterations, tail = _picard(qh, T, h, tol)
        return KernelField(T=float(T), step=float(h), v=v, iterations=iterations,
                           tail_bound=tail, qh=qh)
    f = KernelField(T=float(T), step=float(h), v=_march(qh, h), iterations=M + 2,
                    tail_bound=math.nan, qh=qh)
    f.tail_bound = residual = _residual(f)
    if not residual <= tol:
        raise ConvergenceError(
            f"march residual {residual:.3e} exceeds tol {tol:.3e}; "
            "tol may be below the rounding floor of this lattice"
        )
    return f


def _picard(qh: np.ndarray, T: float, h: float, tol: float):
    """Picard sweeps on the whole triangle: (v on the region, sweeps, tail bound).

    v0 and v are full squares (M+1, M+1, n, n), zero below the diagonal,
    and each sweep replaces v by v0 + V_h v one block of _ROWS rows at a
    time, in place: a block's rows of V_h v read only its own old rows and
    the cumulation carried over from the old rows above.  The sweep's
    change is the largest Frobenius norm of new - old over the nodes.  The
    last v is cropped to the region.
    """
    M = qh.shape[0] - 1
    S_full = float(0.5 * np.trapezoid(_opnorms(qh), dx=h / 2.0))
    i, j = np.arange(M + 1)[:, None], np.arange(M + 1)
    v0 = _v0_at(_cumtrapz(qh, h / 2.0, axis=0), i, j)
    v0[i > j] = 0.0
    v = v0.copy()
    iterations = 0
    delta = math.inf
    tail = _tail_bound(S_full, 2.0 * T, 0)
    while not (tail < tol or delta < tol):
        if iterations >= _MAX_SWEEPS:
            raise ConvergenceError(
                f"no convergence after {_MAX_SWEEPS} sweeps "
                f"(last change {delta:.3e}, tol {tol:.3e}); "
                "tol may be below the quadrature floor for this h"
            )
        delta, carry = 0.0, []
        for b in _blocks(M + 1, _ROWS):
            new = _V_rows(_square_d_cum(qh, v[b], b.start, h), h, b.start, carry)
            new += v0[b]
            delta = max(delta, _max_node_change(new, v[b]))
            v[b] = new
        iterations += 1
        tail = _tail_bound(S_full, 2.0 * T, iterations)
    del v0
    region = _region(M)
    v = v[:region.shape[0]].copy()
    v[~region] = 0.0
    return v, max(iterations, 1), tail


def _max_node_change(new: np.ndarray, old: np.ndarray) -> float:
    """Largest Frobenius norm of new - old over the nodes of two node-major arrays."""
    diff = (new - old).reshape(*new.shape[:-2], -1)
    sq = np.zeros(diff.shape[:-1])
    for k in range(diff.shape[-1]):
        sq += np.abs(diff[..., k]) ** 2
    return float(np.max(np.sqrt(sq)))


def _march(qh: np.ndarray, h: float) -> np.ndarray:
    """The solution of v = v0 + V v on the region, one anti-diagonal at a time.

    Node (i, j) of V v reads only nodes (a, b) with a <= i and b <= j, so
    the nodes of one anti-diagonal d = i + j depend only on earlier ones.
    With g = q_{j-i} v, inner[i, j] its cumulative trapezoid along eta,
    C[i, j] that of inner along xi, V v[i, j] = -1/4 (C[i, j] - C[i, i]) and
    ip = inner[i, j-1] + h/2 g[i, j-1], each node 1 <= i < j solves

        (I + h^2/16 q_{j-i}) v[i, j]
            = v0[i, j] - 1/4 (C[i-1, j] + h/2 inner[i-1, j] + h/2 ip - C[i, i]),

    then inner[i, j] = ip + h/2 g[i, j] and
    C[i, j] = C[i-1, j] + h/2 (inner[i-1, j] + inner[i, j]).  Row 0 is v0
    with C = 0, and its inner is one cumulation before the anti-diagonals;
    a diagonal node has v = inner = 0 and
    C[i, i] = C[i-1, i] + h/2 inner[i-1, i], which only the vector of
    diagonal values keeps.  So the march keeps inner, C and g of the
    previous anti-diagonal, indexed by i, and C[i, i], and writes v straight
    into the half-square (M/2+2, M+1, n, n), zero off the region.
    SingularSystemError when some I + h^2/16 q_k is numerically singular
    (_step_inverses).
    """
    M, n = qh.shape[0] - 1, qh.shape[-1]
    step_inv = _step_inverses(qh, h)
    q_cum = _cumtrapz(qh, h / 2.0, axis=0)
    half = 0.5 * h
    v = np.zeros((M // 2 + 2, M + 1, n, n), dtype=qh.dtype)
    nodes = v.reshape(-1, n, n)             # node (i, d - i) sits at d + i M
    # row 0 at once: v = v0 off node (0, 0), C = 0, and inner the cumulation of
    # g = q_j v[0, j] from g[0, 0] = +0.0, so that no step of it is -0.0
    v[0, 1:] = _v0_at(q_cum, 0, slice(1, M + 1))
    inner_0 = np.zeros((M + 1, n, n), dtype=qh.dtype)
    _mul(qh[1:], v[0, 1:], out=inner_0[1:])
    _cumtrapz(inner_0, h, axis=0, out=inner_0)
    inner, C, g, inner_new, C_new, g_new, c_diag = np.zeros((7, M // 2 + 2, n, n),
                                                            dtype=qh.dtype)
    for d in range(1, M + 2):
        if d <= M:
            inner_new[0] = inner_0[d]
        a, b = max(d - M, 1), (d - 1) // 2  # rows 1 <= i < j off the diagonal
        if a <= b:
            rows, prev = slice(a, b + 1), slice(a - 1, b)
            offsets = slice(d - 2 * a, d - 2 * b - 1, -2)
            ip = half * g[rows]
            ip += inner[rows]
            base = half * inner[prev]
            base += C[prev]
            rhs = half * ip
            rhs += base
            rhs -= c_diag[rows]
            rhs *= -0.25
            rhs += _v0_at(q_cum, rows, slice(d - a, d - b - 1, -1))
            vd = nodes[d + a * M:d + b * M + 1:M]
            _mul(step_inv[offsets], rhs, out=vd)
            _mul(qh[offsets], vd, out=g_new[rows])
            np.multiply(g_new[rows], half, out=inner_new[rows])
            inner_new[rows] += ip
            np.multiply(inner_new[rows], half, out=C_new[rows])
            C_new[rows] += base
        if d % 2 == 0:                      # diagonal node (d/2, d/2)
            i = d // 2
            g_new[i] = inner_new[i] = 0.0
            np.multiply(inner[i - 1], half, out=c_diag[i])
            c_diag[i] += C[i - 1]
        inner, inner_new, C, C_new, g, g_new = inner_new, inner, C_new, C, g_new, g
    return v


def _step_inverses(qh: np.ndarray, h: float) -> np.ndarray:
    """(I + h^2/16 q_k)^-1 for every offset k, (M+1, n, n).

    SingularSystemError names the first k whose smallest singular value is
    at most n eps times its largest.  For n <= 2 the singular values and the
    inverse have closed forms (|det| is the product of the singular
    values), so the kernel path needs no LAPACK, whose first call maps
    work buffers that show in the peak memory of a command that never
    needs them otherwise.  The 2x2 inverse multiplies by 1/det, which keeps
    a real qh's bits equal to its complex twin's (the module docstring).
    """
    n = qh.shape[-1]
    step = np.eye(n) + (h * h / 16.0) * qh
    if n <= 2:
        a, d = step[:, 0, 0], step[:, -1, -1]
        det = a if n == 1 else a * d - step[:, 0, 1] * step[:, 1, 0]
        s_max = _opnorms(step)
        s_min = np.abs(det) / s_max ** (n - 1)
    else:
        sv = np.linalg.svd(step, compute_uv=False)
        s_min, s_max = sv[:, -1], sv[:, 0]
    singular = ~(s_min > n * np.finfo(float).eps * s_max)
    if singular.any():
        k = int(np.argmax(singular))
        raise SingularSystemError(
            f"march step matrix I + h^2/16 q_k is singular at offset k = j - i = {k} "
            f"(q at x = {k * h / 2}) for h = {h}")
    if n > 2:
        return np.linalg.inv(step)
    if n == 1:
        return 1.0 / step
    adj = np.stack([d, -step[:, 0, 1], -step[:, 1, 0], a], axis=-1).reshape(-1, 2, 2)
    return adj * (1.0 / det)[:, None, None]


_ROWS = 8      # rows per block of the derived-table stream and of the kernel constants


def _blocks(rows: int, size: int):
    """Slices of at most size consecutive rows covering range(rows)."""
    return (slice(a, min(a + size, rows)) for a in range(0, rows, size))


def _row_windows(M: int, rows: int, *carries: list):
    """Blocks b of _ROWS rows among the first rows of a half-square of size M,
    each with its column window w, as (b, w).

    Rows b hold region nodes in columns b.start .. M + 1 - b.start, and the
    window is those columns plus one on the left, clipped to the lattice.
    That column lies below the diagonal of every row of b, so it holds
    exact zeros, and a cumulation along eta from it starts from the +0.0 it
    reaches over the whole row.  The window also reaches the diagonal node
    of each row of b, which every pass reads: a last block that holds only
    the halo row M/2 + 1, which has no region nodes, gets columns M/2 and
    M/2 + 1.  Every row-block pass computes on the window alone.  Windows
    nest, so a cumulation along xi streams on: between two blocks each
    carry list (_cumtrapz's carry) is cut from the columns of one window to
    the next one's.
    """
    prev = 0
    for b in _blocks(rows, _ROWS):
        w = slice(max(b.start - 1, 0), min(M + 1, max(M + 2 - b.start, b.stop)))
        for carry in carries:
            carry[:] = [c[w.start - prev:w.stop - prev] for c in carry]
        yield b, w
        prev = w.start


def _diag(a: np.ndarray, start: int = 0) -> np.ndarray:
    """a[k, start + k] for each row k: the diagonal of a half-square table, or
    of a block of its rows whose first diagonal node is in column start."""
    k = np.arange(a.shape[0])
    return a[k, k + start]


def _V_rows(d_cum: np.ndarray, h: float, start: int, carry: list) -> np.ndarray:
    """V_h v on one block of rows, the step that every application of V_h streams.

    d_cum holds a block of rows of g = q_{j-i} v, zero off the nodes that
    enter (the region for the march's residual, the triangle i <= j for
    Picard's full square), cumulated by the trapezoid at step h/2 along eta;
    the block's first diagonal node is in its column start (whole rows, or
    a window of _row_windows).  The step cumulates it along xi at step 2h,
    in place, from the rows that carry (a list, empty for the first block)
    brings over from the block above, and returns V_h v = -1/4 (C - C[i, i])
    in d_cum's buffer, zero on and below the diagonal.  Node (i, j) reads
    only rows a <= i, so leading rows come out exact.  The two steps'
    factors 1/2 and 2 are powers of two, so away from subnormal values the
    bits are those of step h along both axes.
    """
    C = _cumtrapz(d_cum, 2.0 * h, axis=0, out=d_cum, carry=carry)
    C -= _diag(C, start)[:, None]
    C *= -0.25
    for k, row in enumerate(C):
        row[:start + k + 1] = 0.0
    return C


def _square_d_cum(qh: np.ndarray, v: np.ndarray, start: int, h: float) -> np.ndarray:
    """_V_rows's input for a block of rows v of a half-square or a full
    square, whose first diagonal node is in v's column start (whole rows, or
    a window): g = q_{j-i} v, zero below the diagonal whatever v holds
    there, cumulated along eta at step h/2."""
    g = _mul(_toeplitz(qh, start + len(v))[start:, :v.shape[1]], v)
    for k, row in enumerate(g):
        row[:start + k] = 0.0
    return _cumtrapz(g, h / 2.0, axis=1, out=g)


def _residual(f: KernelField) -> float:
    """The march's certificate: the largest operator norm of v - v0 - V_h v
    over the region, one block of _ROWS rows at a time, on its window
    (_row_windows).

    Each block forms g = q_{j-i} v and its cumulation d_cum along eta
    (_square_d_cum; v is zero off the region, so g is too), and the step
    _V_rows cumulates it along xi from the rows carried over from the block
    above.
    """
    M, h = f.M, f.step
    region = _region(M)
    q_cum = _cumtrapz(f.qh, h / 2.0, axis=0)
    worst, carry = np.zeros(()), []
    for b, w in _row_windows(M, region.shape[0], carry):
        start = b.start - w.start
        r = _V_rows(_square_d_cum(f.qh, f.v[b, w], start, h), h, start, carry)
        np.subtract(f.v[b, w], r, out=r)
        r -= _v0_at(q_cum, np.arange(b.start, b.stop)[:, None], np.arange(w.start, w.stop))
        worst = np.maximum(worst, np.max(_opnorms(r), where=region[b, w], initial=0.0))
    return float(worst)


def _table_rows(f: KernelField):
    """wx and wtt, yielded as (rows, columns, wx, wtt) per block of _ROWS rows.

    Each block computes on its window of columns (_row_windows): the
    yielded wx and wtt are fresh (rows, window) arrays, zero at the
    window's nodes off the region; every node outside the windows is off
    the region.  One integrand g[i, j] = q_{j-i} v[i, j], zero off the region, is cumulated
    (step h/2) along eta from the window's first column, where the whole
    row's cumulation is still +0.0, into d_cum, and along xi from 0 into
    e_cum.  A block forms g for its rows, d_cum within them, and e_cum from
    the input and output rows carried over from the block above
    (_cumtrapz's carry, cut to the block's window), so neither table exists
    beyond one block.  From them the block takes

    - wx = 1/2 (d_cum - e_cum - e_cum[i, i]), d/dx of the smooth part;
    - outer = d_cum - e_cum[i, i] + e_cum, the outer integrand of wtt
      without its q factor, which the same block's wtt reads at once.

    Before the diagonal d_cum adds exact zeros, and v vanishes on it, so
    d_cum integrates from the diagonal; a field with v[i, i] != 0 breaks
    that Goursat condition, and row i of d_cum moves by (h/4) q_0 v[i, i].

    wtt is assembled from the differentiated fixed-point equation:
    pointwise products of q with edge kernel values, six single q*q
    integrals, and the double-integral terms: the outer integrand
    q_{j-i} outer[i, j], cumulated along each lattice direction.
    Cumulations along eta stay within a block's rows, those along xi (of
    the outer integrand and cc6) continue from the rows carried over from
    the block above.  cc1, whose integrand q_0 q_i does not vanish on the
    diagonal, has rows that start there: cc1[i, m] belongs to node
    (i, i+m), and a shift within each row of the window moves it to the
    node's column, the layout of every other table.  Every node gets the
    same operations in the same order as when each term had a half-square
    of its own, so the bits depend neither on the blocks nor on the windows.
    """
    M, h = f.M, f.step
    dx, qh = h / 2.0, f.qh
    region = _region(M)
    q = _toeplitz(qh, region.shape[0])
    q_cum = _cumtrapz(qh, dx, axis=0)
    q_cum_jm = _toeplitz(q_cum, region.shape[0])
    qv_edge = _mul(qh, f.v[0])
    # qh padded with copies of qh[M], as _toeplitz pads with a[0]: entry i + m
    # of qh_end is qh[min(i + m, M)]
    qh_end = np.concatenate([qh, np.broadcast_to(qh[-1:], (region.shape[0],) + qh.shape[1:])])
    e_carry, xi_carry, cc6_carry = [], [], []
    for b, w in _row_windows(M, region.shape[0], e_carry, xi_carry, cc6_carry):
        off, i = ~region[b, w], np.arange(b.start, b.stop)[:, None]
        start, m = b.start - w.start, np.arange(w.stop - w.start)

        # the line integrals: wx and the outer integrand
        g = _mul(q[b, w], f.v[b, w])
        g[off] = 0.0
        outer = _cumtrapz(g, dx, axis=1)
        e_cum = _cumtrapz(g, dx, axis=0, out=g, carry=e_carry)
        e_diag = _diag(e_cum, start)[:, None]
        wx = outer - e_cum
        wx -= e_diag
        wx *= 0.5
        outer -= e_diag
        outer += e_cum
        wx[off] = outer[off] = 0.0
        del g, e_cum, e_diag

        # double integrals: the outer integrand q_{j-i} outer, zero off the
        # region, integrated along eta_j from the diagonal and along xi_i from 0
        g = _mul(q[b, w], outer)
        g[off] = 0.0
        w_hat = _cumtrapz(g, dx, axis=1)
        cum_xi = _cumtrapz(g, dx, axis=0, out=g, carry=xi_carry)
        w_hat -= _diag(cum_xi, start)[:, None]
        w_hat += cum_xi
        w_hat *= 0.25
        del g, cum_xi

        # single q*q integrals; cc1[i, m] integrates q(s) q(xi_i/2 + s) from
        # the diagonal, cc6[i, j] integrates q_{j-b} q_b over b = 0..i
        fwd = _mul(qh[:m.size], np.moveaxis(sliding_window_view(qh_end, m.size, axis=0)[b], -1, 1))
        fwd[2 * i + m > M + 1] = 0.0              # node (i, i+m) off the region
        eighth = _cumtrapz(fwd, dx, axis=1, out=fwd)
        for k, row in enumerate(eighth):         # eighth[i, j] = cc1[i, max(j - i, 0)]
            r = start + k                         # the window's column of node (i, i)
            row[r:] = row[:m.size - r]
            row[:r] = row[r]
        eighth -= _mul(q_cum_jm[b, w], qh[b, None])
        cc6 = _mul(q[b, w], qh[b, None])
        cc6[off] = 0.0
        _cumtrapz(cc6, dx, axis=0, out=cc6, carry=cc6_carry)
        eighth += _diag(cc6, start)[:, None]
        eighth -= _mul(q_cum[b], qh[b])[:, None]
        eighth += _mul(q_cum[None, w] - q_cum_jm[b, w], qh[None, w])
        eighth -= cc6
        eighth *= 0.125
        del cc6

        # pointwise edge terms, then the sum into outer's buffer
        wtt = outer
        np.subtract(qv_edge[b, None], qv_edge[None, w], out=wtt)
        wtt *= 0.25
        wtt += eighth
        wtt += w_hat
        wtt[off] = 0.0
        yield b, w, wx, wtt


# --- point evaluation -------------------------------------------------------

def kernel_w(f: KernelField, x, t) -> np.ndarray:
    """Kernel value w(x, t) by interpolation of the characteristic lattice."""
    x, t = _check_xt(f, x, t)
    return _interp_triangle(f.v, t - x, t + x, f.step, f.M)


def split_w(p: PotentialGrid, f: KernelField, x: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Split the kernel into its explicit potential integral and the smooth rest."""
    _check_dim(p, f)
    x, t = _check_xt(f, x, t)
    w0 = -0.5 * integral_Q(p, (t - x) / 2.0, (t + x) / 2.0)
    return w0, kernel_w(f, x, t) - w0


def _check_dim(p: PotentialGrid, f: KernelField) -> None:
    if p.dim != f.dim:
        raise DomainError(f"potential dimension {p.dim} != kernel dimension {f.dim}")


def _check_xt(f: KernelField, x, t) -> tuple[np.ndarray, np.ndarray]:
    x, t = check_array(x, "x", DomainError), check_array(t, "t", DomainError)
    if not np.all((x >= -_TOL) & (x <= t + _TOL) & (t <= f.T * (1 + _TOL) + _TOL)):
        raise DomainError(f"(x, t) outside the triangle 0 <= x <= t <= {f.T}")
    return x, t


def derivatives_v(p: PotentialGrid, f: KernelField, xi: float, eta: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """First derivatives of the field at one characteristic point.

    Evaluates the explicit formulas: a pointwise q term plus single line
    integrals of q*v along lattice-parallel segments, by trapezoid
    quadrature of the interpolated field.  The point must satisfy
    xi + eta <= 2T (t <= T), where v is stored, with xi and eta real numbers (DomainError).
    """
    _check_dim(p, f)
    xi, eta = check_real(xi, "xi", DomainError), check_real(eta, "eta", DomainError)
    if not (-_TOL <= xi <= eta + _TOL and xi + eta <= 2 * f.T * (1 + _TOL) + _TOL):
        raise DomainError("characteristic point outside 0 <= xi <= eta, xi + eta <= 2T")
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


def wtilde_x(f: KernelField, x: float, t: float) -> np.ndarray:
    """Space derivative of the smooth kernel part at (x, t)."""
    x, t = _check_xt(f, x, t)
    return _interp_triangle(f.wx_lat, t - x, t + x, f.step, f.M)


def wtt_explicit(f: KernelField, x: float, t: float) -> np.ndarray:
    """Second time derivative of the smooth kernel part at (x, t)."""
    x, t = _check_xt(f, x, t)
    return _interp_triangle(f.wtt_lattice(), t - x, t + x, f.step, f.M)


# --- diagnostics ------------------------------------------------------------

@dataclass(frozen=True)
class KernelConstants:
    b1: float   # sup norm of the smooth part
    b2: float   # sup norm of its space derivative
    b3: float   # integrated squared L1 profile of its second space derivative
    b4: float   # sup norm of the full kernel


def kernel_constants(f: KernelField) -> KernelConstants:
    """Sup norms and the integrated second-derivative constant of the kernel.

    All suprema run over the physical region 0 <= x <= t <= T, i.e. lattice
    nodes with i + j <= M.  They are taken one block of _ROWS rows at a
    time, on the block's window (_row_windows), with the block's windows of
    the field's wx_lat and wtt_lattice(), which the field builds on first
    use and keeps.  Each block takes its maxima over the window's physical
    nodes, and the w_xx norms on the even diagonals j - i go into one real
    array, diagonal after diagonal, from which each diagonal is integrated
    whole.
    """
    M, h = f.M, f.step
    wx_lat, wtt_lat = f.wx_lat, f.wtt_lattice()
    # w_xx norms on the even diagonals j - i = d, i = 0..(M - d)/2, one diagonal
    # after another: node (i, i + d) at first[d/2] + i
    ds = np.arange(0, M + 1, 2)
    ends = np.cumsum((M - ds) // 2 + 1)
    first = np.concatenate([[0], ends[:-1]])
    q, q_cum = _toeplitz(f.qh, f.v.shape[0]), _cumtrapz(f.qh, h / 2.0, axis=0)
    sups, wxx_norm = np.zeros(3), np.zeros(ends[-1])
    for b, w in _row_windows(M, f.v.shape[0]):
        i, j = np.arange(b.start, b.stop)[:, None], np.arange(w.start, w.stop)
        d = j - i
        phys = (d >= 0) & (j <= M - i)                      # the block's physical nodes
        v = f.v[b, w]
        sups = np.maximum(sups, [np.max(_opnorms(a), where=phys, initial=0.0)
                                 for a in (v - _v0_at(q_cum, i, j), wx_lat[b, w], v)])
        even = phys & (d % 2 == 0)
        wxx = _opnorms(_wxx(q[b, w], v, wtt_lat[b, w]))
        wxx_norm[(first[np.maximum(d, 0) // 2] + i)[even]] = wxx[even]
    b1, b2, b4 = map(float, sups)
    inner = [float(np.trapezoid(vals, dx=h)) if vals.size > 1 else 0.0
             for vals in np.split(wxx_norm, ends[:-1])]
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
    the pointwise product q*v at the lower cell corner, on the cells whose
    corners lie in the region i + j <= M + 1 that a field stores.  The
    cells are taken one block of _ROWS rows of lower corners at a time, on
    the block's window (_row_windows).
    """
    _check_dim(p, f)
    M, h, v = f.M, f.step, f.v
    idx = np.arange(M + 1)
    diag = float(np.max(_opnorms(_diag(v))))
    edge = float(np.max(_opnorms(v[0] + 0.5 * integral_Q(p, 0.0, idx * h / 2.0))))
    cells = v.shape[0] - 1                                  # rows of lower cell corners
    q, interior = _toeplitz(f.qh, cells), np.zeros(())
    for r, w in _row_windows(M, cells):
        lo, hi = v[r, w], v[r.start + 1:r.stop + 1, w]
        resid = (hi[:, 1:] - lo[:, 1:] - hi[:, :-1] + lo[:, :-1]) * (1.0 / h**2)
        corner = slice(w.start, w.stop - 1)                  # lower corner columns of the cells
        resid += 0.25 * _mul(q[r, corner], lo[:, :-1])
        a, b = np.arange(r.start, r.stop)[:, None], idx[corner]
        inside = (a + 1 <= b) & (a + b <= M - 1)
        interior = np.maximum(interior, np.max(_opnorms(resid), where=inside, initial=0.0))
    count, excess = bound_violations(f)
    return GoursatReport(diag_residual=diag, edge_residual=edge,
                         interior_residual=float(interior),
                         bound_violations=count, bound_excess=excess)


def bound_violations(f: KernelField) -> tuple[int, float]:
    """Nodes where the field exceeds its exponential a priori bound.

    The majorant is evaluated with the same lattice quadrature the solver
    uses, so the edge-equality case is reproduced exactly; a node counts only
    when it exceeds the bound by more than _BOUND_SLACK * (1 + bound).  Only
    the nodes of the region i + j <= M + 1, which a field stores, are checked,
    one block of _ROWS rows at a time, on the block's window (_row_windows).
    """
    M, h = f.M, f.step
    region = _region(M)
    norms_qh = _opnorms(f.qh)
    s_lat = 0.5 * _cumtrapz(norms_qh, h / 2.0)
    xi = np.arange(region.shape[0]) * h
    count, worst = 0, np.zeros(())
    for b, w in _row_windows(M, region.shape[0]):
        bound = s_lat[None, w] * np.exp(xi[b, None] * s_lat[None, w]) + f.tail_bound
        excess = _opnorms(f.v[b, w]) - (bound + _BOUND_SLACK * (1.0 + bound))
        bad = (excess > 0) & region[b, w]
        count += int(np.count_nonzero(bad))
        worst = np.maximum(worst, np.max(excess[bad], initial=0.0))
    return count, float(worst)


# --- persistence ------------------------------------------------------------

def _dump_names(n: int) -> list[str]:
    return [f"v{a}{b}" for a in range(n) for b in range(n)]


def dump_kernel(f: KernelField, csv_path, json_path) -> None:
    """Write the lattice field as numeric CSV, and T, h, n, iterations and
    tail_bound, what load_kernel reads, as a JSON summary.

    One row per node of the region i <= j, i + j <= M + 1 (t <= T plus one
    halo anti-diagonal), i-major: xi, eta, then each entry of v in
    row-major order as a re/im pair, in the format of fileio.write_table:
    each value the shortest string that reads back to its bits, so that
    load_kernel restores those nodes bit for bit.  Dumps that earlier
    versions wrote as %.17g load the same.  A non-finite value raises
    DomainError before the CSV is opened.  The rows are gathered one
    block at a time as they are written.
    """
    M, n = f.M, f.dim
    fileio.check_finite(csv_path, f.v)      # zero off the region, which the dump leaves out
    i, j = np.nonzero(_region(M))
    fileio.write_blocks(csv_path, ("xi", "eta"), _dump_names(n), (
        (np.stack([i[s] * f.step, j[s] * f.step], axis=1), f.v[i[s], j[s]].reshape(-1, n * n))
        for s in fileio.spans(i.size)))
    fileio.write_json(json_path, {"T": f.T, "h": f.step, "n": n, "iterations": f.iterations,
                                  "tail_bound": f.tail_bound})


def load_kernel(csv_path, json_path, p: PotentialGrid) -> KernelField:
    """Reconstruct a field from a dump; derivative tables are built on first use.

    The dump's rows are the nodes dump_kernel writes, in its order: the
    region i <= j, i + j <= M + 1 that a field stores, i-major.  So the
    loaded field equals the solved field it was dumped from, array for
    array.  The CSV header may be left out.  Raises DomainError when a
    file cannot be read; when the summary's T or h is not a number > 0
    (check_real), its iterations is not an integer >= 0, or its dimension
    n is not an integer >= 1 or not the potential's; and when the dump is
    malformed: a header that does not match the dimension, a non-finite or
    unparsable value, a short row, another number of rows, or a row whose
    (xi, eta) is not its node's (a dump of the whole triangle, as older
    versions wrote, is one).  No other key of the summary is read, so the
    b1-b4 that older versions wrote there are ignored.
    """
    meta = fileio.read_json(json_path, "kernel summary", DomainError)
    try:
        T, h, tail = meta["T"], meta["h"], float(meta["tail_bound"])
        n, iterations = meta["n"], meta["iterations"]
    except (ValueError, KeyError, TypeError) as exc:
        raise DomainError(f"malformed kernel summary {json_path}: {exc!r}") from exc
    check_count(n, f"{json_path}: kernel dimension n", 1, DomainError)
    check_count(iterations, f"{json_path}: iterations", 0, DomainError)
    if n != p.dim:
        raise DomainError(f"{json_path}: kernel dimension {n} != potential dimension {p.dim}")
    M, qh = _lattice_setup(p, T, h)
    head, xy, vals = fileio.read_table(csv_path, "kernel dump", DomainError, 2)
    if head is not None and head != fileio.header(("xi", "eta"), _dump_names(n)):
        raise DomainError(f"{csv_path}: header does not match dimension {n}")
    node = np.argwhere(_region(M))          # (i, j) of the rows dump_kernel writes, in order
    regenerate = "regenerate it with `wavekernel kernel`"
    if vals.shape != (len(node), n * n):
        raise DomainError(f"{csv_path}: expected {len(node)} rows of {2 + 2 * n * n} values, one "
                          f"per node i <= j, i + j <= {M + 1}, got {len(vals)} rows of "
                          f"{2 + 2 * vals.shape[1]}; {regenerate}")
    bad = np.flatnonzero(np.max(np.abs(xy / h - node), axis=1) > 1e-6)
    if bad.size:
        r = bad[0]
        raise DomainError(f"{csv_path}: row {r + 1} at (xi, eta) = ({xy[r, 0]}, {xy[r, 1]}) is "
                          f"not node (i, j) = ({node[r, 0]}, {node[r, 1]}) of step {h}, which the "
                          f"dump's i-major order puts there; {regenerate}")
    if not (np.iscomplexobj(qh) or np.any(vals.imag)):
        vals = vals.real                # a real potential's kernel is real
    v = np.zeros((M // 2 + 2, M + 1, n, n), dtype=vals.dtype)
    v[tuple(node.T)] = vals.reshape(-1, n, n)
    return KernelField(T=float(T), step=float(h), v=v, iterations=iterations,
                       tail_bound=tail, qh=qh)
