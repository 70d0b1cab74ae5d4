"""Boundary controls and the representation formula for the driven wave.

A control is a smooth C^n-valued boundary input on [0, T] that vanishes
(with two derivatives) near t = 0 and is extended by zero to negative
arguments.  The wave generated by a control is evaluated through the
kernel representation: the reflected control plus a causal integral of
the kernel against the control history.  Second space derivatives come
from the interior equation rather than from differentiating the kernel
twice, which is the only route the kernel's regularity supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import make_interp_spline

from .errors import ControlError, DomainError
from .goursat import KernelField, _interp_triangle

_SUPPORT_TOL = 1e-12


def _bump_profile(t: np.ndarray, start: float, stop: float):
    """Compactly supported C-infinity profile on (start, stop), peak 1.

    Returns the profile and its first two derivatives; all three vanish
    identically outside the open support interval.
    """
    t = np.asarray(t, dtype=float)
    f = np.zeros_like(t)
    f1 = np.zeros_like(t)
    f2 = np.zeros_like(t)
    pad = 1e-9 * (stop - start)
    inside = (t > start + pad) & (t < stop - pad)
    if not inside.any():
        return f, f1, f2
    ti = t[inside]
    d1 = ti - start
    d2 = stop - ti
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        g = -1.0 / d1 - 1.0 / d2 + 4.0 / (stop - start)
        phi = np.exp(g)
        g1 = 1.0 / d1**2 - 1.0 / d2**2
        g2 = -2.0 / d1**3 - 2.0 / d2**3
        f[inside] = phi
        f1[inside] = np.where(phi == 0.0, 0.0, phi * g1)
        f2[inside] = np.where(phi == 0.0, 0.0, phi * (g1**2 + g2))
    return f, f1, f2


def _ramp_profile(t: np.ndarray, start: float, stop: float):
    """C-infinity ramp: 0 before start, 1 after stop."""
    t = np.asarray(t, dtype=float)
    width = stop - start
    s = (t - start) / width
    f = np.zeros_like(s)
    f1 = np.zeros_like(s)
    f2 = np.zeros_like(s)
    f[s >= 1.0] = 1.0
    mid = (s > 1e-9) & (s < 1.0 - 1e-9)
    if not mid.any():
        return f, f1, f2
    si = s[mid]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        bs = np.exp(-1.0 / si)
        cs = np.exp(-1.0 / (1.0 - si))
        b1 = bs / si**2
        c1 = -cs / (1.0 - si) ** 2
        b2 = bs * (1.0 / si**4 - 2.0 / si**3)
        c2 = cs * (1.0 / (1.0 - si) ** 4 - 2.0 / (1.0 - si) ** 3)
        den = bs + cs
        num = b1 * cs - bs * c1
        f[mid] = bs / den
        f1[mid] = num / den**2 / width
        num_p = b2 * cs - bs * c2
        den_p = b1 + c1
        f2[mid] = (num_p / den**2 - 2.0 * num * den_p / den**3) / width**2
    return f, f1, f2


@dataclass
class Control:
    """Smooth boundary control with two derivatives, vanishing near t = 0."""

    T: float
    dim: int
    support_start: float
    _eval: callable    # t array -> (f, f', f'') stacked as (3, ..., dim)
    label: str = "control"

    def sample(self, t):
        """Values and first two derivatives at t; zero for negative arguments."""
        t = np.asarray(t, dtype=float)
        out = self._eval(t)
        neg = (t < 0.0)[..., None]
        return tuple(np.where(neg, 0.0, out[k]) for k in range(3))

    def __add__(self, other: "Control") -> "Control":
        if abs(other.T - self.T) > 1e-12 or other.dim != self.dim:
            raise ControlError("can only add controls with equal horizon and dimension")
        f, g = self._eval, other._eval

        def ev(t):
            a = f(t)
            b = g(t)
            return tuple(a[k] + b[k] for k in range(3))

        return Control(self.T, self.dim, min(self.support_start, other.support_start),
                       ev, label=f"{self.label}+{other.label}")

    def scaled(self, alpha: complex) -> "Control":
        f = self._eval

        def ev(t):
            a = f(t)
            return tuple(alpha * a[k] for k in range(3))

        return Control(self.T, self.dim, self.support_start, ev,
                       label=f"{alpha}*{self.label}")

    def delayed(self, tau: float) -> "Control":
        """The same control started tau later (zero-padded at the front)."""
        f = self._eval

        def ev(t):
            ts = np.asarray(t, dtype=float) - tau
            a = f(ts)
            neg = (ts < 0.0)[..., None]
            return tuple(np.where(neg, 0.0, a[k]) for k in range(3))

        return Control(self.T, self.dim, self.support_start + tau, ev,
                       label=f"{self.label}@+{tau}")

    def reflected(self, support_start: float) -> "Control":
        """Time reversal about the horizon; caller asserts the new support."""
        f = self._eval
        T = self.T

        def ev(t):
            a = f(T - np.asarray(t, dtype=float))
            return a[0], -a[1], a[2]

        return _checked(Control(self.T, self.dim, support_start, ev,
                                label=f"refl({self.label})"))


def _checked(ctrl: Control) -> Control:
    """Verify the vanishing-near-zero contract at 16 probe points."""
    probes = np.linspace(0.0, ctrl.support_start, 16)
    f, f1, f2 = ctrl.sample(probes)
    grid = np.linspace(0.0, ctrl.T, 257)
    scale = max(float(np.max(np.abs(ctrl.sample(grid)[0]))), 1.0)
    worst = max(float(np.max(np.abs(f))), float(np.max(np.abs(f1))),
                float(np.max(np.abs(f2))))
    if worst > _SUPPORT_TOL * scale:
        raise ControlError(
            f"control {ctrl.label!r} does not vanish on [0, {ctrl.support_start}]: "
            f"worst probe magnitude {worst:.3e}"
        )
    return ctrl


def zero_control(T: float, dim: int = 1) -> Control:
    def ev(t):
        shape = np.shape(t) + (dim,)
        z = np.zeros(shape, dtype=complex)
        return z, z.copy(), z.copy()

    return Control(T, dim, T, ev, label="zero")


def bump_control(T: float, start: float, stop: float, amplitude=1.0) -> Control:
    """Bump profile times a constant amplitude vector; support in (start, stop)."""
    if not (0.0 < start < stop <= T):
        raise ControlError(f"need 0 < start < stop <= T, got ({start}, {stop}, {T})")
    amp = np.atleast_1d(np.asarray(amplitude, dtype=complex))
    dim = amp.size

    def ev(t):
        f, f1, f2 = _bump_profile(t, start, stop)
        return f[..., None] * amp, f1[..., None] * amp, f2[..., None] * amp

    return _checked(Control(T, dim, start, ev, label=f"bump({start},{stop})"))


def ramp_control(T: float, start: float, stop: float, amplitude=1.0) -> Control:
    """Smooth step from zero to the amplitude vector; nonzero at t = T."""
    if not (0.0 < start < stop <= T):
        raise ControlError(f"need 0 < start < stop <= T, got ({start}, {stop}, {T})")
    amp = np.atleast_1d(np.asarray(amplitude, dtype=complex))
    dim = amp.size

    def ev(t):
        f, f1, f2 = _ramp_profile(t, start, stop)
        return f[..., None] * amp, f1[..., None] * amp, f2[..., None] * amp

    return _checked(Control(T, dim, start, ev, label=f"ramp({start},{stop})"))


def control_from_samples(ts, values, T: float = None, support_start: float = None) -> Control:
    """Quintic-spline fit of sampled control values.

    The samples must be identically zero on an initial segment; the spline
    is clamped to zero below support_start and the smoothness contract is
    verified at construction.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=complex)
    if values.ndim == 1:
        values = values[:, None]
    if ts.ndim != 1 or ts.size != values.shape[0] or ts.size < 7:
        raise ControlError("need at least 7 samples aligned with their times")
    T = float(ts[-1]) if T is None else float(T)
    dim = values.shape[1]
    mags = np.max(np.abs(values), axis=1)
    nz = np.nonzero(mags > _SUPPORT_TOL * max(mags.max(), 1.0))[0]
    if support_start is None:
        if nz.size == 0:
            return zero_control(T, dim)
        if nz[0] == 0:
            raise ControlError("sampled control must vanish on an initial segment")
        support_start = float(ts[nz[0] - 1])
    spl = make_interp_spline(ts, values, k=5)
    d1 = spl.derivative(1)
    d2 = spl.derivative(2)

    def ev(t):
        tc = np.clip(np.asarray(t, dtype=float), 0.0, T)
        flat = (np.asarray(spl(tc), dtype=complex),
                np.asarray(d1(tc), dtype=complex),
                np.asarray(d2(tc), dtype=complex))
        dead = (tc <= support_start)[..., None]
        return tuple(np.where(dead, 0.0, g) for g in flat)

    return _checked(Control(T, dim, support_start, ev, label="sampled"))


def random_smooth_control(T: float, dim: int, rng: np.random.Generator,
                          n_bumps: int = 3) -> Control:
    """Random combination of bumps; reproducible from the generator state."""
    ctrl = None
    for _ in range(n_bumps):
        start = float(rng.uniform(0.05, 0.45)) * T
        width = float(rng.uniform(0.25, 0.5)) * T
        stop = min(start + width, 0.97 * T)
        amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        piece = bump_control(T, start, stop, amp)
        ctrl = piece if ctrl is None else ctrl + piece
    return ctrl


# --- wave snapshots ----------------------------------------------------------

@dataclass(frozen=True)
class WaveSnapshot:
    """State u(., T) with two space derivatives on a uniform grid over [0, T]."""

    T: float
    grid: np.ndarray
    u: np.ndarray
    u_x: np.ndarray
    u_xx: np.ndarray

    @property
    def dim(self) -> int:
        return self.u.shape[-1]


def _apply_table(table: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Apply an (N+1, N+1, n, n) table to samples of shape (..., N+1, n).

    Row k of the result is sum_m table[k, m] @ g[m], computed as one
    matrix product with the table flattened to a ((N+1)n) x ((N+1)n)
    matrix; leading axes of g are a batch.
    """
    rows, cols, n, _ = table.shape
    flat = table.transpose(0, 2, 1, 3).reshape(rows * n, cols * n)
    batch = g.shape[:-2]
    return (g.reshape(batch + (cols * n,)) @ flat.T).reshape(batch + (rows, n))


class OperatorTables:
    """The kernel sampled once on the uniform N-grid over [0, T].

    Row k, column m is the causal pair (x_k, s_m), s_m >= x_k, i.e. the
    characteristic point (xi, eta) = (s_m - x_k, s_m + x_k) = (p, r) delta
    with p = m - k and r = m + k.  wgt holds the trapezoid weights over
    [x_k, T]; they vanish below the diagonal, so every weighted table is
    causal.  k0 is the weighted kernel, the operator of the representation
    formula and of the control-to-state map; k1 is the weighted
    x-derivative w_x - (q(eta/2) + q(xi/2))/4 of the kernel inside the
    integral.  Both are built on first use.  Every table has the layout
    (k, m, a, b) and is applied only through _apply_table, to one
    control's samples or to a stack of them.

    Sampling is separable.  A pair's bilinear weights along xi depend only
    on p and those along eta only on r, so sample lerps the lattice along
    xi once, for p = 0..N, into an (N+1, M+1, n, n) array, and then lerps
    that along eta with two gathers per pair.  Besides its result it holds
    one more (N+1)^2 n^2 table and a few (N+1)^2 index and weight arrays.
    A pair whose xi and eta fall in the same lattice cell touches the
    diagonal, where the cell is a triangle, not bilinear; such pairs occur
    only in rows with x_k below about h/2, and _interp_triangle evaluates
    just those.  q_halves reads q at the 2N+1 points r delta / 2 once and
    gathers.
    """

    def __init__(self, field: KernelField, T: float, N: int):
        if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N < 1:
            raise DomainError(f"grid size N must be an integer >= 1, got {N!r}")
        if not 0.0 < T <= field.T * (1 + 1e-12) + 1e-12:
            raise DomainError(f"horizon T = {T} must lie in (0, {field.T}], "
                              f"the kernel horizon")
        self.field = field
        self.delta = T / N
        self.grid = np.arange(N + 1) * self.delta
        wgt = np.triu(np.full((N + 1, N + 1), self.delta))
        idx = np.arange(N + 1)
        wgt[idx, idx] = 0.5 * self.delta
        wgt[:-1, N] = 0.5 * self.delta
        wgt[N, N] = 0.0
        self.wgt = wgt[..., None, None]

    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """p = |m - k| and r = m + k of every (k, m); mirrored below the diagonal."""
        k = np.arange(self.grid.size)
        return np.abs(k - k[:, None]), k + k[:, None]

    def sample(self, lattice: np.ndarray) -> np.ndarray:
        """A lattice field at every causal (xi, eta) pair of the grid.

        Entries below the diagonal are finite and unspecified; wgt zeroes
        them in every weighted table.
        """
        h, M, N = self.field.step, self.field.M, self.grid.size - 1
        # cell and offset of xi = p delta and eta = r delta, clipped as _interp_triangle does
        steps = np.minimum(np.arange(2 * N + 1) * self.delta, M * h) / h
        cell = np.minimum(steps.astype(int), M - 1)
        frac = steps - cell
        cols = cell[-1] + 2                     # the eta columns the grid reaches
        i, s = cell[:N + 1], frac[:N + 1, None, None, None]
        along_xi = lattice[i, :cols]
        along_xi *= 1 - s
        upper = lattice[i + 1, :cols]
        upper *= s
        along_xi += upper
        del upper
        along_xi = along_xi.reshape((N + 1) * cols, *lattice.shape[2:])
        p, r = self._pairs()
        flat = p * cols
        flat += cell[r]
        u = frac[r][..., None, None]
        del p, r
        out = np.take(along_xi, flat, axis=0)
        flat += 1
        work = np.take(along_xi, flat, axis=0)
        del flat
        out *= 1 - u
        work *= u
        out += work
        del work
        # triangle cells: xi and eta in one cell (j == i), so eta - xi = 2 x_k < h
        k = np.arange(min(N, int(h / (2.0 * self.delta)) + 1) + 1)[:, None]
        m = np.arange(N + 1)
        k, m = np.nonzero((m >= k) & (cell[np.abs(m - k)] >= cell[m + k]))
        out[k, m] = _interp_triangle(lattice, (m - k) * self.delta, (m + k) * self.delta, h, M)
        return out

    def weighted(self, lattice: np.ndarray) -> np.ndarray:
        """Trapezoid-weighted samples of a lattice field; zero below the diagonal."""
        out = self.sample(lattice)
        out *= self.wgt
        return out

    def trace(self, lattice: np.ndarray) -> np.ndarray:
        """A lattice field on the diagonal x = s, i.e. at (xi, eta) = (0, 2x)."""
        s = self.grid
        return _interp_triangle(lattice, np.zeros_like(s), 2.0 * np.minimum(s, self.field.T),
                                self.field.step, self.field.M)

    def q_halves(self) -> tuple[np.ndarray, np.ndarray]:
        """The potential at eta/2 and at xi/2 for every pair of the grid."""
        q = self.field.q_at(np.arange(2 * self.grid.size - 1) * self.delta / 2.0)
        p, r = self._pairs()
        return np.take(q, r, axis=0), np.take(q, p, axis=0)

    @cached_property
    def k0(self) -> np.ndarray:
        return self.weighted(self.field.v)

    @cached_property
    def k1(self) -> np.ndarray:
        out = self.sample(self.field.wx_lat)    # before q_halves: lower peak memory
        q_plus, q_minus = self.q_halves()
        q_plus += q_minus
        del q_minus
        q_plus *= 0.25
        out -= q_plus
        del q_plus
        out *= self.wgt
        return out


def propagate(field: KernelField, f: Control, T: float, N: int) -> WaveSnapshot:
    """Wave snapshot at time T on N+1 uniform nodes.

    Reads the one table layer, OperatorTables: u and u_tt come from the
    representation formula, one k0 product over the stacked control and
    its second derivative; u_x from its differentiated form with k1 and
    the diagonal trace of the kernel; and u_xx from the interior equation
    u_xx = u_tt + q u, with u_tt evaluated by pushing two time derivatives
    onto the control.
    """
    if f.dim != field.dim:
        raise ControlError(f"control dimension {f.dim} != kernel dimension {field.dim}")
    tab = OperatorTables(field, T, N)
    s = tab.grid
    f0, f1, f2 = f.sample(T - s)
    g = np.stack([f0, f2])
    u, u_tt = g + _apply_table(tab.k0, g)
    u_xx = u_tt + np.einsum("kab,kb->ka", field.q_at(s), u)
    u_x = -f1 - np.einsum("kab,kb->ka", tab.trace(field.v), f0) + _apply_table(tab.k1, f0)
    return WaveSnapshot(T=float(T), grid=s, u=u, u_x=u_x, u_xx=u_xx)


def u_tt(field: KernelField, f: Control, x: float, t: float) -> np.ndarray:
    """Second time derivative of the wave at one interior point."""
    if not (-1e-12 <= x <= t + 1e-12 and t <= field.T * (1 + 1e-12)):
        raise DomainError("point outside 0 <= x <= t <= T")
    f2x = f.sample(np.asarray([t - x]))[2][0]
    if t - x < 1e-14:
        return f2x
    k = max(2, int(math.ceil((t - x) / (field.step / 2.0))) + 1)
    s = np.linspace(x, t, k)
    W = _interp_triangle(field.v, s - x, s + x, field.step, field.M)
    f2 = f.sample(t - s)[2]
    return f2x + np.trapezoid(np.einsum("kab,kb->ka", W, f2), x=s, axis=0)


def _u_values(field: KernelField, f: Control, t_prime: float, xs: np.ndarray,
              deriv: int = 0) -> np.ndarray:
    """Representation-formula values of the wave (or a time derivative) at
    time t_prime on arbitrary x nodes; zero beyond the wave front."""
    xs = np.asarray(xs, dtype=float)
    live = xs < t_prime - 1e-14
    out = np.zeros((xs.size, field.dim), dtype=complex)
    if not live.any():
        return out
    xl = xs[live]
    k = max(2, int(math.ceil(t_prime / (field.step / 2.0))) + 1)
    frac = np.linspace(0.0, 1.0, k)
    s = xl[:, None] + (t_prime - xl)[:, None] * frac[None, :]
    W = _interp_triangle(field.v, s - xl[:, None], s + xl[:, None], field.step, field.M)
    fv = f.sample(t_prime - s)[deriv]
    g = np.einsum("rkab,rkb->rka", W, fv)
    dx = (t_prime - xl) / (k - 1)
    integ = dx[:, None] * (g.sum(axis=1) - 0.5 * g[:, 0] - 0.5 * g[:, -1])
    out[live] = f.sample(t_prime - xl)[deriv] + integ
    return out


@dataclass(frozen=True)
class DifferenceQuotientReport:
    h_values: np.ndarray
    errors: np.ndarray
    slope: float


def difference_quotient_test(field: KernelField, f: Control, t: float,
                             h_list, N: int = 400) -> DifferenceQuotientReport:
    """Convergence of time difference quotients of the wave to its derivative.

    For each step h the L2 distance between (u(., t+h) - u(., t))/h and
    u_t(., t) is measured; the report carries the fitted log-log slope.
    """
    h_arr = np.asarray(sorted(h_list, reverse=True), dtype=float)
    if np.any(h_arr <= 0):
        raise DomainError("steps must be positive")
    if t + h_arr.max() > field.T * (1 + 1e-12) + 1e-12:
        raise DomainError("t + max(h) exceeds the kernel horizon")
    xs = np.linspace(0.0, t + h_arr.max(), N + 1)
    base = _u_values(field, f, t, xs, deriv=0)
    rate = _u_values(field, f, t, xs, deriv=1)
    errs = []
    for h in h_arr:
        ahead = _u_values(field, f, t + h, xs, deriv=0)
        diff = (ahead - base) / h - rate
        errs.append(float(np.sqrt(np.trapezoid(np.sum(np.abs(diff) ** 2, axis=1), x=xs))))
    errs = np.asarray(errs)
    if np.all(errs < 1e-15):
        slope = math.inf
    else:
        slope = float(np.polyfit(np.log(h_arr), np.log(np.maximum(errs, 1e-300)), 1)[0])
    return DifferenceQuotientReport(h_values=h_arr, errors=errs, slope=slope)
