"""Boundary controls and the representation formula for the driven wave.

A control is a smooth C^n-valued boundary input on [0, T] that vanishes
(with two derivatives) near t = 0 and is extended by zero to negative
arguments.  The wave generated by a control is evaluated through the
kernel representation: the reflected control plus a causal integral of
the kernel against the control history.  Second space derivatives come
from the interior equation rather than from differentiating the kernel
twice, which is the only route the kernel's regularity supports.

OperatorTables is the one layer that samples the kernel onto a grid: k0 and
k1, which propagate, difference_quotient_test and the Sobolev trials of
control_op read through one evaluator, _wave_from_tables.  It streams each table by
blocks of rows, each multiplied into its rows of the product as it is made, so
a product never holds the whole table.  A block is sampled as one array: its rows by the
columns from its first row on, the causal pairs s >= x of the block upper
triangle of the operator plus a small triangle below the diagonal, which it
sets to zero.  By time invariance a wave at any time t' <= H is a wave at the
horizon H (f(t' - s) vanishes for s > t'), so one table on [0, H] serves all
the difference-quotient test's times.  The tables are also the reflected
control-to-state map: build_volterra returns them, and invert_W,
neumann_partial_sums and condition_estimate read their k0.

random_smooth_control draws a sum of random bumps; _random_smooth_samples
samples many successive draws as one array, without a Control per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ControlError, DomainError, check_array, check_count, check_order, check_real
from .goursat import KernelField, _blocks, _interp_triangle

_SUPPORT_TOL = 1e-12
_BLOCK = 32               # rows per block of an operator table
_RANDOM_BUMPS = 3         # bumps per random_smooth_control
_DQ_N = 400               # grid intervals of difference_quotient_test


def _bump_profile(t: np.ndarray, start, stop):
    """Compactly supported C-infinity profile on (start, stop), peak 1.

    Returns the profile and its first two derivatives; all three vanish
    identically outside the open support interval.  t, start and stop
    broadcast, so start and stop of shape (bumps, 1) give one row per bump.
    """
    t, start, stop = np.broadcast_arrays(np.asarray(t, dtype=float), start, stop)
    f = np.zeros(t.shape)
    f1 = np.zeros(t.shape)
    f2 = np.zeros(t.shape)
    pad = 1e-9 * (stop - start)
    inside = (t > start + pad) & (t < stop - pad)
    if not inside.any():
        return f, f1, f2
    ti, a, b = t[inside], start[inside], stop[inside]
    d1 = ti - a
    d2 = b - ti
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        g = -1.0 / d1 - 1.0 / d2 + 4.0 / (b - a)
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
    """Smooth boundary control on [0, T] with two derivatives, vanishing near t = 0.

    The makers below vanish there by construction; control_from_samples sets
    its spline to 0 up to the support start.
    """

    T: float
    dim: int
    _eval: callable    # t array -> (f, f', f'') stacked as (3, ..., dim)

    def __post_init__(self):
        check_real(self.T, "control horizon T", ControlError, 0.0)
        check_count(self.dim, "control dimension", 1, ControlError)

    def sample(self, t):
        """Values and first two derivatives at finite real t (DomainError); zero for t < 0."""
        t = check_array(t, "t", DomainError)
        out = self._eval(t)
        neg = (t < 0.0)[..., None]
        return tuple(np.where(neg, 0.0, out[k]) for k in range(3))

    def __add__(self, other: "Control") -> "Control":
        if not isinstance(other, Control):
            raise ControlError(f"can only add a Control to a Control, got {type(other).__name__}")
        if abs(other.T - self.T) > 1e-12 or other.dim != self.dim:
            raise ControlError("can only add controls with equal horizon and dimension")
        f, g = self._eval, other._eval

        def ev(t):
            a = f(t)
            b = g(t)
            return tuple(a[k] + b[k] for k in range(3))

        return Control(self.T, self.dim, ev)

    __radd__ = __add__      # 0 + c and sum() get the same refusal as c + 0


def _quintic(x, y, k: int, probe, name: str, error: type[Exception]):
    """The spline of degree k through (x, y) and its first two derivatives.

    scipy's refusal to fit or differentiate it, and a value of the three at
    probe that is not finite (check_array), raise the caller's error.
    """
    # scipy.interpolate takes ~0.5 s to import; only a fit to samples needs it
    from scipy.interpolate import make_interp_spline

    with np.errstate(all="ignore"):     # an overflow leaves an inf or NaN, refused below
        try:
            spl = make_interp_spline(x, y, k=k)
            splines = spl, spl.derivative(1), spl.derivative(2)
        except ValueError as exc:
            raise error(f"{name}: {exc}") from exc
        for s in splines:
            check_array(s(probe), name, error, complex)
    return splines


def zero_control(T: float, dim: int = 1) -> Control:
    def ev(t):
        shape = np.shape(t) + (dim,)
        z = np.zeros(shape, dtype=complex)
        return z, z.copy(), z.copy()

    return Control(T, dim, ev)


def _profile_control(T: float, start: float, stop: float, amplitude, profile) -> Control:
    """A scalar profile on (start, stop), numbers not bools, times a constant amplitude vector.

    The profile is exactly 0 on [0, start], so the control needs no probe there.
    """
    amp = np.atleast_1d(check_array(amplitude, "control amplitude", ControlError, complex))

    def ev(t):
        f, f1, f2 = profile(t, start, stop)
        return f[..., None] * amp, f1[..., None] * amp, f2[..., None] * amp

    ctrl = Control(T, amp.size, ev)     # checks T
    check_real(start, "support start", ControlError)
    check_real(stop, "stop", ControlError)
    if not 0.0 < start < stop <= T:
        raise ControlError(f"need 0 < start < stop <= T, got ({start}, {stop}, {T})")
    return ctrl


def bump_control(T: float, start: float, stop: float, amplitude=1.0) -> Control:
    """Bump profile times a constant amplitude vector; support in (start, stop)."""
    return _profile_control(T, start, stop, amplitude, _bump_profile)


def ramp_control(T: float, start: float, stop: float, amplitude=1.0) -> Control:
    """Smooth step from zero to the amplitude vector; nonzero at t = T."""
    return _profile_control(T, start, stop, amplitude, _ramp_profile)


def control_from_samples(ts, values, T: float = None) -> Control:
    """Quintic-spline fit of sampled control values.

    The samples must be identically zero on an initial segment.  The
    support starts at the last sample time of that segment; the spline is
    clamped to zero up to it.  All-zero samples give the zero control.
    Times, values and T (by default the last time) are finite, the values
    complex, and so are f, f' and f'' on 257 nodes of [0, T] (ControlError).
    """
    ts = check_array(ts, "control sample times", ControlError)
    values = check_array(values, "control samples", ControlError, complex)
    if values.ndim == 1:
        values = values[:, None]
    if ts.ndim != 1 or ts.size != values.shape[0] or ts.size < 7:
        raise ControlError("need at least 7 samples aligned with their times")
    if not np.all(np.diff(ts) > 0):
        raise ControlError("control sample times must be strictly increasing")
    T = check_real(ts[-1] if T is None else T, "control horizon T", ControlError, 0.0)
    dim = values.shape[1]
    mags = np.max(np.abs(values), axis=1)
    nz = np.nonzero(mags > _SUPPORT_TOL * max(mags.max(), 1.0))[0]
    if nz.size == 0:
        return zero_control(T, dim)
    if nz[0] == 0:
        raise ControlError("sampled control must vanish on an initial segment")
    support_start = float(ts[nz[0] - 1])
    spl, d1, d2 = _quintic(ts, values, 5, np.linspace(0.0, T, 257), "sampled control f, f', f''",
                           ControlError)

    def ev(t):
        tc = np.clip(np.asarray(t, dtype=float), 0.0, T)
        flat = (np.asarray(spl(tc), dtype=complex),
                np.asarray(d1(tc), dtype=complex),
                np.asarray(d2(tc), dtype=complex))
        dead = (tc <= support_start)[..., None]
        return tuple(np.where(dead, 0.0, g) for g in flat)

    return Control(T, dim, ev)


def _draw_bumps(T: float, dim: int, rng: np.random.Generator, count: int):
    """Supports (start, stop), each (count,), and amplitudes (count, dim) of count random bumps.

    Each bump draws, in order: its start and its width as uniform fractions
    of T, then the real and the imaginary parts of its amplitude, dim
    normals each.  A random_smooth_control is _RANDOM_BUMPS such bumps, so
    count = trials * _RANDOM_BUMPS are the bumps of that many successive
    controls, trial-major.
    """
    start, stop = np.empty(count), np.empty(count)
    amp = np.empty((count, dim), dtype=complex)
    for b in range(count):
        start[b] = float(rng.uniform(0.05, 0.45)) * T
        width = float(rng.uniform(0.25, 0.5)) * T
        stop[b] = min(start[b] + width, 0.97 * T)
        amp[b] = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return start, stop, amp


def random_smooth_control(T: float, dim: int, rng: np.random.Generator) -> Control:
    """Random sum of _RANDOM_BUMPS bumps; reproducible from the generator state.

    The bumps come from _draw_bumps and are summed in their order,
    ((b1 + b2) + b3).  _random_smooth_samples samples many successive
    draws at once, to the same bytes.  T and dim are checked as a Control's (ControlError).
    """
    check_real(T, "control horizon T", ControlError, 0.0)
    check_count(dim, "control dimension", 1, ControlError)
    start, stop, amp = _draw_bumps(T, dim, rng, _RANDOM_BUMPS)
    ctrl = None
    for a, b, c in zip(start.tolist(), stop.tolist(), amp):
        piece = bump_control(T, a, b, c)
        ctrl = piece if ctrl is None else ctrl + piece
    return ctrl


def _random_smooth_samples(T: float, dim: int, rng: np.random.Generator, trials: int,
                           t: np.ndarray):
    """f, f', f'' of trials successive random_smooth_control draws at times t >= 0.

    Each is a (trials, t.size, dim) array equal byte for byte to stacking
    random_smooth_control(T, dim, rng).sample(t) over the trials, and rng
    is left in the same state.  All the trials' bumps are sampled as one
    array and no Control is made; like bump_control's, each bump vanishes on
    [0, start] by construction, and its drawn amplitude is finite.
    """
    start, stop, amp = _draw_bumps(T, dim, rng, trials * _RANDOM_BUMPS)
    support = start[:, None], stop[:, None]
    slots = amp.reshape(trials, _RANDOM_BUMPS, dim, 1)
    out = []
    for f in _bump_profile(t, *support):
        f = f.reshape(trials, _RANDOM_BUMPS, -1)
        total = np.empty((trials, f.shape[-1], dim), dtype=complex)
        for c in range(dim):
            np.multiply(f[:, 0], slots[:, 0, c], out=total[:, :, c])
            for j in range(1, _RANDOM_BUMPS):       # ((b1 + b2) + b3), as Control.__add__ nests
                total[:, :, c] += f[:, j] * slots[:, j, c]
        out.append(total)
    return tuple(out)


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


def _l2(grid: np.ndarray, g: np.ndarray) -> np.ndarray:
    """L2 norms over the grid of samples (..., N+1, n), one per leading index."""
    return np.sqrt(np.trapezoid(np.sum(np.abs(g) ** 2, axis=-1), x=grid, axis=-1))


class OperatorTables:
    """The kernel sampled on the uniform N-grid over [0, T], streamed by row blocks.

    Row k, column m is the pair (x_k, s_m), i.e. the characteristic point
    (xi, eta) = (s_m - x_k, s_m + x_k) = (p, r) delta with p = m - k and
    r = m + k.  The causal pairs m >= k are weighted by the trapezoid rule
    over [x_k, T]; every entry below the diagonal is exactly +0.0.  Row
    block by row block, _causal samples one rectangle: the block's rows k
    by the columns m >= k0, its first row, with p clipped to 0 below the
    diagonal.  k0 is the weighted kernel, the operator of the
    representation formula and of the control-to-state map; k1 is the
    weighted x-derivative w_x - (q(eta/2) + q(xi/2))/4 of the kernel
    inside the integral.  T is the horizon the tables were given, and
    delta = T/N their step.  Each call of k0() or k1() samples its table
    afresh, as a stream of (rows, block) pairs from _causal: block is a
    zeroed (rows, n, N+1, n) array, the table's rows in the order of its
    matrix product.  apply multiplies a stream into a stack of samples one
    block at a time; full gathers a whole (N+1, n, N+1, n) table, for an
    operator applied more than once.  A block has the dtype of its values:
    float64 for a real field (a real potential), complex128 otherwise.  A
    product with samples is complex128 either way, since controls are.

    Sampling is separable.  A pair's bilinear weights along xi depend only
    on p and those along eta only on r, so _sampler lerps the lattice along
    xi once, for p = 0..N, into an (N+1, M+1, n, n) array, and lerps that
    along eta with two gathers per pair.  A pair whose xi and eta fall in
    the same lattice cell touches the diagonal, where the cell is a
    triangle, not bilinear; such pairs occur only in rows with x_k below
    about h/2 (and, clipped, below the diagonal in rows with x_k < h), and
    _interp_triangle evaluates just those, in just the blocks that hold
    one.  q_half holds q at the 2N+1 points r delta / 2, gathered per pair.
    """

    def __init__(self, field: KernelField, T: float, N: int):
        check_count(N, "grid size N", 1, DomainError)
        self.field = field
        self.T = check_real(T, "horizon T", DomainError, 0.0)
        check_order(f"horizon T beyond the kernel's {field.T}", DomainError, self.T, field.T)
        self.delta = self.T / N
        self.grid = np.arange(N + 1) * self.delta

    def _causal(self, values):
        """Yield (rows, block) for the blocks of _BLOCK rows, last block first.

        The rows k of a block are sampled as one rectangle with the columns
        m >= k0, its first row: values maps arrays p = max(m - k, 0) and
        r = m + k of shape (rows, columns) to a new (rows, columns, n, n)
        array of their values.  The rectangle is weighted by broadcasting
        and copied into block with one strided copy; every pair below the
        diagonal, and every column before k0, holds +0.0.  The rows come in
        the order back-substitution needs; a product takes them in any order.
        """
        N, n = self.grid.size - 1, self.field.dim
        for rows in reversed(list(_blocks(N + 1, _BLOCK))):
            k = np.arange(rows.start, rows.stop)[:, None]
            m = np.arange(rows.start, N + 1)
            out = values(np.maximum(m - k, 0), m + k)
            # trapezoid weights over [x_k, T]: half at both ends, none on the point [T, T]
            wgt = np.full(out.shape[:2], self.delta)
            np.fill_diagonal(wgt, 0.5 * self.delta)
            wgt[:, -1] = 0.5 * self.delta
            wgt[k[:, 0] == N] = 0.0
            out *= wgt[..., None, None]
            out[m < k] = 0.0        # a weight of 0 would leave -0.0 under a negative value
            block = np.zeros((rows.stop - rows.start, n, N + 1, n), dtype=out.dtype)
            block[:, :, rows.start:] = out.transpose(0, 2, 1, 3)
            yield rows, block

    @staticmethod
    def apply(blocks, g: np.ndarray) -> np.ndarray:
        """Apply a table, given as (rows, block) pairs, to samples of shape (..., N+1, n).

        Row k of the result is sum_m table[k, m] @ g[m].  Each block fills
        its rows with one matrix product over all (N+1) n columns as it
        arrives; leading axes of g are a batch.
        """
        flat = g.reshape(*g.shape[:-2], -1)
        out = np.empty(flat.shape, dtype=complex)
        for rows, block in blocks:
            n = block.shape[1]
            out[..., rows.start * n:rows.stop * n] = flat @ block.reshape(-1, flat.shape[-1]).T
        return out.reshape(g.shape)

    @staticmethod
    def full(blocks) -> np.ndarray:
        """The whole (N+1, n, N+1, n) table of a stream of (rows, block) pairs."""
        table = None
        for rows, block in blocks:
            if table is None:
                table = np.empty((block.shape[2], *block.shape[1:]), dtype=block.dtype)
            table[rows] = block
        return table

    def _sampler(self, lattice: np.ndarray):
        """values(p, r) for _causal: a lattice field at (xi, eta) = (p, r) delta."""
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

        def values(p: np.ndarray, r: np.ndarray) -> np.ndarray:
            flat = p * cols
            flat += cell[r]
            u = frac[r][..., None, None]
            out = np.take(along_xi, flat, axis=0)
            out *= 1 - u
            flat += 1
            work = np.take(along_xi, flat, axis=0)
            work *= u
            out += work
            # triangle cells: xi and eta in one cell, so eta - xi = 2 x_k < h
            tri = cell[p] >= cell[r]
            if tri.any():
                # a horizon past the field's, by rounding, reads these cells at the field's
                d = min(self.delta, self.field.T / N)
                out[tri] = _interp_triangle(lattice, p[tri] * d, r[tri] * d, h, M)
            return out

        return values

    def trace(self, lattice: np.ndarray) -> np.ndarray:
        """A lattice field on the diagonal x = s, i.e. at (xi, eta) = (0, 2x)."""
        s = self.grid
        return _interp_triangle(lattice, np.zeros_like(s), 2.0 * np.minimum(s, self.field.T),
                                self.field.step, self.field.M)

    @cached_property
    def q_half(self) -> np.ndarray:
        """The potential at r delta / 2, r = 0..2N: q(eta/2) at r, q(xi/2) at p."""
        return self.field.q_at(np.arange(2 * self.grid.size - 1) * self.delta / 2.0)

    def k0(self):
        return self._causal(self._sampler(self.field.v))

    def k1(self):
        sample = self._sampler(self.field.wx_lat)

        def values(p, r):
            out = sample(p, r)
            q = np.take(self.q_half, r, axis=0)         # (q(eta/2) + q(xi/2))/4
            q += np.take(self.q_half, p, axis=0)
            q *= 0.25
            out -= q
            return out

        return self._causal(values)


def _wave_from_tables(tab: OperatorTables, g0, g1, g2):
    """u, u_x and u_xx at the horizon from reflected control samples; leading axes batch.

    g0 holds g(s) = f(T - s) on the tables' grid and g1, g2 its first two
    s-derivatives, each (..., N+1, n).  u = g + K0 g is the representation
    formula and u_x = g' - w(x, x) g + K1 g its differentiated form; u_xx
    comes from the interior equation u_xx = u_tt + q u, with
    u_tt = g'' + K0 g'' from pushing two time derivatives onto the control
    (one k0 product over the stack [g0, g2]).  That needs f(0) = f'(0) = 0,
    i.e. g and g' vanish at s = T: every Control vanishes near t = 0, and
    every Sobolev trial is exactly 0 on s >= 0.95 T.  Both products are
    streamed, so no whole table is ever held, and the sums are made in place.
    """
    field, s = tab.field, tab.grid
    # u_x first: k1's sampler, a peak of its own, then runs before the k0 stack exists
    u_x = tab.apply(tab.k1(), g0)
    u_x += g1 - np.einsum("kab,...kb->...ka", tab.trace(field.v), g0)
    g = np.stack([g0, g2])
    wave = tab.apply(tab.k0(), g)
    wave += g
    del g
    u, u_xx = wave
    u_xx += np.einsum("kab,...kb->...ka", field.q_at(s), u)
    return u, u_x, u_xx


def propagate(field: KernelField, f: Control, T: float, N: int) -> WaveSnapshot:
    """Wave snapshot at time T on N+1 uniform nodes.

    Reads the one table layer, OperatorTables, through _wave_from_tables:
    the control sampled at T - s is the reflected g, so g' = -f'(T - s).
    """
    if f.dim != field.dim:
        raise ControlError(f"control dimension {f.dim} != kernel dimension {field.dim}")
    tab = OperatorTables(field, T, N)
    f0, f1, f2 = f.sample(T - tab.grid)
    u, u_x, u_xx = _wave_from_tables(tab, f0, -f1, f2)
    return WaveSnapshot(T=float(T), grid=tab.grid, u=u, u_x=u_x, u_xx=u_xx)


def u_tt(field: KernelField, f: Control, x: float, t: float) -> np.ndarray:
    """Second time derivative of the wave at one point (own trapezoid); zero beyond the front.

    The point must satisfy 0 <= x <= t <= T with x and t finite real
    numbers, not bools (DomainError), and the control's dimension must be
    the field's (ControlError).
    """
    x, t = check_real(x, "x", DomainError), check_real(t, "t", DomainError)
    check_order(f"point outside 0 <= x <= t <= {field.T}", DomainError, 0.0, x, t, field.T)
    if f.dim != field.dim:
        raise ControlError(f"control dimension {f.dim} != kernel dimension {field.dim}")
    if x >= t - 1e-14:
        return np.zeros(field.dim, dtype=complex)
    k = max(2, int(math.ceil(t / (field.step / 2.0))) + 1)
    s = x + (t - x) * np.linspace(0.0, 1.0, k)
    sv = np.minimum(s, field.T)          # a t past T, by rounding, reads the kernel at T
    W = _interp_triangle(field.v, sv - x, sv + x, field.step, field.M)
    g = np.einsum("kab,kb->ka", W, f.sample(t - s)[2])
    dx = (t - x) / (k - 1)
    return f.sample(np.array([t - x]))[2][0] + dx * (g.sum(axis=0) - 0.5 * g[0] - 0.5 * g[-1])


@dataclass(frozen=True)
class DifferenceQuotientReport:
    h_values: np.ndarray
    errors: np.ndarray
    slope: float


def difference_quotient_test(field: KernelField, f: Control, t: float,
                             h_list) -> DifferenceQuotientReport:
    """Convergence of time difference quotients of the wave to its derivative.

    For each step h the L2 distance over [0, H], H = t + max h, between
    (u(., t+h) - u(., t))/h and u_t(., t) is measured; the report carries
    the fitted log-log slope.  By time invariance, in
    u(x, t') = f(t' - x) + int_x^H w(x, s) f(t' - s) ds the samples
    f(t' - s) vanish for s > t', so OperatorTables(field, H, N), which
    checks H, serves every t' <= H: u(., t), each u(., t + h) and
    u_t(., t) (f' for f) come from one k0 product, as in propagate.  The
    grid has N = _DQ_N intervals.
    """
    h_arr = np.sort(check_array(h_list, "steps", DomainError), axis=None)[::-1]
    # sorted, so two distinct steps differ at the ends; np.unique would import numpy.ma
    if h_arr.size < 2 or h_arr[0] == h_arr[-1] or not np.all(h_arr > 0):
        raise DomainError(f"steps must be at least two distinct finite positive numbers "
                          f"(a slope needs two), got {h_arr.tolist()}")
    check_order("time t >= 0", DomainError, 0.0, check_real(t, "time t", DomainError))
    if f.dim != field.dim:
        raise ControlError(f"control dimension {f.dim} != kernel dimension {field.dim}")
    tab = OperatorTables(field, t + h_arr.max(), _DQ_N)
    s = tab.grid
    f0, f1, _ = f.sample(t - s)
    g = np.stack([f0, *(f.sample(t + h - s)[0] for h in h_arr), f1])
    u = g + tab.apply(tab.k0(), g)
    errs = _l2(s, (u[1:-1] - u[0]) / h_arr[:, None, None] - u[-1])
    if np.all(errs < 1e-15):
        slope = math.inf
    else:
        slope = float(np.polyfit(np.log(h_arr), np.log(np.maximum(errs, 1e-300)), 1)[0])
    return DifferenceQuotientReport(h_values=h_arr, errors=errs, slope=slope)
