"""The control-to-state map as a second-kind causal Volterra operator.

Reflecting the control turns the map into identity plus a block-triangular
integral operator with the kernel itself as its kernel function.  That
structure gives an exact discrete inverse by blockwise substitution, its
Neumann series, dense singular-value diagnostics, and an empirical
certification of the Sobolev-norm boundedness estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import make_interp_spline

from .errors import CertificationError, DomainError, SingularSystemError
from .goursat import KernelField, kernel_constants
from .potential import PotentialGrid, _cumtrapz, norm_constants
from .propagator import Control, OperatorTables, _apply_table, propagate, random_smooth_control

_DENSE_SVD_CAP = 1024


def reflect(g: np.ndarray) -> np.ndarray:
    """Sample-exact reflection about the midpoint of a uniform grid."""
    return np.asarray(g)[::-1].copy()


def apply_W(field: KernelField, f: Control, T: float, N: int) -> np.ndarray:
    """Control-to-state map: the wave profile at time T on N+1 nodes."""
    return propagate(field, f, T, N).u


@dataclass(frozen=True)
class VolterraSystem:
    """Discretized identity-plus-causal-integral operator.

    blocks[k, m] holds the trapezoid-weighted kernel sample w(x_k, s_m) for
    s_m >= x_k and zero below the causal diagonal; the represented operator
    is I + A with (A g)(x_k) = sum_m blocks[k, m] g(s_m).
    """

    T: float
    N: int
    grid: np.ndarray
    blocks: np.ndarray          # (N+1, N+1, n, n)

    @property
    def dim(self) -> int:
        return self.blocks.shape[-1]

    def apply(self, g: np.ndarray) -> np.ndarray:
        """(I + A) g on sample vectors."""
        g = np.asarray(g, dtype=complex)
        return g + _apply_table(self.blocks, g)

    def dense(self) -> np.ndarray:
        """Full ((N+1)n) x ((N+1)n) matrix of I + A: the blocks applied to every unit vector."""
        size = (self.N + 1) * self.dim
        eye = np.eye(size, dtype=complex)
        cols = _apply_table(self.blocks, eye.reshape(size, self.N + 1, self.dim))
        return eye + cols.reshape(size, size).T


def build_volterra(field: KernelField, T: float, N: int) -> VolterraSystem:
    """Discretize the reflected control-to-state map on N+1 uniform nodes.

    The blocks are the k0 table of the one table layer, OperatorTables,
    the same weighted kernel samples the propagator reads, so applying the
    system to reflected control samples reproduces the propagated wave to
    rounding.
    """
    tab = OperatorTables(field, T, N)
    return VolterraSystem(T=float(T), N=N, grid=tab.grid, blocks=tab.k0)


def _checked_snapshot(sys: VolterraSystem, u: np.ndarray) -> np.ndarray:
    """Wave samples as a complex array on the system's grid, checked finite."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (sys.N + 1, sys.dim):
        raise DomainError(f"snapshot shape {u.shape} does not match grid ({sys.N + 1}, {sys.dim})")
    if not np.all(np.isfinite(u)):
        raise DomainError("snapshot samples must be finite (found NaN or inf)")
    return u


def invert_W(sys: VolterraSystem, u: np.ndarray) -> np.ndarray:
    """Solve (I + A) g = u for the reflected control samples.

    Exact blockwise solve marching against causality; neumann_partial_sums
    gives the alternating operator power series instead.
    """
    u = _checked_snapshot(sys, u)
    g = np.zeros_like(u)
    eye = np.eye(sys.dim)
    for k in range(sys.N, -1, -1):
        rhs = u[k] - np.einsum("mab,mb->a", sys.blocks[k, k + 1:], g[k + 1:])
        diag = eye + sys.blocks[k, k]
        try:
            g[k] = np.linalg.solve(diag, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"diagonal block at node {k} is singular; refine N"
            ) from exc
    return g


def neumann_partial_sums(sys: VolterraSystem, u: np.ndarray, terms: int) -> list[np.ndarray]:
    """Partial sums of the alternating operator power series for the inverse."""
    u = _checked_snapshot(sys, u)
    sums = [u.copy()]
    for _ in range(terms):
        sums.append(u - _apply_table(sys.blocks, sums[-1]))
    return sums


def condition_estimate(sys: VolterraSystem) -> tuple[float, float, float]:
    """Singular-value extremes and condition number of the dense system."""
    if sys.N > _DENSE_SVD_CAP:
        raise DomainError(f"N = {sys.N} exceeds the dense SVD cap {_DENSE_SVD_CAP}")
    sv = np.linalg.svd(sys.dense(), compute_uv=False)
    s_max, s_min = float(sv[0]), float(sv[-1])
    return s_min, s_max, s_max / s_min


# --- Sobolev machinery --------------------------------------------------------

# norms over the grid of samples (..., N+1, n), one per leading index
def _l2(grid: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.sqrt(np.trapezoid(np.sum(np.abs(g) ** 2, axis=-1), x=grid, axis=-1))


def _sup(g: np.ndarray) -> np.ndarray:
    return np.max(np.sqrt(np.sum(np.abs(g) ** 2, axis=-1)), axis=-1)


def h2_norm(grid: np.ndarray, g: np.ndarray, g1: np.ndarray = None,
            g2: np.ndarray = None) -> float:
    """Sobolev norm combining a sampled function and its first two derivatives.

    Missing derivatives are filled by quintic-spline differentiation.
    """
    grid = np.asarray(grid, dtype=float)
    g = np.asarray(g, dtype=complex)
    if g.ndim == 1:
        g = g[:, None]
    if g1 is None or g2 is None:
        k = min(5, len(grid) - 1)
        spl = make_interp_spline(grid, g, k=k)
        g1 = np.asarray(spl.derivative(1)(grid)) if g1 is None else g1
        g2 = np.asarray(spl.derivative(2)(grid)) if g2 is None else g2
    g1 = np.asarray(g1, dtype=complex).reshape(g.shape)
    g2 = np.asarray(g2, dtype=complex).reshape(g.shape)
    return float(math.sqrt(_l2(grid, g) ** 2 + _l2(grid, g1) ** 2 + _l2(grid, g2) ** 2))


class _SobolevTables(OperatorTables):
    """The shared k0/k1 plus the second-derivative terms of (A f)''."""

    def __init__(self, field: KernelField, T: float, N: int):
        super().__init__(field, T, N)
        s = self.grid
        self.k2a = self.weighted(field.wxx_lattice())
        q_plus, q_minus = self.q_halves()
        q_plus -= q_minus
        del q_minus
        q_plus *= self.wgt * 0.25
        self.k2b = q_plus                                   # acts on f'
        self.q_x = field.q_at(s)
        # half-integral of q along the grid
        self.q_half_cum = 0.5 * _cumtrapz(self.q_x, self.delta)
        self.wx_diag = self.trace(field.wx_lat)
        self.q_mix_T = 0.25 * (field.q_at((T - s) / 2.0) - field.q_at((T + s) / 2.0))


def _apply_A_with_derivatives(tab: _SobolevTables, f0, f1):
    """A f and the explicit (A f)', (A f)'' for samples (..., N+1, n); leading axes batch."""
    Af = _apply_table(tab.k0, f0)
    Af1 = np.einsum("kab,...kb->...ka", tab.q_half_cum, f0) + _apply_table(tab.k1, f0)
    Af2 = np.einsum("kab,...kb->...ka", tab.q_x - tab.wx_diag, f0) \
        + np.einsum("kab,...kb->...ka", tab.q_half_cum, f1) \
        + np.einsum("kab,...b->...ka", tab.q_mix_T, f0[..., -1, :]) \
        + _apply_table(tab.k2a, f0) \
        + _apply_table(tab.k2b, f1)
    return Af, Af1, Af2


@dataclass(frozen=True)
class SobolevReport:
    """Analytic norm constants, their chained bounds, and measured ratios."""

    a1: float
    a2: float
    b1: float
    b2: float
    b3: float
    b4: float
    bound_i: float
    bound_ii: float
    bound_iii: float
    ratio_i: float
    ratio_ii: float
    ratio_iii: float
    composite_bound: float
    empirical_ratio: float
    inverse_ratio: float
    trials: int
    seed: int


def measure_h2_bound(field: KernelField, p: PotentialGrid, T: float,
                     trials: int = 100, N: int = 256, seed: int = 0) -> SobolevReport:
    """Measure the Sobolev boundedness estimates on random smooth controls.

    Measures, over a seeded family of trial controls, the operator ratios
    behind the three chained estimates (L2 -> sup, sup -> C1, C1 -> H2) and
    the full Sobolev ratio, next to their analytic bounds assembled from
    the norm constants of the potential and the kernel.  A f and its two
    derivatives read k0 and k1 of the one table layer, OperatorTables; only
    the second-derivative terms of (A f)'' are built here.  The trials, an
    integer >= 1, are drawn from one seeded generator and applied as one
    stack; each ratio is the worst over the trials with a nonzero
    denominator.  Returns the report whether or not the ratios stay within
    their bounds.
    """
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
        raise DomainError(f"trials must be an integer >= 1, got {trials!r}")
    tab = _SobolevTables(field, T, N)
    grid = tab.grid
    a1, a2 = norm_constants(p, T)
    kc = kernel_constants(p, field)
    rootT = math.sqrt(T)
    bound_i = (a1 + kc.b1) * rootT
    bound_ii = 3.0 * a1 + kc.b2 * T
    bound_iii = 4.0 * a1 + a2 + (a1 + kc.b2) * rootT + math.sqrt(kc.b3)
    # sup-norm embedding constant: |g|_C^2 <= (1 + 1/T)(|g|_L2^2 + |g'|_L2^2)
    emb = 1.0 + 1.0 / T
    composite = math.sqrt(
        ((a1 + kc.b1) * T) ** 2
        + T * bound_ii**2 * emb
        + bound_iii**2 * emb
    )
    rng = np.random.default_rng(seed)
    samples = [random_smooth_control(T, field.dim, rng).sample(grid) for _ in range(trials)]
    f0, f1, f2 = (np.stack(parts) for parts in zip(*samples))     # (trials, N+1, n)
    Af, Af1, Af2 = _apply_A_with_derivatives(tab, f0, f1)
    l2_f = _l2(grid, f0)
    sup_f = _sup(f0)
    h2_f = np.sqrt(l2_f**2 + _l2(grid, f1) ** 2 + _l2(grid, f2) ** 2)
    h2_Af = np.sqrt(_l2(grid, Af) ** 2 + _l2(grid, Af1) ** 2 + _l2(grid, Af2) ** 2)
    h2_Wf = np.sqrt(_l2(grid, f0 + Af) ** 2 + _l2(grid, f1 + Af1) ** 2
                    + _l2(grid, f2 + Af2) ** 2)
    num = np.stack([_sup(Af), _sup(Af1), _l2(grid, Af2), h2_Af, h2_f])
    den = np.stack([l2_f, sup_f, np.maximum(sup_f, _sup(f1)), h2_f, h2_Wf])
    # worst ratio over the trials with a nonzero denominator; 0 when there are none
    ratio = np.divide(num, den, out=np.zeros_like(num), where=den > 0).max(axis=1)
    r_i, r_ii, r_iii, r_h2, r_inv = ratio.tolist()
    return SobolevReport(
        a1=a1, a2=a2, b1=kc.b1, b2=kc.b2, b3=kc.b3, b4=kc.b4,
        bound_i=bound_i, bound_ii=bound_ii, bound_iii=bound_iii,
        ratio_i=r_i, ratio_ii=r_ii, ratio_iii=r_iii,
        composite_bound=composite, empirical_ratio=r_h2, inverse_ratio=r_inv,
        trials=trials, seed=seed,
    )


def certify_h2_bound(field: KernelField, p: PotentialGrid, T: float,
                     trials: int = 100, N: int = 256, seed: int = 0) -> SobolevReport:
    """Certify the Sobolev boundedness estimates on random smooth controls.

    Runs measure_h2_bound and raises CertificationError if any measured
    ratio exceeds its analytic bound.
    """
    report = measure_h2_bound(field, p, T, trials=trials, N=N, seed=seed)
    checks = [(report.ratio_i, report.bound_i, "L2->sup"),
              (report.ratio_ii, report.bound_ii, "sup->C1"),
              (report.ratio_iii, report.bound_iii, "C1->H2"),
              (report.empirical_ratio, report.composite_bound, "H2 composite")]
    for measured, bound, name in checks:
        if measured > bound * (1 + 1e-9):
            raise CertificationError(
                f"estimate {name}: measured ratio {measured:.6g} exceeds "
                f"analytic bound {bound:.6g}"
            )
    return report
