"""The control-to-state map as a second-kind causal Volterra operator.

Reflecting the control turns the map into identity plus a block-triangular
integral operator with the kernel itself as its kernel function.  That
structure gives an exact discrete inverse by blockwise substitution, its
Neumann series, dense singular-value diagnostics, and an empirical
certification of the Sobolev-norm boundedness estimates.  The integral
part is the k0 table of OperatorTables, which build_volterra returns and
invert_W, neumann_partial_sums and condition_estimate read.  The Sobolev
trials stream all four of its tables, k0, k1, k2a and k2b, and add only
the pointwise terms of (A f)' and (A f)''.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, DomainError, SingularSystemError, check_array, check_count
from .goursat import KernelField, _check_dim, kernel_constants
from .potential import PotentialGrid, _cumtrapz, norm_constants
from .propagator import OperatorTables, _l2, _random_smooth_samples

_DENSE_SVD_CAP = 1024


def reflect(g: np.ndarray) -> np.ndarray:
    """Sample-exact reflection of finite samples about a uniform grid's midpoint, as complex."""
    return check_array(g, "g", DomainError, complex)[::-1].copy()


def build_volterra(field: KernelField, T: float, N: int) -> OperatorTables:
    """Discretize the reflected control-to-state map on N+1 uniform nodes.

    The map is I + A with (A g)(x_k) = sum_m K[k, m] g(s_m), where K is the
    k0 table of the returned OperatorTables, the weighted kernel samples the
    propagator reads.  Nothing is sampled until the tables are read.
    """
    return OperatorTables(field, T, N)


def _checked_snapshot(tab: OperatorTables, u: np.ndarray) -> np.ndarray:
    """Wave samples as a complex array on the tables' grid, checked finite."""
    u = check_array(u, "snapshot samples", DomainError, complex)
    shape = (tab.grid.size, tab.field.dim)
    if u.shape != shape:
        raise DomainError(f"snapshot shape {u.shape} does not match grid {shape}")
    return u


def invert_W(tab: OperatorTables, u: np.ndarray) -> np.ndarray:
    """Solve (I + A) g = u for the reflected control samples.

    Exact blockwise solve marching against causality, over the k0 row
    blocks as they are sampled, last block first; neumann_partial_sums
    gives the alternating operator power series instead.
    """
    u = _checked_snapshot(tab, u)
    g = np.zeros_like(u)
    g_flat, n = g.reshape(-1), tab.field.dim
    eye = np.eye(n)
    for rows, block in tab.k0():
        flat = block.reshape(-1, g_flat.size)
        for k in range(rows.stop - 1, rows.start - 1, -1):
            row = flat[(k - rows.start) * n:(k - rows.start + 1) * n]
            rhs = u[k] - row[:, (k + 1) * n:] @ g_flat[(k + 1) * n:]
            diag = eye + row[:, k * n:(k + 1) * n]
            try:
                g[k] = np.linalg.solve(diag, rhs)
            except np.linalg.LinAlgError as exc:
                raise SingularSystemError(
                    f"diagonal block at node {k} is singular; refine N"
                ) from exc
    return g


def neumann_partial_sums(tab: OperatorTables, u: np.ndarray, terms: int) -> list[np.ndarray]:
    """Partial sums of the alternating operator power series for the inverse.

    terms, the number of terms after the first, is an integer >= 0
    (DomainError otherwise).  The k0 table is gathered whole once and
    applied terms times.
    """
    check_count(terms, "terms", 0, DomainError)
    u = _checked_snapshot(tab, u)
    sums = [u.copy()]
    if terms:
        whole = [(slice(0, tab.grid.size), OperatorTables.full(tab.k0()))]
        for _ in range(terms):
            sums.append(u - OperatorTables.apply(whole, sums[-1]))
    return sums


def _dense(tab: OperatorTables) -> np.ndarray:
    """Full ((N+1)n) x ((N+1)n) matrix of I + A: the whole k0 table plus the identity."""
    size = tab.grid.size * tab.field.dim
    flat = OperatorTables.full(tab.k0()).reshape(size, size)
    flat += np.eye(size)
    return flat


def condition_estimate(tab: OperatorTables) -> tuple[float, float, float]:
    """Singular-value extremes and condition number of the dense system."""
    N = tab.grid.size - 1
    if N > _DENSE_SVD_CAP:
        raise DomainError(f"N = {N} exceeds the dense SVD cap {_DENSE_SVD_CAP}")
    sv = np.linalg.svd(_dense(tab), compute_uv=False)
    s_max, s_min = float(sv[0]), float(sv[-1])
    return s_min, s_max, s_max / s_min


# --- Sobolev machinery --------------------------------------------------------

# sup norms over the grid of samples (..., N+1, n), one per leading index
def _sup(g: np.ndarray) -> np.ndarray:
    return np.max(np.sqrt(np.sum(np.abs(g) ** 2, axis=-1)), axis=-1)


def _h2(grid: np.ndarray, g: np.ndarray, g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """H2 norms over the grid of samples (..., N+1, n) and their two derivatives."""
    return np.sqrt(_l2(grid, g) ** 2 + _l2(grid, g1) ** 2 + _l2(grid, g2) ** 2)


def h2_norm(grid: np.ndarray, g: np.ndarray, g1: np.ndarray = None,
            g2: np.ndarray = None) -> float:
    """Sobolev norm combining a sampled function and its first two derivatives.

    Missing derivatives are filled by quintic-spline differentiation, which
    needs at least 3 nodes.  Grid and samples are finite, the grid increasing (DomainError).
    """
    grid = check_array(grid, "h2_norm grid", DomainError)
    g = check_array(g, "h2_norm samples", DomainError, complex)
    g1, g2 = (d if d is None else check_array(d, "h2_norm derivatives", DomainError, complex)
              for d in (g1, g2))
    if g.ndim == 1:
        g = g[:, None]
    fill = g1 is None or g2 is None
    nodes = 3 if fill else 2
    if grid.ndim != 1 or grid.size < nodes:
        raise DomainError(f"h2_norm needs a 1-D grid of at least {nodes} nodes, "
                          f"got shape {grid.shape}")
    if not np.all(np.diff(grid) > 0):
        raise DomainError("h2_norm grid must be strictly increasing")
    if g.shape[0] != grid.size or any(d is not None and d.size != g.size for d in (g1, g2)):
        raise DomainError(f"h2_norm samples do not match the grid of {grid.size} nodes")
    if fill:
        # scipy.interpolate takes ~0.5 s to import; only the spline fallback needs it
        from scipy.interpolate import make_interp_spline

        spl = make_interp_spline(grid, g, k=min(5, grid.size - 1))
        g1 = spl.derivative(1)(grid) if g1 is None else g1
        g2 = spl.derivative(2)(grid) if g2 is None else g2
    return float(_h2(grid, g, g1.reshape(g.shape), g2.reshape(g.shape)))


def _apply_A_with_derivatives(tab: OperatorTables, f0, f1):
    """A f and the explicit (A f)', (A f)'' for samples (..., N+1, n); leading axes batch.

    Each of k0, k1, k2a and k2b is streamed through one product.  The
    pointwise terms are q - w_x on the diagonal, the half-integral of q
    along the grid, and the q(T -+ s) mix that multiplies f at T.
    """
    field, s = tab.field, tab.grid
    q_x = field.q_at(s)
    q_half_cum = 0.5 * _cumtrapz(q_x, tab.delta)
    q_mix_T = 0.25 * (field.q_at((tab.T - s) / 2.0) - field.q_at((tab.T + s) / 2.0))
    Af = tab.apply(tab.k0(), f0)
    Af1 = np.einsum("kab,...kb->...ka", q_half_cum, f0) + tab.apply(tab.k1(), f0)
    Af2 = np.einsum("kab,...kb->...ka", q_x - tab.trace(field.wx_lat), f0) \
        + np.einsum("kab,...kb->...ka", q_half_cum, f1) \
        + np.einsum("kab,...b->...ka", q_mix_T, f0[..., -1, :]) \
        + tab.apply(tab.k2a(), f0) \
        + tab.apply(tab.k2b(), f1)
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

    def violations(self) -> list[str]:
        """A message per estimate whose ratio exceeds its bound by more than 1e-9 relative."""
        checks = [(self.ratio_i, self.bound_i, "L2->sup"),
                  (self.ratio_ii, self.bound_ii, "sup->C1"),
                  (self.ratio_iii, self.bound_iii, "C1->H2"),
                  (self.empirical_ratio, self.composite_bound, "H2 composite")]
        return [f"estimate {name}: measured ratio {measured:.6g} exceeds "
                f"analytic bound {bound:.6g}"
                for measured, bound, name in checks if measured > bound * (1 + 1e-9)]


def measure_h2_bound(field: KernelField, p: PotentialGrid, T: float,
                     trials: int = 100, N: int = 256, seed: int = 0) -> SobolevReport:
    """Measure the Sobolev boundedness estimates on random smooth controls.

    Measures, over a seeded family of trial controls, the operator ratios
    behind the three chained estimates (L2 -> sup, sup -> C1, C1 -> H2) and
    the full Sobolev ratio, next to their analytic bounds assembled from
    the norm constants of the potential and the kernel.  A f and its two
    derivatives stream k0, k1, k2a and k2b of the one table layer,
    OperatorTables; only the pointwise terms are added here.  The
    trials, an integer >= 1, are the successive random_smooth_control draws
    of numpy.random.default_rng(seed), seed an integer >= 0.  They are
    sampled as one stack by _random_smooth_samples, to the bytes of one
    Control per trial but without making any, and applied as one stack;
    each ratio is the worst over the trials with a nonzero denominator.
    kernel_constants builds the field's tables before the trials are drawn,
    which keeps the peak lower.  Returns the report whether or not the
    ratios stay within their bounds.  The potential's dimension must be the
    field's (DomainError).
    """
    check_count(trials, "trials", 1, DomainError)
    check_count(seed, "seed", 0, DomainError)
    _check_dim(p, field)
    tab = OperatorTables(field, T, N)
    grid = tab.grid
    a1, a2 = norm_constants(p, T)
    kc = kernel_constants(field)
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
    f0, f1, f2 = _random_smooth_samples(T, field.dim, np.random.default_rng(seed),
                                        trials, grid)           # (trials, N+1, n)
    Af, Af1, Af2 = _apply_A_with_derivatives(tab, f0, f1)
    sup_f = _sup(f0)
    h2_f = _h2(grid, f0, f1, f2)
    h2_Af = _h2(grid, Af, Af1, Af2)
    h2_Wf = _h2(grid, f0 + Af, f1 + Af1, f2 + Af2)
    num = np.stack([_sup(Af), _sup(Af1), _l2(grid, Af2), h2_Af, h2_f])
    den = np.stack([_l2(grid, f0), sup_f, np.maximum(sup_f, _sup(f1)), h2_f, h2_Wf])
    # worst ratio over the trials with a nonzero denominator; 0 when there are none
    ratio = np.divide(num, den, out=np.zeros_like(num), where=den > 0).max(axis=1)
    r_i, r_ii, r_iii, r_h2, r_inv = ratio.tolist()
    return SobolevReport(
        a1=a1, a2=a2, b1=kc.b1, b2=kc.b2, b3=kc.b3, b4=kc.b4,
        bound_i=bound_i, bound_ii=bound_ii, bound_iii=bound_iii,
        ratio_i=r_i, ratio_ii=r_ii, ratio_iii=r_iii,
        composite_bound=composite, empirical_ratio=r_h2, inverse_ratio=r_inv,
        trials=trials, seed=int(seed),
    )


def certify_h2_bound(field: KernelField, p: PotentialGrid, T: float,
                     trials: int = 100, N: int = 256, seed: int = 0) -> SobolevReport:
    """Certify the Sobolev boundedness estimates on random smooth controls.

    Runs measure_h2_bound and raises CertificationError if any measured
    ratio exceeds its analytic bound (SobolevReport.violations).
    """
    report = measure_h2_bound(field, p, T, trials=trials, N=N, seed=seed)
    if failed := report.violations():
        raise CertificationError(failed[0])
    return report
