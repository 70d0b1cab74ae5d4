"""The streamed kernel lattice against the full-square einsum formulation.

The reference functions below are the earlier implementation of the
fixed-point operator, the Picard loop, the derivative tables and the wtt
assembly, kept unchanged: full-square node-major (M+1, M+1, n, n) arrays
and einsum products.  The package must reproduce them to rounding: its
V_h is one step over blocks of rows (conftest's streamed_V drives it over
the square), and its field and derived tables are half-squares on the
region i <= j, i + j <= M + 1, so they are compared on that region's
nodes.  The
full-square kernel constants are kept too, reading the package's
half-squares padded to the full square; the package reads only the
physical nodes and must reproduce them exactly.

A second reference keeps the half-square derivative tables as they were
built on three layouts (node, offset (i, j - i) and eta-major (j, i)),
with each integrand formed once per layout.  A third keeps them as they
were built in two streamed passes, the first holding wx_lat and wtt's
outer integrand d_cum - e_cum[i, i] + e_cum whole, the second assembling
wtt into the integrand's buffer, and the kernel constants that read the
held tables.  The package streams both tables in one pass, forms no whole
outer integrand and reads q_{j-i} through a strided view, but it
multiplies the same numbers and adds the same terms in the same order, so
wx_lat, wtt, the march's residual and the constants must reproduce these
references bit for bit.  A fourth keeps the Goursat check and its bound
violations on whole half-squares; the package takes them by blocks of rows
and must reproduce the report exactly.
"""

import dataclasses
import math
import types

import numpy as np
import pytest

import wavekernel as wk
from wavekernel.goursat import (
    _BOUND_SLACK, _ROWS, GoursatReport, KernelConstants, _blocks, _diag, _lattice_setup,
    _region, _residual, _tail_bound, _toeplitz, _v0_at, _v0_lattice, _V_rows, _wxx,
)
from wavekernel.propagator import OperatorTables

from conftest import full_v0, streamed_V, traced_peak
from wavekernel.potential import _cumtrapz, _mul, _opnorms, integral_Q, potential_from_callable

REL = 1e-14


# --- reference: node-major einsum formulation -------------------------------

def _grids(M):
    idx = np.arange(M + 1)
    A, B = np.meshgrid(idx, idx, indexing="ij")
    return idx, A, B


def ref_apply_V_core(qh, values, h):
    M = values.shape[0] - 1
    idx, A, B = _grids(M)
    g = np.einsum("ijab,ijbc->ijac", qh[np.clip(B - A, 0, M)], values)
    g[A > B] = 0.0
    inner = _cumtrapz(g, h, axis=1)          # along eta
    outer = _cumtrapz(inner, h, axis=0)      # along xi
    out = -0.25 * (outer - outer[idx, idx][:, None])
    out[A > B] = 0.0
    out[idx, idx] = 0.0
    return out


def ref_solve_goursat(p, T, h, tol, max_sweeps=100):
    M, qh = _lattice_setup(p, T, h)
    idx = np.arange(M + 1)
    v0 = full_v0(p, T, h)
    S_full = float(0.5 * np.trapezoid(_opnorms(qh), dx=h / 2.0))
    v = v0.copy()
    iterations = 0
    delta = math.inf
    tail = _tail_bound(S_full, 2.0 * T, 0)
    while not (tail < tol or delta < tol):
        assert iterations < max_sweeps
        v_new = v0 + ref_apply_V_core(qh, v, h)
        v_new[idx, idx] = 0.0
        delta = float(np.max(np.sqrt(np.sum(np.abs(v_new - v) ** 2, axis=(-2, -1)))))
        v = v_new
        iterations += 1
        tail = _tail_bound(S_full, 2.0 * T, iterations)
    f = types.SimpleNamespace(M=M, step=float(h), qh=qh, v=v, iterations=max(iterations, 1),
                              tail_bound=tail)
    ref_attach_tables(f)
    return f


def ref_attach_tables(f):
    M, h = f.M, f.step
    idx, A, B = _grids(M)

    ge = np.einsum("mab,jmbc->jmac", f.qh, f.v[np.clip(A - B, 0, M), A])
    ge[B > A] = 0.0
    f.e_cum = _cumtrapz(ge, h / 2.0, axis=1)

    gd = np.einsum("mab,imbc->imac", f.qh, f.v[A, np.clip(A + B, 0, M)])
    gd[A + B > M] = 0.0
    f.d_cum = _cumtrapz(gd, h / 2.0, axis=1)

    e_diag = f.e_cum[idx, idx]
    JM = np.clip(B - A, 0, M)
    wx = 0.5 * (-e_diag[B] + f.e_cum[B, JM] + f.d_cum[A, JM] - e_diag[A])
    wx[A > B] = 0.0
    f.wx_lat = wx


def ref_assemble_wtt(f):
    M, h = f.M, f.step
    idx, A, B = _grids(M)
    JM = np.clip(B - A, 0, M)
    e_diag = f.e_cum[idx, idx]

    ipm = np.clip(A + B, 0, M)
    g1 = np.einsum("mab,imbc->imac", f.qh,
                   f.d_cum[A, B] - e_diag[A] + e_diag[ipm] - f.e_cum[ipm, B])
    g1[A + B > M] = 0.0
    cum_x1 = _cumtrapz(g1, h / 2.0, axis=1)

    jmm = np.clip(A - B, 0, M)
    g3 = np.einsum("mab,jmbc->jmac", f.qh,
                   f.d_cum[jmm, B] - e_diag[jmm] + e_diag[A] - f.e_cum[A, B])
    g3[B > A] = 0.0
    cum_x3 = _cumtrapz(g3, h / 2.0, axis=1)
    x3_diag = cum_x3[idx, idx]

    w_hat = 0.25 * (cum_x1[A, JM] - x3_diag[A] + x3_diag[B] - cum_x3[B, JM])

    qv_edge = np.einsum("kab,kbc->kac", f.qh, f.v[0])
    point = 0.25 * (qv_edge[A] - qv_edge[B])

    qq_fwd = np.einsum("mab,imbc->imac", f.qh, f.qh[ipm])
    qq_fwd[A + B > M] = 0.0
    cc1 = _cumtrapz(qq_fwd, h / 2.0, axis=1)
    qq_bwd = np.einsum("mab,kmbc->kmac", f.qh, f.qh[jmm])
    qq_bwd[B > A] = 0.0
    cc6 = _cumtrapz(qq_bwd, h / 2.0, axis=1)
    cc6_diag = cc6[idx, idx]
    q_cum = _cumtrapz(f.qh, h / 2.0, axis=0)

    eighth = (
        cc1[A, JM]
        - np.einsum("ijab,ijbc->ijac", q_cum[JM], f.qh[A])
        + cc6_diag[A]
        - np.einsum("ijab,ijbc->ijac", q_cum[A], f.qh[A])
        + np.einsum("ijab,ijbc->ijac", q_cum[B] - q_cum[JM], f.qh[B])
        - cc6_diag[B]
        + cc6[B, JM]
    )

    out = point + 0.125 * eighth + w_hat
    out[A > B] = 0.0
    return out


# --- reference: half-square tables on the offset and eta-major layouts --------

def layered_attach_tables(f):
    M, h = f.M, f.step
    region = _region(M)
    i, m = np.arange(region.shape[0])[:, None], np.arange(M + 1)
    j, b = m[:, None], i.T                    # the transposed layout: rows eta_j, columns xi_b

    ge = _mul(f.qh[np.clip(j - b, 0, M)], f.v[b, j])
    ge[~region.T] = 0.0
    f.e_cum = _cumtrapz(ge, h / 2.0, axis=1)
    del ge

    gd = _mul(f.qh, f.v[i, np.clip(i + m, 0, M)])
    gd[2 * i + m > M + 1] = 0.0
    f.d_cum = _cumtrapz(gd, h / 2.0, axis=1)
    del gd

    # d/dx of the smooth part at node (i, j), from the derivative formulas in
    # characteristic coordinates:
    #   wx = (1/2) (d_cum[i, j-i] - e_cum[j, i] - e_cum[i, i])
    wx = f.d_cum[i, np.clip(m - i, 0, M)]
    wx -= f.e_cum.swapaxes(0, 1)
    wx -= _diag_T(f.e_cum)[:, None]
    wx *= 0.5
    wx[~region] = 0.0
    f.wx_lat = wx


def _diag_T(a):
    """a[i, i] of a transposed half-square (M+1, M/2+2) table, for i <= M/2+1."""
    idx = np.arange(a.shape[1])
    return a[idx, idx]


def layered_assemble_wtt(f):
    M, h = f.M, f.step
    region = _region(M)
    rows = region.shape[0]
    i, m = np.arange(rows)[:, None], np.arange(M + 1)
    j, b = m[:, None], i.T                    # the transposed layout: rows eta_j, columns xi_b
    jm = np.clip(m - i, 0, M)                 # jm[i, j] = j - i on the region
    jb = np.clip(j - b, 0, M)                 # jb[j, b] = j - b on the transposed region
    ipm = np.clip(i + m, 0, M)
    skew = 2 * i + m > M + 1                  # node (i, i+m) off the region
    e_diag = _diag_T(f.e_cum)

    # outer integrand over tau = m*h/2 at fixed xi_i (row i, column m):
    #   q(tau) [ d_cum[i, m] - e_cum[i, i] + e_cum[i+m, i] ]
    t = f.d_cum - e_diag[:, None]
    t += f.e_cum[ipm, i]
    g1 = _mul(f.qh, t)
    del t
    g1[skew] = 0.0
    cum_x1 = _cumtrapz(g1, h / 2.0, axis=1)
    del g1

    # outer integrand over xi_b at fixed eta_j (row j, column b):
    #   q_{j-b} [ d_cum[b, j-b] - e_cum[b, b] + e_cum[j, b] ]
    t = f.d_cum[b, jb]
    t -= e_diag
    t += f.e_cum
    g3 = _mul(f.qh[jb], t)
    del t
    g3[~region.T] = 0.0
    cum_x3 = _cumtrapz(g3, h / 2.0, axis=1)
    del g3

    w_hat = cum_x1[i, jm]
    del cum_x1
    w_hat -= _diag_T(cum_x3)[:, None]
    w_hat += cum_x3.swapaxes(0, 1)
    del cum_x3
    w_hat *= 0.25

    # single q*q integrals; cc1 integrates q(s) q(xi/2 + s), cc6[j, a]
    # integrates q_{j-b} q_b over b = 0..a
    q_cum = _cumtrapz(f.qh, h / 2.0, axis=0)
    qq_fwd = _mul(f.qh, f.qh[ipm])
    qq_fwd[skew] = 0.0
    cc1 = _cumtrapz(qq_fwd, h / 2.0, axis=1)
    del qq_fwd
    eighth = cc1[i, jm]
    del cc1
    eighth -= _mul(q_cum[jm], f.qh[:rows, None])
    qq_bwd = _mul(f.qh[jb], f.qh[:rows])
    qq_bwd[~region.T] = 0.0
    cc6 = _cumtrapz(qq_bwd, h / 2.0, axis=1)
    del qq_bwd
    eighth += _diag_T(cc6)[:, None]
    eighth -= _mul(q_cum[:rows], f.qh[:rows])[:, None]
    eighth += _mul(q_cum[None, :] - q_cum[jm], f.qh[None, :])
    eighth -= cc6.swapaxes(0, 1)
    del cc6
    eighth *= 0.125

    # pointwise edge terms
    qv_edge = _mul(f.qh, f.v[0])
    out = qv_edge[:rows, None] - qv_edge[None, :]
    out *= 0.25
    out += eighth
    del eighth
    out += w_hat
    out[~region] = 0.0
    return out


def layered_tables(f):
    """f's lattice with e_cum, d_cum and wx_lat built by the layered reference."""
    ref = types.SimpleNamespace(M=f.M, step=f.step, qh=f.qh, v=f.v)
    layered_attach_tables(ref)
    return ref


def layered_outer(ref):
    """wtt's outer integrand d_cum[i, j-i] - e_cum[i, i] + e_cum[j, i] of the
    layered tables, on the node layout and zero off the region."""
    M = ref.M
    region = _region(M)
    i, m = np.arange(region.shape[0])[:, None], np.arange(M + 1)
    t = ref.d_cum[i, np.clip(m - i, 0, M)]
    t -= _diag_T(ref.e_cum)[:, None]
    t += ref.e_cum.swapaxes(0, 1)
    t[~region] = 0.0
    return t


def ref_kernel_constants(f):
    M, h = f.M, f.step
    _, A, B = _grids(M)
    phys = (A <= B) & (A + B <= M)
    b1 = float(np.max(_opnorms(full_square(f.v - _v0_lattice(f.qh, f.step)))[phys]))
    b2 = float(np.max(_opnorms(full_square(f.wx_lat))[phys]))
    b4 = float(np.max(_opnorms(full_square(f.v))[phys]))
    wxx_norm = _opnorms(ref_wxx_lattice(f))
    inner = []
    xs = []
    for d in range(0, M + 1, 2):
        rows = np.arange((M - d) // 2 + 1)
        vals = wxx_norm[rows, rows + d]
        inner.append(float(np.trapezoid(vals, dx=h)) if rows.size > 1 else 0.0)
        xs.append(d * h / 2.0)
    b3 = float(np.trapezoid(np.asarray(inner) ** 2, x=np.asarray(xs)))
    return KernelConstants(b1=b1, b2=b2, b3=b3, b4=b4)


def ref_wxx_lattice(f):
    idx = np.arange(f.M + 1)
    out = _mul(f.qh[np.clip(idx - idx[:, None], 0, f.M)], full_square(f.v))
    out += full_square(f.wtt_lattice())
    return out


def full_square(half):
    """A half-square table padded with zero rows to the full (M+1)^2 square."""
    out = np.zeros((half.shape[1],) + half.shape[1:], dtype=half.dtype)
    out[:half.shape[0]] = half
    return out


# --- reference: the two streamed passes, with held tables -------------------

def _offset(M: int) -> np.ndarray:
    """j - i at each node of the half-square, 0 below the diagonal: qh[_offset(M)] is q_{j-i}."""
    i, j = np.arange(M // 2 + 2)[:, None], np.arange(M + 1)
    return np.maximum(j - i, 0)


def two_pass_attach_tables(f, residual: bool = False) -> float | None:
    """wx and the outer integrand of wtt, streamed over blocks of _ROWS rows.

    One integrand g[i, j] = q_{j-i} v[i, j], zero off the region, is
    cumulated (step h/2) along eta from j = 0 into d_cum and along xi from 0
    into e_cum.  A block forms g for its rows, d_cum within them, and e_cum
    from the input and output rows carried over from the block above
    (_cumtrapz's carry), so neither table exists beyond one block.  Each
    block writes two half-squares:

    - wx_lat = 1/2 (d_cum - e_cum - e_cum[i, i]), d/dx of the smooth part;
    - f._outer = d_cum - e_cum[i, i] + e_cum, the outer integrand of wtt
      without its q factor, which wtt_lattice() consumes.

    Before the diagonal d_cum adds exact zeros, and v vanishes on it, so
    d_cum integrates from the diagonal; a field with v[i, i] != 0 breaks
    that Goursat condition, and row i of d_cum moves by (h/4) q_0 v[i, i].

    With residual, the largest operator norm of v - v0 - V_h v over the
    region is returned, from the same stream: each block hands its d_cum,
    once the tables have read it, to the step _V_rows.
    """
    M, h = f.M, f.step
    region = _region(M)
    jm = _offset(M)
    wx, outer = np.empty_like(f.v), np.empty_like(f.v)
    if residual:
        q_cum = _cumtrapz(f.qh, h / 2.0, axis=0)
        worst = np.zeros(())
    e_carry, c_carry = [], []
    for b in _blocks(region.shape[0], _ROWS):
        off = ~region[b]
        g = _mul(f.qh[jm[b]], f.v[b])
        g[off] = 0.0
        d_cum = _cumtrapz(g, h / 2.0, axis=1)
        e_cum = _cumtrapz(g, h / 2.0, axis=0, out=g, carry=e_carry)
        e_diag = _diag(e_cum, b.start)[:, None]
        np.subtract(d_cum, e_cum, out=wx[b])
        wx[b] -= e_diag
        wx[b] *= 0.5
        np.subtract(d_cum, e_diag, out=outer[b])
        outer[b] += e_cum
        wx[b][off] = outer[b][off] = 0.0
        if residual:
            del g, e_cum
            r = _V_rows(d_cum, h, b.start, c_carry)
            np.subtract(f.v[b], r, out=r)
            r -= _v0_at(q_cum, np.arange(b.start, b.stop)[:, None], np.arange(M + 1))
            worst = np.maximum(worst, np.max(_opnorms(r)[~off], initial=0.0))
    f.wx_lat, f._outer = wx, outer
    return float(worst) if residual else None


def two_pass_assemble_wtt(f, outer: np.ndarray) -> np.ndarray:
    """Explicit second time derivative of the smooth kernel part, in outer's buffer.

    Assembled from the differentiated fixed-point equation: pointwise
    products of q with edge kernel values, six single q*q integrals, and
    the double-integral terms: the outer integrand q_{j-i} outer[i, j]
    (outer from two_pass_attach_tables), cumulated along each lattice direction.
    The assembly streams over blocks of _ROWS rows, like two_pass_attach_tables:
    cumulations along eta stay within a block's rows, those along xi (of
    the outer integrand and cc6) continue from the rows carried over from
    the block above.  cc1, whose integrand q_0 q_i does not vanish on the
    diagonal, has rows that start there: cc1[i, m] belongs to node
    (i, i+m), and a shift within each row moves it to column i+m, the
    layout of every other table.  A block's rows of outer are read before
    its rows of the result overwrite them, so the work beyond outer is a
    few blocks.  Every node gets the same operations in the same order as
    when each term had a half-square of its own, so the bits do not depend
    on the blocks.
    """
    M, h = f.M, f.step
    dx, qh = h / 2.0, f.qh
    region = _region(M)
    jm = _offset(M)
    m = np.arange(M + 1)
    q_cum = _cumtrapz(qh, dx, axis=0)
    qv_edge = _mul(qh, f.v[0])
    xi_carry, cc6_carry = [], []
    for b in _blocks(region.shape[0], _ROWS):
        off, i = ~region[b], np.arange(b.start, b.stop)[:, None]

        # double integrals: the outer integrand g, zero off the region,
        # integrated along eta_j from the diagonal and along xi_i from 0
        g = _mul(qh[jm[b]], outer[b])
        g[off] = 0.0
        w_hat = _cumtrapz(g, dx, axis=1)
        cum_xi = _cumtrapz(g, dx, axis=0, out=g, carry=xi_carry)
        w_hat -= _diag(cum_xi, b.start)[:, None]
        w_hat += cum_xi
        w_hat *= 0.25
        del g, cum_xi

        # single q*q integrals; cc1[i, m] integrates q(s) q(xi_i/2 + s) from
        # the diagonal, cc6[i, j] integrates q_{j-b} q_b over b = 0..i
        fwd = _mul(qh, qh[np.minimum(i + m, M)])
        fwd[2 * i + m > M + 1] = 0.0              # node (i, i+m) off the region
        eighth = _cumtrapz(fwd, dx, axis=1, out=fwd)
        for k, row in enumerate(eighth):         # eighth[i, j] = cc1[i, max(j - i, 0)]
            r = b.start + k
            row[r:] = row[:M + 1 - r]
            row[:r] = row[r]
        eighth -= _mul(q_cum[jm[b]], qh[b, None])
        cc6 = _mul(qh[jm[b]], qh[b, None])
        cc6[off] = 0.0
        _cumtrapz(cc6, dx, axis=0, out=cc6, carry=cc6_carry)
        eighth += _diag(cc6, b.start)[:, None]
        eighth -= _mul(q_cum[b], qh[b])[:, None]
        eighth += _mul(q_cum[None, :] - q_cum[jm[b]], qh[None, :])
        eighth -= cc6
        eighth *= 0.125
        del cc6

        # pointwise edge terms, then the sum into outer's rows
        wtt = outer[b]
        np.subtract(qv_edge[b, None], qv_edge[None, :], out=wtt)
        wtt *= 0.25
        wtt += eighth
        wtt += w_hat
        wtt[off] = 0.0
    return outer


def two_pass_kernel_constants(f) -> KernelConstants:
    """Sup norms and the integrated second-derivative constant of the kernel.

    All suprema run over the physical region 0 <= x <= t <= T, i.e. lattice
    nodes with i + j <= M.  The nodes are gathered one block of _ROWS rows
    at a time: each block takes its maxima, and the w_xx norms on the even
    diagonals j - i go into one real table, from which each diagonal is
    integrated whole.
    """
    M, h = f.M, f.step
    wtt = f.wtt_lattice()
    i, j = np.arange(M // 2 + 1)[:, None], np.arange(M + 1)    # the rows with physical nodes
    phys = (i <= j) & (i + j <= M)
    even = phys & ((j - i) % 2 == 0)
    q_cum = _cumtrapz(f.qh, h / 2.0, axis=0)
    sups, wxx_norm = np.zeros(3), np.zeros(phys.shape)
    for b in _blocks(phys.shape[0], _ROWS):
        i, j = np.nonzero(phys[b])
        i += b.start
        v = f.v[i, j]
        sups = np.maximum(sups, [np.max(_opnorms(v - _v0_at(q_cum, i, j))),
                                 np.max(_opnorms(f.wx_lat[i, j])), np.max(_opnorms(v))])
        e = even[i, j]
        wxx_norm[i[e], j[e]] = _opnorms(_wxx(f.qh[(j - i)[e]], v[e], wtt[i[e], j[e]]))
    b1, b2, b4 = map(float, sups)
    # w_xx on the even diagonals j - i = d, i = 0..(M - d)/2, one diagonal after another
    ds = np.arange(0, M + 1, 2)
    rows = (M - ds) // 2 + 1
    d = np.repeat(ds, rows)
    i = np.arange(d.size) - np.repeat(np.cumsum(rows) - rows, rows)
    inner = [float(np.trapezoid(vals, dx=h)) if vals.size > 1 else 0.0
             for vals in np.split(wxx_norm[i, i + d], np.cumsum(rows)[:-1])]
    b3 = float(np.trapezoid(np.asarray(inner) ** 2, x=ds * h / 2.0))
    return KernelConstants(b1=b1, b2=b2, b3=b3, b4=b4)


def two_pass_tables(f):
    """f's lattice with wx_lat, the outer integrand _outer, wtt_lattice() and
    the march's residual from the two-pass reference."""
    ref = types.SimpleNamespace(M=f.M, step=f.step, qh=f.qh, v=f.v)
    ref.residual = two_pass_attach_tables(ref, residual=True)
    wtt = two_pass_assemble_wtt(ref, ref._outer.copy())
    ref.wtt_lattice = lambda: wtt
    return ref


# --- reference: the Goursat check on whole half-squares ---------------------

def whole_check_goursat(p, f) -> GoursatReport:
    M, h, v = f.M, f.step, f.v
    idx = np.arange(M + 1)
    diag = float(np.max(_opnorms(_diag(v))))
    edge = float(np.max(_opnorms(v[0] + 0.5 * integral_Q(p, 0.0, idx * h / 2.0))))
    a, b = np.arange(v.shape[0] - 1)[:, None], idx[:-1]     # lower corner of each cell
    mixed = (v[1:, 1:] - v[:-1, 1:] - v[1:, :-1] + v[:-1, :-1]) / h**2
    resid = mixed + 0.25 * _mul(_toeplitz(f.qh, v.shape[0] - 1)[:, :-1], v[:-1, :-1])
    interior_mask = (a + 1 <= b) & (a + b <= M - 1)
    interior = float(np.max(_opnorms(resid)[interior_mask])) if interior_mask.any() else 0.0
    count, excess = whole_bound_violations(f)
    return GoursatReport(diag_residual=diag, edge_residual=edge,
                         interior_residual=interior,
                         bound_violations=count, bound_excess=excess)


def whole_bound_violations(f) -> tuple[int, float]:
    M, h = f.M, f.step
    region = _region(M)
    norms_qh = _opnorms(f.qh)
    s_lat = 0.5 * _cumtrapz(norms_qh, h / 2.0)
    xi = np.arange(region.shape[0]) * h
    bound = s_lat[None, :] * np.exp(xi[:, None] * s_lat[None, :]) + f.tail_bound
    excess = _opnorms(f.v) - (bound + _BOUND_SLACK * (1.0 + bound))
    bad = (excess > 0) & region
    worst = float(np.max(excess[bad])) if bad.any() else 0.0
    return int(np.count_nonzero(bad)), worst


# --- comparisons -------------------------------------------------------------

def rel_gap(got, ref):
    assert got.shape == ref.shape
    return float(np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300))


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.25 * (a + a.conj().T)


def herm3_potential():
    rng = np.random.default_rng(3)
    base, wave = random_hermitian(rng, 3), random_hermitian(rng, 3)
    return potential_from_callable(
        lambda xs: base + np.cos(3.0 * xs)[:, None, None] * wave, 3, 2.0, 1 / 1024)


POTENTIALS = {
    "one": lambda: wk.preset_potential("one", x_max=2.0, step=1 / 1024),
    "herm2": lambda: wk.preset_potential("herm2", x_max=2.0, step=1 / 1024),
    "herm3": herm3_potential,
}


@pytest.fixture(scope="module", params=sorted(POTENTIALS))
def case(request):
    p = POTENTIALS[request.param]()
    h = 1 / 40
    return p, h, wk.solve_goursat(p, 1.0, h, 1e-10), ref_solve_goursat(p, 1.0, h, 1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mul_matches_einsum(n):
    rng = np.random.default_rng(n)
    lat = rng.standard_normal((31, 31, n, n)) + 1j * rng.standard_normal((31, 31, n, n))
    other = rng.standard_normal((31, 31, n, n)) + 1j * rng.standard_normal((31, 31, n, n))
    vec = rng.standard_normal((31, n, n)) + 1j * rng.standard_normal((31, n, n))
    assert rel_gap(_mul(lat, other), np.einsum("ijab,ijbc->ijac", lat, other)) <= 1e-15
    assert rel_gap(_mul(vec, lat), np.einsum("mab,imbc->imac", vec, lat)) <= 1e-15


def planted_values(rng, shape):
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    vals.flat[::7] = complex(-0.0, -0.0)        # signed zeros show in the bytes
    vals.flat[3::11] = complex(5e-324, -0.0)
    return vals


@pytest.mark.parametrize("rows", [1, 2, 37])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cumtrapz_in_place_matches_out_of_place(n, axis, rows):
    rng = np.random.default_rng(10 * n + axis)
    shape = (rows, 41, n, n)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref = _cumtrapz(vals, 0.0125, axis=axis)
    work = vals.copy()
    assert _cumtrapz(work, 0.0125, axis=axis, out=work) is work
    assert np.array_equal(work, ref)
    assert np.array_equal(_cumtrapz(vals, 0.0125, axis=axis, out=np.empty_like(vals)), ref)


@pytest.mark.parametrize("block", [1, 3, 8])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cumtrapz_carried_blocks_match_whole(n, axis, block):
    # the table stream cumulates along xi one block of rows at a time, in
    # place or not; the blocks must give the bytes of one call on the whole
    rng = np.random.default_rng(100 * n + 10 * axis + block)
    vals = planted_values(rng, (37, 41, n, n))
    ref = _cumtrapz(vals, 0.0125, axis=axis)
    for in_place in (False, True):
        got, carry = np.empty_like(vals), []
        for start in range(0, vals.shape[axis], block):
            span = (slice(None),) * axis + (slice(start, start + block),)
            part = vals[span].copy()
            out = part if in_place else np.empty_like(part)
            got[span] = _cumtrapz(part, 0.0125, axis=axis, out=out, carry=carry)
        assert got.tobytes() == ref.tobytes()


def test_apply_V_core_matches_reference(case):
    p, h, f, _ = case
    M, qh = _lattice_setup(p, 1.0, h)
    rng = np.random.default_rng(0)
    shape = (f.M + 1, f.M + 1, f.dim, f.dim)       # the step over the full square
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert rel_gap(streamed_V(qh, vals, h), ref_apply_V_core(qh, vals, h)) <= REL


def test_solve_goursat_matches_reference(case):
    p, h, f, ref = case
    assert f.iterations == ref.iterations
    assert f.tail_bound == ref.tail_bound
    # region nodes (i, j); e_cum[i, j] integrates along eta_j from xi = 0 to xi_i
    i, j = np.nonzero(_region(f.M))
    assert rel_gap(f.v[i, j], ref.v[i, j]) <= REL
    wtilde = f.v - _v0_lattice(f.qh, f.step)
    assert rel_gap(wtilde[i, j], (ref.v - full_v0(p, 1.0, h))[i, j]) <= REL
    # e_cum[i, j] = ref.e_cum[j, j] - ref.e_cum[j, j - i], d_cum[i, j] = ref.d_cum[i, j - i]
    e_diag = ref.e_cum[i, i] - ref.e_cum[i, 0]
    outer = ref.d_cum[i, j - i] - e_diag + (ref.e_cum[j, j] - ref.e_cum[j, j - i])
    held_outer = two_pass_tables(f)._outer
    assert held_outer.shape == f.v.shape
    assert rel_gap(held_outer[i, j], outer) <= REL
    assert rel_gap(f.wx_lat[i, j], ref.wx_lat[i, j]) <= REL


def test_wtt_lattice_matches_reference(case):
    _, _, f, ref = case
    region = _region(f.M)
    i, j = np.nonzero(region)
    for table in (f.wx_lat, f.wtt_lattice(), f.wxx_lattice()):
        assert table.shape == (f.M // 2 + 2, f.M + 1, f.dim, f.dim)
        assert not table[~region].any()
    assert rel_gap(f.wtt_lattice()[i, j], ref_assemble_wtt(ref)[i, j]) <= REL


def _assert_tables_match_layered(f):
    ref = layered_tables(f)
    assert np.array_equal(f.wx_lat, ref.wx_lat)
    assert np.array_equal(two_pass_tables(f)._outer, layered_outer(ref))
    assert np.array_equal(f.wtt_lattice(), layered_assemble_wtt(ref))


def test_wtt_matches_layered_reference_across_row_blocks():
    # M = 400: 202 rows, so the row blocks of the table stream and of the wtt
    # assembly end inside the half-square many times and the last block is short
    p = POTENTIALS["herm2"]()
    f = wk.solve_goursat(p, 1.0, 1 / 200, 1e-10, method="march")
    rows = f.v.shape[0]
    assert rows > 6 * _ROWS and rows % _ROWS
    _assert_tables_match_layered(f)


def test_tables_match_layered_reference_bit_for_bit(case, tmp_path):
    p, h, f, _ = case
    _assert_tables_match_layered(f)
    _assert_tables_match_layered(wk.initial_v0(p, 1.0, h))
    wk.dump_kernel(f, tmp_path / "k.csv", tmp_path / "k.json")
    _assert_tables_match_layered(wk.load_kernel(tmp_path / "k.csv", tmp_path / "k.json", p))


def test_nonzero_diagonal_shifts_d_cum(case):
    # d_cum runs along eta from j = 0 and relies on v[i, i] = 0, the Goursat
    # condition on the diagonal.  A field that breaks it (the planted values
    # of the dump round-trip test are one) has row i of d_cum moved by
    # (h/4) q_0 v[i, i] from the diagonal on, and e_cum and v stay exact.  So
    # row i of the outer integrand d_cum - e_cum[i, i] + e_cum moves by the
    # shift and row i of wx_lat by half of it; every other row stays exact.
    # The one-pass stream carries that integrand into wtt as the two passes did.
    p, h, f, _ = case
    v = f.v.copy()
    v[5, 5] = np.eye(f.dim)
    planted = dataclasses.replace(f, v=v)
    ref = layered_tables(planted)
    outer = layered_outer(ref)
    two_pass = two_pass_tables(planted)
    shift = 0.25 * h * f.qh[0]
    assert np.allclose(two_pass._outer[5, 5:42] - outer[5, 5:42], shift, rtol=0, atol=1e-14)
    assert np.allclose(planted.wx_lat[5, 5:42] - ref.wx_lat[5, 5:42], 0.5 * shift,
                       rtol=0, atol=1e-14)
    i, j = np.nonzero(_region(f.M))
    others = i != 5
    i, j = i[others], j[others]
    assert np.array_equal(two_pass._outer[i, j], outer[i, j])
    assert np.array_equal(planted.wx_lat[i, j], ref.wx_lat[i, j])
    assert np.array_equal(planted.wtt_lattice(), two_pass.wtt_lattice())


def test_planted_diagonal_at_a_block_start_matches_whole_rows(case):
    # row _ROWS starts the second row block, whose window begins one column
    # left of its diagonal.  A field with v[_ROWS, _ROWS] != 0 has g nonzero
    # on that diagonal, so a window that began there would start d_cum at 0
    # where the whole row has already added (h/4) q_0 v[i, i].  The stream on
    # windows gives the whole-row reference's tables and residual bit for bit
    _, _, f, _ = case
    v = f.v.copy()
    v[_ROWS, _ROWS] = np.eye(f.dim)
    planted = dataclasses.replace(f, v=v)
    ref = two_pass_tables(planted)
    assert not np.array_equal(ref.wx_lat[_ROWS], two_pass_tables(f).wx_lat[_ROWS])
    assert np.array_equal(planted.wx_lat, ref.wx_lat)
    assert np.array_equal(planted.wtt_lattice(), ref.wtt_lattice())
    assert _residual(planted) == ref.residual > 0.1


def test_replaced_field_builds_its_own_tables(case):
    # dataclasses.replace copies only the init fields, so a copy with a new v
    # builds its tables from that v, before and after wtt_lattice(), whatever
    # tables the original holds
    _, _, f, _ = case
    f.wtt_lattice()
    g = dataclasses.replace(f, v=2.0 * f.v)
    ref = layered_tables(g)
    assert np.array_equal(g.wx_lat, ref.wx_lat)
    assert not np.array_equal(g.wx_lat, f.wx_lat)
    assert np.array_equal(g.wtt_lattice(), layered_assemble_wtt(ref))
    assert np.array_equal(g.wx_lat, ref.wx_lat)


def test_kernel_constants_match_reference(case):
    # from a field without tables, which kernel_constants builds, and from a
    # field that already holds them
    p, _, f, _ = case
    fresh = dataclasses.replace(f)
    assert wk.kernel_constants(fresh) == ref_kernel_constants(f)
    f.wtt_lattice()
    assert wk.kernel_constants(f) == ref_kernel_constants(f)


@pytest.mark.parametrize("M", [14, 30, 40, 100])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_pass_stream_matches_two_pass_reference(n, M):
    # M = 14 and 30: 9 and 17 rows, so the last row block holds only the halo
    # row M/2 + 1, which has no region nodes.  M = 40 and 100: 22 and 52 rows,
    # so the last row block is partial.  The march's residual, wx_lat, wtt and
    # the constants, on the first call (which builds the tables) and on a
    # second (which reads them), are the two-pass reference's bit for bit
    p = POTENTIALS[{1: "one", 2: "herm2", 3: "herm3"}[n]]()
    f = wk.solve_goursat(p, 1.0, 2.0 / M, 1e-10, method="march")
    assert f.v.shape[0] % _ROWS
    ref = two_pass_tables(f)
    assert f.tail_bound == ref.residual
    first = wk.kernel_constants(f)
    assert np.array_equal(f.wx_lat, ref.wx_lat)
    assert np.array_equal(f.wtt_lattice(), ref.wtt_lattice())
    assert first == wk.kernel_constants(f) == two_pass_kernel_constants(ref)


@pytest.mark.parametrize("M", [14, 30, 40, 100])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_block_check_matches_whole_half_square_reference(n, M):
    # M = 14 and 30: the last row block of nodes holds only the halo row
    # M/2 + 1.  M = 40 and 100: 21 and 51 rows of cells and 22 and 52 rows of
    # nodes, so the last row block of each loop is partial.  A field scaled
    # past its a priori bound has violations to count, and a node planted in
    # the last row block puts the worst interior residual there.  The
    # reference runs in complex128, as it always did; a real field (n = 1)
    # must report the bits of its complex twin
    p = POTENTIALS[{1: "one", 2: "herm2", 3: "herm3"}[n]]()
    f = wk.solve_goursat(p, 1.0, 2.0 / M, 1e-10, method="march")
    big = dataclasses.replace(f, v=4.0 * f.v)
    planted = dataclasses.replace(f, v=f.v.copy())
    planted.v[M // 2 - 2, M // 2 + 1] += 1.0
    for g in (f, big, planted):
        twin = dataclasses.replace(g, v=g.v.astype(complex), qh=g.qh.astype(complex))
        assert wk.check_goursat(p, g) == wk.check_goursat(p, twin) == whole_check_goursat(p, twin)
    assert wk.check_goursat(p, big).bound_violations > 0
    assert wk.check_goursat(p, planted).interior_residual > 1.0


def test_loaded_field_equals_solved_field(case, tmp_path):
    # a dump holds the whole region a field stores, so a field read back from
    # its dump equals the solved field array for array
    p, _, f, _ = case
    wk.dump_kernel(f, tmp_path / "k.csv", tmp_path / "k.json")
    back = wk.load_kernel(tmp_path / "k.csv", tmp_path / "k.json", p)
    assert np.array_equal(back.v, f.v)
    assert np.array_equal(back.wx_lat, f.wx_lat)
    assert np.array_equal(back.wtt_lattice(), f.wtt_lattice())
    assert wk.kernel_constants(back) == wk.kernel_constants(f)
    assert wk.check_goursat(p, back) == wk.check_goursat(p, f)
    for N in (37, 160):
        got, ref = OperatorTables(back, 1.0, N), OperatorTables(f, 1.0, N)
        assert np.array_equal(OperatorTables.full(got.k0()), OperatorTables.full(ref.k0()))
        assert np.array_equal(OperatorTables.full(got.k1()), OperatorTables.full(ref.k1()))


def test_lattice_memory_guard(pot_herm2):
    # 2x2 at M = 200; one lattice is (M+1)^2 n^2 complex values.  The
    # node-major einsum formulation peaked at 8.4 (solve) and 14.7 (wtt); the
    # full-square tables at 6.2 and 5.7; the half-square tables at 5.5 and 2.9;
    # the half-square field at 4.5 (solve).  A solved field held 3.5 lattices
    # with a full-square v and v0, 2.0 with v, e_cum, d_cum and wx_lat as
    # half-squares (0.51 lattices each), 1.53 with v, wx_lat and wtt's outer
    # integrand, and now holds v alone (0.51).  wtt with one array per term
    # peaked at 2.8; with three work half-squares and products formed per row
    # block, at 2.03; streamed over blocks of rows into the integrand's
    # buffer, at 0.39 over the 1.53 held, 1.92 in all.  wx_lat and wtt from
    # one pass peak at 1.52 over v, 2.03 in all, and leave 1.53 held.
    lattice = 201 ** 2 * 4 * 16
    holder = {}
    solve_peak = traced_peak(
        lambda: holder.setdefault("f", wk.solve_goursat(pot_herm2, 1.0, 1 / 100, 1e-10)), lattice)
    f = holder["f"]

    def resident():
        arrays = [getattr(f, fl.name) for fl in dataclasses.fields(f)]
        return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray)) / lattice

    held = resident()
    tables_peak = traced_peak(f.wtt_lattice, lattice)
    assert solve_peak <= 5.0
    assert held <= 0.6
    assert held + tables_peak <= 2.1
    assert resident() <= 1.6
