"""The streamed kernel lattice against the full-square einsum formulation.

The reference functions below are the earlier implementation of the
fixed-point operator, the Picard loop, the derivative tables and the wtt
assembly, kept unchanged: full-square node-major (M+1, M+1, n, n) arrays
and einsum products.  The package must reproduce them to rounding: its
V_h is one step over blocks of rows (apply_V streams it over the square),
and its field and derived tables are half-squares on the region i <= j,
i + j <= M + 1, so they are compared on that region's nodes.  The
full-square kernel constants are kept too, reading the package's
half-squares padded to the full square; the package reads only the
physical nodes and must reproduce them exactly.

A second reference keeps the half-square derivative tables as they were
built on three layouts (node, offset (i, j - i) and eta-major (j, i)),
with each integrand formed once per layout.  The package streams its
tables over blocks of rows and keeps only wx_lat and wtt's outer integrand
d_cum - e_cum[i, i] + e_cum, but it multiplies the same numbers and adds
the same terms in the same order, so those and wtt must reproduce the
reference bit for bit.
"""

import dataclasses
import math
import types

import numpy as np
import pytest

import wavekernel as wk
from wavekernel.goursat import (
    _ROWS, KernelConstants, KernelField, _attach_tables, _lattice_setup, _region, _tail_bound,
)
from wavekernel.propagator import OperatorTables

from conftest import full_v0, traced_peak
from wavekernel.potential import _cumtrapz, _mul, _opnorms, potential_from_callable

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
    f = KernelField(T=float(T), step=float(h), v=v, iterations=max(iterations, 1),
                    tail_bound=tail, qh=qh)
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


def held_outer(f):
    """The outer integrand f holds; rebuilt on a copy once wtt_lattice() has taken it."""
    if f._outer is None:
        f = dataclasses.replace(f)
        _attach_tables(f)
    return f._outer


def ref_kernel_constants(p, f):
    M, h = f.M, f.step
    _, A, B = _grids(M)
    phys = (A <= B) & (A + B <= M)
    b1 = float(np.max(_opnorms(full_square(f.wtilde_lattice()))[phys]))
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
    shape = (f.M + 1, f.M + 1, f.dim, f.dim)       # apply_V works on full squares
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert rel_gap(wk.apply_V(p, vals, h), ref_apply_V_core(qh, vals, h)) <= REL


def test_solve_goursat_matches_reference(case):
    p, h, f, ref = case
    assert f.iterations == ref.iterations
    assert f.tail_bound == ref.tail_bound
    # region nodes (i, j); e_cum[i, j] integrates along eta_j from xi = 0 to xi_i
    i, j = np.nonzero(_region(f.M))
    assert rel_gap(f.v[i, j], ref.v[i, j]) <= REL
    assert rel_gap(f.wtilde_lattice()[i, j], (ref.v - full_v0(p, 1.0, h))[i, j]) <= REL
    # e_cum[i, j] = ref.e_cum[j, j] - ref.e_cum[j, j - i], d_cum[i, j] = ref.d_cum[i, j - i]
    e_diag = ref.e_cum[i, i] - ref.e_cum[i, 0]
    outer = ref.d_cum[i, j - i] - e_diag + (ref.e_cum[j, j] - ref.e_cum[j, j - i])
    assert held_outer(f).shape == f.v.shape
    assert rel_gap(held_outer(f)[i, j], outer) <= REL
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
    assert np.array_equal(held_outer(f), layered_outer(ref))
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
    wk.dump_kernel(f, p, tmp_path / "k.csv", tmp_path / "k.json")
    _assert_tables_match_layered(wk.load_kernel(tmp_path / "k.csv", tmp_path / "k.json", p))


def test_nonzero_diagonal_shifts_d_cum(case):
    # d_cum runs along eta from j = 0 and relies on v[i, i] = 0, the Goursat
    # condition on the diagonal.  A field that breaks it (the planted values
    # of the dump round-trip test are one) has row i of d_cum moved by
    # (h/4) q_0 v[i, i] from the diagonal on, and e_cum and v stay exact.  So
    # row i of the outer integrand d_cum - e_cum[i, i] + e_cum moves by the
    # shift and row i of wx_lat by half of it; every other row stays exact.
    p, h, f, _ = case
    v = f.v.copy()
    v[5, 5] = np.eye(f.dim)
    planted = dataclasses.replace(f, v=v)
    _attach_tables(planted)
    ref = layered_tables(planted)
    outer = layered_outer(ref)
    shift = 0.25 * h * f.qh[0]
    assert np.allclose(planted._outer[5, 5:42] - outer[5, 5:42], shift, rtol=0, atol=1e-14)
    assert np.allclose(planted.wx_lat[5, 5:42] - ref.wx_lat[5, 5:42], 0.5 * shift,
                       rtol=0, atol=1e-14)
    i, j = np.nonzero(_region(f.M))
    others = i != 5
    i, j = i[others], j[others]
    assert np.array_equal(planted._outer[i, j], outer[i, j])
    assert np.array_equal(planted.wx_lat[i, j], ref.wx_lat[i, j])


def test_kernel_constants_match_reference(case):
    p, _, f, _ = case
    assert wk.kernel_constants(p, f) == ref_kernel_constants(p, f)


def test_loaded_field_equals_solved_field(case, tmp_path):
    # a dump holds the whole region a field stores, so a field read back from
    # its dump equals the solved field array for array
    p, _, f, _ = case
    wk.dump_kernel(f, p, tmp_path / "k.csv", tmp_path / "k.json")
    back = wk.load_kernel(tmp_path / "k.csv", tmp_path / "k.json", p)
    assert np.array_equal(back.v, f.v)
    assert np.array_equal(back.wx_lat, f.wx_lat)
    assert np.array_equal(back.wtt_lattice(), f.wtt_lattice())
    assert wk.kernel_constants(p, back) == wk.kernel_constants(p, f)
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
    # half-squares (0.51 lattices each), and holds 1.53 with v, wx_lat and
    # wtt's outer integrand.  wtt with one array per term peaked at 2.8; with
    # three work half-squares and products formed per row block, at 2.03;
    # streamed over blocks of rows into the integrand's buffer, at 0.39.
    lattice = 201 ** 2 * 4 * 16
    holder = {}
    solve_peak = traced_peak(
        lambda: holder.setdefault("f", wk.solve_goursat(pot_herm2, 1.0, 1 / 100, 1e-10)), lattice)
    f = holder["f"]
    arrays = [getattr(f, fl.name) for fl in dataclasses.fields(f)]
    resident = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray)) / lattice
    wtt_peak = traced_peak(f.wtt_lattice, lattice)
    assert solve_peak <= 5.0
    assert resident <= 1.6
    assert wtt_peak <= 0.5
