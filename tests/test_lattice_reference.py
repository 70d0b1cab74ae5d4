"""The plane-major kernel lattice against the node-major einsum formulation.

The reference functions below are the earlier implementation of the
fixed-point operator, the Picard loop, the derivative tables and the wtt
assembly, kept unchanged: full-square node-major (M+1, M+1, n, n) arrays
and einsum products.  The package must reproduce them to rounding.  The
full-square kernel constants are kept too; the package reads only the
physical nodes and must reproduce them exactly.
"""

import math
import tracemalloc

import numpy as np
import pytest

import wavekernel as wk
from wavekernel.goursat import (
    KernelConstants, KernelField, _apply_V_core, _grids, _lattice_setup, _node_view, _planes,
    _tail_bound, _toeplitz_planes, _v0_lattice,
)
from wavekernel.potential import _cumtrapz, _mul, _opnorms, potential_from_callable

REL = 1e-14


# --- reference: node-major einsum formulation -------------------------------

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
    v0 = _v0_lattice(qh, h)
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
    f = KernelField(T=float(T), step=float(h), v=v, v0=v0, iterations=max(iterations, 1),
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


def ref_kernel_constants(p, f):
    M, h = f.M, f.step
    _, A, B = _grids(M)
    phys = (A <= B) & (A + B <= M)
    b1 = float(np.max(_opnorms(f.wtilde_lattice())[phys]))
    b2 = float(np.max(_opnorms(f.wx_lat)[phys]))
    b4 = float(np.max(_opnorms(f.v)[phys]))
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
    out = _mul(f.qh[np.clip(idx - idx[:, None], 0, f.M)], f.v)
    out += f.wtt_lattice()
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


def test_apply_V_core_matches_reference(case):
    p, h, f, _ = case
    M, qh = _lattice_setup(p, 1.0, h)
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(f.v.shape) + 1j * rng.standard_normal(f.v.shape)
    got = _node_view(_apply_V_core(_toeplitz_planes(qh), _planes(vals), h))
    assert rel_gap(got, ref_apply_V_core(qh, vals, h)) <= REL


def test_solve_goursat_matches_reference(case):
    _, _, f, ref = case
    assert f.iterations == ref.iterations
    assert f.tail_bound == ref.tail_bound
    for name in ("v", "v0", "e_cum", "d_cum", "wx_lat"):
        assert rel_gap(getattr(f, name), getattr(ref, name)) <= REL, name


def test_wtt_lattice_matches_reference(case):
    _, _, f, ref = case
    assert rel_gap(f.wtt_lattice(), ref_assemble_wtt(ref)) <= REL


def test_kernel_constants_match_reference(case):
    p, _, f, _ = case
    assert wk.kernel_constants(p, f) == ref_kernel_constants(p, f)


def _peak_lattices(fn, lattice_bytes):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / lattice_bytes
    finally:
        tracemalloc.stop()


def test_lattice_memory_guard(pot_herm2):
    # 2x2 at M = 200; one lattice is (M+1)^2 n^2 complex values.  The
    # node-major einsum formulation peaked at 8.4 (solve) and 14.7 (wtt).
    lattice = 201 ** 2 * 4 * 16
    holder = {}
    solve_peak = _peak_lattices(
        lambda: holder.setdefault("f", wk.solve_goursat(pot_herm2, 1.0, 1 / 100, 1e-10)), lattice)
    wtt_peak = _peak_lattices(holder["f"].wtt_lattice, lattice)
    assert solve_peak <= 7.5
    assert wtt_peak <= 10.0
