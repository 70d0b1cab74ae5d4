"""Acceptance suite: one test per acceptance criterion, each printing a
pass line with the measured figures when its assertions hold."""

import numpy as np
import pytest

import wavekernel as wk
from wavekernel.goursat import _v0_lattice

from conftest import lattice_xt, region_interior

TOL = 1e-10


@pytest.fixture(scope="module")
def pot_one():
    return wk.preset_potential("one", x_max=4.0, step=1 / 2048)


@pytest.fixture(scope="module")
def pot_quad():
    return wk.preset_potential("one_plus_quadratic", x_max=4.0, step=1 / 4096)


@pytest.fixture(scope="module")
def pot_herm2():
    return wk.preset_potential("herm2", x_max=4.0, step=1 / 2048)


@pytest.fixture(scope="module")
def field_one_400(pot_one):
    return wk.solve_goursat(pot_one, 1.0, 1 / 400, TOL)


@pytest.fixture(scope="module")
def field_one_100(pot_one):
    return wk.solve_goursat(pot_one, 1.0, 1 / 100, TOL)


@pytest.fixture(scope="module")
def field_herm2_100(pot_herm2):
    return wk.solve_goursat(pot_herm2, 1.0, 1 / 100, TOL)


def test_criterion_01_goursat_conditions(pot_one, pot_quad, field_one_400):
    rep = wk.check_goursat(pot_one, field_one_400)
    assert rep.diag_residual == 0.0
    assert rep.edge_residual <= 1e-4
    # constant potential reproduces the edge condition exactly at every
    # resolution, so the h-halving decrease is trivially satisfied there;
    # the quadrature order is measured on a smoothly varying potential
    edges_const = []
    edges_smooth = []
    for h in (1 / 100, 1 / 200, 1 / 400):
        fc = field_one_400 if h == 1 / 400 else wk.solve_goursat(pot_one, 1.0, h, TOL)
        edges_const.append(wk.check_goursat(pot_one, fc).edge_residual)
        fs = wk.solve_goursat(pot_quad, 1.0, h, TOL)
        edges_smooth.append(wk.check_goursat(pot_quad, fs).edge_residual)
    assert all(e < 1e-12 for e in edges_const)
    orders = np.log2(np.array(edges_smooth[:-1]) / np.array(edges_smooth[1:]))
    assert np.all(orders >= 1.8)
    print(f"[PASS] criterion 1: diag=0 exactly, edge residual {rep.edge_residual:.2e} "
          f"<= 1e-4, edge order {orders.min():.2f} >= 1.8 under h-halving")


def test_criterion_02_apriori_bound(field_one_400):
    count, excess = wk.bound_violations(field_one_400)
    assert count == 0
    print(f"[PASS] criterion 2: 0 of {(field_one_400.M + 1)**2 // 2} nodes violate "
          f"the exponential a priori bound (tail {field_one_400.tail_bound:.1e})")


@pytest.mark.parametrize("c", [0.5, 1.0, 4.0])
def test_criterion_03_bessel_oracle(c):
    pts = [(0.0, 1.0), (0.3, 0.9), (0.5, 1.5), (1.0, 2.0), (1.3, 1.7)]
    sub = wk.bessel_substitution_residual(c, pts)
    assert sub <= 1e-8
    p = wk.constant_potential(c, x_max=2.0, step=1 / 1024)
    h = 1 / 100
    fld = wk.solve_goursat(p, 2.0, h, TOL)      # holds the whole triangle of T = 1
    xs, ts, mask = lattice_xt(fld)
    ref = wk.bessel_kernel_constant(c, xs[mask], ts[mask])
    err = np.abs(fld.v[..., 0, 0][mask] - ref).max()
    tol = max(5 * TOL, 10 * h**2)
    assert err <= tol
    print(f"[PASS] criterion 3: c={c}: substitution residual {sub:.1e} <= 1e-8, "
          f"kernel distance {err:.2e} <= {tol:.1e}")


def test_criterion_04_dalembert_degeneration():
    p = wk.zero_potential(1, x_max=4.0, step=1 / 512)
    fld = wk.solve_goursat(p, 1.0, 1 / 100, TOL)
    assert np.abs(fld.v).max() == 0.0
    f = wk.bump_control(1.0, 0.1, 0.9, 1.0)
    snap = wk.propagate(fld, f, 1.0, 200)
    err = np.abs(snap.u - f.sample(1.0 - snap.grid)[0]).max()
    assert err <= 1e-12
    _, _, cond = wk.condition_estimate(wk.build_volterra(fld, 1.0, 200))
    assert abs(cond - 1.0) <= 1e-10
    print(f"[PASS] criterion 4: q=0 gives v=0, reflection error {err:.1e} <= 1e-12, "
          f"cond(W) = 1 within {abs(cond - 1.0):.1e}")


@pytest.mark.parametrize("case", ["scalar", "matrix"])
def test_criterion_05_oracle_agreement(case, pot_one, pot_herm2):
    if case == "scalar":
        p = pot_one
        f = wk.bump_control(2.0, 0.2, 1.8, 1.0)
    else:
        p = pot_herm2
        f = wk.bump_control(2.0, 0.2, 1.8, np.array([1.0, 0.5 - 0.3j]))
    dists = []
    rel_finest = None
    for h, N, nx in [(1 / 25, 100, 200), (1 / 50, 200, 400), (1 / 100, 400, 800)]:
        fld = wk.solve_goursat(p, 2.0, h, TOL)
        snap = wk.propagate(fld, f, 2.0, N)
        fd = wk.fd_solve(p, f, wk.FDConfig(N_x=nx, T=2.0))
        l2, _, rel = wk.compare(snap, fd)
        dists.append(l2)
        rel_finest = rel
    orders = np.log2(np.array(dists[:-1]) / np.array(dists[1:]))
    assert np.all(orders >= 1.8)
    assert rel_finest <= 1e-3
    print(f"[PASS] criterion 5 ({case}): convergence orders "
          f"{', '.join(f'{o:.2f}' for o in orders)} >= 1.8, "
          f"finest relative distance {rel_finest:.2e} <= 1e-3")


@pytest.mark.parametrize("case", ["scalar", "matrix"])
def test_criterion_06_isomorphism_round_trip(case, field_one_100, field_herm2_100):
    fld = field_one_100 if case == "scalar" else field_herm2_100
    N = 200
    tab = wk.build_volterra(fld, 1.0, N)
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(20):
        f = wk.random_smooth_control(1.0, fld.dim, rng)
        samples = f.sample(tab.grid)[0]
        u = wk.propagate(fld, f, 1.0, N).u
        rec = wk.reflect(wk.invert_W(tab, u))
        num = np.sqrt(np.trapezoid(np.sum(np.abs(rec - samples) ** 2, 1), tab.grid))
        den = np.sqrt(np.trapezoid(np.sum(np.abs(samples) ** 2, 1), tab.grid))
        worst = max(worst, num / den)
    assert worst <= 1e-10
    print(f"[PASS] criterion 6 ({case}): worst round-trip relative error "
          f"{worst:.2e} <= 1e-10 over 20 random controls")


@pytest.mark.parametrize("case", ["scalar", "matrix"])
def test_criterion_07_h2_certification(case, pot_one, pot_herm2,
                                       field_one_100, field_herm2_100):
    p = pot_one if case == "scalar" else pot_herm2
    fld = field_one_100 if case == "scalar" else field_herm2_100
    rep = wk.certify_h2_bound(fld, p, 1.0, trials=100, N=256, seed=2024)
    assert rep.ratio_i <= rep.bound_i
    assert rep.ratio_ii <= rep.bound_ii
    assert rep.ratio_iii <= rep.bound_iii
    assert rep.empirical_ratio <= rep.composite_bound
    half = wk.certify_h2_bound(fld, p, 1.0, trials=100, N=128, seed=2024)
    drift = abs(rep.inverse_ratio - half.inverse_ratio) / half.inverse_ratio
    assert np.isfinite(rep.inverse_ratio)
    assert drift <= 0.02
    print(f"[PASS] criterion 7 ({case}): ratios (i,ii,iii)=({rep.ratio_i:.3f},"
          f"{rep.ratio_ii:.3f},{rep.ratio_iii:.3f}) within bounds ({rep.bound_i:.3f},"
          f"{rep.bound_ii:.3f},{rep.bound_iii:.3f}); inverse ratio "
          f"{rep.inverse_ratio:.4f} stable to {drift:.2%} under N-doubling")


def test_criterion_08_difference_quotient(pot_one):
    fld = wk.solve_goursat(pot_one, 1.2, 1 / 100, TOL)
    f = wk.bump_control(1.0, 0.1, 0.9, 1.0)
    h_list = [2.0**-k for k in range(4, 10)]
    rep = wk.difference_quotient_test(fld, f, 1.0, h_list)
    assert rep.slope >= 0.9
    print(f"[PASS] criterion 8: difference-quotient slope {rep.slope:.3f} >= 0.9 "
          f"over h in 2^-4..2^-9")


def test_criterion_09_equivariance_and_decoupling(pot_herm2, field_herm2_100):
    rng = np.random.default_rng(31)
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    c = np.array([[1.0, 0.3 + 0.4j], [0.3 - 0.4j, 2.0]])
    p_conj = wk.constant_potential(u @ c @ u.conj().T, x_max=4.0, step=1 / 2048)
    f_conj = wk.solve_goursat(p_conj, 1.0, 1 / 100, TOL)
    # kernels on horizon 2T, which hold the whole triangle of T = 1
    fa2 = wk.solve_goursat(pot_herm2, 2.0, 1 / 100, TOL)
    fb2 = wk.solve_goursat(p_conj, 2.0, 1 / 100, TOL)
    conj = np.einsum("ab,ijbc,dc->ijad", u, fa2.v, u.conj())
    kerr = np.abs(fb2.v - conj).max()
    assert kerr <= 10 * TOL
    ka = wk.kernel_constants(field_herm2_100)
    kb = wk.kernel_constants(f_conj)
    cerr = max(abs(getattr(ka, n) - getattr(kb, n)) / max(abs(getattr(ka, n)), 1e-30)
               for n in ("b1", "b2", "b3", "b4"))
    assert cerr <= 1e-8
    _, _, cond_a = wk.condition_estimate(wk.build_volterra(field_herm2_100, 1.0, 128))
    _, _, cond_b = wk.condition_estimate(wk.build_volterra(f_conj, 1.0, 128))
    assert abs(cond_a - cond_b) / cond_a <= 1e-8

    pd = wk.constant_potential(np.diag([1.0, 4.0]), x_max=4.0, step=1 / 2048)
    fd = wk.solve_goursat(pd, 2.0, 1 / 100, TOL)
    f1 = wk.solve_goursat(wk.constant_potential(1.0, 4.0, 1 / 2048), 2.0, 1 / 100, TOL)
    f4 = wk.solve_goursat(wk.constant_potential(4.0, 4.0, 1 / 2048), 2.0, 1 / 100, TOL)
    derr = max(np.abs(fd.v[..., 0, 0] - f1.v[..., 0, 0]).max(),
               np.abs(fd.v[..., 1, 1] - f4.v[..., 0, 0]).max(),
               np.abs(fd.v[..., 0, 1]).max())
    assert derr <= 10 * TOL
    s1 = wk.condition_estimate(wk.build_volterra(f1, 1.0, 128))
    s4 = wk.condition_estimate(wk.build_volterra(f4, 1.0, 128))
    sd = wk.condition_estimate(wk.build_volterra(fd, 1.0, 128))
    cond_union = max(s1[1], s4[1]) / min(s1[0], s4[0])
    assert abs(sd[2] - cond_union) / cond_union <= 1e-8
    print(f"[PASS] criterion 9: unitary kernel error {kerr:.1e} <= 10 tol, constants "
          f"{cerr:.1e}, cond match; diagonal decoupling error {derr:.1e} <= 10 tol")


def test_criterion_10_pde_identity(pot_quad, pot_herm2, field_herm2_100):
    resids = []
    for h in (1 / 50, 1 / 100, 1 / 200):
        fld = wk.solve_goursat(pot_quad, 1.0, h, TOL)
        wt = fld.v - _v0_lattice(fld.qh, fld.step)
        i, j = region_interior(fld.M)
        i, j = i[i + 1 < j], j[i + 1 < j]
        num = (wt[i - 1, j + 1] - 2 * wt[i, j] + wt[i + 1, j - 1]) / h**2
        resids.append(np.abs(num - fld.wxx_lattice()[i, j]).max())
    orders = np.log2(np.array(resids[:-1]) / np.array(resids[1:]))
    assert np.all(orders >= 0.9)
    # matrix case at one resolution
    h = field_herm2_100.step
    wt = field_herm2_100.v - _v0_lattice(field_herm2_100.qh, field_herm2_100.step)
    i, j = region_interior(field_herm2_100.M)
    i, j = i[i + 1 < j], j[i + 1 < j]
    num = (wt[i - 1, j + 1] - 2 * wt[i, j] + wt[i + 1, j - 1]) / h**2
    merr = np.abs(num - field_herm2_100.wxx_lattice()[i, j]).max()
    assert merr < 1e-3
    print(f"[PASS] criterion 10: interior identity residual order "
          f"{orders.min():.2f} >= 0.9 under h-halving "
          f"(residuals {', '.join(f'{r:.1e}' for r in resids)}); 2x2 case {merr:.1e}")
