import numpy as np
import pytest
from scipy.special import j1 as scipy_j1

import wavekernel as wk
from wavekernel.errors import DomainError


def test_fd_config_validation():
    with pytest.raises(DomainError):
        wk.FDConfig(N_x=100, T=1.0, cfl=1.1)
    with pytest.raises(DomainError):
        wk.FDConfig(N_x=8, T=1.0)


@pytest.mark.parametrize("kw", [
    dict(cfl=0.0), dict(cfl=-0.5), dict(cfl=float("nan")), dict(T=0.0), dict(T=float("nan")),
    dict(T=float("inf")), dict(N_x=32.5),
], ids=["cfl_zero", "cfl_negative", "cfl_nan", "T_zero", "T_nan", "T_inf", "N_x_fraction"])
def test_fd_config_rejects_degenerate(kw):
    with pytest.raises(DomainError):
        wk.FDConfig(**{"N_x": 32, "T": 1.0, **kw})


def test_fd_zero_control(pot_one):
    snap = wk.fd_solve(pot_one, wk.zero_control(1.0, 1), wk.FDConfig(N_x=64, T=1.0))
    assert np.abs(snap.u).max() == 0.0


def test_fd_exact_transport(pot_zero, bump1):
    snap = wk.fd_solve(pot_zero, bump1, wk.FDConfig(N_x=128, T=1.0))
    exact = bump1.sample(1.0 - snap.grid)[0]
    assert np.abs(snap.u - exact).max() < 1e-13


def test_fd_finite_speed(pot_one):
    # control supported late: the front has only travelled t - support_start
    f = wk.bump_control(1.0, 0.6, 0.9, 1.0)
    snap = wk.fd_solve(pot_one, f, wk.FDConfig(N_x=200, T=1.0))
    ahead = snap.grid >= 0.4 + 1e-9
    assert np.abs(snap.u[ahead]).max() == 0.0
    assert np.abs(snap.u[-1]).max() == 0.0


def test_fd_sub_cfl_runs(pot_one, bump1):
    snap = wk.fd_solve(pot_one, bump1, wk.FDConfig(N_x=256, T=1.0, cfl=0.8))
    ref = wk.fd_solve(pot_one, bump1, wk.FDConfig(N_x=256, T=1.0, cfl=1.0))
    assert np.abs(snap.u - ref.u).max() < 5e-3


def test_bessel_series_matches_scipy():
    z = np.linspace(1e-6, 5.0, 200)
    t = np.sqrt(z**2 / 2.0 + 0.25)
    x = np.sqrt(t**2 - z**2 / 2.0)
    mine = wk.bessel_kernel_constant(2.0, x, t)
    ref = -2.0 * x * scipy_j1(z) / z
    assert np.abs(mine - ref).max() < 1e-13


def test_bessel_limits():
    assert wk.bessel_kernel_constant(3.0, 0.0, 1.0) == 0.0
    # on the diagonal the argument vanishes and the limit value applies
    assert wk.bessel_kernel_constant(3.0, 0.7, 0.7) == pytest.approx(-3.0 * 0.7 / 2.0)
    with pytest.raises(DomainError):
        wk.bessel_kernel_constant(-1.0, 0.1, 0.5)
    with pytest.raises(DomainError):
        wk.bessel_kernel_constant(1.0, 0.8, 0.5)
    # Python treats True as 1, a valid constant; it is not a number here
    not_bool = "^constant c must be a finite real number > 0, not a bool, got True$"
    with pytest.raises(DomainError, match=not_bool):
        wk.bessel_kernel_constant(True, 0.1, 0.5)
    with pytest.raises(DomainError, match=not_bool):
        wk.bessel_substitution_residual(True, [(0.3, 0.9)])


@pytest.mark.parametrize("c, x, t", [
    (float("nan"), 0.3, 0.5), (float("inf"), 0.3, 0.5), (1.0, float("nan"), 0.5),
    (1.0, 0.3, float("nan")), (1.0, [0.1, float("nan")], 0.5), (1.0, 0.3, float("inf")),
], ids=["c_nan", "c_inf", "x_nan", "t_nan", "x_array_nan", "t_inf"])
def test_bessel_rejects_non_finite(c, x, t):
    # a NaN c, x or t used to pass the c > 0 and 0 <= x <= t checks and return NaN
    with pytest.raises(DomainError, match="finite"):
        wk.bessel_kernel_constant(c, x, t)


@pytest.mark.parametrize("c", [0.5, 1.0, 4.0])
def test_bessel_substitution(c):
    pts = [(0.0, 1.0), (0.3, 0.9), (0.5, 1.5), (1.0, 2.0), (1.7, 1.9)]
    assert wk.bessel_substitution_residual(c, pts) < 1e-8


def test_compare_trivial(pot_zero, bump1):
    a = wk.fd_solve(pot_zero, bump1, wk.FDConfig(N_x=100, T=1.0))
    assert wk.compare(a, a) == (0.0, 0.0, 0.0)
    b = wk.WaveSnapshot(T=a.T, grid=a.grid, u=a.u + 0.25, u_x=a.u_x, u_xx=a.u_xx)
    l2, mx, rel = wk.compare(a, b)
    assert mx == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(DomainError):
        wk.compare(a, wk.WaveSnapshot(T=2.0, grid=a.grid, u=a.u, u_x=a.u_x, u_xx=a.u_xx))


def test_compare_zero_kernel_vs_fd(field_zero, pot_zero, bump1):
    ka = wk.propagate(field_zero, bump1, 1.0, 128)
    fd = wk.fd_solve(pot_zero, bump1, wk.FDConfig(N_x=128, T=1.0))
    l2, mx, rel = wk.compare(ka, fd)
    assert max(l2, mx, rel) < 1e-12


def test_mutual_convergence(pot_one, field_one, bump1):
    dists = []
    for h, N, nx in [(1 / 25, 50, 100), (1 / 50, 100, 200), (1 / 100, 200, 400)]:
        fld = wk.solve_goursat(pot_one, 1.0, h, 1e-10)
        snap = wk.propagate(fld, bump1, 1.0, N)
        fd = wk.fd_solve(pot_one, bump1, wk.FDConfig(N_x=nx, T=1.0))
        dists.append(wk.compare(snap, fd)[0])
    orders = np.log2(np.array(dists[:-1]) / np.array(dists[1:]))
    assert np.all(orders > 1.8)
