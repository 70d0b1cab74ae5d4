import tracemalloc

import numpy as np
import pytest

import wavekernel as wk
from wavekernel.errors import ControlError, DomainError
from wavekernel.goursat import _interp_triangle
from wavekernel.propagator import OperatorTables, _apply_table, _u_values


@pytest.mark.parametrize("maker", [wk.bump_control, wk.ramp_control])
def test_control_derivatives_match_fd(maker):
    f = maker(1.0, 0.1, 0.8, 2.0 - 1.0j)
    ts = np.linspace(0.02, 0.98, 301)
    eps = 1e-4
    f0, f1, f2 = f.sample(ts)
    fp = f.sample(ts + eps)[0]
    fm = f.sample(ts - eps)[0]
    assert np.abs((fp - fm) / (2 * eps) - f1).max() < 1e-5
    assert np.abs((fp - 2 * f0 + fm) / eps**2 - f2).max() < 1e-3


def test_control_support_contract():
    f = wk.bump_control(1.0, 0.2, 0.7, 1.0)
    probes = np.linspace(0.0, 0.2, 16)
    for arr in f.sample(probes):
        assert np.abs(arr).max() == 0.0
    # negative arguments give zero
    assert np.abs(f.sample(np.array([-0.5]))[0]).max() == 0.0
    with pytest.raises(ControlError):
        wk.bump_control(1.0, 0.0, 0.5, 1.0)   # support must avoid t = 0


def test_control_zero():
    f = wk.zero_control(1.0, 2)
    vals = f.sample(np.linspace(0, 1, 7))
    assert all(np.abs(v).max() == 0.0 for v in vals)


def test_control_arithmetic():
    a = wk.bump_control(1.0, 0.1, 0.5, 1.0)
    b = wk.bump_control(1.0, 0.3, 0.9, 2.0j)
    c = a + b.scaled(0.5)
    ts = np.linspace(0, 1, 33)
    lhs = c.sample(ts)[0]
    rhs = a.sample(ts)[0] + 0.5 * b.sample(ts)[0]
    assert np.abs(lhs - rhs).max() < 1e-15


def test_control_delay():
    a = wk.bump_control(1.0, 0.1, 0.4, 1.0)
    d = a.delayed(0.25)
    ts = np.linspace(0, 1, 41)
    assert np.abs(d.sample(ts)[0] - a.sample(ts - 0.25)[0]).max() < 1e-15
    assert d.support_start == pytest.approx(0.35)


def test_control_from_samples_roundtrip():
    src = wk.bump_control(1.0, 0.15, 0.85, 1.0 + 0.5j)
    ts = np.linspace(0, 1, 201)
    vals = src.sample(ts)[0]
    fit = wk.control_from_samples(ts, vals)
    probe = np.linspace(0, 1, 97)
    f0s, f1s, _ = src.sample(probe)
    f0f, f1f, _ = fit.sample(probe)
    assert np.abs(f0f - f0s).max() < 1e-8
    assert np.abs(f1f - f1s).max() < 1e-4


def test_control_from_samples_rejects_nonvanishing():
    ts = np.linspace(0, 1, 50)
    vals = np.cos(ts)   # nonzero at t = 0
    with pytest.raises(ControlError):
        wk.control_from_samples(ts, vals)


def test_random_smooth_control_reproducible():
    a = wk.random_smooth_control(1.0, 2, np.random.default_rng(4))
    b = wk.random_smooth_control(1.0, 2, np.random.default_rng(4))
    ts = np.linspace(0, 1, 17)
    assert np.abs(a.sample(ts)[0] - b.sample(ts)[0]).max() == 0.0


def test_propagate_dalembert(field_zero, bump1):
    snap = wk.propagate(field_zero, bump1, 1.0, 200)
    exact = bump1.sample(1.0 - snap.grid)[0]
    assert np.abs(snap.u - exact).max() == 0.0
    assert np.abs(snap.u_x + bump1.sample(1.0 - snap.grid)[1]).max() == 0.0


def test_propagate_boundary_traces(field_one, bump1):
    snap = wk.propagate(field_one, bump1, 1.0, 128)
    f_T = bump1.sample(np.array([1.0]))[0][0]
    assert np.abs(snap.u[0] - f_T).max() < 1e-12
    assert np.abs(snap.u[-1]).max() < 1e-12


def test_propagate_beyond_front_zero(field_one, bump1):
    xs = np.array([0.5, 0.7, 0.9])
    vals = _u_values(field_one, bump1, 0.5, xs)
    assert np.abs(vals).max() == 0.0


def test_propagate_linearity(field_one):
    a = wk.bump_control(1.0, 0.1, 0.5, 1.0)
    b = wk.bump_control(1.0, 0.3, 0.9, 1.0 - 2.0j)
    comb = a.scaled(2.0) + b.scaled(-0.5j)
    u_comb = wk.propagate(field_one, comb, 1.0, 100).u
    u_parts = 2.0 * wk.propagate(field_one, a, 1.0, 100).u \
        - 0.5j * wk.propagate(field_one, b, 1.0, 100).u
    scale = np.abs(u_parts).max()
    assert np.abs(u_comb - u_parts).max() < 1e-10 * scale


def test_propagate_time_shift(field_one):
    # delaying the control delays the wave on the shared grid
    f = wk.bump_control(1.0, 0.1, 0.55, 1.0)
    tau = 0.25
    N = 200
    delta = 1.0 / N
    fd_ctrl = f.delayed(tau)
    full = wk.propagate(field_one, fd_ctrl, 1.0, N)
    k_shift = int(round(tau / delta))
    part = wk.propagate(field_one, f, 1.0 - tau, N - k_shift)
    keep = N - k_shift + 1
    assert np.abs(full.u[:keep] - part.u).max() < 1e-6
    assert np.abs(full.u[keep:]).max() < 1e-12


def test_propagate_horizon_error(field_one, bump1):
    with pytest.raises(DomainError):
        wk.propagate(field_one, bump1, 1.5, 50)


@pytest.mark.parametrize("N", [0, -3, 2.5, 64.0, True])
@pytest.mark.parametrize("entry", [
    lambda fld, pot, N: wk.propagate(fld, wk.bump_control(1.0, 0.1, 0.9, 1.0), 1.0, N),
    lambda fld, pot, N: wk.build_volterra(fld, 1.0, N),
    lambda fld, pot, N: wk.certify_h2_bound(fld, pot, 1.0, trials=1, N=N),
], ids=["propagate", "build_volterra", "certify_h2_bound"])
def test_degenerate_grid_rejected(pot_one, field_one, entry, N):
    with pytest.raises(DomainError, match="grid size N"):
        entry(field_one, pot_one, N)


def test_operator_tables_numpy_integer_grid(field_one):
    tab = OperatorTables(field_one, 1.0, np.int64(16))
    assert tab.k0.shape == (17, 17, 1, 1)


def test_operator_tables_match_point_evaluation(pot_herm2, field_herm2):
    # k0 and k1 are the trapezoid-weighted kernel and x-derivative samples
    N = 40
    tab = OperatorTables(field_herm2, 1.0, N)
    delta = 1.0 / N
    for k, m in [(0, 0), (0, 17), (3, 3), (5, 29), (12, N), (N - 1, N), (N, N), (7, 2)]:
        x, s = tab.grid[k], tab.grid[m]
        if m < k or k == m == N:
            weight = 0.0
        else:
            weight = (0.5 if m in (k, N) else 1.0) * delta
        if weight == 0.0:
            assert np.abs(tab.k0[k, m]).max() == 0.0 and np.abs(tab.k1[k, m]).max() == 0.0
            continue
        k0 = weight * wk.kernel_w(field_herm2, x, s)
        k1 = weight * (wk.wtilde_x(pot_herm2, field_herm2, x, s)
                       - 0.25 * (field_herm2.q_at((s + x) / 2.0)
                                 + field_herm2.q_at((s - x) / 2.0)))
        assert np.abs(tab.k0[k, m] - k0).max() <= 1e-14
        assert np.abs(tab.k1[k, m] - k1).max() <= 1e-14


@pytest.fixture(scope="module", params=[1, 2], ids=["n1", "n2"])
def field_h50(request, pot_one, pot_herm2):
    return wk.solve_goursat(pot_one if request.param == 1 else pot_herm2, 1.0, 1 / 50, 1e-10)


# (T, N) on the h = 1/50 field: delta = h, delta = h/8, unaligned grids, and a
# horizon below the kernel's, where eta stays under M h and j does not clip
@pytest.mark.parametrize("T, N", [(1.0, 50), (1.0, 400), (1.0, 1), (1.0, 2), (1.0, 37),
                                  (1.0, 160), (0.7, 35), (0.7, 37), (0.5, 200)])
def test_separable_sampling_matches_per_pair(field_h50, T, N):
    # the per-pair computation the separable sampler replaced is the reference
    f = field_h50
    tab = OperatorTables(f, T, N)
    X, S = np.meshgrid(tab.grid, tab.grid, indexing="ij")
    causal = S >= X
    xi = np.where(causal, S - X, 0.0)
    eta = np.where(causal, S + X, 0.0)
    q_plus, q_minus = tab.q_halves()
    refs = {
        "v": (tab.sample(f.v), _interp_triangle(f.v, xi, eta, f.step, f.M)),
        "wx_lat": (tab.sample(f.wx_lat), _interp_triangle(f.wx_lat, xi, eta, f.step, f.M)),
        "q_plus": (q_plus, f.q_at(eta / 2.0)),
        "q_minus": (q_minus, f.q_at(xi / 2.0)),
    }
    for name, (got, ref) in refs.items():
        scale = np.abs(ref[causal]).max()
        assert np.abs(got - ref)[causal].max() <= 1e-15 * scale, name
    # triangle cells (i == j) fill row 0; below delta = h/2 later rows have them too
    i = np.minimum((xi / f.step).astype(int), f.M - 1)
    j = np.maximum(np.minimum((eta / f.step).astype(int), f.M - 1), i)
    tri = (i == j) & causal
    assert tri[0].all()
    if tab.delta < f.step / 2:
        assert tri[1:].any()
    for table in (tab.k0, tab.k1):
        assert np.all(table[~causal] == 0.0)


def _peak_tables(fn, table_bytes):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / table_bytes
    finally:
        tracemalloc.stop()


def test_table_memory_guard(field_herm2):
    # 2x2, h = 1/100, N = 400; one table is (N+1)^2 n^2 complex values.  The
    # per-pair sampler peaked at 5.26 (k0) and 5.89 (k1).
    N = 400
    table = (N + 1) ** 2 * 4 * 16
    assert _peak_tables(lambda: OperatorTables(field_herm2, 1.0, N).k0, table) <= 4.0
    assert _peak_tables(lambda: OperatorTables(field_herm2, 1.0, N).k1, table) <= 5.0


def test_apply_table_batch_matches_single_controls(field_herm2):
    # a stack of controls through one product equals one call per control
    tab = OperatorTables(field_herm2, 1.0, 48)
    rng = np.random.default_rng(6)
    g = np.stack([wk.random_smooth_control(1.0, 2, rng).sample(tab.grid)[0] for _ in range(5)])
    for table in (tab.k0, tab.k1):
        batch = _apply_table(table, g)
        assert batch.shape == g.shape
        for got, one in zip(batch, g):
            single = _apply_table(table, one)
            scale = np.abs(single).max()
            assert scale > 0.0
            assert np.abs(got - single).max() <= 1e-14 * scale
            assert np.abs(single - np.einsum("kmab,mb->ka", table, one)).max() <= 1e-14 * scale


def test_propagate_dim_mismatch(field_herm2, bump1):
    with pytest.raises(ControlError):
        wk.propagate(field_herm2, bump1, 1.0, 50)


def test_u_tt_values(field_zero, field_one, bump1):
    # without potential the second derivative rides the control
    val = wk.u_tt(field_zero, bump1, 0.3, 0.9)
    ref = bump1.sample(np.array([0.6]))[2][0]
    assert np.abs(val - ref).max() < 1e-12
    # on the diagonal everything vanishes
    assert np.abs(wk.u_tt(field_one, bump1, 0.5, 0.5)).max() == 0.0


def test_u_tt_consistent_with_snapshot(field_one, bump1):
    snap = wk.propagate(field_one, bump1, 1.0, 200)
    qs = field_one.q_at(snap.grid)
    resid = []
    for k in range(0, 201, 20):
        x = snap.grid[k]
        lhs = wk.u_tt(field_one, bump1, x, 1.0)
        rhs = snap.u_xx[k] - qs[k] @ snap.u[k]
        resid.append(np.abs(lhs - rhs).max())
    assert max(resid) < 10 * field_one.step


def test_uxx_smoothness_surrogate(pot_one, field_one, bump1):
    # -u_xx + q u stays continuous: the max adjacent-node jump shrinks with N
    jumps = []
    for N in (100, 200, 400):
        snap = wk.propagate(field_one, bump1, 1.0, N)
        qs = field_one.q_at(snap.grid)
        cont = -snap.u_xx + np.einsum("kab,kb->ka", qs, snap.u)
        jumps.append(np.abs(np.diff(cont, axis=0)).max())
        l1 = np.trapezoid(np.sum(np.abs(snap.u_xx), axis=1), snap.grid)
        assert np.isfinite(l1)
    assert jumps[2] < jumps[0]


def test_difference_quotient_zero_control(field_one):
    f = wk.zero_control(1.0, 1)
    rep = wk.difference_quotient_test(field_one, f, 0.5, [0.1, 0.05])
    assert np.all(rep.errors == 0.0)
    assert rep.slope == np.inf


def test_difference_quotient_slope(field_one_T12, bump1):
    h_list = [2.0**-k for k in range(4, 10)]
    rep = wk.difference_quotient_test(field_one_T12, bump1, 1.0, h_list)
    assert rep.slope >= 0.9
    # halving h cuts the error by at least 1.8
    ratios = rep.errors[:-1] / rep.errors[1:]
    assert np.all(ratios >= 1.8)


def test_difference_quotient_domain(field_one, bump1):
    with pytest.raises(DomainError):
        wk.difference_quotient_test(field_one, bump1, 0.99, [0.1])
