import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavekernel as wk
from wavekernel.errors import ControlError, DomainError, PotentialError
from wavekernel.goursat import _interp_triangle
from wavekernel import propagator
from wavekernel.propagator import OperatorTables, _check_vanishing, _random_smooth_samples

from conftest import against_not_numbers, full_table, traced_peak


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


@pytest.mark.parametrize("maker", [wk.bump_control, wk.ramp_control])
def test_profiles_vanish_on_0_start_by_construction(maker):
    # so the makers probe nothing: f, f' and f'' are exactly 0 up to start, and
    # past stop the ramp is its amplitude with zero derivatives
    f = maker(1.0, 0.2, 0.7, [1.0 - 2.0j, 3.0])
    for arr in f.sample(np.linspace(0.0, 0.2, 16)):
        assert arr.shape == (16, 2) and not arr.any()
    if maker is wk.ramp_control:
        f0, f1, f2 = f.sample(np.linspace(0.75, 1.0, 4))
        assert np.array_equal(f0, np.tile([1.0 - 2.0j, 3.0], (4, 1)))
        assert not f1.any() and not f2.any()


@pytest.mark.parametrize("maker", [wk.bump_control, wk.ramp_control])
@pytest.mark.parametrize("amp", [np.nan, np.inf, [1.0, complex(0.0, -np.inf)]],
                         ids=["nan", "inf", "vector_inf"])
def test_control_rejects_non_finite_amplitude(maker, amp):
    with pytest.raises(ControlError, match="finite"):
        maker(1.0, 0.1, 0.9, amp)


@pytest.mark.parametrize("make", [
    lambda: wk.zero_control(np.nan),
    lambda: wk.zero_control(np.inf, 2),
    lambda: wk.zero_control(0.0),
    lambda: wk.zero_control(1.0, 0),
    lambda: wk.zero_control(1.0, 1.5),
    lambda: wk.zero_control(1.0, 2.0),
    lambda: wk.zero_control(1.0, True),
    lambda: wk.bump_control(np.inf, 0.1, 0.5),
    lambda: wk.ramp_control(np.inf, 0.1, 0.5),
    lambda: wk.control_from_samples(np.linspace(0, 1, 50), np.zeros(50), T=-1.0),
    lambda: wk.control_from_samples(np.linspace(0, 1, 50),
                                    wk.bump_control(1.0, 0.2, 0.8).sample(
                                        np.linspace(0, 1, 50))[0], T=np.nan),
], ids=["zero_nan_T", "zero_inf_T", "zero_T0", "zero_dim0", "zero_dim_fraction",
        "zero_dim_float", "zero_dim_bool", "bump_inf_T", "ramp_inf_T", "samples_negative_T",
        "samples_nan_T"])
def test_control_rejects_bad_horizon_or_dimension(make):
    # each used to return a Control without complaint; a dimension is a count, not any number
    with pytest.raises(ControlError, match="horizon|dimension"):
        make()


def test_support_check_fails_on_non_finite_probe():
    # NaN > tol is false, so a NaN probe used to pass the support check
    def ev(t):
        z = np.full(np.shape(t) + (1,), np.nan, dtype=complex)
        return z, z, z

    with pytest.raises(ControlError, match="not finite"):
        _check_vanishing(ev, 0.5, 1.0)


def test_control_zero():
    # all-zero samples give the zero control too
    zeros = wk.control_from_samples(np.linspace(0, 1, 9), np.zeros((9, 2)))
    for f in (wk.zero_control(1.0, 2), zeros):
        vals = f.sample(np.linspace(0, 1, 7))
        assert f.dim == 2 and all(v.shape == (7, 2) and np.abs(v).max() == 0.0 for v in vals)


def test_control_arithmetic():
    a = wk.bump_control(1.0, 0.1, 0.5, 1.0)
    b = wk.bump_control(1.0, 0.3, 0.9, 2.0j)
    c = a + wk.bump_control(1.0, 0.3, 0.9, 1.0j)     # a + b / 2
    ts = np.linspace(0, 1, 33)
    lhs = c.sample(ts)[0]
    rhs = a.sample(ts)[0] + 0.5 * b.sample(ts)[0]
    assert np.abs(lhs - rhs).max() < 1e-15


@pytest.mark.parametrize("other, message", [
    (lambda: 1, "^can only add a Control to a Control, got int$"),
    (lambda: None, "^can only add a Control to a Control, got NoneType$"),
    (lambda: np.zeros(3), "^can only add a Control to a Control, got ndarray$"),
    (lambda: wk.bump_control(2.0, 0.1, 0.9), "^can only add controls with equal horizon and"),
    (lambda: wk.bump_control(1.0, 0.1, 0.9, [1.0, 1.0j]), "^can only add controls with equal"),
], ids=["int", "None", "array", "horizon", "dimension"])
def test_control_adds_only_a_control_of_its_horizon_and_dimension(other, message):
    # adding 1 used to end in "'int' object has no attribute 'T'"
    with pytest.raises(ControlError, match=message):
        wk.bump_control(1.0, 0.1, 0.9) + other()


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


@pytest.mark.parametrize("bad", ["nan_values", "nan_value", "inf_value", "nan_time"])
def test_control_from_samples_rejects_non_finite(bad):
    ts = np.linspace(0, 1, 50)
    vals = wk.bump_control(1.0, 0.2, 0.8, 1.0).sample(ts)[0]
    if bad == "nan_values":
        vals = np.full_like(vals, np.nan)       # used to give a zero control
    elif bad == "nan_value":
        vals[25] = np.nan
    elif bad == "inf_value":
        vals[25] = np.inf
    else:
        ts = ts.copy()
        ts[25] = np.nan
    with pytest.raises(ControlError, match="finite"):
        wk.control_from_samples(ts, vals)


@pytest.mark.parametrize("order", ["swapped", "repeated"])
def test_control_from_samples_rejects_unordered_times(order):
    # used to end in the spline fit's ValueError
    ts = np.linspace(0, 1, 50)
    vals = wk.bump_control(1.0, 0.2, 0.8, 1.0).sample(ts)[0]
    if order == "swapped":
        ts[[30, 31]] = ts[[31, 30]]
    else:
        ts[30] = ts[29]
    with pytest.raises(ControlError, match="strictly increasing"):
        wk.control_from_samples(ts, vals)


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


@pytest.mark.parametrize("trials", [1, 100])
@pytest.mark.parametrize("seed", [0, 5, 2**31 - 1])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_trial_stack_matches_random_smooth_controls(n, seed, trials):
    # measure_h2_bound's stack: the bytes of one random_smooth_control per
    # trial, and the same generator state after it (bounds.json and
    # validate.json depend on both)
    grid = np.arange(257) * (1.0 / 256)
    one, stack = np.random.default_rng(seed), np.random.default_rng(seed)
    controls = [wk.random_smooth_control(1.0, n, one).sample(grid) for _ in range(trials)]
    for got, want in zip(_random_smooth_samples(1.0, n, stack, trials, grid),
                         (np.stack(parts) for parts in zip(*controls))):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert stack.random() == one.random()


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
    # bump1 vanishes on [0, 0.1], so at t = 0.5 the wave is exactly zero for x >= 0.4,
    # nodes 40..50 of the snapshot
    snap = wk.propagate(field_one, bump1, 0.5, 50)
    for name in ("u", "u_x", "u_xx"):
        assert np.abs(getattr(snap, name)[40:]).max() == 0.0, name
    assert np.abs(snap.u[39]).max() > 0.0
    for x in (0.41, 0.45, 0.49, 0.5):
        assert np.abs(wk.u_tt(field_one, bump1, x, 0.5)).max() == 0.0


def test_propagate_linearity(field_one):
    a = wk.bump_control(1.0, 0.1, 0.5, 1.0)
    b = wk.bump_control(1.0, 0.3, 0.9, 1.0 - 2.0j)
    # 2 a - 0.5j b, as one control with scaled amplitudes
    comb = wk.bump_control(1.0, 0.1, 0.5, 2.0) + wk.bump_control(1.0, 0.3, 0.9, -0.5j - 1.0)
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
    full = wk.propagate(field_one, wk.bump_control(1.0, 0.1 + tau, 0.55 + tau, 1.0), 1.0, N)
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
    assert full_table(tab.k0()).shape == (17, 17, 1, 1)


def test_operator_tables_match_point_evaluation(field_herm2):
    # k0 and k1 are the trapezoid-weighted kernel and x-derivative samples
    N = 40
    tab = OperatorTables(field_herm2, 1.0, N)
    tab_k0, tab_k1 = full_table(tab.k0()), full_table(tab.k1())
    delta = 1.0 / N
    for k, m in [(0, 0), (0, 17), (3, 3), (5, 29), (12, N), (N - 1, N), (N, N), (7, 2)]:
        x, s = tab.grid[k], tab.grid[m]
        if m < k or k == m == N:
            weight = 0.0
        else:
            weight = (0.5 if m in (k, N) else 1.0) * delta
        if weight == 0.0:
            assert np.abs(tab_k0[k, m]).max() == 0.0 and np.abs(tab_k1[k, m]).max() == 0.0
            continue
        k0 = weight * wk.kernel_w(field_herm2, x, s)
        k1 = weight * (wk.wtilde_x(field_herm2, x, s)
                       - 0.25 * (field_herm2.q_at((s + x) / 2.0)
                                 + field_herm2.q_at((s - x) / 2.0)))
        assert np.abs(tab_k0[k, m] - k0).max() <= 1e-14
        assert np.abs(tab_k1[k, m] - k1).max() <= 1e-14


@pytest.fixture(scope="module", params=[1, 2, "quad"], ids=["n1", "n2", "quad"])
def field_h50(request, pot_one, pot_herm2, pot_quad):
    pot = {1: pot_one, 2: pot_herm2, "quad": pot_quad}[request.param]
    return wk.solve_goursat(pot, 1.0, 1 / 50, 1e-10)


# (T, N) on the h = 1/50 field: delta = h, delta = h/8, unaligned grids, and a
# horizon below the kernel's, where eta stays under M h and j does not clip
@pytest.mark.parametrize("T, N", [(1.0, 50), (1.0, 400), (1.0, 1), (1.0, 2), (1.0, 37),
                                  (1.0, 160), (0.7, 35), (0.7, 37), (0.5, 200)])
def test_separable_sampling_matches_per_pair(field_h50, T, N):
    # the per-pair computation the separable sampler replaced, times the
    # trapezoid weights, is the reference; quad's q varies, so it checks that
    # k1 and k2b read q at eta/2 and at xi/2
    f = field_h50
    tab = OperatorTables(f, T, N)
    tables = {name: full_table(getattr(tab, name)()) for name in ("k0", "k1", "k2a", "k2b")}
    X, S = np.meshgrid(tab.grid, tab.grid, indexing="ij")
    causal = S >= X
    xi = np.where(causal, S - X, 0.0)
    eta = np.where(causal, S + X, 0.0)
    k, m = np.indices(causal.shape)
    wgt = np.where((m == k) | (m == N), 0.5 * tab.delta, tab.delta)
    wgt[N, N] = 0.0
    wgt = wgt[..., None, None]
    q_plus, q_minus = 0.25 * f.q_at(eta / 2.0), 0.25 * f.q_at(xi / 2.0)
    refs = {
        "k0": (tables["k0"], wgt * _interp_triangle(f.v, xi, eta, f.step, f.M)),
        "k1": (tables["k1"], wgt * (_interp_triangle(f.wx_lat, xi, eta, f.step, f.M)
                              - (q_plus + q_minus))),
        "k2b": (tables["k2b"], wgt * (q_plus - q_minus)),
    }
    for name, (got, ref) in refs.items():
        # k2b against the size of its terms: for a constant q it is rounding noise
        scale = np.abs(wgt * q_plus if name == "k2b" else ref)[causal].max()
        assert np.abs(got - ref)[causal].max() <= 1e-15 * scale, name
    # triangle cells (i == j) fill row 0; below delta = h/2 later rows have them too
    i = np.minimum((xi / f.step).astype(int), f.M - 1)
    j = np.maximum(np.minimum((eta / f.step).astype(int), f.M - 1), i)
    tri = (i == j) & causal
    assert tri[0].all()
    if tab.delta < f.step / 2:
        assert tri[1:].any()
    for table in tables.values():
        assert np.all(table[~causal] == 0.0)


def test_table_memory_guard(pot_herm2, field_herm2):
    # 2x2, h = 1/100; one table is (N+1)^2 n^2 complex values.  At N = 400
    # the per-pair sampler peaked at 5.26 (k0) and 5.89 (k1); the mirrored
    # full-square sampler at 2.89 and 3.38, and propagate, which held k0 and
    # k1 together, at 4.39.  The causal tables, gathered whole, peak at 1.80
    # and 1.84.  propagate, holding one whole table at a time, peaked at
    # 1.85 and build_volterra + invert_W at 1.80; streamed by row blocks
    # they peak at 1.03 and 1.02, mostly the sampler's lerp along xi.
    # measure_h2_bound at N = 256 with 100 trials, which held k0 and k1 and
    # built k2a and k2b whole, peaked at 6.71 tables; streamed, at 3.87.
    N = 400
    table = (N + 1) ** 2 * 4 * 16
    ctrl = wk.bump_control(1.0, 0.1, 0.9, np.array([1.0, 0.5j]))
    tab = OperatorTables(field_herm2, 1.0, N)
    assert traced_peak(lambda: OperatorTables.full(tab.k0()), table) <= 2.0
    assert traced_peak(lambda: OperatorTables.full(tab.k1()), table) <= 2.0
    assert traced_peak(lambda: wk.propagate(field_herm2, ctrl, 1.0, N), table) <= 1.25
    u = np.ones((N + 1, 2), dtype=complex)
    assert traced_peak(lambda: wk.invert_W(wk.build_volterra(field_herm2, 1.0, N), u),
                       table) <= 1.25
    N = 256
    table = (N + 1) ** 2 * 4 * 16
    assert traced_peak(lambda: wk.measure_h2_bound(field_herm2, pot_herm2, 1.0, trials=100, N=N),
                       table) <= 4.5


def test_tables_are_stored_in_product_order(field_herm2):
    # every row block is stored in product order, and a product over a
    # gathered table reads it without copying it
    N = 200
    tab = OperatorTables(field_herm2, 1.0, N)
    g = np.ones((N + 1, 2), dtype=complex)
    for stream in (tab.k0(), tab.k1()):
        table = OperatorTables.full(stream)
        whole = [(slice(0, N + 1), table)]
        assert np.shares_memory(table.reshape(2 * (N + 1), -1), table)
        assert traced_peak(lambda: tab.apply(whole, g), table.nbytes) < 0.01
    for rows, block in tab.k0():
        assert block.flags.c_contiguous and block.shape == (rows.stop - rows.start, 2, N + 1, 2)


def test_triangle_cells_are_sampled_only_in_blocks_that_hold_one(monkeypatch, field_herm2):
    # k0 at N = 800 on the M = 200 field: only a block that holds a pair whose
    # xi and eta share a lattice cell calls _interp_triangle, with that pair
    N, h = 800, field_herm2.step
    tab = OperatorTables(field_herm2, 1.0, N)
    sizes = []

    def spy(arr, xi, eta, step, M):
        sizes.append(np.size(xi))
        return _interp_triangle(arr, xi, eta, step, M)

    def cell(idx):
        return np.minimum((idx * tab.delta / h).astype(int), field_herm2.M - 1)

    monkeypatch.setattr(propagator, "_interp_triangle", spy)
    holding, blocks = 0, 0
    for rows, _ in tab.k0():
        blocks += 1
        k = np.arange(rows.start, rows.stop)[:, None]
        m = np.arange(rows.start, N + 1)
        holding += bool(np.any(cell(np.maximum(m - k, 0)) >= cell(m + k)))
    assert 0 < holding < blocks
    assert len(sizes) == holding and min(sizes) > 0


def test_apply_table_batch_matches_single_controls(field_herm2):
    # a stack of controls through one product equals one call per control
    tab = OperatorTables(field_herm2, 1.0, 48)
    rng = np.random.default_rng(6)
    g = np.stack([wk.random_smooth_control(1.0, 2, rng).sample(tab.grid)[0] for _ in range(5)])
    for name in ("k0", "k1"):
        table = full_table(getattr(tab, name)())
        batch = tab.apply(getattr(tab, name)(), g)
        assert batch.shape == g.shape
        for got, one in zip(batch, g):
            single = tab.apply(getattr(tab, name)(), one)
            scale = np.abs(single).max()
            assert scale > 0.0
            assert np.abs(got - single).max() <= 1e-14 * scale
            assert np.abs(single - np.einsum("kmab,mb->ka", table, one)).max() <= 1e-14 * scale


def test_propagate_dim_mismatch(field_herm2, bump1):
    with pytest.raises(ControlError):
        wk.propagate(field_herm2, bump1, 1.0, 50)


def test_fd_solve_dim_mismatch(pot_herm2, bump1):
    with pytest.raises(ControlError, match="control dimension 1 != potential dimension 2"):
        wk.fd_solve(pot_herm2, bump1, wk.FDConfig(N_x=16, T=1.0))


@pytest.mark.parametrize("x", [0.3, 0.8], ids=["inside", "on_front"])
def test_u_tt_rejects_other_dimension(field_one, x):
    # a 2-vector control on a scalar field used to return a 2-vector
    f = wk.bump_control(1.0, 0.1, 0.9, [1.0, 1.0])
    with pytest.raises(ControlError, match="dimension"):
        wk.u_tt(field_one, f, x, 0.8)


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


@pytest.mark.parametrize("t, h_list", [
    (float("nan"), [0.1, 0.05]), (0.5, [float("nan")]), (0.5, []), (0.5, [0.1, float("inf")]),
    (-0.2, [0.1, 0.05]), (0.5, [0.1]), (0.5, [0.1, 0.1]),
], ids=["nan_t", "nan_h", "no_h", "inf_h", "negative_t", "one_h", "repeated_h"])
def test_difference_quotient_rejects_degenerate(field_one, bump1, t, h_list):
    with pytest.raises(DomainError):
        wk.difference_quotient_test(field_one, bump1, t, h_list)


def test_difference_quotient_dim_mismatch(field_one):
    f = wk.bump_control(1.0, 0.1, 0.9, np.array([1.0, 1.0j]))
    with pytest.raises(ControlError, match="dimension"):
        wk.difference_quotient_test(field_one, f, 0.5, [0.1, 0.05])


@st.composite
def bump_specs(draw, dim, lo=0.05, hi=1.0):
    """One to three bumps on [0, 1], as (start, stop, amplitude), with supports inside (lo, hi)."""
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.floats(lo, hi - 0.03))
        stop = draw(st.floats(start + 0.02, hi))
        amp = [complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
               for _ in range(dim)]
        specs.append((start, stop, np.array(amp)))
    return specs


def bump_sum(specs, alpha=1.0):
    """The control summing the bumps of specs, each amplitude times alpha."""
    ctrl = None
    for start, stop, amp in specs:
        piece = wk.bump_control(1.0, start, stop, alpha * amp)
        ctrl = piece if ctrl is None else ctrl + piece
    return ctrl


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_propagate_linear_in_the_control(field_herm2, data):
    f_specs, g = data.draw(bump_specs(2)), bump_sum(data.draw(bump_specs(2)))
    alpha = complex(data.draw(st.floats(-3.0, 3.0)), data.draw(st.floats(-3.0, 3.0)))
    N = data.draw(st.sampled_from([40, 101]))
    f = bump_sum(f_specs)
    comb = wk.propagate(field_herm2, bump_sum(f_specs, alpha) + g, 1.0, N)
    sf, sg = wk.propagate(field_herm2, f, 1.0, N), wk.propagate(field_herm2, g, 1.0, N)
    for name in ("u", "u_x", "u_xx"):
        a, b = alpha * getattr(sf, name), getattr(sg, name)
        scale = max(np.abs(a).max(), np.abs(b).max())
        assert np.abs(getattr(comb, name) - (a + b)).max() <= 1e-12 * scale, name


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_propagate_exactly_causal(field_herm2, data):
    # u(x, T) reads the control on [0, T - x] only, so a perturbation
    # supported in (T - x0, T] leaves every node x >= x0 unchanged
    T, N = 1.0, 100
    k0 = data.draw(st.integers(6, N - 6))
    x0 = k0 * (T / N)
    f = bump_sum(data.draw(bump_specs(2)))
    g = bump_sum(data.draw(bump_specs(2, lo=T - x0, hi=T)))
    base = wk.propagate(field_herm2, f, T, N)
    pert = wk.propagate(field_herm2, f + g, T, N)
    assert base.grid[k0] == x0
    for name in ("u", "u_x", "u_xx"):
        a, b = getattr(base, name), getattr(pert, name)
        assert np.abs(b[k0:] - a[k0:]).max() <= 1e-15 * np.abs(a).max(), name


BUMP = wk.bump_control(1.0, 0.1, 0.9)


@pytest.mark.parametrize("call, error, bad", against_not_numbers([
    (lambda p, f, f2, b: wk.propagate(f, BUMP, b, 32), DomainError),
    (lambda p, f, f2, b: wk.build_volterra(f, b, 32), DomainError),
    (lambda p, f, f2, b: wk.measure_h2_bound(f, p, b, trials=2, N=16), DomainError),
    (lambda p, f, f2, b: wk.certify_h2_bound(f, p, b, trials=2, N=16), DomainError),
    (lambda p, f, f2, b: OperatorTables(f, b, 8), DomainError),
    (lambda p, f, f2, b: wk.difference_quotient_test(f2, BUMP, b, [0.1, 0.05]), DomainError),
    (lambda p, f, f2, b: wk.FDConfig(N_x=16, T=b), DomainError),
    (lambda p, f, f2, b: wk.FDConfig(N_x=16, T=1.0, cfl=b), DomainError),
    (lambda p, f, f2, b: wk.bump_control(b, 0.1, 0.9), ControlError),
    (lambda p, f, f2, b: wk.ramp_control(b, 0.1, 0.9), ControlError),
    (lambda p, f, f2, b: wk.bump_control(2.0, b, 1.5), ControlError),
    (lambda p, f, f2, b: wk.bump_control(2.0, 0.5, b), ControlError),
    (lambda p, f, f2, b: wk.ramp_control(2.0, b, 1.5), ControlError),
    (lambda p, f, f2, b: wk.ramp_control(2.0, 0.5, b), ControlError),
    (lambda p, f, f2, b: wk.zero_control(b), ControlError),
    (lambda p, f, f2, b: wk.u_tt(f, BUMP, 0.3, b), DomainError),
    (lambda p, f, f2, b: wk.u_tt(f, BUMP, b, 0.5), DomainError),
    (lambda p, f, f2, b: wk.norm_constants(p, b), DomainError),
    (lambda p, f, f2, b: wk.weyl_solution(p, b, 1.0), PotentialError),
    (lambda p, f, f2, b: wk.bessel_kernel_constant(b, 0.1, 0.5), DomainError),
], ["propagate", "build_volterra", "measure_h2", "certify_h2", "tables",
    "dq_t", "fd_T", "fd_cfl", "bump", "ramp", "bump_start", "bump_stop", "ramp_start",
    "ramp_stop", "zero", "u_tt", "u_tt_x", "norm_constants", "weyl", "bessel"]))
def test_horizons_reject_bool(pot_one, field_one, field_one_2T, call, error, bad):
    # Python treats True as 1, a valid horizon (and cfl, start or stop of a
    # support, or Bessel constant); like numpy's True, a string, None and
    # NaN, it is not a number here
    with pytest.raises(error):
        call(pot_one, field_one, field_one_2T, bad)
