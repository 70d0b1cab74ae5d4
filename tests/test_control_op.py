import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavekernel as wk
from wavekernel import control_op
from wavekernel.control_op import _apply_A_with_derivatives, _dense, _sup
from wavekernel.errors import CertificationError, DomainError, SingularSystemError
from wavekernel.goursat import KernelField
from wavekernel.propagator import OperatorTables, _l2

from conftest import full_table


def test_reflect_basics():
    g = np.linspace(0, 1, 11)[:, None]
    assert np.abs(wk.reflect(wk.reflect(g)) - g).max() == 0.0
    const = np.full((7, 1), 2.5)
    assert np.abs(wk.reflect(const) - const).max() == 0.0
    assert wk.reflect(g)[0, 0] == 1.0


def test_control_to_state_zero_potential(field_zero, bump1):
    u = wk.propagate(field_zero, bump1, 1.0, 100).u
    grid = np.linspace(0, 1, 101)
    assert np.abs(u - bump1.sample(1.0 - grid)[0]).max() == 0.0


def test_control_to_state_zero_control(field_one):
    u = wk.propagate(field_one, wk.zero_control(1.0, 1), 1.0, 64).u
    assert np.abs(u).max() == 0.0


def test_control_to_state_within_singular_envelope(field_one, bump1):
    N = 256
    tab = wk.build_volterra(field_one, 1.0, N)
    s_min, s_max, _ = wk.condition_estimate(tab)
    f = bump1.sample(tab.grid)[0]
    g = wk.reflect(f)
    u = g + OperatorTables.apply(tab.k0(), g)
    r = np.linalg.norm(u) / np.linalg.norm(f)
    assert s_min - 1e-12 <= r <= s_max + 1e-12


def test_build_volterra_identity_for_zero(field_zero):
    tab = wk.build_volterra(field_zero, 1.0, 50)
    assert np.abs(full_table(tab.k0())).max() == 0.0
    g = np.random.default_rng(0).normal(size=(51, 1))
    assert np.abs(g + OperatorTables.apply(tab.k0(), g) - g).max() == 0.0


def test_build_volterra_causal_structure(field_one):
    tab = wk.build_volterra(field_one, 1.0, 40)
    ii, jj = np.meshgrid(np.arange(41), np.arange(41), indexing="ij")
    below = np.abs(full_table(tab.k0()))[jj < ii]
    assert below.max() == 0.0


def test_control_to_state_equals_volterra_after_reflection(field_one):
    # same operator through two code paths; the bump profile is symmetric, so
    # the bump on (T - 0.6, T - 0.15) is f reflected about T = 1
    N = 200
    f = wk.bump_control(1.0, 0.15, 0.6, 1.0)
    tab = wk.build_volterra(field_one, 1.0, N)
    lhs = wk.propagate(field_one, wk.bump_control(1.0, 0.4, 0.85, 1.0), 1.0, N).u
    g = f.sample(tab.grid)[0]
    rhs = g + OperatorTables.apply(tab.k0(), g)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_invert_identity_case(field_zero):
    tab = wk.build_volterra(field_zero, 1.0, 60)
    u = np.random.default_rng(1).normal(size=(61, 1)) + 0j
    g = wk.invert_W(tab, u)
    assert np.abs(g - u).max() == 0.0


def test_invert_round_trip(field_one):
    N = 200
    rng = np.random.default_rng(3)
    tab = wk.build_volterra(field_one, 1.0, N)
    for _ in range(5):
        f = wk.random_smooth_control(1.0, 1, rng)
        samples = f.sample(tab.grid)[0]
        u = wk.propagate(field_one, f, 1.0, N).u
        rec = wk.reflect(wk.invert_W(tab, u))
        num = np.sqrt(np.trapezoid(np.sum(np.abs(rec - samples) ** 2, 1), tab.grid))
        den = np.sqrt(np.trapezoid(np.sum(np.abs(samples) ** 2, 1), tab.grid))
        assert num / den < 1e-10


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1),
       start=st.floats(0.05, 0.5), width=st.floats(0.1, 0.45))
def test_invert_recovers_applied_control(n, seed, start, width):
    # invert_W(build_volterra(...), propagate(...).u) is the identity on reflected samples
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
    herm = 0.5 * (a + a.conj().transpose(0, 2, 1))
    xs = np.linspace(0.0, 2.0, 513)
    p = wk.sampled_potential(xs, herm[0] + np.cos(3.0 * xs)[:, None, None] * herm[1])
    field = wk.solve_goursat(p, 1.0, 1 / 40, 1e-10)
    f = wk.bump_control(1.0, start, start + width, rng.normal(size=n) + 1j * rng.normal(size=n))
    N = 80
    tab = wk.build_volterra(field, 1.0, N)
    g = wk.invert_W(tab, wk.propagate(field, f, 1.0, N).u)
    want = wk.reflect(f.sample(tab.grid)[0])
    assert np.abs(g - want).max() <= 1e-10 * np.abs(want).max()


def test_invert_shape_check(field_one):
    tab = wk.build_volterra(field_one, 1.0, 50)
    with pytest.raises(DomainError):
        wk.invert_W(tab, np.zeros((44, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_invert_rejects_non_finite_snapshot(field_one, bad):
    tab = wk.build_volterra(field_one, 1.0, 50)
    u = np.zeros((51, 1), dtype=complex)
    u[7] = bad
    with pytest.raises(DomainError, match="finite"):
        wk.invert_W(tab, u)


def test_volterra_apply_rejects_bad_samples(field_herm2):
    tab = wk.build_volterra(field_herm2, 1.0, 10)
    with pytest.raises(DomainError, match="shape"):
        wk.invert_W(tab, np.ones((5, 2)))
    g = np.ones((11, 2), dtype=complex)
    g[4, 1] = np.nan
    with pytest.raises(DomainError, match="finite"):
        wk.invert_W(tab, g)


def test_neumann_rejects_bad_snapshot(field_one):
    tab = wk.build_volterra(field_one, 1.0, 50)
    with pytest.raises(DomainError, match="shape"):
        wk.neumann_partial_sums(tab, np.zeros((44, 1)), 3)
    u = np.zeros((51, 1), dtype=complex)
    u[3] = np.nan
    with pytest.raises(DomainError, match="finite"):
        wk.neumann_partial_sums(tab, u, 3)


@pytest.mark.parametrize("terms", [-1, 2.5, True, "3", None])
def test_neumann_rejects_bad_term_count(field_one, terms):
    tab = wk.build_volterra(field_one, 1.0, 50)
    with pytest.raises(DomainError, match="terms must be an integer >= 0"):
        wk.neumann_partial_sums(tab, np.zeros((51, 1), dtype=complex), terms)


def test_neumann_zero_terms_is_the_snapshot(field_one):
    tab = wk.build_volterra(field_one, 1.0, 50)
    u = np.ones((51, 1), dtype=complex)
    sums = wk.neumann_partial_sums(tab, u, np.int64(0))
    assert len(sums) == 1 and np.array_equal(sums[0], u)


class _StoredK0:
    """Stands in for OperatorTables: streams one stored (N+1, n, N+1, n) k0
    table as a single block of rows."""

    def __init__(self, table):
        self.table = table
        self.field = types.SimpleNamespace(dim=table.shape[1])
        self.grid = np.linspace(0, 1, len(table))

    def k0(self):
        yield slice(0, len(self.table)), self.table


def test_invert_singular_block():
    table = np.zeros((4, 1, 4, 1), dtype=complex)
    table[1, 0, 1, 0] = -1.0          # diagonal block becomes exactly zero
    with pytest.raises(SingularSystemError):
        wk.invert_W(_StoredK0(table), np.ones((4, 1), dtype=complex))


def test_neumann_converges_to_substitution(field_one, bump1):
    N = 150
    tab = wk.build_volterra(field_one, 1.0, N)
    u = wk.propagate(field_one, bump1, 1.0, N).u
    exact = wk.invert_W(tab, u)
    sums = wk.neumann_partial_sums(tab, u, 20)
    errs = np.array([np.abs(s - exact).max() for s in sums])
    assert np.all(errs[1:8] < errs[:7])          # decreasing from the start
    assert errs[-1] < 1e-12
    ratios = errs[1:7] / errs[:6]                # pre-plateau contraction factors
    assert ratios[-1] < ratios[0]                # factorial-type acceleration
    same = wk.neumann_partial_sums(tab, u, 25)[-1]
    assert np.abs(same - exact).max() < 1e-12


def test_h2_norm_values():
    grid = np.linspace(0, 1, 2001)
    z = np.zeros((2001, 1), dtype=complex)
    assert wk.h2_norm(grid, z, z, z) == 0.0
    g = grid[:, None].astype(complex) ** 2
    val = wk.h2_norm(grid, g, 2 * grid[:, None], np.full((2001, 1), 2.0 + 0j))
    assert val == pytest.approx(np.sqrt(83.0 / 15.0), abs=1e-5)
    # spline fallback reproduces the explicit derivatives
    val2 = wk.h2_norm(grid, g)
    assert val2 == pytest.approx(val, rel=1e-6)


@pytest.mark.parametrize("case", ["one_node", "two_nodes_no_g2", "nan_sample", "inf_g2",
                                  "decreasing", "repeated_node", "nan_node", "empty",
                                  "length", "g1_length", "grid_2d", "scalar_samples",
                                  "spline_overflows", "spline_not_differentiable"])
def test_h2_norm_rejects_bad_input(case):
    # each case used to end in a bare ValueError or IndexError from the spline fit;
    # spline_overflows returned nan
    grid = np.linspace(0, 1, 11)
    g, g1, g2 = grid ** 2, 2 * grid, np.full(11, 2.0)
    if case == "one_node":
        grid, g, g1, g2 = grid[:1], g[:1], None, None
    elif case == "two_nodes_no_g2":
        grid, g, g1, g2 = grid[:2], g[:2], g1[:2], None
    elif case == "nan_sample":
        g[4], g1, g2 = np.nan, None, None
    elif case == "inf_g2":
        g2[4] = np.inf
    elif case == "decreasing":
        grid, g1, g2 = grid[::-1], None, None
    elif case == "repeated_node":
        grid[5] = grid[4]
    elif case == "nan_node":
        grid[5] = np.nan
    elif case == "empty":
        grid, g, g1, g2 = grid[:0], g[:0], None, None
    elif case == "length":
        g, g1, g2 = g[:10], None, None
    elif case == "g1_length":
        g1 = g1[:10]
    elif case == "scalar_samples":        # used to end in an IndexError
        g, g1, g2 = 0.5, None, None
    elif case.startswith("spline"):       # finite samples; the spline's derivatives overflow
        grid = np.linspace(0, 1, 21)
        scale = 1e305 if case == "spline_overflows" else 1e306
        g, g1, g2 = np.where(grid > 0.3, scale, 0) * np.sin(40 * grid), None, None
    else:
        grid = np.stack([grid, grid])
    with pytest.raises(DomainError):
        wk.h2_norm(grid, g, g1, g2)


def test_h2_norm_unitary_invariant():
    rng = np.random.default_rng(8)
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    grid = np.linspace(0, 1, 301)
    g = np.stack([np.sin(3 * grid), np.cos(2 * grid)], axis=1).astype(complex)
    g1 = np.stack([3 * np.cos(3 * grid), -2 * np.sin(2 * grid)], axis=1).astype(complex)
    g2 = np.stack([-9 * np.sin(3 * grid), -4 * np.cos(2 * grid)], axis=1).astype(complex)
    a = wk.h2_norm(grid, g, g1, g2)
    b = wk.h2_norm(grid, g @ u.T, g1 @ u.T, g2 @ u.T)
    assert a == pytest.approx(b, rel=1e-12)


def test_apply_A_derivative_formulas(pot_quad):
    # the explicit (A f)' and (A f)'' formulas agree with differencing A f
    field = wk.solve_goursat(pot_quad, 1.0, 1 / 200, 1e-11)
    N = 800
    tab = OperatorTables(field, 1.0, N)
    f = wk.bump_control(1.0, 0.1, 0.85, 1.3)
    f0, f1, _ = f.sample(tab.grid)
    Af, Af1, Af2 = _apply_A_with_derivatives(tab, f0, f1)
    dx = tab.grid[1] - tab.grid[0]
    fd1 = np.gradient(Af[:, 0], dx)
    fd2 = np.gradient(Af1[:, 0], dx)
    assert np.abs(fd1[3:-3] - Af1[3:-3, 0]).max() < 1e-4
    assert np.abs(fd2[3:-3] - Af2[3:-3, 0]).max() < 1e-3


def test_certify_zero_potential(pot_zero, field_zero):
    rep = wk.certify_h2_bound(field_zero, pot_zero, 1.0, trials=10, N=64, seed=1)
    assert rep.bound_i == 0.0 and rep.ratio_i == 0.0
    assert rep.empirical_ratio == 0.0
    assert rep.inverse_ratio == pytest.approx(1.0, abs=1e-12)


def test_certify_q1(pot_one, field_one):
    rep = wk.certify_h2_bound(field_one, pot_one, 1.0, trials=40, N=128, seed=2)
    assert rep.ratio_i <= rep.bound_i
    assert rep.ratio_ii <= rep.bound_ii
    assert rep.ratio_iii <= rep.bound_iii
    assert rep.empirical_ratio <= rep.composite_bound
    assert rep.a1 == pytest.approx(0.5, abs=1e-10)
    assert rep.a2 == pytest.approx(1.0, abs=1e-10)
    assert np.isfinite(rep.b3)


@pytest.mark.parametrize("name", ["one", "herm2"])
def test_measure_matches_per_trial_loop(request, name):
    # the stacked trials give the ratios of the per-trial loop they replaced
    field = request.getfixturevalue(f"field_{name}")
    p = request.getfixturevalue(f"pot_{name}")
    T, N, trials, seed = 1.0, 128, 7, 4
    tab = OperatorTables(field, T, N)
    grid = tab.grid
    rng = np.random.default_rng(seed)
    r_i = r_ii = r_iii = r_h2 = r_inv = 0.0
    for _ in range(trials):
        f = wk.random_smooth_control(T, field.dim, rng)
        f0, f1, f2 = f.sample(grid)
        Af, Af1, Af2 = _apply_A_with_derivatives(tab, f0, f1)
        l2_f = _l2(grid, f0)
        sup_f = _sup(f0)
        c1_f = max(sup_f, _sup(f1))
        h2_f = math.sqrt(_l2(grid, f0) ** 2 + _l2(grid, f1) ** 2 + _l2(grid, f2) ** 2)
        h2_Af = math.sqrt(_l2(grid, Af) ** 2 + _l2(grid, Af1) ** 2 + _l2(grid, Af2) ** 2)
        h2_Wf = math.sqrt(_l2(grid, f0 + Af) ** 2 + _l2(grid, f1 + Af1) ** 2
                          + _l2(grid, f2 + Af2) ** 2)
        if l2_f > 0:
            r_i = max(r_i, _sup(Af) / l2_f)
        if sup_f > 0:
            r_ii = max(r_ii, _sup(Af1) / sup_f)
        if c1_f > 0:
            r_iii = max(r_iii, _l2(grid, Af2) / c1_f)
        if h2_f > 0:
            r_h2 = max(r_h2, h2_Af / h2_f)
        if h2_Wf > 0:
            r_inv = max(r_inv, h2_f / h2_Wf)
    rep = wk.measure_h2_bound(field, p, T, trials=trials, N=N, seed=seed)
    got = [rep.ratio_i, rep.ratio_ii, rep.ratio_iii, rep.empirical_ratio, rep.inverse_ratio]
    for value, ref in zip(got, [r_i, r_ii, r_iii, r_h2, r_inv]):
        assert ref > 0.0 and abs(value - ref) <= 1e-12 * ref


def test_trials_are_sampled_without_a_control_each(monkeypatch, pot_one, field_one):
    # 100 trials used to make 500 Controls: 3 bumps and 2 sums per trial
    made = []
    init = wk.Control.__post_init__

    def counted(self):
        made.append(self)
        init(self)

    monkeypatch.setattr(wk.Control, "__post_init__", counted)
    wk.measure_h2_bound(field_one, pot_one, 1.0, trials=100, N=32, seed=0)
    assert len(made) < 5, made[:5]


def test_tables_are_built_before_the_trials_are_drawn(monkeypatch, pot_herm2, field_herm2):
    # drawn first, the trials sit under the field's derived tables and raise
    # the peak memory of bounds
    field = dataclasses.replace(field_herm2)        # a copy starts without tables
    calls = []
    build, draw = KernelField._build_tables, control_op._random_smooth_samples

    def built(self):
        calls.append("tables")
        build(self)

    def drawn(*args):
        calls.append("trials")
        return draw(*args)

    monkeypatch.setattr(KernelField, "_build_tables", built)
    monkeypatch.setattr(control_op, "_random_smooth_samples", drawn)
    wk.measure_h2_bound(field, pot_herm2, 1.0, trials=4, N=32, seed=0)
    assert calls == ["tables", "trials"]


@pytest.mark.parametrize("trials", [0, -5, 2.5, True])
@pytest.mark.parametrize("entry", [wk.measure_h2_bound, wk.certify_h2_bound],
                         ids=["measure_h2_bound", "certify_h2_bound"])
def test_degenerate_trials_rejected(pot_one, field_one, entry, trials):
    with pytest.raises(DomainError, match="trials must be an integer"):
        entry(field_one, pot_one, 1.0, trials=trials, N=16)


@pytest.mark.parametrize("seed", [-1, 1.5, True, None, "3"])
@pytest.mark.parametrize("entry", [wk.measure_h2_bound, wk.certify_h2_bound],
                         ids=["measure_h2_bound", "certify_h2_bound"])
def test_bad_seed_rejected(pot_one, field_one, entry, seed):
    with pytest.raises(DomainError, match="seed must be an integer >= 0"):
        entry(field_one, pot_one, 1.0, trials=2, N=16, seed=seed)


def test_seed_recorded_as_int(pot_one, field_one):
    rep = wk.measure_h2_bound(field_one, pot_one, 1.0, trials=2, N=16, seed=np.int64(5))
    assert type(rep.seed) is int and rep.seed == 5
    assert rep == wk.measure_h2_bound(field_one, pot_one, 1.0, trials=2, N=16, seed=5)


def test_certify_raises_where_measure_reports(monkeypatch, pot_one, field_one):
    monkeypatch.setattr(control_op, "norm_constants", lambda p, T: (0.0, 0.0))
    monkeypatch.setattr(control_op, "kernel_constants",
                        lambda f: wk.KernelConstants(0.0, 0.0, 0.0, 0.0))
    rep = wk.measure_h2_bound(field_one, pot_one, 1.0, trials=3, N=64, seed=2)
    assert rep.composite_bound == 0.0 and rep.empirical_ratio > 0.0
    with pytest.raises(CertificationError, match="exceeds"):
        wk.certify_h2_bound(field_one, pot_one, 1.0, trials=3, N=64, seed=2)


@pytest.mark.parametrize("ratio, bound", [("ratio_i", "bound_i"), ("ratio_ii", "bound_ii"),
                                          ("ratio_iii", "bound_iii"),
                                          ("empirical_ratio", "composite_bound")])
def test_h2_verdict_allows_rounding_slack(pot_one, field_one, ratio, bound):
    rep = wk.measure_h2_bound(field_one, pot_one, 1.0, trials=3, N=64, seed=2)
    assert rep.violations() == []
    near = dataclasses.replace(rep, **{ratio: getattr(rep, bound) * (1 + 1e-10)})
    far = dataclasses.replace(rep, **{ratio: getattr(rep, bound) * (1 + 1e-6)})
    assert near.violations() == []
    assert len(far.violations()) == 1 and "exceeds" in far.violations()[0]


def test_dense_columns_are_apply_on_unit_vectors(field_herm2):
    tab = wk.build_volterra(field_herm2, 1.0, 24)
    units = np.eye(25 * field_herm2.dim).reshape(-1, 25, field_herm2.dim)
    cols = [(e + OperatorTables.apply(tab.k0(), e)).ravel() for e in units]
    assert np.array_equal(_dense(tab), np.stack(cols, axis=1))


def test_condition_zero_potential(field_zero):
    s_min, s_max, cond = wk.condition_estimate(wk.build_volterra(field_zero, 1.0, 80))
    assert s_min == 1.0 and s_max == 1.0 and cond == 1.0


def test_condition_stable_under_refinement(field_one):
    _, _, c1 = wk.condition_estimate(wk.build_volterra(field_one, 1.0, 128))
    _, _, c2 = wk.condition_estimate(wk.build_volterra(field_one, 1.0, 256))
    assert abs(c2 - c1) / c1 < 0.01


def test_condition_unitary_invariant():
    rng = np.random.default_rng(12)
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    c = np.array([[1.0, 0.3 + 0.4j], [0.3 - 0.4j, 2.0]])
    pa = wk.constant_potential(c, x_max=1.0, step=1 / 256)
    pb = wk.constant_potential(u @ c @ u.conj().T, x_max=1.0, step=1 / 256)
    fa = wk.solve_goursat(pa, 1.0, 1 / 50, 1e-10)
    fb = wk.solve_goursat(pb, 1.0, 1 / 50, 1e-10)
    _, _, ca = wk.condition_estimate(wk.build_volterra(fa, 1.0, 100))
    _, _, cb = wk.condition_estimate(wk.build_volterra(fb, 1.0, 100))
    assert ca == pytest.approx(cb, rel=1e-8)


def test_condition_cap(field_one):
    with pytest.raises(DomainError):
        wk.condition_estimate(OperatorTables(field_one, 1.0, 2000))
