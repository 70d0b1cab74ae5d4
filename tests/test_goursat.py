import csv
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavekernel as wk
from wavekernel.errors import DomainError
from wavekernel.fileio import write_json
from wavekernel.goursat import _interp_triangle, _lattice_setup, _region, _v0_lattice
from wavekernel.potential import potential_from_callable

from conftest import (against_not_numbers, full_v0, lattice_xt, region_interior, shortest,
                      streamed_V, traced_peak)


def node_norms(arr):
    return np.sqrt(np.sum(np.abs(arr) ** 2, axis=(-2, -1)))


def test_initial_v0_zero(pot_zero):
    f = wk.initial_v0(pot_zero, 1.0, 1 / 20)
    assert np.abs(f.v).max() == 0.0
    assert f.iterations == 0


def test_initial_v0_constant():
    # on twice the horizon, so the field holds the whole triangle of T = 1
    c = 1.7
    p = wk.constant_potential(c, x_max=2.0, step=1 / 128)
    f = wk.initial_v0(p, 2.0, 1 / 20)
    M = f.M
    assert f.v.shape == (M // 2 + 2, M + 1, 1, 1)
    ii, jj = np.indices(f.v.shape[:2])
    expect = -c * (jj - ii) * f.step / 4.0
    got = f.v[..., 0, 0].real
    assert np.abs(got - np.where(_region(M), expect, 0.0)).max() < 1e-13


def test_initial_v0_diag():
    p = wk.constant_potential(np.diag([1.0, 2.0]), x_max=1.0, step=1 / 128)
    f = wk.initial_v0(p, 1.0, 1 / 10)
    i, j = 2, 6
    gap = (j - i) * f.step
    expect = np.diag([-gap / 4.0, -gap / 2.0])
    assert np.abs(f.v[i, j] - expect).max() < 1e-13


def test_apply_V_zero_field(pot_one):
    # V_h through the library's row-block step, on a whole square
    _, qh = _lattice_setup(pot_one, 1.0, 1 / 10)
    for dtype in (complex, float):
        z = np.zeros((21, 21, 1, 1), dtype=dtype)
        assert np.abs(streamed_V(qh, z, 1 / 10)).max() == 0.0


@pytest.mark.parametrize("call, name, bad", against_not_numbers([
    (lambda p, bad: wk.solve_goursat(p, bad, 1 / 10, 1e-10), "T"),
    (lambda p, bad: wk.solve_goursat(p, 1.0, bad, 1e-10), "h"),
    (lambda p, bad: wk.solve_goursat(p, 1.0, 1 / 10, bad), "tol"),
    (lambda p, bad: wk.initial_v0(p, bad, 1 / 10), "T"),
    (lambda p, bad: wk.initial_v0(p, 1.0, bad), "h"),
], ["solve-T", "solve-h", "solve-tol", "v0-T", "v0-h"]))
def test_entry_points_reject_bool(pot_one, call, name, bad):
    # Python treats True as 1, which is a valid T, h and tol; like numpy's
    # True, a string, None and NaN, it is not a number here
    with pytest.raises(DomainError, match=f"^{name} must be a finite real number > 0, "):
        call(pot_one, bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_q_at_rejects_non_finite_points(field_one, bad):
    with pytest.raises(DomainError, match="non-finite"):
        field_one.q_at(bad)
    with pytest.raises(DomainError, match="non-finite"):
        field_one.q_at(np.array([0.25, bad]))


def test_apply_V_constant_closed_form():
    c = 1.0
    p = wk.constant_potential(c, x_max=1.0, step=1 / 256)
    h = 1 / 50
    _, qh = _lattice_setup(p, 1.0, h)
    out = streamed_V(qh, full_v0(p, 1.0, h), h)
    M = out.shape[0] - 1
    ii, jj = np.meshgrid(np.arange(M + 1), np.arange(M + 1), indexing="ij")
    xi = ii * h
    eta = jj * h
    exact = c**2 * (eta**3 - xi**3 - (eta - xi) ** 3) / 96.0
    err = np.abs(out[..., 0, 0] - np.where(ii <= jj, exact, 0.0)).max()
    assert err < 5 * h**2
    # the first characteristic edge is exactly unchanged
    assert np.abs(out[0]).max() == 0.0


def test_solve_zero_one_sweep(field_zero):
    assert field_zero.iterations == 1
    assert np.abs(field_zero.v).max() == 0.0
    assert field_zero.tail_bound == 0.0


def test_solve_apriori_bound(field_one):
    # |v(xi, eta)| <= S(eta) exp(xi S(eta)) + tail at every node, S = eta/4
    count, excess = wk.bound_violations(field_one)
    assert count == 0
    assert excess == 0.0


def test_solve_diagonal_exact(field_one, field_one_2T):
    idx = np.arange(field_one.M + 1)
    assert np.abs(field_one_2T.v[idx, idx]).max() == 0.0


def test_solve_matches_bessel(field_one_2T):
    xs, ts, mask = lattice_xt(field_one_2T)
    ref = wk.bessel_kernel_constant(1.0, xs[mask], ts[mask])
    got = field_one_2T.v[..., 0, 0][mask]
    assert np.abs(got - ref).max() < 10 * field_one_2T.step**2


def test_solve_rejects_bad_grid(pot_one):
    with pytest.raises(DomainError):
        wk.solve_goursat(pot_one, 1.0, 0.3, 1e-8)     # does not divide 2T evenly
    with pytest.raises(DomainError):
        wk.solve_goursat(pot_one, 1.0, 2 / 3, 1e-8)   # M odd
    small = wk.preset_potential("one", x_max=0.5, step=1 / 64)
    with pytest.raises(DomainError):
        wk.solve_goursat(small, 1.0, 1 / 10, 1e-8)    # potential domain too short


def test_kernel_w_edges(field_one, pot_one):
    # left edge: w(0, t) = 0 exactly
    for t in (0.0, 0.3, 0.77, 1.0):
        assert np.abs(wk.kernel_w(field_one, 0.0, t)).max() == 0.0
    # diagonal: w(t, t) = -(1/2) integral of q
    for t in (0.2, 0.5, 1.0):
        ref = -0.5 * wk.integral_Q(pot_one, 0.0, t)
        assert np.abs(wk.kernel_w(field_one, t, t) - ref).max() < 1e-10
    with pytest.raises(DomainError):
        wk.kernel_w(field_one, 0.6, 0.5)


def test_kernel_w_bessel_point(field_one):
    got = wk.kernel_w(field_one, 0.5, 1.0)[0, 0]
    ref = wk.bessel_kernel_constant(1.0, 0.5, 1.0)
    assert abs(got - ref) < 10 * field_one.step**2


def test_split_w(field_zero, field_one, pot_zero, pot_one):
    w0, wt = wk.split_w(pot_zero, field_zero, 0.3, 0.8)
    assert np.abs(w0).max() == 0.0 and np.abs(wt).max() == 0.0
    w0, wt = wk.split_w(pot_one, field_one, 0.3, 0.8)
    assert w0[0, 0] == pytest.approx(-0.3 / 2.0, abs=1e-12)
    # diagonal: the smooth part vanishes
    w0, wt = wk.split_w(pot_one, field_one, 0.6, 0.6)
    assert np.abs(wt).max() < 1e-10


def test_derivatives_v_zero(pot_zero, field_zero):
    v_xi, v_eta = wk.derivatives_v(pot_zero, field_zero, 0.3, 0.7)
    assert np.abs(v_xi).max() == 0.0 and np.abs(v_eta).max() == 0.0


def test_derivatives_v0_pointwise_terms(pot_one, field_zero):
    # with a vanishing field the line integrals drop out and only the
    # explicit-part derivatives +-q/4 remain
    v_xi, v_eta = wk.derivatives_v(pot_one, field_zero, 0.4, 1.2)
    assert v_xi[0, 0] == pytest.approx(0.25, abs=1e-13)
    assert v_eta[0, 0] == pytest.approx(-0.25, abs=1e-13)


def test_derivatives_v_finite_difference(pot_one, field_one):
    eps = 1e-4
    xi, eta = 0.35, 0.9
    v_xi, v_eta = wk.derivatives_v(pot_one, field_one, xi, eta)

    def v_at(a, b):
        return _interp_triangle(field_one.v, a, b, field_one.step, field_one.M)

    fd_xi = (v_at(xi + eps, eta) - v_at(xi - eps, eta)) / (2 * eps)
    fd_eta = (v_at(xi, eta + eps) - v_at(xi, eta - eps)) / (2 * eps)
    assert np.abs(v_xi - fd_xi).max() < 10 * field_one.step
    assert np.abs(v_eta - fd_eta).max() < 10 * field_one.step


def test_wtilde_x_zero(field_zero):
    assert np.abs(wk.wtilde_x(field_zero, 0.2, 0.6)).max() == 0.0


def test_wtilde_x_finite_difference(field_one):
    h = field_one.step
    wt = field_one.v - _v0_lattice(field_one.qh, field_one.step)
    for (x, t) in [(0.25, 0.75), (0.1, 0.5), (0.4, 0.9)]:
        i, j = int(round((t - x) / h)), int(round((t + x) / h))
        fd = (wt[i - 1, j + 1] - wt[i + 1, j - 1])[0, 0] / (2 * h)
        got = wk.wtilde_x(field_one, x, t)[0, 0]
        assert abs(got - fd) < 10 * h


def test_wtilde_x_bessel(field_one):
    # d/dx of the closed form minus the explicit-part derivative
    x, t = 0.3, 0.8
    eps = 1e-5
    wb = lambda xx: wk.bessel_kernel_constant(1.0, xx, t)
    dw = (wb(x + eps) - wb(x - eps)) / (2 * eps)
    w0x = -0.5  # for q = 1 the explicit part is -x/2
    got = wk.wtilde_x(field_one, x, t)[0, 0]
    assert abs(got - (dw - w0x)) < 10 * field_one.step


def test_wtt_zero(field_zero):
    assert np.abs(wk.wtt_explicit(field_zero, 0.2, 0.7)).max() == 0.0


@pytest.mark.parametrize("preset", ["one_plus_quadratic", "herm2"])
def test_wtt_second_difference(preset):
    # the stencils of the T = 1 region's interior, on a field of horizon 2T
    p = wk.preset_potential(preset, x_max=2.0, step=1 / 2048)
    h = 1 / 100
    fld = wk.solve_goursat(p, 2.0, h, 1e-11)
    wt = fld.v - _v0_lattice(fld.qh, fld.step)
    i, j = region_interior(fld.M // 2)
    num = (wt[i + 1, j + 1] - 2 * wt[i, j] + wt[i - 1, j - 1]) / h**2
    err = node_norms(num - fld.wtt_lattice()[i, j]).max()
    assert err < 5e-4


def test_wtt_pde_identity(pot_one, field_one):
    # second space derivative of the smooth part equals wtt + q w
    h = field_one.step
    wt = field_one.v - _v0_lattice(field_one.qh, field_one.step)
    i, j = region_interior(field_one.M)
    i, j = i[i + 1 < j], j[i + 1 < j]
    num = (wt[i - 1, j + 1] - 2 * wt[i, j] + wt[i + 1, j - 1]) / h**2
    assert node_norms(num - field_one.wxx_lattice()[i, j]).max() < 5e-4


def test_kernel_constants_zero(field_zero):
    kc = wk.kernel_constants(field_zero)
    assert (kc.b1, kc.b2, kc.b3, kc.b4) == (0.0, 0.0, 0.0, 0.0)


def test_kernel_constants_chain_bound(pot_one, field_one):
    a1, _ = wk.norm_constants(pot_one, 1.0)
    kc = wk.kernel_constants(field_one)
    chain = 2 * a1 * kc.b4 + 3 * a1**2 / 4 + 6 * a1**2 / 8 + 9 * a1**2 * kc.b4 / 4
    assert 0 < kc.b3 < 1.0 * chain**2
    assert kc.b4 == pytest.approx(0.5, abs=1e-6)


def test_kernel_constants_unitary_invariant():
    rng = np.random.default_rng(9)
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    c = np.array([[1.0, 0.3 + 0.4j], [0.3 - 0.4j, 2.0]])
    pa = wk.constant_potential(c, x_max=1.0, step=1 / 256)
    pb = wk.constant_potential(u @ c @ u.conj().T, x_max=1.0, step=1 / 256)
    fa = wk.solve_goursat(pa, 1.0, 1 / 50, 1e-10)
    fb = wk.solve_goursat(pb, 1.0, 1 / 50, 1e-10)
    ka = wk.kernel_constants(fa)
    kb = wk.kernel_constants(fb)
    for name in ("b1", "b2", "b3", "b4"):
        assert getattr(ka, name) == pytest.approx(getattr(kb, name), rel=1e-10, abs=1e-12)


def test_check_goursat_zero(pot_zero, field_zero):
    rep = wk.check_goursat(pot_zero, field_zero)
    assert rep.diag_residual == 0.0
    assert rep.edge_residual == 0.0
    assert rep.interior_residual == 0.0
    assert rep.bound_violations == 0


def test_check_goursat_q1(pot_one, field_one_fine):
    rep = wk.check_goursat(pot_one, field_one_fine)
    assert rep.diag_residual == 0.0
    assert rep.edge_residual < 1e-12          # constant q: quadrature exact
    assert rep.interior_residual < 20 * field_one_fine.step


def test_check_goursat_edge_order(pot_quad):
    edges = []
    for h in (1 / 50, 1 / 100):
        fld = wk.solve_goursat(pot_quad, 1.0, h, 1e-10)
        edges.append(wk.check_goursat(pot_quad, fld).edge_residual)
    order = np.log2(edges[0] / edges[1])
    assert order > 1.8


def test_unitary_equivariance_field():
    # on horizon 2T, so the fields hold the whole triangle of T = 1
    rng = np.random.default_rng(17)
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    c = np.array([[1.0, 0.3 + 0.4j], [0.3 - 0.4j, 2.0]])
    tol = 1e-9
    pa = wk.constant_potential(c, x_max=2.0, step=1 / 256)
    pb = wk.constant_potential(u @ c @ u.conj().T, x_max=2.0, step=1 / 256)
    fa = wk.solve_goursat(pa, 2.0, 1 / 50, tol)
    fb = wk.solve_goursat(pb, 2.0, 1 / 50, tol)
    conj = np.einsum("ab,ijbc,dc->ijad", u, fa.v, u.conj())
    assert np.abs(fb.v - conj).max() < 10 * tol


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]))
def test_unitary_equivariance_random_potentials(seed, n):
    # q -> U q U* maps the kernel v -> U v U* for every Hermitian q
    rng = np.random.default_rng(seed)
    base, wave = (rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))) / 4
    base, wave = base + base.conj().T, wave + wave.conj().T
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))

    def q(xs):
        return base + np.cos(3.0 * xs)[:, None, None] * wave

    tol = 1e-10
    pa = potential_from_callable(q, n, 1.0, 1 / 256)
    pb = potential_from_callable(lambda xs: u @ q(xs) @ u.conj().T, n, 1.0, 1 / 256)
    fa = wk.solve_goursat(pa, 1.0, 1 / 20, tol)
    fb = wk.solve_goursat(pb, 1.0, 1 / 20, tol)
    conj = np.einsum("ab,ijbc,dc->ijad", u, fa.v, u.conj())
    assert np.abs(fb.v - conj).max() < 10 * tol


def test_diagonal_decoupling():
    # on horizon 2T, so the fields hold the whole triangle of T = 1
    tol = 1e-9
    pd = wk.constant_potential(np.diag([1.0, 4.0]), x_max=2.0, step=1 / 256)
    fd = wk.solve_goursat(pd, 2.0, 1 / 50, tol)
    f1 = wk.solve_goursat(wk.constant_potential(1.0, 2.0, 1 / 256), 2.0, 1 / 50, tol)
    f4 = wk.solve_goursat(wk.constant_potential(4.0, 2.0, 1 / 256), 2.0, 1 / 50, tol)
    assert np.abs(fd.v[..., 0, 0] - f1.v[..., 0, 0]).max() < 10 * tol
    assert np.abs(fd.v[..., 1, 1] - f4.v[..., 0, 0]).max() < 10 * tol
    assert np.abs(fd.v[..., 0, 1]).max() < 10 * tol


def test_picard_tail_dominates(pot_one):
    # measured sweep-to-sweep change is eventually below the factorial tail
    from wavekernel.goursat import _tail_bound
    from wavekernel.potential import _opnorms
    M, qh = _lattice_setup(pot_one, 1.0, 1 / 50)
    v0 = full_v0(pot_one, 1.0, 1 / 50)
    S = float(0.5 * np.trapezoid(_opnorms(qh), dx=1 / 100))
    v = v0.copy()
    for sweep in range(1, 12):
        v_new = v0 + streamed_V(qh, v, 1 / 50)
        delta = node_norms(v_new - v).max()
        v = v_new
        if sweep >= 4:
            assert delta <= _tail_bound(S, 2.0, sweep - 1) + 1e-14
    assert delta < 1e-10


def test_picard_memory_guard(pot_herm2):
    # 2x2 at M = 200, in full squares of (M+1)^2 n^2 complex values.  The sweeps
    # hold v0 and v and update v in place, one block of rows at a time (2.27),
    # with no square of gathered q, V v or the next v; the field then holds
    # the half-square v alone
    square = 201 ** 2 * 4 * 16
    solve = lambda: wk.solve_goursat(pot_herm2, 1.0, 1 / 100, 1e-10, method="picard")
    assert traced_peak(solve, square) <= 2.5


def test_dump_load_roundtrip(tmp_path, pot_herm2, field_herm2):
    csv_path = tmp_path / "k.csv"
    json_path = tmp_path / "k.json"
    wk.dump_kernel(field_herm2, csv_path, json_path)
    back = wk.load_kernel(csv_path, json_path, pot_herm2)
    assert back.M == field_herm2.M
    assert np.abs(back.v - field_herm2.v).max() < 1e-15
    assert back.iterations == field_herm2.iterations
    assert np.array_equal(back.v, field_herm2.v)
    M = back.M
    assert len(csv_path.read_bytes().splitlines()) == 1 + (M // 2 + 1) * (M // 2 + 2) - 1


def test_solve_and_load_build_no_tables(tmp_path, pot_herm2):
    # the derived tables are built on first use, so a solved or loaded field
    # holds v alone, and the dump builds none
    fields = [wk.solve_goursat(pot_herm2, 1.0, 1 / 50, 1e-10, method=method)
              for method in ("picard", "march")]
    wk.dump_kernel(fields[1], tmp_path / "k.csv", tmp_path / "k.json")
    fields.append(wk.load_kernel(tmp_path / "k.csv", tmp_path / "k.json", pot_herm2))
    for f in fields:
        assert f._wx_lat is None and f._wtt_lat is None


def test_load_reads_a_summary_with_the_kernel_constants(tmp_path, pot_herm2, field_herm2):
    # earlier versions also wrote the kernel constants b1-b4 into kernel.json;
    # such a summary loads as the summary without them does
    wk.dump_kernel(field_herm2, tmp_path / "k.csv", tmp_path / "k.json")
    meta = json.loads((tmp_path / "k.json").read_text())
    kc = wk.kernel_constants(dataclasses.replace(field_herm2))
    write_json(tmp_path / "old.json", {**meta, "b1": kc.b1, "b2": kc.b2, "b3": kc.b3, "b4": kc.b4})
    new = wk.load_kernel(tmp_path / "k.csv", tmp_path / "k.json", pot_herm2)
    old = wk.load_kernel(tmp_path / "k.csv", tmp_path / "old.json", pot_herm2)
    assert np.array_equal(old.v, new.v) and np.array_equal(old.v, field_herm2.v)
    assert (old.T, old.step, old.iterations, old.tail_bound) == (
        new.T, new.step, new.iterations, new.tail_bound)


def test_every_field_has_the_half_square_layout(tmp_path, pot_herm2, field_herm2):
    wk.dump_kernel(field_herm2, tmp_path / "k.csv", tmp_path / "k.json")
    loaded = wk.load_kernel(tmp_path / "k.csv", tmp_path / "k.json", pot_herm2)
    for f in (field_herm2, wk.initial_v0(pot_herm2, 1.0, 1 / 100), loaded):
        region = _region(f.M)
        assert f.v.shape == region.shape + (2, 2)
        assert not f.v[~region].any()
        assert not hasattr(f, "v0")


@pytest.fixture(scope="module")
def loaded_herm2(tmp_path_factory, pot_herm2, field_herm2):
    d = tmp_path_factory.mktemp("dump")
    wk.dump_kernel(field_herm2, d / "k.csv", d / "k.json")
    return wk.load_kernel(d / "k.csv", d / "k.json", pot_herm2)


def test_derivatives_v_rejects_points_beyond_T(pot_herm2, loaded_herm2):
    # beyond t = T no field holds v
    wk.derivatives_v(pot_herm2, loaded_herm2, 0.8, 1.2)
    with pytest.raises(DomainError, match="xi \\+ eta <= 2T"):
        wk.derivatives_v(pot_herm2, loaded_herm2, 0.8, 1.3)


def test_interp_half_table_rejects_points_beyond_its_rows(loaded_herm2):
    f = loaded_herm2
    assert f.wx_lat.shape[0] == f.v.shape[0] == f.M // 2 + 2
    _interp_triangle(f.wx_lat, 1.0, 1.0, f.step, f.M)
    for table in (f.v, f.wx_lat):
        with pytest.raises(DomainError, match="xi \\+ eta <= 2T"):
            _interp_triangle(table, 1.4, 1.9, f.step, f.M)
    with pytest.raises(DomainError, match="xi \\+ eta <= 2T"):
        _interp_triangle(f.wtt_lattice(), np.array([0.2, 1.9]), np.array([0.3, 2.0]),
                         f.step, f.M)


def _csv_writer_dump(f, path, spell=shortest):
    """Reference writer: one csv.writer row per node i <= j, i + j <= M + 1,
    every value spelled by spell (the package's spelling, or an older one)."""
    n = f.dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["xi", "eta"]
        for a in range(n):
            for b in range(n):
                header += [f"v{a}{b}_re", f"v{a}{b}_im"]
        writer.writerow(header)
        for i in range(f.M // 2 + 1):
            for j in range(i, min(f.M, f.M + 1 - i) + 1):
                row = [spell(i * f.step), spell(j * f.step)]
                for a in range(n):
                    for b in range(n):
                        row += [spell(f.v[i, j, a, b].real), spell(f.v[i, j, a, b].imag)]
                writer.writerow(row)


def _planted_field(field):
    v = field.v.copy()
    v[0, 5, 0, 1] = complex(-0.0, 5e-324)
    v[3, 7, 1, 0] = complex(1e300, -1.2345678901234567e-7)
    v[10, 10, 1, 1] = complex(-1.2345678901234567e-7, -0.0)
    v[11, 12, 0, 0] = complex(1e16, 1.5e-5)
    return dataclasses.replace(field, v=v)


def test_dump_matches_csv_writer_and_round_trips_exactly(tmp_path, pot_herm2, field_herm2):
    planted = _planted_field(field_herm2)
    v = planted.v
    with np.errstate(over="ignore", invalid="ignore"):
        wk.dump_kernel(planted, tmp_path / "k.csv", tmp_path / "k.json")
    _csv_writer_dump(planted, tmp_path / "ref.csv")
    assert (tmp_path / "k.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    back = wk.load_kernel(tmp_path / "k.csv", tmp_path / "k.json", pot_herm2)
    assert np.array_equal(back.v, v)
    assert back.v.tobytes() == v.tobytes()     # signed zeros and subnormals too


def test_dump_written_as_17g_still_loads_bit_for_bit(tmp_path, pot_herm2, field_herm2):
    # earlier versions wrote every value as %.17g
    planted = _planted_field(field_herm2)
    with np.errstate(over="ignore", invalid="ignore"):
        wk.dump_kernel(planted, tmp_path / "k.csv", tmp_path / "k.json")
    _csv_writer_dump(planted, tmp_path / "old.csv", spell=lambda x: f"{x:.17g}")
    assert (tmp_path / "old.csv").read_bytes() != (tmp_path / "k.csv").read_bytes()
    back = wk.load_kernel(tmp_path / "old.csv", tmp_path / "k.json", pot_herm2)
    assert back.v.tobytes() == planted.v.tobytes()
    assert np.signbit(back.v[0, 5, 0, 1].real) and back.v[0, 5, 0, 1].imag == 5e-324
    assert back.v[3, 7, 1, 0].real == 1e300


@pytest.mark.parametrize("T, h, tol", [
    (1.0, 1 / 50, float("nan")), (1.0, 1 / 50, float("inf")), (1.0, 1 / 50, 0.0),
    (1.0, 1 / 50, -1e-10), (1.0, float("nan"), 1e-10), (1.0, 0.0, 1e-10),
    (float("inf"), 1 / 50, 1e-10),
])
def test_solve_rejects_non_finite_parameters(pot_one, T, h, tol):
    # solve_goursat checks tol, then T, then h
    name = next(name for name, value in (("tol", tol), ("T", T), ("h", h))
                if not 0.0 < value < float("inf"))
    with pytest.raises(DomainError, match=f"^{name} must be a finite real number > 0, "):
        wk.solve_goursat(pot_one, T, h, tol)


@pytest.mark.parametrize("x, t", [(float("nan"), 0.5), (0.1, float("nan")), (0.1, float("inf"))],
                         ids=["nan_x", "nan_t", "inf_t"])
@pytest.mark.parametrize("evaluator", [
    wk.kernel_w, wk.wtilde_x, wk.wtt_explicit,
], ids=["kernel_w", "wtilde_x", "wtt_explicit"])
def test_point_evaluators_reject_non_finite(field_one, evaluator, x, t):
    with pytest.raises(DomainError):
        evaluator(field_one, x, t)


@pytest.mark.parametrize("call", [
    lambda p, f, snaps: wk.check_goursat(p, f),
    lambda p, f, snaps: wk.split_w(p, f, 0.2, 0.5),
    lambda p, f, snaps: wk.derivatives_v(p, f, 0.2, 0.5),
    lambda p, f, snaps: wk.measure_h2_bound(f, p, 1.0, trials=2, N=32),
    lambda p, f, snaps: wk.certify_h2_bound(f, p, 1.0, trials=2, N=32),
    lambda p, f, snaps: wk.compare(*snaps),
    lambda p, f, snaps: wk.compare(*snaps[::-1]),
], ids=["check_goursat", "split_w", "derivatives_v", "measure_h2_bound", "certify_h2_bound",
        "compare_1_2", "compare_2_1"])
def test_dimension_mismatch_rejected(pot_herm2, field_one, field_herm2, bump1, call):
    # a 2x2 potential against a scalar field, and snapshots of 1 and 2 components
    # on equal grids: each used to return numbers or end in an IndexError
    snaps = (wk.propagate(field_one, bump1, 1.0, 32),
             wk.propagate(field_herm2, wk.bump_control(1.0, 0.1, 0.9, [1.0, 1.0]), 1.0, 32))
    with pytest.raises(DomainError, match=r"dimension.* (1 .*2|2 .*1)$"):   # both named
        call(pot_herm2, field_one, snaps)
