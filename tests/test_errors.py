import re
import types

import numpy as np
import pytest

import wavekernel as wk
from wavekernel.errors import (ORDER_ALLOWANCE, ControlError, DomainError, PotentialError,
                               check_array, check_order)
from wavekernel.goursat import _interp_triangle


@pytest.mark.parametrize("value, dtype, want", [
    (None, float, "got None"),
    ("1", float, "got '1'"),
    (True, float, "got bool values"),
    (np.True_, complex, "got bool values"),
    (np.array([True, False]), float, "got bool values"),
    (np.array([1.0], dtype=object), float, "got object values"),
    (["a"], complex, "got <U1 values"),
    ([[1.0, 2.0], [3.0]], float, r"got \[\[1\.0, 2\.0\], \[3\.0\]\]"),
    (np.array([0.1 + 0.5j]), float, "got complex128 values"),
    (0.5j, float, "got complex128 values"),
    ([1.0, float("nan")], float, "got NaN or inf"),
    (np.array([1j, -np.inf]), complex, "got NaN or inf"),
    ([1, 2], float, np.array([1.0, 2.0])),
    (np.float32(0.5), float, np.array(0.5)),
    (np.array([0.5, 2.0]), complex, np.array([0.5 + 0j, 2.0 + 0j])),
    (np.array([0.5, 2.0]), float, np.array([0.5, 2.0])),
    (np.array([1j, 2.0]), complex, np.array([1j, 2.0 + 0j])),
    ([], float, np.array([])),
], ids=["None", "str", "bool", "numpy_bool", "bool_array", "object_array", "str_list",
        "ragged", "complex_for_real", "complex_scalar_for_real", "nan", "complex_inf",
        "int_list", "float32_0d", "real_for_complex", "float_array", "complex_array", "empty"])
def test_check_array(value, dtype, want):
    if isinstance(want, str):
        kind = "real " if dtype is float else ""
        with pytest.raises(ControlError, match=f"^samples must be finite {kind}numbers, {want}$"):
            check_array(value, "samples", ControlError, dtype)
        return
    out = check_array(value, "samples", ControlError, dtype)
    assert out.dtype == np.dtype(dtype) and out.shape == want.shape
    assert np.array_equal(out, want)
    if isinstance(value, np.ndarray) and value.dtype == out.dtype:
        assert out is value          # no copy where none is needed


# --- check_order: one rule for where a point may lie -------------------------------------

TOL = ORDER_ALLOWANCE


@pytest.mark.parametrize("chain", [
    (0.0, 0.0, 1.0), (-TOL, 0.0), (1.0 + 2 * TOL, 1.0), (2.0 + 3 * TOL, 2.0),
    (0.0, -TOL), (0.0, np.array([0.2, -TOL]), np.array([0.5, 1.0]), 1.0),
], ids=["equal", "below", "edge_one", "edge_two", "negative_edge", "arrays"])
def test_check_order_accepts_links_within_the_allowance(chain):
    check_order("rule", ControlError, *chain)


@pytest.mark.parametrize("chain, worst", [
    ((0.0, -1.01 * TOL), "0.0 <= -1.01e-09"),
    ((1.0 + 2.02 * TOL, 1.0), "1.00000000202 <= 1.0"),
    ((0.0, np.array([0.5, -0.25, -0.5]), 1.0), "0.0 <= -0.5"),
    ((0.0, np.array([0.1, 0.9]), np.array([0.2, 0.3]), 1.0), "0.9 <= 0.3"),
    ((np.array([[0.1], [0.4]]), np.array([0.2, 0.3])), "0.4 <= 0.2"),
], ids=["below_zero", "past_one", "worst_of_array", "middle_link", "broadcast"])
def test_check_order_names_the_worst_link(chain, worst):
    with pytest.raises(ControlError, match=f"^rule: {re.escape(worst)} fails$"):
        check_order("rule", ControlError, *chain)


def test_check_order_names_shapes_that_do_not_broadcast():
    with pytest.raises(ControlError, match=r"^rule: shapes \(2,\) and \(3,\) do not broadcast"):
        check_order("rule", ControlError, 0.0, np.zeros(2), np.ones(3), 1.0)


@pytest.fixture(scope="module")
def objs(pot_one, field_one):
    p2 = wk.constant_potential(1.0, x_max=2.0, step=1 / 128)
    return types.SimpleNamespace(p=pot_one, f=field_one, ctrl=wk.bump_control(1.0, 0.1, 0.9),
                                 p2=p2, K=wk.weyl_solution(p2, 1.5, 1.0))


@pytest.mark.parametrize("call", [
    lambda o, a, b: wk.integral_Q(o.p, a, b),
    lambda o, a, b: wk.kernel_w(o.f, a, b),
    lambda o, a, b: wk.split_w(o.p, o.f, a, b),
    lambda o, a, b: wk.wtilde_x(o.f, a, b),
    lambda o, a, b: wk.wtt_explicit(o.f, a, b),
    lambda o, a, b: wk.bessel_kernel_constant(1.0, a, b),
], ids=["integral_Q", "kernel_w", "split_w", "wtilde_x", "wtt_explicit", "bessel_kernel_constant"])
def test_points_that_do_not_broadcast_are_a_domain_error(objs, call):
    # these used to end in numpy's bare "operands could not be broadcast" ValueError
    with pytest.raises(DomainError, match=r"\(2,\) and \(3,\)"):
        call(objs, [0.1, 0.2], [0.3, 0.4, 0.5])
    out = call(objs, [[0.1], [0.2]], [0.3, 0.4, 0.5])         # shapes that broadcast pass
    assert (out[0] if isinstance(out, tuple) else out).shape[:2] == (2, 3)


def _past(b):
    """Just past the allowance above b."""
    return b + 1.01 * TOL * (1 + abs(b))


def _fd(p, T):
    return wk.fd_solve(p, wk.zero_control(T, 1), wk.FDConfig(N_x=16, T=T))


# Each site's rule: a call of a value, the edges its hand-written check accepted
# (each still accepted) and a value just past the allowance, which it refused and
# check_order refuses.  The field has T = 1 on a lattice of top M h = 2, the
# potential x_max = 4.
MARGIN = {
    # the t edge of interpolation, xi + eta <= 2 + 1e-9 (1 + 2): t = 1 + 1.5e-9; the
    # t edge of the (x, t) check, 1 (1 + 1e-9) + 1e-9, was refused by interpolation
    **{fn.__name__: (lambda o, t, fn=fn: fn(o.f, 0.0, t), [1 + 1.5 * TOL], _past(1.0))
       for fn in (wk.kernel_w, wk.wtilde_x, wk.wtt_explicit)},
    "split_w": (lambda o, t: wk.split_w(o.p, o.f, 0.0, t), [1 + 1.5 * TOL], _past(1.0)),
    # xi + eta <= 2 (1 + 1e-9) + 1e-9, less 1e-10: at the edge itself its quadrature
    # points summed an ulp past the same bound in interpolation
    "derivatives_v": (lambda o, eta: wk.derivatives_v(o.p, o.f, 1.0, eta),
                      [2 * (1 + TOL) + TOL - 1.0 - 1e-10], 2 * _past(1.0) - 1.0),
    "_interp_triangle": (lambda o, eta: _interp_triangle(o.f.v, 1.0, eta, o.f.step, o.f.M),
                         [1.0 + 3 * TOL], 2 * _past(1.0) - 1.0),
    # the lattice's T against x_max = 0.5, refused while x_max < T - 1e-9 max(1, T)
    "lattice_cover": (lambda o, T: wk.initial_v0(wk.zero_potential(1, 0.5, 1 / 64), T, T / 2),
                      [0.5 + TOL], _past(0.5)),
    "PotentialGrid.eval": (lambda o, x: o.p.eval(x), [4 * (1 + TOL) + TOL], _past(4.0)),
    "PotentialGrid.eval_below": (lambda o, x: o.p.eval(x), [-TOL], -_past(0.0)),
    "integral_Q": (lambda o, b: wk.integral_Q(o.p, 0.0, b), [4 * (1 + TOL) + TOL], _past(4.0)),
    "integral_Q_link": (lambda o, a: wk.integral_Q(o.p, a, 0.5), [0.5 + TOL], _past(0.5)),
    "norm_constants": (lambda o, T: wk.norm_constants(o.p, T), [4 * (1 + TOL) + TOL], _past(4.0)),
    # the extended grid [0, 18 T / 16] against x_max = 1.125
    "fd_solve": (lambda o, T: _fd(wk.zero_potential(1, 1.125, 1 / 64), T),
                 [1 + 1e-12], _past(1.125) * 16 / 18),
    "FDConfig.cfl": (lambda o, c: wk.FDConfig(N_x=16, T=1.0, cfl=c), [1.0], _past(1.0)),
    "bessel_kernel_constant": (lambda o, x: wk.bessel_kernel_constant(1.0, x, 0.5),
                               [0.5 + 1e-12], _past(0.5)),
    "bessel_kernel_constant_below": (lambda o, x: wk.bessel_kernel_constant(1.0, x, 0.5),
                                     [-1e-12], -_past(0.0)),
    "OperatorTables": (lambda o, T: wk.propagate(o.f, o.ctrl, T, 16),
                       [1 + 1e-12 + 1e-12], _past(1.0)),
    "u_tt": (lambda o, t: wk.u_tt(o.f, o.ctrl, 0.1, t), [1 + 1e-12], _past(1.0)),
    "difference_quotient_test": (lambda o, t: wk.difference_quotient_test(
        o.f, o.ctrl, t, [0.1, 0.05]), [0.0], -_past(0.0)),
    "WeylSolution.eval": (lambda o, x: o.K.eval(x), [-1e-12], -_past(0.0)),
    "weyl_solution": (lambda o, X: wk.weyl_solution(o.p2, X, 1.0), [2 * (1 + 1e-12)], _past(2.0)),
}


@pytest.mark.parametrize("site", MARGIN)
def test_edges_are_kept_and_one_allowance_bounds_them(objs, site):
    call, edges, past = MARGIN[site]
    for value in edges:
        call(objs, value)
    with pytest.raises(PotentialError if site == "weyl_solution" else DomainError):
        call(objs, past)


@pytest.mark.parametrize("t", [1 + 5e-10, 1 + 2 * TOL], ids=["inside", "edge"])
def test_a_t_within_the_allowance_is_accepted_alike(objs, t):
    # kernel_w took t = T + 5e-10, while u_tt and propagate refused it (1e-12 allowances)
    assert objs.f.T == 1.0
    assert np.isfinite(wk.kernel_w(objs.f, 0.1, t)).all()
    assert np.isfinite(wk.u_tt(objs.f, objs.ctrl, 0.1, t)).all()
    assert np.isfinite(wk.propagate(objs.f, objs.ctrl, t, 16).u).all()


@pytest.mark.parametrize("N", [13, 26, 27, 52])
def test_propagate_runs_at_the_edge_of_the_horizon(pot_one, N):
    # at these N the triangle cells of the table at T (1 + 1e-9) + 1e-9 fell an
    # ulp past the interpolation's allowance before they were read at the field's T
    f = wk.solve_goursat(pot_one, 0.9, 0.9 / 45, 1e-10, method="march")
    edge = f.T * (1 + TOL) + TOL
    snap = wk.propagate(f, wk.bump_control(edge, 0.1, 0.6), edge, N)
    assert np.isfinite(snap.u).all()
