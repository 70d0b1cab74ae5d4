"""The difference-quotient test and u_tt against the per-point kernel sampler.

The reference below is the earlier evaluation of the representation
formula, kept unchanged: the kernel interpolated at every (x, s) point of a
per-point trapezoid of about 2t/h panels over [x, t].  The package's
difference_quotient_test reads one OperatorTables k0 on [0, t + max h]
instead, so its errors and slope agree with the reference to quadrature
accuracy; u_tt keeps the per-point arithmetic and must match it bit for bit.
"""

import math

import numpy as np
import pytest

import wavekernel as wk
from wavekernel.goursat import _interp_triangle


# --- reference: per-point evaluation of the representation formula ----------

def per_point_values(field, f, t_prime, xs, deriv=0):
    """Representation-formula values of the wave (or a time derivative) at
    time t_prime on arbitrary x nodes; zero beyond the wave front."""
    xs = np.asarray(xs, dtype=float)
    live = xs < t_prime - 1e-14
    out = np.zeros((xs.size, field.dim), dtype=complex)
    if not live.any():
        return out
    xl = xs[live]
    k = max(2, int(math.ceil(t_prime / (field.step / 2.0))) + 1)
    frac = np.linspace(0.0, 1.0, k)
    s = xl[:, None] + (t_prime - xl)[:, None] * frac[None, :]
    W = _interp_triangle(field.v, s - xl[:, None], s + xl[:, None], field.step, field.M)
    fv = f.sample(t_prime - s)[deriv]
    g = np.einsum("rkab,rkb->rka", W, fv)
    dx = (t_prime - xl) / (k - 1)
    integ = dx[:, None] * (g.sum(axis=1) - 0.5 * g[:, 0] - 0.5 * g[:, -1])
    out[live] = f.sample(t_prime - xl)[deriv] + integ
    return out


def ref_difference_quotient(field, f, t, h_list, N=400):
    h_arr = np.asarray(sorted(h_list, reverse=True), dtype=float)
    xs = np.linspace(0.0, t + h_arr.max(), N + 1)
    base = per_point_values(field, f, t, xs, deriv=0)
    rate = per_point_values(field, f, t, xs, deriv=1)
    errs = []
    for h in h_arr:
        ahead = per_point_values(field, f, t + h, xs, deriv=0)
        diff = (ahead - base) / h - rate
        errs.append(float(np.sqrt(np.trapezoid(np.sum(np.abs(diff) ** 2, axis=1), x=xs))))
    errs = np.asarray(errs)
    slope = float(np.polyfit(np.log(h_arr), np.log(np.maximum(errs, 1e-300)), 1)[0])
    return errs, slope


# --- comparisons ---------------------------------------------------------------

@pytest.fixture(scope="module")
def field_herm2_200(pot_herm2):
    return wk.solve_goursat(pot_herm2, 1.0, 1 / 200, 1e-10)


@pytest.fixture(scope="module")
def field_quad_400(pot_quad):
    return wk.solve_goursat(pot_quad, 1.0, 1 / 400, 1e-10)


HERM2_AMP = np.array([1.0 - 0.5j, 0.3 + 0.8j])


@pytest.mark.parametrize("name, t, h_list", [
    ("field_one_T12", 1.0, [2.0**-k for k in range(4, 10)]),
    ("field_herm2", 0.75, [2.0**-k for k in range(4, 9)]),
    ("field_herm2_200", 0.5, [0.2, 0.1, 0.05, 0.025]),
    ("field_quad_400", 0.75, [2.0**-k for k in range(4, 9)]),
], ids=["one_T12", "herm2_100", "herm2_200", "quad_400"])
def test_difference_quotient_matches_reference(request, name, t, h_list):
    field = request.getfixturevalue(name)
    amp = HERM2_AMP if field.dim == 2 else 1.0
    f = wk.bump_control(1.0, 0.1, 0.9, amp)
    errs, slope = ref_difference_quotient(field, f, t, h_list)
    rep = wk.difference_quotient_test(field, f, t, h_list)
    assert np.all(errs > 0.0)
    assert np.all(np.abs(rep.errors - errs) <= 1e-5 * errs)
    assert abs(rep.slope - slope) <= 1e-5


def test_u_tt_matches_reference_bit_for_bit(field_zero, field_one, field_herm2, bump1):
    # every point the u_tt tests use, plus a 2x2 field
    points = [(field_zero, bump1, 0.3, 0.9), (field_one, bump1, 0.5, 0.5)]
    # the nodes of propagate(field_one, bump1, 1.0, 200) that the consistency test reads
    points += [(field_one, bump1, k * (1.0 / 200), 1.0) for k in range(0, 201, 20)]
    f2 = wk.bump_control(1.0, 0.1, 0.9, HERM2_AMP)
    points += [(field_herm2, f2, x, t) for x, t in [(0.0, 1.0), (0.13, 0.77), (0.4, 0.45)]]
    for field, f, x, t in points:
        got = wk.u_tt(field, f, x, t)
        ref = per_point_values(field, f, t, np.array([x]), deriv=2)[0]
        assert got.shape == ref.shape == (field.dim,)
        assert np.array_equal(got, ref), (x, t)
