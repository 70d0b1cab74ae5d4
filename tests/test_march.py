"""The anti-diagonal march against the Picard reference, and V_h against its
plane-major reference.

solve_goursat(method="march") solves the discrete fixed-point equation
v = v0 + V_h v exactly, one anti-diagonal at a time; method="picard", the
library default, iterates V_h to tol.  At tol 1e-14 the two must give the
same field and derived tables to 1e-12.  The march's step count is fixed by
M, so no potential can make it look faster, and its certificate is the
residual of the discrete equation over the region it stores.

The library applies V_h in one node-major step over blocks of rows
(_V_rows), for the march's residual and the Picard sweeps; the tests drive
it over whole squares through conftest's streamed_V.  The plane-major V_h
below, one contiguous plane per matrix entry, is the implementation it
replaced, kept unchanged as the reference: the step must reproduce it bit
for bit.
"""

import dataclasses

import numpy as np
import pytest

import wavekernel as wk
from wavekernel.errors import ConvergenceError, DomainError, SingularSystemError
from wavekernel.goursat import _ROWS, KernelField, _lattice_setup, _march, _region, _residual
from wavekernel.potential import _cumtrapz, _mul, _opnorms, potential_from_callable

from conftest import streamed_V, traced_peak
from test_lattice_reference import two_pass_tables

GAP = 1e-12


def seeded_potential(seed, n):
    """Hermitian base plus two seeded cosine terms, on [0, 2] at step 1/1024."""
    rng = np.random.default_rng(seed)

    def hermitian():
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return 0.25 * (a + a.conj().T)

    base, w1, w2 = hermitian() + np.eye(n), hermitian(), hermitian()
    f1, f2 = rng.uniform(1.0, 4.0, 2)
    return potential_from_callable(
        lambda xs: base + np.cos(f1 * xs)[:, None, None] * w1
        + np.sin(f2 * xs)[:, None, None] * w2, n, 2.0, 1 / 1024)


# --- reference: plane-major V_h ----------------------------------------------

def _v0_planes(qh: np.ndarray, h: float, rows: int | None = None) -> np.ndarray:
    """The explicit part v0 on rows i < rows (all M+1 by default) of the
    triangle, plane-major (n, n, rows, M+1)."""
    q_cum = np.ascontiguousarray(np.moveaxis(_cumtrapz(qh, h / 2.0, axis=0), 0, -1))
    v0 = q_cum[..., None, :] - q_cum[..., :rows, None]
    v0 *= -0.5
    v0[..., np.tri(*v0.shape[-2:], k=-1, dtype=bool)] = 0.0
    return v0


def _planes(a: np.ndarray) -> np.ndarray:
    """Plane-major copy (n, n, M+1, M+1) of a node-major lattice array."""
    return np.ascontiguousarray(np.moveaxis(a, (0, 1), (2, 3)))


def _node_view(a: np.ndarray) -> np.ndarray:
    """Node-major view (M+1, M+1, n, n) of a plane-major array."""
    return np.moveaxis(a, (2, 3), (0, 1))


def _toeplitz_planes(qh: np.ndarray, rows: int | None = None) -> np.ndarray:
    """Plane-major q at each node: plane (a, b) holds qh[j - i, a, b] at (i, j).

    Covers rows i < rows (all M+1 by default).  Below the diagonal it holds
    qh[0]; _apply_V_core masks those nodes.
    """
    j = np.arange(qh.shape[0])
    i = j[:rows, None]
    return np.moveaxis(qh, 0, -1)[..., np.maximum(j - i, 0)]


def _apply_V_core(q_planes: np.ndarray, v_planes: np.ndarray, h: float,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The fixed-point operator V in the plane-major work layout.

    q_planes (from _toeplitz_planes) and v_planes are (n, n, rows, M+1): one
    contiguous plane per matrix entry, where KernelField arrays are
    node-major.  rows is M+1 for the whole square; fewer rows give V on
    those rows exactly, since node (i, j) reads only nodes (a, b) with
    a <= i.  The product g = q v is formed for all entries at once; then
    each plane in turn is masked to the triangle, integrated by a cumulative
    trapezoid along eta and then along xi (one reused work plane), shifted
    by its diagonal and scaled by -1/4.  Nodes on and below the diagonal
    come out zero.  The result is written into out when given, which must
    not overlap v_planes.
    """
    shape = v_planes.shape[-2:]
    if out is None:
        out = np.empty(v_planes.shape, dtype=np.result_type(q_planes, v_planes))
    _mul(_node_view(q_planes), _node_view(v_planes), out=_node_view(out))
    below = np.tri(*shape, k=-1, dtype=bool)
    inner = np.empty(shape, dtype=out.dtype)
    for g in out.reshape(-1, *shape):
        np.copyto(g, 0.0, where=below)
        _cumtrapz(g, h, axis=1, out=inner)      # along eta
        _cumtrapz(inner, h, axis=0, out=g)      # along xi
        g -= g.diagonal()[:, None].copy()
        g *= -0.25
        np.copyto(g, 0.0, where=below)
        np.fill_diagonal(g, 0.0)
    return out


def plane_major_V(qh, v, h):
    """V_h on the rows of the node-major v, by the plane-major reference."""
    return _node_view(_apply_V_core(_toeplitz_planes(qh, v.shape[0]), _planes(v), h))


@pytest.mark.parametrize("n, M", [(1, 40), (1, 100), (2, 40), (2, 100), (3, 40)])
def test_march_matches_picard(n, M):
    # n <= 2 inverts the step matrices in closed form, n = 3 through LAPACK
    p = seeded_potential(7, n)
    h = 2.0 / M
    march = wk.solve_goursat(p, 1.0, h, 1e-14, method="march")
    picard = wk.solve_goursat(p, 1.0, h, 1e-14, method="picard")
    # wtt's outer integrand, d_cum - e_cum[i, i] + e_cum, and wx_lat,
    # (d_cum - e_cum - e_cum[i, i]) / 2, are the line-integral tables behind wtt
    tables = {"v": (march.v, picard.v), "wx_lat": (march.wx_lat, picard.wx_lat),
              "outer": (two_pass_tables(march)._outer, two_pass_tables(picard)._outer)}
    for name, (got, ref) in tables.items():
        assert got.shape == ref.shape == (M // 2 + 2, M + 1, n, n)
        assert np.abs(got - ref).max() <= GAP, name
    assert np.abs(march.wtt_lattice() - picard.wtt_lattice()).max() <= GAP
    assert not march.v[~_region(M)].any()


@pytest.mark.parametrize("make", [
    lambda: wk.zero_potential(1, x_max=2.0, step=1 / 512),
    lambda: wk.preset_potential("one", x_max=2.0, step=1 / 1024),
    lambda: wk.preset_potential("herm2", x_max=2.0, step=1 / 1024),
    *(lambda s=s, n=n: seeded_potential(s, n) for s in range(3) for n in (1, 2)),
], ids=["zero", "one", "herm2", *(f"seed{s}_n{n}" for s in range(3) for n in (1, 2))])
def test_march_steps_are_fixed_by_M(make):
    # a potential must not change the step count, so no input looks like a speed-up
    p = make()
    f = wk.solve_goursat(p, 1.0, 1 / 100, 1e-10, method="march")
    assert f.iterations == 200 + 2
    assert f.tail_bound <= 1e-14
    assert wk.bound_violations(f) == (0, 0.0)


def test_march_solves_where_picard_fails():
    # q = 400 at T = 1: the Neumann series converges too slowly for Picard, while
    # the march's error against the closed form is second order in h
    p = wk.constant_potential(400.0, x_max=1.0, step=1 / 2048)
    with pytest.raises(ConvergenceError, match="after 100 sweeps"):
        wk.solve_goursat(p, 1.0, 1 / 25, 1e-10)
    errors = []
    for M in (100, 200, 400):
        h = 2.0 / M
        f = wk.solve_goursat(p, 1.0, h, 1e-10, method="march")
        i, j = np.nonzero(_region(M))
        phys = i + j <= M
        i, j = i[phys], j[phys]
        ref = wk.bessel_kernel_constant(400.0, (j - i) * h / 2.0, (j + i) * h / 2.0)
        errors.append(np.abs(f.v[i, j, 0, 0] - ref).max())
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios


def test_march_residual_above_tol_raises(pot_one):
    with pytest.raises(ConvergenceError, match="march residual"):
        wk.solve_goursat(pot_one, 1.0, 1 / 50, 1e-300, method="march")


def streamed_residual(qh, v, h):
    """The march's certificate for the field v, streamed by blocks of rows."""
    return _residual(KernelField(T=1.0, step=h, v=v, iterations=0, tail_bound=0.0, qh=qh))


def plane_major_residual(qh, v, h):
    """Largest operator norm of v - v0 - V v over the region, from one plane-major
    application of V to v's rows (exact on the region: its nodes read only region
    nodes)."""
    rows = v.shape[0]
    v_planes = _planes(v)
    r = _apply_V_core(_toeplitz_planes(qh, rows), v_planes, h)
    np.subtract(v_planes, r, out=r)
    r -= _v0_planes(qh, h, rows)
    return float(np.max(_opnorms(_node_view(r))[_region(v.shape[1] - 1)]))


def test_residual_reads_the_halo_anti_diagonal(pot_herm2):
    # the certificate covers every stored node, the line i + j = M + 1 too
    M, qh = _lattice_setup(pot_herm2, 1.0, 1 / 50)
    v = _march(qh, 1 / 50)
    assert streamed_residual(qh, v, 1 / 50) <= 1e-15
    v[M // 2, M // 2 + 1] += 1e-6 * np.eye(2)
    assert streamed_residual(qh, v, 1 / 50) >= 0.99e-6


@pytest.mark.parametrize("n", [1, 2])
def test_marched_zeros_are_positive(n):
    # v is zero at node (0, 0), on the diagonal and off the region, v's tables
    # off the region; every zero entry is +0.0 in its real and imaginary
    # parts, since the dump writes a -0.0 as "-0.0".  n = 1 runs in float64,
    # n = 2 in complex128
    p = seeded_potential(5, n)
    f = wk.solve_goursat(p, 1.0, 1 / 50, 1e-10, method="march")
    assert f.v.dtype == (float if n == 1 else complex)
    off = ~_region(f.M)
    diag = np.arange(f.v.shape[0])
    assert not f.v[off].any() and not f.v[diag, diag].any()
    for a in (f.v, f.wx_lat, f.wtt_lattice()):
        assert not a[off].any()
        for part in (a.real, a.imag):
            assert not np.signbit(part[part == 0]).any()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_streamed_residual_equals_plane_major_residual(n):
    # M = 400: the 202 rows of the half-square end inside a row block.  The
    # residual stream hands each block's d_cum to the row-block step _V_rows,
    # and the two residuals agree bit for bit, on the march's solution and off it
    p = seeded_potential(4, n)
    M, qh = _lattice_setup(p, 1.0, 1 / 200)
    v = _march(qh, 1 / 200)
    assert v.shape[0] % _ROWS
    assert streamed_residual(qh, v, 1 / 200) == plane_major_residual(qh, v, 1 / 200) <= 1e-14
    rng = np.random.default_rng(n)
    v += 1e-3 * rng.standard_normal(v.shape) * _region(M)[..., None, None]
    residual = streamed_residual(qh, v, 1 / 200)
    assert residual == plane_major_residual(qh, v, 1 / 200) > 1e-3


@pytest.mark.parametrize("M", [14, 30])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_streamed_residual_on_a_halo_row_block_equals_plane_major_residual(n, M):
    # M = 14 and 30: the last row block holds only the halo row M/2 + 1, which
    # has no region nodes.  Its window still reaches the row's diagonal, and
    # the two residuals agree bit for bit, on the march's solution and off it
    p = seeded_potential(4, n)
    _, qh = _lattice_setup(p, 1.0, 2.0 / M)
    v = _march(qh, 2.0 / M)
    assert v.shape[0] % _ROWS == 1
    assert streamed_residual(qh, v, 2.0 / M) == plane_major_residual(qh, v, 2.0 / M) <= 1e-14
    rng = np.random.default_rng(n)
    v += 1e-3 * rng.standard_normal(v.shape) * _region(M)[..., None, None]
    residual = streamed_residual(qh, v, 2.0 / M)
    assert residual == plane_major_residual(qh, v, 2.0 / M) > 1e-3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_apply_V_equals_plane_major_reference(n):
    # M = 40: the 41 rows of the square end inside a row block
    p = seeded_potential(2, n)
    M, qh = _lattice_setup(p, 1.0, 1 / 20)
    assert (M + 1) % _ROWS
    rng = np.random.default_rng(n)
    shape = (M + 1, M + 1, n, n)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got, ref = streamed_V(qh, vals, 1 / 20), plane_major_V(qh, vals, 1 / 20)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [1, 2])
def test_apply_V_core_on_leading_rows_equals_the_square(n):
    # node (i, j) of V v reads only rows a <= i, so V on the leading rows is exact
    p = seeded_potential(1, n)
    M, qh = _lattice_setup(p, 1.0, 1 / 20)
    rng = np.random.default_rng(n)
    shape = (M + 1, M + 1, n, n)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    full = streamed_V(qh, vals, 1 / 20)
    rows = M // 2 + 2
    assert np.array_equal(streamed_V(qh, vals[:rows], 1 / 20), full[:rows])


def test_singular_step_matrix_is_a_typed_error():
    # h^2/16 q = -1 exactly: I + h^2/16 q_0 is zero
    p = wk.constant_potential(-256.0, x_max=1.0, step=1 / 64)
    with pytest.raises(SingularSystemError, match=r"k = j - i = 0 .* h = 0\.25"):
        wk.solve_goursat(p, 1.0, 0.25, 1e-10, method="march")


@pytest.mark.parametrize("n", [2, 3])
def test_singular_step_matrix_is_named(n):
    # a potential whose step matrix is singular at one offset only, q at x = 0.5
    x = np.arange(9) / 8
    vals = np.tile(np.eye(n, dtype=complex), (9, 1, 1))
    vals[4, -1, -1] = -256.0
    with pytest.raises(SingularSystemError, match=r"k = j - i = 4 \(q at x = 0\.5\)"):
        wk.solve_goursat(wk.sampled_potential(x, vals), 1.0, 0.25, 1e-10, method="march")


def test_march_needs_no_lapack_up_to_2x2(monkeypatch):
    # LAPACK's first call maps work buffers, which would raise the peak memory
    # of a kernel command that needs no dense linear algebra otherwise
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    for name in ("svd", "inv", "solve", "det"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for n in (1, 2):
        f = wk.solve_goursat(seeded_potential(0, n), 1.0, 1 / 20, 1e-10, method="march")
        assert f.iterations == 42


def test_solve_rejects_unknown_method(pot_one):
    with pytest.raises(DomainError, match="method must be one of"):
        wk.solve_goursat(pot_one, 1.0, 1 / 50, 1e-10, method="direct")


def test_march_builds_no_full_square(pot_herm2):
    # 2x2 at M = 200; one lattice is (M+1)^2 n^2 complex values, the size of one
    # full-square work array.  Picard holds two (test_picard_memory_guard).  The
    # march holds the half-square v (0.51) and O(M) state.  Its residual from one
    # plane-major V peaked at 2.3, with four half-squares (v, v plane-major, q,
    # V v) and one plane of product terms; from the table stream, which also
    # kept wx_lat and wtt's outer integrand, at 1.87; from a stream of its own
    # that keeps nothing, at 0.74.
    lattice = 201 ** 2 * 4 * 16
    M, qh = _lattice_setup(pot_herm2, 1.0, 1 / 100)
    assert traced_peak(lambda: _march(qh, 1 / 100), lattice) <= 0.6
    solve = lambda: wk.solve_goursat(pot_herm2, 1.0, 1 / 100, 1e-10, method="march")
    assert traced_peak(solve, lattice) <= 0.8


def test_march_field_memory_guard(pot_herm2):
    # the solve the CLI's kernel command runs, 2x2 at M = 200: the march and
    # its residual hold v (0.51 lattices) and blocks of rows, at 0.73; the
    # field holds v alone afterwards.  The kernel constants, which bounds and
    # validate read, build wx_lat and wtt in one pass and keep them: a peak of
    # 1.51 over v, 2.02 in all, 1.53 held.
    lattice = 201 ** 2 * 4 * 16
    holder = {}

    def kernel():
        holder["f"] = wk.solve_goursat(pot_herm2, 1.0, 1 / 100, 1e-10, method="march")

    def resident():
        arrays = [getattr(f, fl.name) for fl in dataclasses.fields(f)]
        return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray)) / lattice

    assert traced_peak(kernel, lattice) <= 1.25
    f = holder["f"]
    assert f._wx_lat is None and f._wtt_lat is None
    held = resident()
    assert held <= 0.6
    assert held + traced_peak(lambda: wk.kernel_constants(f), lattice) <= 2.1
    assert resident() <= 1.6
