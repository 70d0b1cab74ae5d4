"""A real potential runs in real arithmetic.

When the sampled potential has no imaginary part (every n = 1 potential,
and real-symmetric matrices such as diag14), the lattice is set up with a
float64 qh, and the kernel, its derived tables and the operator tables
follow it.  Each such result is compared with its complex twin: the same
computation on qh.astype(complex).  Elementwise products and sums of
numbers with zero imaginary part give the real part's bits, and where the
lattice arithmetic divides it multiplies by a reciprocal, so the field, its
tables, the constants, the Goursat report and the operator tables must
match the twin bit for bit.  Products with complex controls and the dense
SVD (real LAPACK in place of complex) may round differently, so they must
agree to rounding.
"""

import dataclasses
import math

import numpy as np
import pytest

import wavekernel as wk
from wavekernel.control_op import _dense
from wavekernel.goursat import KernelField, _lattice_setup, _march, _picard, _residual
from wavekernel.propagator import OperatorTables

from conftest import traced_peak

REL = 1e-14
REAL = ("one", "diag14")
TABLES = ("k0", "k1", "k2a", "k2b")


def preset(name):
    return wk.preset_potential(name, x_max=2.0, step=1 / 1024)


def complex_twin(f):
    """f's march on the same potential samples, forced to complex128."""
    qh = f.qh.astype(complex)
    twin = KernelField(T=f.T, step=f.step, v=_march(qh, f.step), iterations=f.iterations,
                       tail_bound=math.nan, qh=qh)
    twin.tail_bound = _residual(twin)
    return twin


@pytest.fixture(scope="module", params=REAL)
def pair(request):
    p = preset(request.param)
    f = wk.solve_goursat(p, 1.0, 1 / 50, 1e-10, method="march")
    return p, f, complex_twin(f)


def rel_gap(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


@pytest.mark.parametrize("name", REAL)
def test_real_potential_runs_in_float64(name):
    f = wk.solve_goursat(preset(name), 1.0, 1 / 50, 1e-10, method="march")
    assert f.qh.dtype == f.v.dtype == np.float64
    assert f.wx_lat.dtype == f.wtt_lattice().dtype == f.wxx_lattice().dtype == np.float64
    tab = OperatorTables(f, 1.0, 37)
    for table in TABLES:
        assert OperatorTables.full(getattr(tab, table)()).dtype == np.float64, table
    assert _dense(wk.build_volterra(f, 1.0, 37)).dtype == np.float64


def test_complex_potential_stays_complex():
    f = wk.solve_goursat(preset("herm2"), 1.0, 1 / 50, 1e-10, method="march")
    assert f.qh.dtype == f.v.dtype == f.wx_lat.dtype == f.wtt_lattice().dtype == np.complex128
    tab = OperatorTables(f, 1.0, 37)
    for table in TABLES:
        assert OperatorTables.full(getattr(tab, table)()).dtype == np.complex128, table


def test_real_field_matches_complex_twin_bit_for_bit(pair):
    p, f, twin = pair
    assert np.array_equal(f.v, twin.v)
    assert f.tail_bound == twin.tail_bound
    assert wk.kernel_constants(f) == wk.kernel_constants(twin)     # builds the tables
    assert np.array_equal(f.wx_lat, twin.wx_lat)
    assert np.array_equal(f.wtt_lattice(), twin.wtt_lattice())
    assert wk.kernel_constants(f) == wk.kernel_constants(twin)     # reads them
    assert wk.check_goursat(p, f) == wk.check_goursat(p, twin)
    # N = 37 and N = 100 end inside a row block
    for N in (37, 100):
        got, want = OperatorTables(f, 1.0, N), OperatorTables(twin, 1.0, N)
        for name in TABLES:
            assert np.array_equal(OperatorTables.full(getattr(got, name)()),
                                  OperatorTables.full(getattr(want, name)())), (N, name)


def test_real_picard_matches_complex_twin_bit_for_bit(pair):
    p, f, twin = pair
    picard = wk.solve_goursat(p, 1.0, f.step, 1e-10)
    assert picard.v.dtype == np.float64
    v, sweeps, tail = _picard(twin.qh, 1.0, f.step, 1e-10)
    assert np.array_equal(picard.v, v)
    assert (picard.iterations, picard.tail_bound) == (sweeps, tail)


def test_real_products_agree_with_complex_twin(pair):
    p, f, twin = pair
    ctrl = wk.bump_control(1.0, 0.1, 0.9, np.linspace(1.0, 0.5j, f.dim))
    got, want = wk.propagate(f, ctrl, 1.0, 100), wk.propagate(twin, ctrl, 1.0, 100)
    for part in ("u", "u_x", "u_xx"):
        assert rel_gap(getattr(got, part), getattr(want, part)) <= REL, part
    systems = wk.build_volterra(f, 1.0, 100), wk.build_volterra(twin, 1.0, 100)
    assert rel_gap(wk.invert_W(systems[0], got.u), wk.invert_W(systems[1], got.u)) <= REL
    assert rel_gap(wk.condition_estimate(systems[0]),
                   wk.condition_estimate(systems[1])) <= REL
    reports = [wk.measure_h2_bound(g, p, 1.0, trials=5, N=64) for g in (f, twin)]
    assert rel_gap(dataclasses.astuple(reports[0]), dataclasses.astuple(reports[1])) <= REL


def test_real_dump_loads_back_real_bit_for_bit(pair, tmp_path):
    # the dump of a real field is the dump of its complex twin, byte for byte
    p, f, twin = pair
    wk.dump_kernel(f, tmp_path / "k.csv", tmp_path / "k.json")
    wk.dump_kernel(twin, tmp_path / "c.csv", tmp_path / "c.json")
    assert (tmp_path / "k.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()
    assert (tmp_path / "k.json").read_bytes() == (tmp_path / "c.json").read_bytes()
    back = wk.load_kernel(tmp_path / "k.csv", tmp_path / "k.json", p)
    assert back.v.dtype == np.float64
    assert np.array_equal(back.v, f.v)
    assert wk.kernel_constants(back) == wk.kernel_constants(f)


def test_dump_with_imaginary_part_stays_complex(pair, tmp_path):
    # a real potential does not drop a nonzero imaginary part of a dump
    p, f, twin = pair
    planted = dataclasses.replace(twin, v=twin.v * (1.0 + 0.5j))
    wk.dump_kernel(planted, tmp_path / "k.csv", tmp_path / "k.json")
    back = wk.load_kernel(tmp_path / "k.csv", tmp_path / "k.json", p)
    assert back.qh.dtype == np.float64
    assert back.v.dtype == np.complex128
    assert np.array_equal(back.v, planted.v)


def test_real_kernel_memory_guard():
    # n = 1 at M = 400: march, residual and the streamed constants hold v,
    # O(M) state, one block of rows and the w_xx norms, a real array whose
    # size does not follow the dtype, so in float64 they peak at 0.58 of the
    # same run in complex128 (1.38 of 2.37 MB); v alone is 0.50
    p, h = preset("one"), 1 / 200
    _, qh = _lattice_setup(p, 1.0, h)
    assert qh.dtype == np.float64

    def run(q):
        f = KernelField(T=1.0, step=h, v=_march(q, h), iterations=0, tail_bound=math.nan, qh=q)
        f.tail_bound = _residual(f)
        wk.kernel_constants(f)

    real = traced_peak(lambda: run(qh), 1)
    forced = traced_peak(lambda: run(qh.astype(complex)), 1)
    assert real <= 0.6 * forced
