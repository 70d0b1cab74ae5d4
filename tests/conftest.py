import tracemalloc

import numpy as np
import pytest

import wavekernel as wk
from wavekernel.goursat import (_ROWS, _V_rows, _blocks, _lattice_setup, _region,
                                _square_d_cum, _v0_at)
from wavekernel.potential import _cumtrapz
from wavekernel.propagator import OperatorTables


@pytest.fixture(scope="session")
def pot_zero():
    return wk.zero_potential(1, x_max=4.0, step=1 / 512)


@pytest.fixture(scope="session")
def pot_one():
    return wk.preset_potential("one", x_max=4.0, step=1 / 2048)


@pytest.fixture(scope="session")
def pot_herm2():
    return wk.preset_potential("herm2", x_max=4.0, step=1 / 2048)


@pytest.fixture(scope="session")
def pot_quad():
    return wk.preset_potential("one_plus_quadratic", x_max=4.0, step=1 / 4096)


@pytest.fixture(scope="session")
def field_zero(pot_zero):
    return wk.solve_goursat(pot_zero, 1.0, 1 / 50, 1e-10)


@pytest.fixture(scope="session")
def field_one(pot_one):
    return wk.solve_goursat(pot_one, 1.0, 1 / 100, 1e-10)


@pytest.fixture(scope="session")
def field_one_fine(pot_one):
    return wk.solve_goursat(pot_one, 1.0, 1 / 200, 1e-10)


@pytest.fixture(scope="session")
def field_one_2T(pot_one):
    """field_one's lattice on twice its horizon: it holds field_one's whole triangle."""
    return wk.solve_goursat(pot_one, 2.0, 1 / 100, 1e-10)


@pytest.fixture(scope="session")
def field_one_T12(pot_one):
    return wk.solve_goursat(pot_one, 1.2, 1 / 100, 1e-10)


@pytest.fixture(scope="session")
def field_herm2(pot_herm2):
    return wk.solve_goursat(pot_herm2, 1.0, 1 / 100, 1e-10)


@pytest.fixture(scope="session")
def bump1():
    return wk.bump_control(1.0, 0.1, 0.9, 1.0)


def lattice_xt(field):
    """(x, t) of every node of the half-square field, plus the mask of the
    triangle i <= j <= M/2: the whole lattice of the horizon field.T / 2.
    A test that compares on a whole triangle solves on twice its horizon."""
    i, j = np.indices(field.v.shape[:2])
    xs = (j - i) * field.step / 2.0
    ts = (j + i) * field.step / 2.0
    return xs, ts, (i <= j) & (j <= field.M // 2)


def full_v0(p, T, h):
    """The explicit part v0 on the whole triangle, node-major (M+1, M+1, n, n)."""
    M, qh = _lattice_setup(p, T, h)
    i, j = np.arange(M + 1)[:, None], np.arange(M + 1)
    v0 = _v0_at(_cumtrapz(qh, h / 2.0, axis=0), i, j)
    v0[i > j] = 0.0
    return v0


def streamed_V(qh, v, h):
    """V_h on the rows of the node-major v (a full square, or its leading
    rows), by the library's row-block step; the dtype of qh and v."""
    out, carry = np.empty(v.shape, dtype=np.result_type(qh, v)), []
    for b in _blocks(v.shape[0], _ROWS):
        out[b] = _V_rows(_square_d_cum(qh, v[b], b.start, h), h, b.start, carry)
    return out


def region_interior(M):
    """(i, j) of the region i <= j, i + j <= M + 1 of a lattice of size M,
    off its first row and last column, where a field holds centred second
    differences."""
    i, j = np.nonzero(_region(M))
    keep = (i >= 1) & (j <= M - 1)
    return i[keep], j[keep]


def full_table(blocks):
    """A whole table from an OperatorTables stream, as its (k, m, a, b) view."""
    return OperatorTables.full(blocks).transpose(0, 2, 1, 3)


def traced_peak(fn, unit_bytes):
    """The tracemalloc peak while fn() runs, in units of unit_bytes (a
    lattice, a half-square or a table: each guard names its own)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / unit_bytes
    finally:
        tracemalloc.stop()


def shortest(x: float) -> str:
    """x as the numeric CSV writer spells it: the shortest string that reads
    back to the same bits (the digits of repr), in orjson's notation.  That
    notation writes the exponent with no '+' and no leading zero (1e16 and
    1e-7, where repr has 1e+16 and 1e-07) and writes [1e-5, 1e-4) without
    one (0.000015, where repr has 1.5e-05); elsewhere it is repr's."""
    mantissa, _, exp = repr(float(x)).partition("e")
    if not exp:
        return mantissa
    if int(exp) == -5:
        sign, digits = mantissa[:mantissa.startswith("-")], mantissa.lstrip("-").replace(".", "")
        return f"{sign}0.0000{digits}"
    return f"{mantissa}e{int(exp)}"


# values that are not a finite real number, by id suffix; True, which Python
# treats as 1, keeps the bare id of the entry point it is passed to
NOT_NUMBERS = {"": True, "-numpy_bool": np.True_, "-str": "1", "-None": None,
               "-nan": float("nan")}


def against_not_numbers(cases, ids):
    """pytest params: each case tuple, then each value of NOT_NUMBERS, as id + suffix."""
    return [pytest.param(*case, bad, id=name + suffix)
            for case, name in zip(cases, ids) for suffix, bad in NOT_NUMBERS.items()]


# values that are neither a finite real number nor an array of them, by id: a
# point, a grid, a sample array or a scalar argument refuses each ("complex"
# only where the argument is real); an empty array may also be accepted
NOT_ARRAYS = {"complex": np.array([0.1 + 0.5j]), "bool_array": np.array([True]),
              "str_list": ["a"], "None": None, "nan": float("nan"), "inf": float("inf"),
              "-inf": -float("inf"), "empty": np.array([])}
