import numpy as np
import pytest

import wavekernel as wk
from wavekernel.goursat import _region


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
def field_one_T12(pot_one):
    return wk.solve_goursat(pot_one, 1.2, 1 / 100, 1e-10)


@pytest.fixture(scope="session")
def field_herm2(pot_herm2):
    return wk.solve_goursat(pot_herm2, 1.0, 1 / 100, 1e-10)


@pytest.fixture(scope="session")
def bump1():
    return wk.bump_control(1.0, 0.1, 0.9, 1.0)


def lattice_xt(field):
    """(x, t) coordinates of every lattice node, plus the triangle mask."""
    M = field.M
    idx = np.arange(M + 1)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    xs = (jj - ii) * field.step / 2.0
    ts = (jj + ii) * field.step / 2.0
    return xs, ts, ii <= jj


def region_square(M):
    """The region i <= j, i + j <= M + 1 that a dump holds, as a mask of the full square."""
    out = np.zeros((M + 1, M + 1), dtype=bool)
    out[:M // 2 + 2] = _region(M)
    return out


def region_interior(field):
    """(i, j) of the derived tables' nodes (i <= j, i + j <= M + 1) off the
    lattice's first row and last column, where the full-square field has
    centred second differences."""
    i, j = np.nonzero(_region(field.M))
    keep = (i >= 1) & (j <= field.M - 1)
    return i[keep], j[keep]
