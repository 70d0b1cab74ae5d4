"""The causal operator tables against the mirrored full-square sampler.

The reference functions below are the earlier implementation of the table
layer, kept unchanged: every (N+1)^2 pair of the grid is sampled, pairs
below the diagonal mirrored to |m - k|, q is gathered into two full
squares, and a full square of trapezoid weights zeroes the pairs below the
diagonal.  The package evaluates only the causal pairs m >= k, row block by
row block, with the same operations in the same order, so every causal
entry must reproduce the reference bit for bit and every entry below the
diagonal must be exactly 0.
"""

import numpy as np
import pytest

import wavekernel as wk
from wavekernel.control_op import _SobolevTables
from wavekernel.goursat import _BLOCK, _interp_triangle
from wavekernel.potential import potential_from_callable


# --- reference: mirrored full-square sampler ---------------------------------

def ref_weights(delta, N):
    wgt = np.triu(np.full((N + 1, N + 1), delta))
    idx = np.arange(N + 1)
    wgt[idx, idx] = 0.5 * delta
    wgt[:-1, N] = 0.5 * delta
    wgt[N, N] = 0.0
    return wgt[..., None, None]


def ref_pairs(N):
    k = np.arange(N + 1)
    return np.abs(k - k[:, None]), k + k[:, None]


def ref_sample(field, delta, N, lattice):
    h, M = field.step, field.M
    steps = np.minimum(np.arange(2 * N + 1) * delta, M * h) / h
    cell = np.minimum(steps.astype(int), M - 1)
    frac = steps - cell
    cols = cell[-1] + 2
    i, s = cell[:N + 1], frac[:N + 1, None, None, None]
    along_xi = lattice[i, :cols]
    along_xi *= 1 - s
    upper = lattice[i + 1, :cols]
    upper *= s
    along_xi += upper
    along_xi = along_xi.reshape((N + 1) * cols, *lattice.shape[2:])
    p, r = ref_pairs(N)
    flat = p * cols
    flat += cell[r]
    u = frac[r][..., None, None]
    out = np.take(along_xi, flat, axis=0)
    flat += 1
    work = np.take(along_xi, flat, axis=0)
    out *= 1 - u
    work *= u
    out += work
    k = np.arange(min(N, int(h / (2.0 * delta)) + 1) + 1)[:, None]
    m = np.arange(N + 1)
    k, m = np.nonzero((m >= k) & (cell[np.abs(m - k)] >= cell[m + k]))
    out[k, m] = _interp_triangle(lattice, (m - k) * delta, (m + k) * delta, h, M)
    return out


def ref_q_halves(field, delta, N):
    q = field.q_at(np.arange(2 * N + 1) * delta / 2.0)
    p, r = ref_pairs(N)
    return np.take(q, r, axis=0), np.take(q, p, axis=0)


def ref_tables(field, T, N):
    """k0, k1, k2a and k2b as the full-square sampler built them."""
    delta = T / N
    wgt = ref_weights(delta, N)
    k0 = ref_sample(field, delta, N, field.v) * wgt
    k1 = ref_sample(field, delta, N, field.wx_lat)
    q_plus, q_minus = ref_q_halves(field, delta, N)
    q_plus += q_minus
    q_plus *= 0.25
    k1 -= q_plus
    k1 *= wgt
    k2a = ref_sample(field, delta, N, field.wxx_lattice()) * wgt
    q_plus, q_minus = ref_q_halves(field, delta, N)
    q_plus -= q_minus
    q_plus *= wgt * 0.25
    return {"k0": k0, "k1": k1, "k2a": k2a, "k2b": q_plus}


# --- package against reference -----------------------------------------------

def _pot3():
    """A 3x3 Hermitian potential that varies in x."""
    base = np.array([[1.0, 0.2 - 0.1j, 0.0], [0.2 + 0.1j, 0.5, 0.3j], [0.0, -0.3j, 2.0]])
    return potential_from_callable(
        lambda xs: np.einsum("k,ab->kab", 1.0 + 0.5 * np.cos(3.0 * xs), base),
        3, 4.0, 1 / 2048)


@pytest.fixture(scope="module", params=[1, 2, 3], ids=["n1", "n2", "n3"])
def field_h50(request, pot_one, pot_herm2):
    pot = {1: pot_one, 2: pot_herm2}.get(request.param) or _pot3()
    return wk.solve_goursat(pot, 1.0, 1 / 50, 1e-10)


# the (T, N) list of test_separable_sampling_matches_per_pair, plus N = 100,
# whose 101 rows end in a short row block, and N = 2 _BLOCK - 1, whose rows
# fill two whole blocks
@pytest.mark.parametrize("T, N", [(1.0, 50), (1.0, 400), (1.0, 1), (1.0, 2), (1.0, 37),
                                  (1.0, 160), (0.7, 35), (0.7, 37), (0.5, 200), (1.0, 100),
                                  (1.0, 2 * _BLOCK - 1)])
def test_tables_match_full_square_reference(field_h50, T, N):
    tab = _SobolevTables(field_h50, T, N)
    ref = ref_tables(field_h50, T, N)
    below = np.tril(np.ones((N + 1, N + 1), dtype=bool), -1)
    for name, want in ref.items():
        got = getattr(tab, name)
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name
        assert np.all(got[below] == 0.0), name

