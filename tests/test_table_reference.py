"""The causal operator tables and their products against earlier implementations.

The reference functions below are earlier implementations of the table
layer, kept unchanged.  The sampler: every (N+1)^2 pair of the grid is
sampled, pairs below the diagonal mirrored to |m - k|, q is gathered into
two full squares, and a full square of trapezoid weights zeroes the pairs
below the diagonal.  The package evaluates only the causal pairs m >= k, row
block by row block, with the same operations in the same order, so every
causal entry must reproduce the reference bit for bit and every entry below
the diagonal must be exactly +0.0.

The products: one matrix product with the whole table, and back-substitution
over the whole table.  The package streams the table by row blocks, each
block multiplied into its rows of the result, and substitutes block by
block, last block first; every output must reproduce the reference bit for
bit.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavekernel as wk
from wavekernel.control_op import _checked_snapshot
from wavekernel.errors import SingularSystemError
from wavekernel.goursat import _interp_triangle
from wavekernel.potential import potential_from_callable
from wavekernel.propagator import _BLOCK, OperatorTables

from conftest import full_table


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


# --- reference: products over the whole table --------------------------------

def ref_flat(table: np.ndarray) -> np.ndarray:
    """An (N+1, N+1, n, n) table as the ((N+1)n) x ((N+1)n) matrix it represents.

    A view of an OperatorTables table, which is stored in this order; a copy
    of a table stored in (k, m, a, b) order.
    """
    rows, cols, n, _ = table.shape
    return table.transpose(0, 2, 1, 3).reshape(rows * n, cols * n)


def ref_apply_table(table: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Apply an (N+1, N+1, n, n) table to samples of shape (..., N+1, n).

    Row k of the result is sum_m table[k, m] @ g[m], computed as one
    matrix product with the ref_flat table; leading axes of g are a batch.
    An OperatorTables table is stored in product order, so no table-sized
    copy is made.
    """
    flat = ref_flat(table)
    return (g.reshape(g.shape[:-2] + flat.shape[1:]) @ flat.T).reshape(g.shape)


def ref_invert_W(tab, blocks: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Solve (I + A) g = u for the reflected control samples.

    Exact blockwise solve marching against causality; blocks is the whole
    (N+1, N+1, n, n) k0 table.
    """
    u = _checked_snapshot(tab, u)
    g = np.zeros_like(u)
    flat, g_flat, n = ref_flat(blocks), g.reshape(-1), tab.field.dim
    eye = np.eye(n)
    for k in range(tab.grid.size - 1, -1, -1):
        row = flat[k * n:(k + 1) * n]
        rhs = u[k] - row[:, (k + 1) * n:] @ g_flat[(k + 1) * n:]
        diag = eye + row[:, k * n:(k + 1) * n]
        try:
            g[k] = np.linalg.solve(diag, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                f"diagonal block at node {k} is singular; refine N"
            ) from exc
    return g


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
    tab = OperatorTables(field_h50, T, N)
    ref = ref_tables(field_h50, T, N)
    below = np.tril(np.ones((N + 1, N + 1), dtype=bool), -1)
    for name, want in ref.items():
        got = full_table(getattr(tab, name)())
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name
        zeros = got[below]
        assert np.all(zeros == 0.0), name
        assert not np.signbit(np.stack([zeros.real, zeros.imag])).any(), name   # +0.0


def product_mismatches(fields) -> list:
    """(n, N, table, batch shape) of every streamed product whose bytes differ
    from the whole-table product; N = 37 and N = 100 both end inside a row
    block, and each table is applied to a batch of 5 and to one control."""
    bad = []
    for field in fields:
        n = field.dim
        for N in (37, 100):
            tab = OperatorTables(field, 1.0, N)
            rng = np.random.default_rng(N)
            batch = rng.normal(size=(5, N + 1, n)) + 1j * rng.normal(size=(5, N + 1, n))
            for name in ("k0", "k1", "k2a", "k2b"):
                table = full_table(getattr(tab, name)())
                for g in (batch, batch[2]):
                    got = OperatorTables.apply(getattr(tab, name)(), g)
                    if got.tobytes() != ref_apply_table(table, g).tobytes():
                        bad.append((n, N, name, g.shape))
    return bad


def test_streamed_products_match_whole_table():
    # With more than one BLAS thread, OpenBLAS splits the whole-table product
    # among threads and leaves a block's smaller product on one, and the two
    # can round differently in the last bit (seen at n = 2, N = 100, batch of
    # 5, on two threads).  The bench and these bits run with one BLAS thread.
    script = ("import sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import wavekernel as wk, test_table_reference as ref\n"
              "pots = [wk.preset_potential(name, x_max=4.0, step=1 / 2048)\n"
              "        for name in ('one', 'herm2')] + [ref._pot3()]\n"
              "fields = [wk.solve_goursat(p, 1.0, 1 / 50, 1e-10) for p in pots]\n"
              "bad = ref.product_mismatches(fields)\n"
              "sys.exit(f'streamed products differ: {bad}' if bad else 0)\n")
    src = str(Path(wk.__file__).parents[1])
    threads = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = {**os.environ, **threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, str(Path(__file__).parent)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# N = 37 and N = 100 both end inside a row block
@pytest.mark.parametrize("N", [37, 100])
def test_streamed_invert_matches_whole_table(field_h50, N):
    tab = wk.build_volterra(field_h50, 1.0, N)
    f = wk.bump_control(1.0, 0.1, 0.9, np.linspace(1.0, 0.5j, field_h50.dim))
    u = wk.propagate(field_h50, f, 1.0, N).u
    want = ref_invert_W(tab, full_table(tab.k0()), u)
    assert wk.invert_W(tab, u).tobytes() == want.tobytes()
