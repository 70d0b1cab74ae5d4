import numpy as np
import pytest
from scipy.integrate import solve_ivp

import wavekernel as wk
from wavekernel.errors import ControlError, DomainError, PotentialError


def test_weyl_scalar_exponential():
    c = 2.0
    p = wk.constant_potential(c, x_max=3.0, step=1 / 256)
    K = wk.weyl_solution(p, 2.0, c)
    xs = np.linspace(0, 2.0, 33)
    exact = np.exp(-np.sqrt(c) * xs)
    assert np.abs(K.eval(xs)[:, 0, 0] - exact).max() < 1e-10
    # tail beyond the cutoff
    assert abs(K.eval(2.8)[0, 0] - np.exp(-np.sqrt(c) * 2.8)) < 1e-10


def test_weyl_k0_identity_exact():
    p = wk.preset_potential("one_plus_bump", x_max=3.0, step=1 / 512)
    K = wk.weyl_solution(p, 1.5, 1.0)
    assert np.abs(K.samples[0] - np.eye(1)).max() == 0.0


def test_weyl_diag_decoupling():
    cmat = np.diag([1.0, 4.0])
    p = wk.constant_potential(cmat, x_max=3.0, step=1 / 256)
    K = wk.weyl_solution(p, 2.0, cmat)
    x = 1.0
    expect = np.diag([np.exp(-1.0), np.exp(-2.0)])
    assert np.abs(K.eval(x) - expect).max() < 1e-10


def test_weyl_decay_matching_at_cutoff():
    p = wk.preset_potential("one_plus_bump", x_max=3.0, step=1 / 512)
    K = wk.weyl_solution(p, 1.5, 1.0)
    resid = K.deriv[-1] + K.decay_matrix @ K.samples[-1]
    assert np.abs(resid).max() < 1e-12


def test_weyl_ode_residual_and_monotone_norm():
    p = wk.preset_potential("one_plus_bump", x_max=3.0, step=1 / 512)
    X = 1.5
    K = wk.weyl_solution(p, X, 1.0)
    h = K.grid[1] - K.grid[0]
    second = (K.samples[2:] - 2 * K.samples[1:-1] + K.samples[:-2]) / h**2
    qk = np.einsum("kab,kbc->kac", p.eval(K.grid[1:-1]), K.samples[1:-1])
    assert np.abs(second - qk).max() < 50 * h**2
    norms = np.abs(K.samples[:, 0, 0])
    # tail decay bound beyond the cutoff
    far = K.eval(np.array([2.0, 2.5, 3.0]))
    lam = np.min(np.linalg.eigvalsh(K.decay_matrix))
    for x, val in zip([2.0, 2.5, 3.0], far):
        assert np.abs(val).max() <= np.exp(-lam * (x - X)) * np.abs(K.samples[-1]).max() + 1e-12
    assert norms[-1] <= norms[0]


def test_weyl_against_independent_integrator():
    p = wk.preset_potential("one_plus_bump", x_max=3.0, step=1 / 1024)
    X = 1.5
    K = wk.weyl_solution(p, X, 1.0)

    def rhs(x, y):
        return [y[1], float(p.eval(x)[0, 0].real) * y[0]]

    sol = solve_ivp(rhs, (X, 0.0), [1.0, -1.0], rtol=1e-10, atol=1e-12, dense_output=True)
    k0 = sol.sol(0.0)[0]
    xs = np.linspace(0, X, 16)
    ref = sol.sol(xs)[0] / k0
    assert np.abs(K.eval(xs)[:, 0, 0] - ref).max() < 1e-7


@pytest.mark.parametrize("X", [float("nan"), 0.0, -1.0])
def test_weyl_rejects_bad_cutoff(X):
    p = wk.constant_potential(1.0, x_max=2.0, step=1 / 128)
    with pytest.raises(PotentialError, match="cutoff"):
        wk.weyl_solution(p, X, 1.0)


@pytest.mark.parametrize("x", [float("nan"), -1.0, float("inf"), [0.5, float("nan")],
                               -2e-9], ids=["nan", "negative", "inf", "array_nan", "below_rounding"])
def test_weyl_eval_rejects_bad_point(x):
    # eval(nan) used to return a NaN matrix, eval(-1) K(0); lambda_map passed both on
    p = wk.constant_potential(1.0, x_max=2.0, step=1 / 128)
    K = wk.weyl_solution(p, 1.5, 1.0)
    with pytest.raises(DomainError):
        K.eval(x)
    with pytest.raises(DomainError):
        wk.lambda_map(K, [1.0])(x)
    # within the rounding allowance, x = -1e-13 and x = -5e-10 read K(0)
    assert np.array_equal(K.eval(-1e-13), K.eval(0.0))
    assert np.array_equal(K.eval(-5e-10), K.eval(0.0))


def test_weyl_rejects_bad_decay_matrix():
    p = wk.constant_potential(1.0, x_max=2.0, step=1 / 128)
    with pytest.raises(PotentialError):
        wk.weyl_solution(p, 1.5, -1.0)
    p2 = wk.constant_potential(np.diag([1.0, 4.0]), x_max=2.0, step=1 / 128)
    with pytest.raises(PotentialError):
        wk.weyl_solution(p2, 1.5, np.diag([1.0, -1.0]))


def test_weyl_unitary_equivariance():
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    c = np.array([[2.0, 0.5], [0.5, 3.0]])
    pa = wk.constant_potential(c, x_max=2.0, step=1 / 256)
    pb = wk.constant_potential(u @ c @ u.conj().T, x_max=2.0, step=1 / 256)
    Ka = wk.weyl_solution(pa, 1.5, c)
    Kb = wk.weyl_solution(pb, 1.5, u @ c @ u.conj().T)
    xs = np.linspace(0, 1.5, 7)
    conj = np.einsum("ab,rbc,dc->rad", u, Ka.eval(xs), u.conj())
    assert np.abs(Kb.eval(xs) - conj).max() < 1e-9


def test_lambda_map():
    c = 1.0
    p = wk.constant_potential(c, x_max=2.0, step=1 / 128)
    K = wk.weyl_solution(p, 1.5, c)
    lam = wk.lambda_map(K, 1.0)
    assert abs(lam(0.5)[0] + np.exp(-0.5)) < 1e-10
    zero = wk.lambda_map(K, 0.0)
    assert np.abs(zero(0.7)).max() == 0.0
    # linearity
    a = wk.lambda_map(K, 2.0)
    b = wk.lambda_map(K, 3.0)
    ab = wk.lambda_map(K, 5.0)
    assert np.abs(a(0.3) + b(0.3) - ab(0.3)).max() < 1e-14


def test_lift_control():
    c = 1.0
    p = wk.constant_potential(c, x_max=2.0, step=1 / 128)
    K = wk.weyl_solution(p, 1.5, c)
    f = wk.bump_control(1.0, 0.2, 0.8, 1.0)
    lifted = wk.lift_control(K, f)
    t, x = 0.5, float(K.grid[100])
    expect = -np.exp(-x) * f.sample(np.array([t]))[0][0]
    assert np.abs(lifted(np.array([t]), np.array([x]))[0] - expect).max() < 1e-9
    # zero control lifts to zero
    z = wk.lift_control(K, wk.zero_control(1.0, 1))
    assert np.abs(z(np.array([0.5]), np.array([0.3]))).max() == 0.0
    # injective on constants: evaluation at the origin recovers the vector
    g = wk.lambda_map(K, 4.0)
    assert abs(g(0.0)[0] + 4.0) < 1e-14


@pytest.fixture(scope="module")
def weyl_one():
    return wk.weyl_solution(wk.constant_potential(1.0, x_max=2.0, step=1 / 128), 1.5, 1.0)


def test_lift_control_rejects_other_dimension(weyl_one):
    # a 2-vector control on a 1x1 solution used to lift to numbers
    f = wk.bump_control(1.0, 0.2, 0.8, [1.0, 1.0])
    with pytest.raises(ControlError, match="dimension"):
        wk.lift_control(weyl_one, f)


def test_lift_control_rejects_shapes_that_do_not_broadcast(weyl_one, bump1):
    # 2 times and 3 points used to end in numpy's bare broadcast ValueError
    lift = wk.lift_control(weyl_one, bump1)
    with pytest.raises(DomainError, match=r"\(2,\).*\(3,\)"):
        lift([0.2, 0.5], [0.1, 0.4, 0.7])
    assert lift([[0.2], [0.5]], [0.1, 0.4, 0.7]).shape == (2, 3, 1)


@pytest.mark.parametrize("vec, match", [
    ([1.0, 2.0], r"^vector must hold 1 finite entries, got \[\(1\+0j\), \(2\+0j\)\]$"),
    ([float("nan")], "^vector must be finite numbers, got NaN or inf$"),
    ([float("inf")], "^vector must be finite numbers, got NaN or inf$"),
], ids=["wrong_size", "nan", "inf"])
def test_lambda_map_rejects_bad_vector(weyl_one, vec, match):
    # a wrong size used to end in reshape's ValueError, a NaN in NaN values
    with pytest.raises(DomainError, match=match):
        wk.lambda_map(weyl_one, vec)


def test_weyl_rejects_non_finite_decay_matrix():
    # a NaN decay constant used to end in numpy's LinAlgError
    p = wk.constant_potential(1.0, x_max=2.0, step=1 / 128)
    with pytest.raises(PotentialError, match="must be finite"):
        wk.weyl_solution(p, 1.5, float("nan"))


def test_dump_weyl(tmp_path):
    p = wk.constant_potential(1.0, x_max=2.0, step=1 / 128)
    K = wk.weyl_solution(p, 1.5, 1.0)
    out = tmp_path / "weyl.csv"
    wk.dump_weyl(K, out)
    raw = np.loadtxt(out, delimiter=",", skiprows=1)
    assert raw.shape == (len(K.grid), 3)
    assert raw[0, 1] == 1.0 and raw[0, 2] == 0.0
