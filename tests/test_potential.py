import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import wavekernel as wk
from wavekernel.errors import DomainError, PotentialError
from wavekernel.potential import _opnorms, potential_from_callable


def test_zero_potential_trivial():
    p = wk.zero_potential(1, x_max=4.0, step=1 / 64)
    assert np.all(p.samples == 0)
    assert np.all(p.cum_integral == 0)
    assert np.abs(wk.integral_Q(p, 0.3, 2.7)).max() == 0.0


def test_constant_scalar_cumulative():
    p = wk.constant_potential(1.0, x_max=2.0, step=1 / 64)
    for x in (0.0, 0.5, 1.0, 1.7, 2.0):
        assert wk.integral_Q(p, 0.0, x)[0, 0] == pytest.approx(x, abs=1e-14)


def test_hermitian_accept_reject():
    ok = np.array([[1.0, 1j], [-1j, 1.0]])
    p = wk.constant_potential(ok, x_max=1.0, step=1 / 32)
    assert p.dim == 2
    bad = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(PotentialError):
        wk.constant_potential(bad, x_max=1.0, step=1 / 32)


def test_hermitianization_enforced():
    # asymmetry below tolerance is symmetrized away
    c = np.array([[1.0, 0.5 + 1e-10], [0.5, 1.0]])
    p = wk.constant_potential(c, x_max=1.0, step=1 / 32)
    asym = np.abs(p.samples - p.samples.conj().transpose(0, 2, 1)).max()
    assert asym <= 1e-12 * np.abs(p.samples).max()


def test_sampled_nonuniform_rejected():
    x = np.array([0.0, 0.1, 0.25, 0.3])
    with pytest.raises(PotentialError):
        wk.sampled_potential(x, np.ones_like(x))


@pytest.mark.parametrize("x, match", [
    (np.array([0.0, 0.1, np.nan, 0.3]), "finite"),
    (np.array([0.0, 0.1, 0.2]), "3 grid points"),
    (np.array([0.0, 0.1, 0.2, 0.3, 0.4]), "5 grid points"),
    (np.array([0.1, 0.2, 0.3, 0.4]), "^sample grid must start at x = 0$"),
], ids=["nan_point", "short_values", "long_values", "not_from_0"])
def test_sampled_broken_grid_rejected(x, match):
    # a NaN point used to give step = nan; 4 points with 3 samples gave x_max = 0.3
    with pytest.raises(PotentialError, match=match):
        wk.sampled_potential(x, np.ones(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_non_finite_samples_rejected(bad):
    with pytest.raises(PotentialError, match="finite"):
        wk.constant_potential(np.array([[1.0, 0.0], [0.0, bad]]), x_max=1.0, step=1 / 32)
    x = np.linspace(0.0, 1.0, 5)
    vals = np.ones(5, dtype=complex)
    vals[2] = bad
    with pytest.raises(PotentialError, match="finite"):
        wk.sampled_potential(x, vals)


@pytest.mark.parametrize("build", [
    lambda: wk.zero_potential(1, step=0.0),
    lambda: wk.zero_potential(0),
    lambda: wk.zero_potential(1.5),
    lambda: wk.zero_potential(2, x_max=np.nan),
    lambda: wk.zero_potential(1, x_max=0.25, step=1.0),
    lambda: wk.constant_potential(np.eye(2), step=-1.0),
    lambda: wk.constant_potential(np.eye(2), x_max=np.inf),
    lambda: wk.constant_potential(np.zeros((0, 0))),
    lambda: potential_from_callable(np.ones_like, 1, 1.0, np.nan),
    lambda: potential_from_callable(np.ones_like, 0, 1.0, 0.125),
    lambda: wk.zero_potential(True),
    # True is a number to Python; it used to build a grid of step 1.0
    lambda: wk.zero_potential(1, x_max=4.0, step=True),
    lambda: wk.constant_potential(1.0, x_max=True, step=1 / 32),
], ids=["step_zero", "dim_zero", "dim_fraction", "x_max_nan", "no_step_fits",
        "constant_step_negative", "constant_x_max_inf", "constant_empty",
        "callable_step_nan", "callable_dim_zero", "dim_bool", "step_bool", "x_max_bool"])
def test_constructors_reject_degenerate_sizes(build):
    with pytest.raises(PotentialError):
        build()


@pytest.mark.parametrize("spec", [
    {"kind": "zero", "x_max": True, "step": 0.25, "dimension": 2.7},
    {"kind": "zero", "x_max": np.True_, "step": 0.25},
    {"kind": "zero", "x_max": "4", "step": 0.25},
    {"kind": "zero", "x_max": 1.0, "step": 0.25, "dimension": 2.7},
    {"kind": "zero", "step": None},
    {"kind": "constant", "dimension": 2.7, "matrix": [1.0, 0.0, 0.0, 1.0]},
    {"kind": "constant", "dimension": True, "matrix": [1.0]},
    {"kind": "constant", "matrix": ["a"]},
    {"kind": "constant"},
    {"kind": "preset", "name": "one", "step": None},
    {"kind": "sampled"},
], ids=["x_max_bool_dimension_fraction", "x_max_numpy_bool", "x_max_str", "dimension_fraction",
        "step_None", "constant_dimension_fraction", "constant_dimension_bool",
        "constant_matrix_str", "constant_no_matrix", "preset_step_None", "sampled_no_samples"])
def test_build_potential_checks_the_spec_values(spec):
    # the values reach the constructors as given: float() and int() used to turn
    # True into 1, "4" into 4.0 and 2.7 into 2, and None or a missing key into a
    # bare TypeError or KeyError
    with pytest.raises(PotentialError):
        wk.build_potential(spec)


@pytest.mark.parametrize("call, match", [
    (lambda: wk.preset_potential(["a"]), r"^unknown preset \['a'\]; choose from \['diag14', "),
    (lambda: wk.preset_potential(None), "^unknown preset None; choose from"),
    (lambda: wk.parse_potential_file(None), "^potential file must be a path, got None$"),
    (lambda: wk.build_potential(None), "^potential spec must be a mapping, got None$"),
    (lambda: wk.build_potential("kind = zero"), "^potential spec must be a mapping"),
], ids=["preset_list", "preset_None", "file_None", "spec_None", "spec_str"])
def test_values_of_the_wrong_kind_are_potential_errors(call, match):
    # these used to end in a bare TypeError (unhashable list, Path(None)) or AttributeError
    with pytest.raises(PotentialError, match=match):
        call()


@pytest.mark.parametrize("matrix, shape", [
    (np.ones((2, 2, 2)), (2, 2, 2)), ([1.0, 2.0], (1, 2)), (np.ones((2, 3)), (2, 3)),
], ids=["three_d", "row", "not_square"])
def test_constant_potential_checks_the_matrix_before_broadcasting_it(matrix, shape):
    # the (2, 2, 2) matrix used to be broadcast to every node, (8193, 2, 2, 2),
    # before the grid refused the samples' shape
    with pytest.raises(PotentialError, match=f"^constant matrix must be square, got shape "
                                             f"{re.escape(str(shape))}$"):
        wk.constant_potential(matrix)


@pytest.mark.parametrize("x_max, step, samples, match", [
    (1.0, 0.5, np.full((3, 1, 1), np.nan), "finite"),
    (1.0, 0.5, np.full((3, 2, 2), complex(0.0, np.inf)), "finite"),
    (1.0, 0.5, np.tile([[0.0, 1.0], [0.0, 0.0]], (3, 1, 1)), "Hermitian"),
    (1.0, 0.5, np.ones((3, 1)), "must be"),
    (1.0, 0.5, np.ones((3, 2, 1)), "must be"),
    (1.0, 0.5, np.ones((3, 0, 0)), "must be"),
    (0.0, 0.5, np.ones((1, 1, 1)), "must be"),
    (np.nan, 0.5, np.ones((3, 1, 1)), "x_max"),
    (1.0, -0.5, np.ones((3, 1, 1)), "step"),
    (1.0, True, np.ones((2, 1, 1)), "step"),
    # three nodes at step 0.5 span [0, 1]; eval(2.0) used to extrapolate to 4
    (2.0, 0.5, np.array([0.0, 1.0, 2.0])[:, None, None], "does not match"),
    (1.0, 0.5, np.ones((4, 1, 1)), "does not match"),
], ids=["nan", "inf", "non_hermitian", "rank_2", "not_square", "empty_matrix", "one_node",
        "x_max_nan", "step_negative", "step_bool", "x_max_beyond_samples",
        "x_max_short_of_samples"])
def test_grid_rejects_bad_input(x_max, step, samples, match):
    # built directly, a NaN grid used to construct and then fail in its norm integrals
    with pytest.raises(PotentialError, match=match):
        wk.PotentialGrid(x_max, step, samples)


def test_x_max_check_keeps_sampled_grids_within_their_tolerance():
    # sampled_potential accepts steps that each miss the first by up to 1e-8, so
    # x[-1] may drift from m * step by up to m * 1e-8; such grids still build
    m = 64
    x = np.arange(m + 1) / 16
    x[1:] += 0.9e-8 * np.arange(1, m + 1) - 0.9e-8
    p = wk.sampled_potential(x, np.ones(m + 1))
    assert p.x_max == x[-1] and abs(p.x_max - m * p.step) > 5e-7
    with pytest.raises(PotentialError, match="does not match"):
        wk.PotentialGrid(x[-1] + 1e-6, p.step, p.samples)


def test_grid_derives_what_the_constructors_did():
    c = np.array([[1.0, 0.3 + 0.4j], [0.3 - 0.4j, 2.0]])
    ref = wk.constant_potential(c, x_max=1.0, step=1 / 32)
    p = wk.PotentialGrid(1, 1 / 32, np.broadcast_to(c, (33, 2, 2)))
    assert (p.x_max, p.step) == (1.0, 1 / 32) and isinstance(p.x_max, float)
    for name in ("samples", "cum_integral"):
        assert np.array_equal(getattr(p, name), getattr(ref, name)), name
    assert wk.norm_constants(p, 0.75) == wk.norm_constants(ref, 0.75)


def test_integral_linear_potential():
    x = np.linspace(0, 1, 501)
    p = wk.sampled_potential(x, x.astype(complex))
    val = wk.integral_Q(p, 0.0, 1.0)[0, 0]
    assert val == pytest.approx(0.5, abs=(1 / 500) ** 2)


def test_integral_additivity():
    rng = np.random.default_rng(42)
    x = np.linspace(0, 2, 257)
    vals = rng.normal(size=(257, 2, 2)) + 1j * rng.normal(size=(257, 2, 2))
    vals = vals + vals.conj().transpose(0, 2, 1)
    p = wk.sampled_potential(x, vals)
    for _ in range(25):
        a, b, c = np.sort(rng.uniform(0, 2, size=3))
        lhs = wk.integral_Q(p, a, b) + wk.integral_Q(p, b, c)
        rhs = wk.integral_Q(p, a, c)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_integral_domain_errors():
    p = wk.constant_potential(1.0, x_max=1.0, step=1 / 32)
    with pytest.raises(DomainError):
        wk.integral_Q(p, 0.0, 1.5)
    with pytest.raises(DomainError):
        wk.integral_Q(p, -0.1, 0.5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("evaluate, message", [
    (lambda p, x: p.eval(x), "x must be finite real numbers, got NaN or inf"),
    (lambda p, x: p.eval(np.array([0.5, x])), "x must be finite real numbers, got NaN or inf"),
    (lambda p, x: wk.integral_Q(p, x, 1.0), "a must be finite real numbers, got NaN or inf"),
    (lambda p, x: wk.norm_constants(p, x),
     r"T must be a finite real number, not a bool, got -?(nan|inf)"),
], ids=["eval", "eval_array", "integral", "norm_integral"])
def test_non_finite_point_is_a_domain_error(evaluate, message, bad):
    p = wk.preset_potential("herm2", x_max=2.0, step=1 / 64)
    with pytest.raises(DomainError, match=f"^{message}$"):
        evaluate(p, bad)


# the majorant S(eta), half the integral of the operator norm of q over [0, eta/2]
def test_majorant_scalar_and_diag():
    p = wk.constant_potential(2.0, x_max=2.0, step=1 / 64)
    assert wk.norm_constants(p, 1.0 / 2)[0] == pytest.approx(2.0 / 4.0, abs=1e-14)
    pd = wk.constant_potential(np.diag([1.0, 3.0]), x_max=2.0, step=1 / 64)
    assert wk.norm_constants(pd, 1.0 / 2)[0] == pytest.approx(3.0 / 4.0, abs=1e-12)
    assert wk.norm_constants(pd, 0.0)[0] == 0.0


def test_majorant_monotone():
    p = wk.preset_potential("one_plus_bump", x_max=2.0, step=1 / 256)
    etas = np.linspace(0, 4.0, 40)
    vals = [wk.norm_constants(p, e / 2)[0] for e in etas]
    assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))


def test_norm_constants_values():
    p0 = wk.zero_potential(1, x_max=1.0, step=1 / 64)
    assert wk.norm_constants(p0, 1.0) == (0.0, 0.0)
    pc = wk.constant_potential(3.0, x_max=2.0, step=1 / 64)
    a1, a2 = wk.norm_constants(pc, 2.0)
    assert a1 == pytest.approx(3.0, abs=1e-13)
    assert a2 == pytest.approx(3.0 * np.sqrt(2.0), abs=1e-13)
    x = np.linspace(0, 1, 1001)
    px = wk.sampled_potential(x, x.astype(complex))
    a1, a2 = wk.norm_constants(px, 1.0)
    assert a1 == pytest.approx(0.25, abs=1e-6)
    assert a2 == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-6)
    with pytest.raises(DomainError):
        wk.norm_constants(px, 1.5)


@pytest.mark.parametrize("T", [float("nan"), -0.5])
def test_norm_constants_rejects_bad_horizon(T):
    p = wk.constant_potential(3.0, x_max=2.0, step=1 / 64)
    with pytest.raises(DomainError):
        wk.norm_constants(p, T)


def test_norm_constants_unitary_invariant():
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    c = np.array([[1.0, 0.3 + 0.4j], [0.3 - 0.4j, 2.0]])
    p1 = wk.constant_potential(c, x_max=1.0, step=1 / 64)
    p2 = wk.constant_potential(u @ c @ u.conj().T, x_max=1.0, step=1 / 64)
    v1 = wk.norm_constants(p1, 1.0)
    v2 = wk.norm_constants(p2, 1.0)
    assert v1[0] == pytest.approx(v2[0], rel=1e-12)
    assert v1[1] == pytest.approx(v2[1], rel=1e-12)


def test_parse_complex():
    from wavekernel.potential import parse_complex
    assert parse_complex("1.5") == 1.5
    assert parse_complex("2i") == 2j
    assert parse_complex("1+0.5i") == 1 + 0.5j
    assert parse_complex("-1.5-2i") == -1.5 - 2j
    with pytest.raises(PotentialError):
        parse_complex("abc")


@pytest.mark.parametrize("token, value", [
    ("2i", 2j), ("1-2I", 1 - 2j), ("-0.5 i", -0.5j), ("1e-3i", 1e-3j), ("3", 3 + 0j),
    ("i2", "cannot parse complex entry 'i2'"), ("ii", "cannot parse complex entry 'ii'"),
    ("", "empty complex entry"),
], ids=["2i", "1-2I", "-0.5_i", "1e-3i", "3", "i2", "ii", "empty"])
def test_parse_complex_tokens(token, value):
    # an i or I is the imaginary unit only at the end of a number; bench/check.py
    # reads its amplitudes with this parser, so what it accepts is pinned here
    from wavekernel.potential import parse_complex
    if isinstance(value, str):
        with pytest.raises(PotentialError, match=f"^{re.escape(value)}$"):
            parse_complex(token)
    else:
        got = parse_complex(token)
        assert type(got) is complex and got == value


@pytest.mark.parametrize("spec, message", [
    ({"kind": "constant", "dimension": 2, "matrix": [1, 2, 3]},
     "constant matrix needs 4 entries, got 3"),
    ({"kind": "sideways"}, "unknown potential kind 'sideways'"),
    ({}, "unknown potential kind None"),
], ids=["constant_entries", "unknown_kind", "no_kind"])
def test_build_potential_refuses_the_spec(spec, message):
    with pytest.raises(PotentialError, match=f"^{re.escape(message)}$"):
        wk.build_potential(spec)


def test_callable_values_are_node_samples():
    # a 1-D return is the scalar potential's samples; any other shape is refused
    p = potential_from_callable(lambda xs: 1.0 + xs, 1, 1.0, 0.25)
    assert np.array_equal(p.samples[:, 0, 0], 1.0 + np.arange(5) * 0.25)
    with pytest.raises(PotentialError, match=r"^preset callable returned shape \(5, 1, 1\)$"):
        potential_from_callable(lambda xs: np.ones((xs.size, 1, 1)), 2, 1.0, 0.25)


@pytest.mark.parametrize("body, files, message", [
    ("kind = constant\ndimension = 1\n", {}, "constant potential needs a 'matrix' field"),
    ("kind = preset\nx_max = 1.0\n", {}, "preset potential needs a 'name' field"),
    ("kind = sampled\n", {}, "sampled potential needs a 'csv' field"),
    ("kind = sampled\ncsv = q.csv\n", {"q.csv": "0,1,0,2,0\n0.5,1,0,2,0\n"},
     "2 entries per row is not a square matrix"),
], ids=["constant_no_matrix", "preset_no_name", "sampled_no_csv", "csv_not_square"])
def test_potential_file_refuses_a_missing_or_malformed_field(tmp_path, body, files, message):
    (tmp_path / "pot.txt").write_text(body)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    with pytest.raises(PotentialError, match=re.escape(message)):
        wk.parse_potential_file(tmp_path / "pot.txt")


def test_potential_file_roundtrip(tmp_path):
    spec = tmp_path / "pot.txt"
    spec.write_text(
        "kind = constant\ndimension = 2\nx_max = 1.0\nstep = 0.03125\n"
        "matrix = 1 0.3+0.4i 0.3-0.4i 2\n"
    )
    p = wk.build_potential(wk.parse_potential_file(spec))
    assert p.dim == 2
    assert p.samples[0, 0, 1] == pytest.approx(0.3 + 0.4j)

    csv = tmp_path / "samples.csv"
    xs = np.linspace(0, 1, 33)
    rows = np.column_stack([xs, np.cos(xs), np.zeros_like(xs)])
    np.savetxt(csv, rows, delimiter=",")
    spec2 = tmp_path / "pot2.txt"
    spec2.write_text(f"kind = sampled\ncsv = {csv.name}\n")
    p2 = wk.build_potential(wk.parse_potential_file(spec2))
    assert p2.dim == 1
    assert p2.samples[0, 0, 0] == pytest.approx(1.0)

    spec3 = tmp_path / "pot3.txt"
    spec3.write_text("kind = preset\nname = diag14\nx_max = 1.0\nstep = 0.25\n")
    p3 = wk.build_potential(wk.parse_potential_file(spec3))
    assert p3.samples[0, 1, 1] == pytest.approx(4.0)


def test_sample_csv_reads_with_or_without_header(tmp_path):
    xs = np.linspace(0.0, 1.0, 17)
    body = "".join(f"{x:.17g},{1 + x:.17g},-0,0.25,0.5,0.25,-0.5,{2 - x:.17g},0\n" for x in xs)
    (tmp_path / "bare.csv").write_text(body)
    (tmp_path / "head.csv").write_text(
        "x,q00_re,q00_im,q01_re,q01_im,q10_re,q10_im,q11_re,q11_im\n" + body)
    specs = []
    for name in ("bare", "head"):
        (tmp_path / f"{name}.txt").write_text(f"kind = sampled\ncsv = {name}.csv\n")
        specs.append(wk.parse_potential_file(tmp_path / f"{name}.txt"))
    bare, head = specs
    assert bare["values"].shape == (17, 2, 2)
    assert bare["x"].tobytes() == head["x"].tobytes()
    assert bare["values"].tobytes() == head["values"].tobytes()
    assert np.signbit(bare["values"][:, 0, 0].imag).all()      # -0 read back as -0


def test_potential_file_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("kind = sideways\n")
    with pytest.raises(PotentialError):
        wk.parse_potential_file(bad)
    bad2 = tmp_path / "bad2.txt"
    bad2.write_text("kind constant\n")
    with pytest.raises(PotentialError):
        wk.parse_potential_file(bad2)
    with pytest.raises(PotentialError):
        wk.parse_potential_file(tmp_path / "missing.txt")


def test_majorant_domain_error():
    p = wk.constant_potential(1.0, x_max=1.0, step=1 / 32)
    with pytest.raises(DomainError):
        wk.norm_constants(p, 2.5 / 2)


def test_eval_out_of_range():
    p = wk.constant_potential(1.0, x_max=1.0, step=1 / 32)
    with pytest.raises(DomainError):
        p.eval(1.5)


def _unitaries(angles: np.ndarray) -> np.ndarray:
    """2x2 unitaries from rows (theta, alpha, beta, gamma)."""
    th, al, be, ga = (np.pi * angles[:, k] for k in range(4))
    u = np.empty((len(angles), 2, 2), dtype=complex)
    u[:, 0, 0] = np.exp(1j * al) * np.cos(th)
    u[:, 0, 1] = np.exp(1j * be) * np.sin(th)
    u[:, 1, 0] = -np.exp(-1j * be) * np.sin(th)
    u[:, 1, 1] = np.exp(-1j * al) * np.cos(th)
    return np.exp(1j * ga)[:, None, None] * u


@st.composite
def two_by_two_batches(draw):
    """Batches of 2x2 complex matrices of one structure, largest entry 10^e.

    Normalising each matrix keeps the squared entries in the normal
    floating-point range, the closed form's stated domain.
    """
    kind = draw(st.sampled_from(["random", "rank1", "scaled_unitary", "near_degenerate"]))
    k = draw(st.integers(1, 6))
    x = draw(hnp.arrays(np.float64, (k, 16), elements=st.floats(-1.0, 1.0)))
    if kind == "random":
        m = (x[:, :4] + 1j * x[:, 4:8]).reshape(k, 2, 2)
    elif kind == "rank1":
        a, b = x[:, 0:2] + 1j * x[:, 2:4], x[:, 4:6] + 1j * x[:, 6:8]
        m = a[:, :, None] * b[:, None, :].conj()
    elif kind == "scaled_unitary":
        m = _unitaries(x[:, :4])
    else:
        gap = 10.0 ** -draw(st.floats(0.0, 16.0))
        m = _unitaries(x[:, :4]) @ np.diag([1.0, 1.0 - gap]) @ _unitaries(x[:, 4:8])
    big = np.max(np.abs(m), axis=(-2, -1), keepdims=True)
    big[big < 1e-150] = np.inf          # negligible matrices become zero
    return m / big * 10.0 ** draw(st.integers(-100, 100))


def _assert_opnorms_match_svd(m):
    ref = np.linalg.svd(m, compute_uv=False)[..., 0]
    assert np.all(np.abs(_opnorms(m) - ref) <= 1e-14 * ref)


@settings(deadline=None)
@given(two_by_two_batches())
def test_opnorms_two_by_two_matches_svd(m):
    _assert_opnorms_match_svd(m)


def test_opnorms_scalar_identity_field():
    """A scalar x I potential gives a kernel field of coinciding singular values."""
    p = wk.constant_potential(1.7 * np.eye(2), x_max=1.0, step=1 / 256)
    fld = wk.solve_goursat(p, 1.0, 1 / 20, 1e-10)
    assert np.abs(fld.v[..., 0, 1]).max() == 0.0 and np.abs(fld.v).max() > 0.1
    _assert_opnorms_match_svd(fld.v)
