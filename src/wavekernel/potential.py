"""Sampled Hermitian matrix potentials on [0, x_max] with a cached integral.

Potentials are stored as uniformly sampled, piecewise-linear grid functions.
All antiderivatives use the composite trapezoid rule; endpoints that fall
between nodes are handled by linear interpolation of the integrand, so the
cumulative evaluator is exactly additive.  The matrix norm used everywhere
is the operator 2-norm (largest singular value).
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fileio
from .errors import DomainError, PotentialError, check_array, check_count, check_order, check_real

_HERMITIAN_TOL = 1e-8
_RANGE_TOL = 1e-9
_STEP_TOL = 1e-8       # uniformity of a sampled grid's steps, relative to max(step, 1)


def _opnorms(mats: np.ndarray) -> np.ndarray:
    """Operator 2-norm of a batch of matrices (largest singular value).

    Three branches by the matrix size n:

    - n == 1: the modulus of the entry.
    - n == 2: closed form.  With A = [[a, b], [c, d]], the Gram matrix
      A^H A = [[p, r], [conj(r), s]] has p = |a|^2 + |c|^2,
      s = |b|^2 + |d|^2, r = conj(a) b + conj(c) d, and its largest
      eigenvalue is (p + s)/2 + hypot((p - s)/2, |r|).  Every term is
      non-negative, so the result stays within a few ulps of the SVD even
      where the two singular values coincide (the form through the
      Frobenius norm and |det A| loses half its digits there).  Requires
      the squared entries to stay in the normal floating-point range.
    - n >= 3: batched SVD.
    """
    n = mats.shape[-1]
    if n == 1:
        return np.abs(mats[..., 0, 0])
    if n == 2:
        a, b = mats[..., 0, 0], mats[..., 0, 1]
        c, d = mats[..., 1, 0], mats[..., 1, 1]
        p = _abs2(a) + _abs2(c)
        s = _abs2(b) + _abs2(d)
        r = np.abs(a.conj() * b + c.conj() * d)
        return np.sqrt(0.5 * (p + s) + np.hypot(0.5 * (p - s), r))
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2


def _cumtrapz(vals: np.ndarray, dx: float, axis: int = 0,
              out: np.ndarray | None = None, carry: list | None = None) -> np.ndarray:
    """Cumulative trapezoid along one axis, starting at zero.

    Writes into ``out`` when given: an array of vals' shape that is either
    vals itself or does not overlap it.  In place numpy buffers the shifted
    read of the pair sums, a temporary of vals' size; both ways give the
    same bits.

    ``carry`` streams one cumulation through consecutive blocks along the
    axis.  It is a list: empty for the first block, which starts at zero,
    and then set by each call to the block's last input and output slices.
    A later block starts its first step from the carried input slice and
    adds the carried output slice to that step before the running sum, so
    the blocks get the bits of one call on the whole array.
    """
    if out is None:
        out = np.empty_like(vals)
    lead = (slice(None),) * (axis % vals.ndim)      # index along axis: a[lead + (k,)]
    first, last = lead + (0,), lead + (-1,)
    head, tail = lead + (slice(None, -1),), lead + (slice(1, None),)
    last_in = vals[last].copy() if carry is not None else None
    np.add(vals[head], vals[tail], out=out[tail])
    if carry:
        np.add(carry[0], vals[first], out=out[first])
        out *= 0.5 * dx
        out[first] += carry[1]
        np.cumsum(out, axis=axis, out=out)
    else:
        out[lead + (slice(None, 1),)] = 0.0
        out[tail] *= 0.5 * dx
        np.cumsum(out[tail], axis=axis, out=out[tail])
    if carry is not None:
        carry[:] = last_in, out[last].copy()
    return out


def _mul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix product a @ b over broadcast leading axes, for small matrices.

    Built one output entry at a time, out[..., r, c] = sum over k of
    a[..., r, k] * b[..., k, c] (a plain product when n = 1).  For the
    n <= 3 of a potential these n^3 whole-array products beat einsum's
    generic sum-of-products loop.  ``out`` may be a strided view; it must
    not overlap a or b.
    """
    if out is None:
        shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
        out = np.empty(shape, dtype=np.result_type(a, b))
    for r in range(a.shape[-2]):
        for c in range(b.shape[-1]):
            entry = out[..., r, c]
            np.multiply(a[..., r, 0], b[..., 0, c], out=entry)
            for k in range(1, a.shape[-1]):
                entry += a[..., r, k] * b[..., k, c]
    return out


@dataclass(frozen=True)
class PotentialGrid:
    """Hermitian matrix potential q sampled on a uniform grid over [0, x_max].

    Immutable after construction; all methods are pure reads.  Construction
    rejects bad samples, bad grid sizes and an x_max that is not the span of
    the samples (PotentialError), and derives one table: cum_integral, the
    trapezoid antiderivative of q at the nodes, which integral_Q reads.
    """

    x_max: float
    step: float
    samples: np.ndarray            # (m+1, n, n) complex, Hermitian at each node
    cum_integral: np.ndarray = field(repr=False, init=False)

    def __post_init__(self):
        samples = check_array(self.samples, "samples", PotentialError, complex)
        samples = np.ascontiguousarray(samples)
        shape = samples.shape
        if len(shape) != 3 or shape[0] < 2 or not 1 <= shape[1] == shape[2]:
            raise PotentialError(f"samples must be (m+1, n, n) with m, n >= 1, got {shape}")
        asym = _opnorms(samples - samples.conj().transpose(0, 2, 1))
        worst = float(np.max(asym / np.maximum(_opnorms(samples), 1e-30)))
        if worst > _HERMITIAN_TOL:
            raise PotentialError(
                f"potential is not Hermitian: relative asymmetry {worst:.3e} "
                f"exceeds tolerance {_HERMITIAN_TOL:.0e}"
            )
        samples = 0.5 * (samples + samples.conj().transpose(0, 2, 1))
        step = check_real(self.step, "step", PotentialError, 0.0)
        x_max = check_real(self.x_max, "x_max", PotentialError, 0.0)
        # sampled_potential's steps may each miss the first by _STEP_TOL, and
        # its first node 0 by _RANGE_TOL
        m = shape[0] - 1
        if abs(x_max - m * step) > _STEP_TOL * max(step, 1.0) * m + _RANGE_TOL:
            raise PotentialError(f"x_max = {x_max} does not match {shape[0]} samples at "
                                 f"step {step}, which span [0, {m * step}]")
        for name, value in (("x_max", x_max), ("step", step), ("samples", samples),
                            ("cum_integral", _cumtrapz(samples, step))):
            object.__setattr__(self, name, value)    # frozen: set once, here

    @property
    def dim(self) -> int:
        return self.samples.shape[-1]

    def eval(self, x) -> np.ndarray:
        """Linearly interpolated q(x); x may be a scalar or an array."""
        x = check_array(x, "x", DomainError)
        check_order(f"evaluation at x outside [0, {self.x_max}]", DomainError, 0.0, x, self.x_max)
        return _lerp(self.samples, x, self.x_max, self.step)

    def _cum_at(self, cum: np.ndarray, nodal: np.ndarray, x) -> np.ndarray:
        # cum holds node values of the antiderivative of nodal; at checked points x, finish
        # the partial cell with a trapezoid against the linearly interpolated integrand.
        xc = np.clip(x, 0.0, self.x_max)
        pos = xc / self.step
        k = np.minimum(np.floor(pos).astype(int), nodal.shape[0] - 2)
        entry = (...,) + (None,) * (nodal.ndim - 1)    # frac against matrix or scalar nodes
        frac, width = (pos - k)[entry], (xc - k * self.step)[entry]
        q_x = nodal[k] * (1.0 - frac) + nodal[k + 1] * frac
        return cum[k] + width * 0.5 * (nodal[k] + q_x)


def _lerp(samples: np.ndarray, x, top: float, step: float) -> np.ndarray:
    """Samples (m+1, n, n) at the nodes k * step, interpolated linearly at x clipped to [0, top]."""
    pos = np.clip(x, 0.0, top) / step
    k = np.minimum(np.floor(pos).astype(int), samples.shape[0] - 2)
    frac = (pos - k)[..., None, None]
    return samples[k] * (1.0 - frac) + samples[k + 1] * frac


def _grid_steps(dim, x_max, step) -> int:
    """Number of grid steps m for the constructors below, after checking their sizes.

    dim must be an integer >= 1, x_max and step finite and positive, and
    [0, x_max] must hold at least one step; otherwise PotentialError.
    """
    check_count(dim, "dimension", 1, PotentialError)
    m = int(round(check_real(x_max, "x_max", PotentialError, 0.0)
                  / check_real(step, "step", PotentialError, 0.0)))
    if m < 1:
        raise PotentialError(f"step {step} does not fit in [0, {x_max}]")
    return m


def zero_potential(dim: int = 1, x_max: float = 4.0, step: float = 1.0 / 2048) -> PotentialGrid:
    m = _grid_steps(dim, x_max, step)
    return PotentialGrid(m * step, step, np.zeros((m + 1, dim, dim), dtype=complex))


def constant_potential(matrix, x_max: float = 4.0, step: float = 1.0 / 2048) -> PotentialGrid:
    c = np.atleast_2d(check_array(matrix, "constant matrix", PotentialError, complex))
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise PotentialError(f"constant matrix must be square, got shape {c.shape}")
    m = _grid_steps(c.shape[-1], x_max, step)
    return PotentialGrid(m * step, step, np.broadcast_to(c, (m + 1, *c.shape)).copy())


def sampled_potential(x: np.ndarray, values: np.ndarray) -> PotentialGrid:
    """Potential from explicit node samples; the x grid must be uniform from 0."""
    x = check_array(x, "sample grid x", PotentialError)
    values = check_array(values, "values", PotentialError, complex)
    if values.ndim == 1:
        values = values[:, None, None]
    if x.ndim != 1 or x.size < 2:
        raise PotentialError("need at least two sample points in a 1-D grid")
    if values.shape[:1] != x.shape:
        raise PotentialError(f"samples of shape {values.shape} for {x.size} grid points")
    if abs(x[0]) > _RANGE_TOL:
        raise PotentialError("sample grid must start at x = 0")
    steps = np.diff(x)
    step = steps[0]
    if step <= 0 or np.max(np.abs(steps - step)) > _STEP_TOL * max(step, 1.0):
        raise PotentialError("nonuniform sample grid is unsupported")
    return PotentialGrid(x[-1], step, values)


def potential_from_callable(fn, dim: int, x_max: float, step: float) -> PotentialGrid:
    m = _grid_steps(dim, x_max, step)
    xs = np.arange(m + 1) * step
    vals = np.asarray(fn(xs), dtype=complex)
    if vals.ndim == 1:
        vals = vals[:, None, None]
    if vals.shape != (m + 1, dim, dim):
        raise PotentialError(f"preset callable returned shape {vals.shape}")
    return PotentialGrid(m * step, step, vals)


def _smooth_bump(x: np.ndarray, left: float, right: float) -> np.ndarray:
    """C-infinity bump supported on (left, right), peak value 1."""
    s = (np.asarray(x, dtype=float) - left) / (right - left)
    out = np.zeros_like(s)
    inside = (s > 0.0) & (s < 1.0)
    si = s[inside]
    out[inside] = np.exp(1.0 - 1.0 / (4.0 * si * (1.0 - si)))
    return out


_PRESETS = {
    "one": (1, lambda xs: np.ones_like(xs)[:, None, None].astype(complex)),
    "diag14": (2, lambda xs: np.einsum("k,ab->kab", np.ones_like(xs), np.diag([1.0, 4.0])).astype(complex)),
    "herm2": (
        2,
        lambda xs: np.einsum(
            "k,ab->kab",
            np.ones_like(xs),
            np.array([[1.0, 0.3 + 0.4j], [0.3 - 0.4j, 2.0]]),
        ),
    ),
    "one_plus_bump": (1, lambda xs: (1.0 + _smooth_bump(xs, 0.0, 1.0))[:, None, None].astype(complex)),
    "one_plus_quadratic": (1, lambda xs: (1.0 + 0.5 * xs**2)[:, None, None].astype(complex)),
}


def preset_potential(name: str, x_max: float = 4.0, step: float = 1.0 / 2048) -> PotentialGrid:
    if not isinstance(name, str) or name not in _PRESETS:
        raise PotentialError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")
    dim, fn = _PRESETS[name]
    return potential_from_callable(fn, dim, x_max, step)


def build_potential(spec: dict) -> PotentialGrid:
    """Build a PotentialGrid from a parsed spec mapping.

    Recognized kinds: zero, constant, sampled, preset.  Constant takes a
    row-major ``matrix`` list; sampled takes node arrays ``x`` and ``values``;
    preset takes a registry ``name``.  Anything but a mapping is a PotentialError.
    """
    if not isinstance(spec, Mapping):
        raise PotentialError(f"potential spec must be a mapping, got {spec!r}")
    kind = spec.get("kind")
    # only the keys the spec holds, as given: the constructors check them or default them
    grid = {key: spec[key] for key in ("x_max", "step") if key in spec}
    if kind == "zero":
        if "dimension" in spec:
            grid["dim"] = spec["dimension"]
        return zero_potential(**grid)
    if kind == "constant":
        n = spec.get("dimension", 1)
        check_count(n, "dimension", 1, PotentialError)
        entries = check_array(spec.get("matrix"), "constant matrix", PotentialError, complex)
        if entries.shape != (n * n,):
            raise PotentialError(f"constant matrix needs {n * n} entries, got {entries.size}")
        return constant_potential(entries.reshape(n, n), **grid)
    if kind == "sampled":
        return sampled_potential(spec.get("x"), spec.get("values"))
    if kind == "preset":
        return preset_potential(spec.get("name"), **grid)
    raise PotentialError(f"unknown potential kind {kind!r}")


# --- spec'd operations ----------------------------------------------------

def integral_Q(p: PotentialGrid, a, b) -> np.ndarray:
    """Trapezoid value of the matrix integral of q over [a, b]; a and b may be arrays."""
    a, b = check_array(a, "a", DomainError), check_array(b, "b", DomainError)
    check_order(f"bounds outside 0 <= a <= b <= {p.x_max}", DomainError, 0.0, a, b, p.x_max)
    return p._cum_at(p.cum_integral, p.samples, b) - p._cum_at(p.cum_integral, p.samples, a)


def norm_constants(p: PotentialGrid, T: float) -> tuple[float, float]:
    """L1 and L2 norm constants of q over [0, T]: (half the L1 norm, the L2 norm).

    T is a finite real number in the sampled domain, not a bool (DomainError).
    """
    T = check_real(T, "T", DomainError)
    check_order(f"T outside the potential domain [0, {p.x_max}]", DomainError, 0.0, T, p.x_max)
    norms = _opnorms(p.samples)
    a1 = float(0.5 * p._cum_at(_cumtrapz(norms, p.step), norms, T))
    sq = norms**2
    a2 = float(np.sqrt(np.real(p._cum_at(_cumtrapz(sq, p.step), sq, T))))
    return a1, a2


# --- potential spec files ---------------------------------------------------

def parse_complex(token: str) -> complex:
    """Parse a complex scalar written with an ``i`` imaginary unit."""
    t = token.strip().replace(" ", "")
    if not t:
        raise PotentialError("empty complex entry")
    t = re.sub(r"i\b", "j", t.replace("I", "i"))
    try:
        return complex(t)
    except ValueError as exc:
        raise PotentialError(f"cannot parse complex entry {token!r}") from exc


# keys each kind of potential spec reads, besides kind
_SPEC_KEYS = {
    "zero": {"dimension", "x_max", "step"},
    "constant": {"dimension", "x_max", "step", "matrix"},
    "sampled": {"csv"},
    "preset": {"name", "x_max", "step"},
}


def parse_potential_file(path) -> dict:
    """Parse a plain-text key-value potential description.

    Fields: kind, then per kind (_SPEC_KEYS): zero takes dimension, x_max
    and step; constant those plus ``matrix`` (row-major complex entries);
    sampled only ``csv`` (sample file path, relative to the spec file);
    preset ``name`` (registry key), x_max and step.  Any other key is a
    PotentialError, and so is a path that is not a string or path object.
    """
    try:
        path = Path(path)
    except TypeError:
        raise PotentialError(f"potential file must be a path, got {path!r}") from None
    spec = fileio.read_key_values(path, "potential file", PotentialError)
    kind = spec.get("kind")
    if kind not in _SPEC_KEYS:
        raise PotentialError(f"{path}: kind must be zero/constant/sampled/preset, got {kind!r}")
    fileio.reject_unknown_keys(spec, {"kind", *_SPEC_KEYS[kind]}, path,
                               f"{kind} potential", PotentialError)
    out: dict = {"kind": kind}
    for key, convert in (("dimension", int), ("x_max", float), ("step", float)):
        if key in spec:
            try:
                out[key] = convert(spec[key])
            except ValueError:
                out[key] = np.nan
            if not 0 < out[key] < np.inf:
                raise PotentialError(f"{path}: {key} must be a positive finite "
                                     f"{convert.__name__}, got {spec[key]!r}")
    if kind == "constant":
        if "matrix" not in spec:
            raise PotentialError(f"{path}: constant potential needs a 'matrix' field")
        out["matrix"] = [parse_complex(tok) for tok in spec["matrix"].split()]
    if kind == "preset":
        if "name" not in spec:
            raise PotentialError(f"{path}: preset potential needs a 'name' field")
        out["name"] = spec["name"]
    if kind == "sampled":
        if "csv" not in spec:
            raise PotentialError(f"{path}: sampled potential needs a 'csv' field")
        csv_path = (path.parent / spec["csv"]).resolve()
        _, x, vals = fileio.read_table(csv_path, "sample csv", PotentialError, 1)
        n = math.isqrt(vals.shape[1])
        if n < 1 or n * n != vals.shape[1]:
            raise PotentialError(f"{csv_path}: {vals.shape[1]} entries per row is not a "
                                 "square matrix")
        out["x"] = x[:, 0]
        out["values"] = vals.reshape(-1, n, n)
    return out
