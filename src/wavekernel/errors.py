"""Exception types shared across the package, and the one check each for counts,
numbers and arrays of numbers."""

import math
import numbers

import numpy as np


class DomainError(ValueError):
    """Evaluation requested outside the domain an object was built on."""


class PotentialError(ValueError):
    """Potential data is unusable (non-Hermitian, nonuniform grid, bad file)."""


class ControlError(ValueError):
    """Boundary control violates its contract (support, sampling, dimension)."""


class ConvergenceError(RuntimeError):
    """Iteration failed to reach the requested tolerance within the sweep cap."""


class SingularSystemError(RuntimeError):
    """A diagonal block (or a normalization matrix) is numerically singular."""


class CertificationError(RuntimeError):
    """An empirically measured ratio exceeded its analytic bound."""


class ConfigError(ValueError):
    """A run configuration or spec file could not be parsed."""


def check_count(value, name: str, least: int, error: type[Exception]) -> None:
    """Raise the caller's error unless value is an integer >= least.

    A bool is not a count, though Python treats it as an integer.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")


def check_real(value, name: str, error: type[Exception], low=-math.inf, high=math.inf) -> float:
    """value as a float, after checking it is a finite real number with low < value <= high.

    Otherwise the caller's error.  A bool is not a number here; numpy's
    bool_ is not a numbers.Real, so it is refused like a string or None.
    """
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and math.isfinite(value)
                                       and low < value <= high):
        bounds = ((">", low), ("<=", high))
        rule = " and".join(f" {op} {b:g}" for op, b in bounds if math.isfinite(b))
        raise error(f"{name} must be a finite real number{rule}, not a bool, got {value!r}")
    return float(value)


def check_array(value, name: str, error: type[Exception], dtype=float) -> np.ndarray:
    """value as np.asarray(value, dtype), after checking it holds finite numbers only.

    Otherwise the caller's error: for None, a string, a bool (Python's or
    numpy's, alone or in an array), an array of objects or strings, a
    complex value when dtype is real (never truncated to its real part),
    and any NaN or inf entry.  A real value passes for a complex dtype.
    """
    kind = "real " if np.dtype(dtype).kind != "c" else ""
    try:
        arr = None if value is None or isinstance(value, str) else np.asarray(value)
    except ValueError:          # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in ("iuf" if kind else "iufc"):
        got = repr(value) if arr is None else f"{arr.dtype} values"
        raise error(f"{name} must be finite {kind}numbers, got {got}")
    arr = np.asarray(arr, dtype)
    if not np.isfinite(arr).all():
        raise error(f"{name} must be finite {kind}numbers, got NaN or inf")
    return arr
