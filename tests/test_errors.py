import numpy as np
import pytest

from wavekernel.errors import ControlError, check_array


@pytest.mark.parametrize("value, dtype, want", [
    (None, float, "got None"),
    ("1", float, "got '1'"),
    (True, float, "got bool values"),
    (np.True_, complex, "got bool values"),
    (np.array([True, False]), float, "got bool values"),
    (np.array([1.0], dtype=object), float, "got object values"),
    (["a"], complex, "got <U1 values"),
    ([[1.0, 2.0], [3.0]], float, r"got \[\[1\.0, 2\.0\], \[3\.0\]\]"),
    (np.array([0.1 + 0.5j]), float, "got complex128 values"),
    (0.5j, float, "got complex128 values"),
    ([1.0, float("nan")], float, "got NaN or inf"),
    (np.array([1j, -np.inf]), complex, "got NaN or inf"),
    ([1, 2], float, np.array([1.0, 2.0])),
    (np.float32(0.5), float, np.array(0.5)),
    (np.array([0.5, 2.0]), complex, np.array([0.5 + 0j, 2.0 + 0j])),
    (np.array([0.5, 2.0]), float, np.array([0.5, 2.0])),
    (np.array([1j, 2.0]), complex, np.array([1j, 2.0 + 0j])),
    ([], float, np.array([])),
], ids=["None", "str", "bool", "numpy_bool", "bool_array", "object_array", "str_list",
        "ragged", "complex_for_real", "complex_scalar_for_real", "nan", "complex_inf",
        "int_list", "float32_0d", "real_for_complex", "float_array", "complex_array", "empty"])
def test_check_array(value, dtype, want):
    if isinstance(want, str):
        kind = "real " if dtype is float else ""
        with pytest.raises(ControlError, match=f"^samples must be finite {kind}numbers, {want}$"):
            check_array(value, "samples", ControlError, dtype)
        return
    out = check_array(value, "samples", ControlError, dtype)
    assert out.dtype == np.dtype(dtype) and out.shape == want.shape
    assert np.array_equal(out, want)
    if isinstance(value, np.ndarray) and value.dtype == out.dtype:
        assert out is value          # no copy where none is needed
