"""The package's file formats: ``key = value`` text, numeric CSV and JSON.

Numeric CSV: a header line, then one row per record, lines ending in CRLF.
Real columns come first, then each complex column as the pair
``<name>_re,<name>_im``.  Each value is written as the shortest string that
reads back to the same bits (orjson's Ryu output: ``0.0025``, ``-0.0``,
``5e-324``, ``1e16``), so a read-back restores it bit for bit, signed zeros
and subnormals included.  Files written as %.17g by earlier versions read
the same.  The first line is the header when its first field is not a
number, so a file may leave it out.  errors.check_array refuses a
non-finite value, before a written file is opened and after a read.

JSON: keys sorted, indent 2, a trailing newline.  Both writers create the
directory they write into.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .errors import DomainError, check_array


def read_key_values(path: Path, what: str, error: type[Exception]) -> dict:
    """``key = value`` lines of a text file; ``#`` starts a comment.

    Unreadable files, malformed lines and repeated keys raise the caller's
    error type.
    """
    try:
        text = path.read_text()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    out: dict = {}
    first: dict = {}        # key -> line it was set on
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first:
            raise error(f"{path}:{lineno}: key {key!r} repeats line {first[key]}")
        first[key] = lineno
        out[key] = value.strip()
    return out


def reject_unknown_keys(kv: dict, known, path: Path, what: str,
                        error: type[Exception]) -> None:
    """Raise the caller's error, naming the keys and the file, if kv has a key not in known."""
    unknown = [key for key in kv if key not in known]
    if unknown:
        raise error(f"{path}: unknown {what} key{'s' * (len(unknown) > 1)} "
                    f"{', '.join(map(repr, unknown))}; "
                    f"known keys: {', '.join(sorted(known))}")


def header(real_names, complex_names) -> str:
    """Header line of a numeric CSV: the real columns, then a re/im pair per complex one."""
    return ",".join([*real_names, *(f"{c}_{p}" for c in complex_names for p in ("re", "im"))])


def write_table(path, real_names, complex_names, real: np.ndarray, cplx: np.ndarray) -> None:
    """Write rows of real values (rows, a) and complex values (rows, b) as numeric CSV.

    Raises DomainError, and writes nothing, when a value is not finite (check_array).
    """
    check_array(real, f"table {path}", DomainError)
    check_array(cplx, f"table {path}", DomainError, complex)
    # a contiguous complex128 array viewed as float64 is its re/im pairs, bit for bit
    table = np.hstack([real, np.ascontiguousarray(cplx, dtype=complex).view(float)])
    write_blocks(path, real_names, complex_names, [table] if len(table) else [])


def write_blocks(path, real_names, complex_names, tables) -> None:
    """Write consecutive blocks of rows as numeric CSV, one block at a time.

    Each block is a float64 table of r >= 1 rows: the real columns, then a
    re/im pair per complex column.  Every value must be finite; callers check
    them with errors.check_array before, so that a refused table leaves no file.
    """
    import orjson       # only commands that write a table pay for it

    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(header(real_names, complex_names).encode() + b"\r\n")
        for table in tables:
            # b"[[a,b],[c,d]]" -> b"a,b\r\nc,d\r\n": one split and one join
            rows = orjson.dumps(table, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
            rows.append(b"")
            fh.write(b"\r\n".join(rows))


def read_table(path, what: str, error: type[Exception], n_real: int
               ) -> tuple[str | None, np.ndarray, np.ndarray]:
    """Header (None when absent), the n_real real columns and the complex columns.

    An empty body gives zero rows; callers check the counts.  A file that
    cannot be read or parsed, has columns that are not n_real reals plus
    re/im pairs or holds a non-finite value (check_array) raises the
    caller's error type.
    """
    try:
        with open(path) as fh:
            first = fh.readline()
            try:
                float(first.split(",", 1)[0])
                head = None
                fh.seek(0)
            except ValueError:
                head = first.rstrip("\r\n")
            with warnings.catch_warnings():     # an empty body is zero rows
                warnings.simplefilter("ignore", UserWarning)
                raw = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise error(f"malformed {what} {path}: {exc}") from exc
    if not raw.size:
        raw = np.empty((0, n_real))
    if raw.shape[1] < n_real or (raw.shape[1] - n_real) % 2:
        raise error(f"{what} {path} has {raw.shape[1]} columns; expected {n_real} "
                    "real column(s), then re/im pairs")
    check_array(raw, f"{what} {path}", error)
    return head, raw[:, :n_real], np.ascontiguousarray(raw[:, n_real:]).view(complex)


def write_json(path, payload: dict) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def read_json(path, what: str, error: type[Exception]):
    """Parsed JSON file; unreadable or malformed files raise the caller's error type."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise error(f"malformed {what} {path}: {exc}") from exc
