"""Dense matrices in features x samples orientation.

Every data matrix in the protocols is f x n with one column per sample,
so the gram block of two parties is ``gram_t(A, B) = A^T B`` with shape
(A.cols x B.cols).  A matrix is a read-only 2-D numpy array in its
domain's fixed-width ``dtype`` (uint64 residues in [0, p)) plus that
domain.  The domain owns every operation on the entries: the elementwise
ones are its ``array_add``, ``array_sub`` and ``array_mul``, and
``gram_t`` is its ``matmul_t`` -- an exact product on float64 BLAS whose
limbs are sized by each operand's own width: one GEMM for narrow encoded
data, and for wider operands every limb product from one batched
``np.matmul`` call, in few numpy passes, since the party threads of a
loopback run hand the GIL over at each pass (see ``mpgram.field``).
``encode_real_matrix`` encodes reals as one float64 array expression of
the domain.  The domain also owns the wire codec of the entries.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from .errors import DataError, DimensionError, DomainMismatchError


class Matrix:
    """An immutable rows x cols matrix over ``domain``; ``data`` is its entry
    array, a read-only copy of ``data`` in ``domain.dtype``."""

    __slots__ = ("data", "domain")

    def __init__(self, data, domain):
        data = np.array(data, dtype=domain.dtype)
        if data.ndim != 2:
            raise DimensionError(f"matrix data must be 2-D, got shape {data.shape}")
        data.flags.writeable = False
        self.data = data
        self.domain = domain

    @property
    def rows(self) -> int:  # f, features
        return self.data.shape[0]

    @property
    def cols(self) -> int:  # n, samples
        return self.data.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.data.shape == other.data.shape
            and bool((self.data == other.data).all())
        )

    __hash__ = None

    def __reduce__(self):
        # through __init__, so that an unpickled matrix is read-only too
        return Matrix, (self.data, self.domain)

    def __repr__(self) -> str:
        return f"Matrix(rows={self.rows}, cols={self.cols})"

    def transpose(self) -> "Matrix":
        return Matrix(self.data.T, self.domain)

    @staticmethod
    def from_rows(rows: Sequence[Sequence], domain) -> "Matrix":
        shape = _rows_shape(rows)  # first: numpy reports ragged rows as a ValueError
        return Matrix(np.array(rows, dtype=domain.dtype).reshape(shape), domain)

    @staticmethod
    def zeros(rows: int, cols: int, domain) -> "Matrix":
        return Matrix(np.zeros((rows, cols), dtype=domain.dtype), domain)


def _rows_shape(rows: Sequence[Sequence]) -> tuple:
    """(rows, cols) of a 2-D sequence; ragged rows raise ``DimensionError``."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if any(len(r) != nc for r in rows):
        raise DimensionError("ragged rows")
    return nr, nc


def _check_same_domain(a: Matrix, b: Matrix):
    if a.domain != b.domain:
        raise DomainMismatchError(f"mixed domains: {a.domain!r} vs {b.domain!r}")


def _check_same_shape(a: Matrix, b: Matrix):
    _check_same_domain(a, b)
    if a.data.shape != b.data.shape:
        raise DimensionError(
            f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols} (features x samples)"
        )


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    _check_same_shape(a, b)
    return Matrix(a.domain.array_add(a.data, b.data), a.domain)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    _check_same_shape(a, b)
    return Matrix(a.domain.array_sub(a.data, b.data), a.domain)


def mat_scale(s, a: Matrix) -> Matrix:
    return Matrix(a.domain.array_mul(s, a.data), a.domain)


def gram_t(a: Matrix, b: Matrix) -> Matrix:
    """A^T B for matrices sharing the feature dimension; shape a.cols x b.cols."""
    _check_same_domain(a, b)
    if a.rows != b.rows:
        raise DimensionError(
            f"feature dimension mismatch: {a.rows} vs {b.rows} (features x samples)"
        )
    return Matrix(a.domain.matmul_t(a.data, b.data), a.domain)


def random_matrix(shape: tuple, domain, key: bytes, label) -> Matrix:
    """Matrix of i.i.d. uniform domain elements: ``domain.sample(key, label, .)``, row-major."""
    rows, cols = shape
    return Matrix(domain.sample(key, label, rows * cols).reshape(rows, cols), domain)


def encode_real_matrix(rows: Sequence[Sequence[float]], domain) -> Matrix:
    """Matrix of ``domain.encode`` of every entry of a 2-D sequence of reals.

    The encode is one array expression, ``domain.encode_array``: a float64
    fixed-point rounding with the scalar codec's ties, range
    check and error text.
    """
    shape = _rows_shape(rows)  # first: numpy reports ragged rows as a ValueError
    return Matrix(domain.encode_array(rows).reshape(shape), domain)


# -- CSV interchange ----------------------------------------------------
#
# Header-free, comma-separated, one matrix row per line, every value a
# float64.  Reals are written with 17 significant digits, enough to read
# them back bit for bit.


def save_csv(x, path) -> None:
    """Write a 2-D array of reals as CSV."""
    np.savetxt(path, x, fmt="%.17g", delimiter=",")


def load_real_csv(path, transpose: bool = False) -> np.ndarray:
    """A CSV file's numbers as a 2-D float64 array; a file that cannot be read,
    is ragged or holds a non-number or no number raises ``DataError``, which
    names the 1-based line of the file where a bad row is."""
    try:
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "no data": checked below
            x = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    except OSError as exc:
        raise DataError(exc.strerror) from None
    except ValueError as exc:
        raise DataError(_first_bad_line(path) or str(exc).partition(";")[0]) from None
    if x.size == 0:
        raise DataError("holds no numbers")
    return x.T if transpose else x


def _first_bad_line(path) -> str | None:
    """What is wrong with the first bad row of a CSV file, at its file line.

    ``np.loadtxt`` skips empty lines and numbers the rows it reads, from 0 for
    a non-number and from 1 for a change in the number of columns; so its row
    is not the line of the file.  This scan, run only after loadtxt failed,
    makes the same checks in the same order (column count first) and counts
    every line.  Bytes that are not text read as U+FFFD, so they show as a
    non-number.  None if it finds nothing wrong.
    """
    width = None
    with open(path, errors="replace") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split(",")
            if width is not None and len(fields) != width:
                return (f"the number of columns changed from {width} to {len(fields)} "
                        f"at line {line_no}")
            width = len(fields)
            for col, text in enumerate(fields, start=1):
                try:
                    float(text)
                except ValueError:
                    return (f"could not convert string {text!r} to float64 "
                            f"at line {line_no}, column {col}.")
    return None
