"""Dense matrices in features x samples orientation.

Every data matrix in the protocols is f x n with one column per sample,
so the gram block of two parties is ``gram_t(A, B) = A^T B`` with shape
(A.cols x B.cols).  A matrix is a read-only 2-D numpy array of dtype
``object`` plus its scalar domain.  The entries stay Python scalars (ints
in [0, p) over the field, floats over the float domain).  Elementwise
operations are one array expression followed by the domain's ``reduce``,
exact because Python ints do not overflow.  ``encode_real_matrix`` encodes
reals as one float64 array expression of the domain and stores the result
as such an object array.  ``gram_t`` is the domain's
``matmul_t``: over the field an exact limb-split product on float64 BLAS
(see ``mpgram.field``), over floats a plain object-array sum.  The domain
also owns the wire codec of the entries.
"""

from __future__ import annotations

from random import Random
from typing import Sequence

import numpy as np

from .errors import DimensionError, DomainMismatchError


class Matrix:
    """An immutable rows x cols matrix over ``domain``; ``data`` is its entry array."""

    __slots__ = ("data", "domain")

    def __init__(self, data, domain=None):
        data = np.array(data, dtype=object)
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

    def __repr__(self) -> str:
        return f"Matrix(rows={self.rows}, cols={self.cols})"

    def transpose(self) -> "Matrix":
        return Matrix(self.data.T, self.domain)

    @staticmethod
    def from_rows(rows: Sequence[Sequence], domain) -> "Matrix":
        return Matrix(np.array(rows, dtype=object).reshape(_rows_shape(rows)), domain)

    @staticmethod
    def zeros(rows: int, cols: int, domain) -> "Matrix":
        return Matrix(np.full((rows, cols), domain.zero, dtype=object), domain)


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
    return Matrix(a.domain.reduce(a.data + b.data), a.domain)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    _check_same_shape(a, b)
    return Matrix(a.domain.reduce(a.data - b.data), a.domain)


def mat_scale(s, a: Matrix) -> Matrix:
    return Matrix(a.domain.reduce(s * a.data), a.domain)


def gram_t(a: Matrix, b: Matrix) -> Matrix:
    """A^T B for matrices sharing the feature dimension; shape a.cols x b.cols."""
    _check_same_domain(a, b)
    if a.rows != b.rows:
        raise DimensionError(
            f"feature dimension mismatch: {a.rows} vs {b.rows} (features x samples)"
        )
    return Matrix(a.domain.matmul_t(a.data, b.data), a.domain)


def random_matrix(shape: tuple, domain, rng: Random) -> Matrix:
    """Matrix of i.i.d. uniform domain elements from a seeded generator.

    The entries, in row-major order, are the values of successive
    ``domain.uniform(rng)`` calls, drawn in bulk by ``domain.uniform_rows``.
    """
    rows, cols = shape
    return Matrix(domain.uniform_rows([rng], rows * cols).reshape(rows, cols), domain)


def encode_real_matrix(rows: Sequence[Sequence[float]], domain) -> Matrix:
    """Matrix of ``domain.encode`` of every entry of a 2-D sequence of reals.

    The encode is one array expression, ``domain.encode_array``: over the
    field a float64 fixed-point rounding with the scalar codec's ties, range
    check and error text; the result is held, like every Matrix, as an
    object array.
    """
    shape = _rows_shape(rows)  # first: numpy reports ragged rows as a ValueError
    return Matrix(domain.encode_array(rows).reshape(shape), domain)


# -- CSV interchange ----------------------------------------------------
#
# Header-free, comma-separated, one matrix row per line.  Ints (encoded
# field elements) are written and read back exactly; reals are written with
# 17 significant digits, enough to read them back bit for bit.


def save_csv(m, path) -> None:
    """Write a Matrix, or any 2-D sequence of numbers, as CSV."""
    rows = m.data if isinstance(m, Matrix) else m
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(str(x) if isinstance(x, int) else format(x, ".17g") for x in row))
            fh.write("\n")


def load_real_csv(path, transpose: bool = False) -> list:
    """Rows of numbers from a CSV file; integer tokens are read as exact ints."""
    with open(path) as fh:
        rows = [[_number(tok) for tok in line.split(",")] for line in map(str.strip, fh) if line]
    if transpose:
        return [list(col) for col in zip(*rows)]
    return rows


def _number(tok: str):
    tok = tok.strip()
    return int(tok) if tok.lstrip("-").isdecimal() else float(tok)
