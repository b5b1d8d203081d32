"""RBF kernel matrices from gram matrices.

The squared Euclidean distance between samples i and j is recoverable
from dot products alone, d2 = G[i,i] - 2 G[i,j] + G[j,j], so the gram
matrix assembled by the function party is all that is needed:

    K[i,j] = exp(-d2 / (2 sigma^2))
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError
from .matrix import load_real_csv, save_csv

# The largest |G[i,j] - G[j,i]| a gram may show and still count as symmetric.
_SYM_TOL = 1e-9


@dataclass(frozen=True)
class KernelMatrix:
    entries: np.ndarray  # N x N, symmetric, unit diagonal
    sigma: float

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def rbf_from_gram(gram, sigma: float) -> KernelMatrix:
    """Gaussian RBF kernel derived from an N x N gram matrix of dot products,
    which must be symmetric to within ``_SYM_TOL``."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise DomainError(f"sigma must be positive and finite, got {sigma}")
    g = np.asarray(gram, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DataError(f"gram matrix must be square, got shape {g.shape}")
    if g.size and np.max(np.abs(g - g.T)) > _SYM_TOL:
        raise DataError("gram matrix is not symmetric within tolerance")
    diag = np.diag(g)
    d2 = diag[:, None] - 2.0 * g + diag[None, :]
    # d2 is a squared distance: clamp the tiny negatives float error can
    # leave and symmetrize away evaluation-order asymmetry
    np.maximum(d2, 0.0, out=d2)
    d2 = 0.5 * (d2 + d2.T)
    k = np.exp(-d2 / (2.0 * sigma * sigma))
    return KernelMatrix(k, float(sigma))


def rbf_direct(samples, sigma: float) -> np.ndarray:
    """Pairwise-distance RBF straight from sample columns (f x N)."""
    x = np.asarray(samples, dtype=float)
    sq = np.sum(x * x, axis=0)
    d2 = sq[:, None] - 2.0 * (x.T @ x) + sq[None, :]
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-d2 / (2.0 * sigma * sigma))


def export_matrix(k: KernelMatrix, path, fmt: str = "csv") -> None:
    """Write the kernel as CSV (17 significant digits) or JSON.

    JSON has no NaN, so a sigma that is not finite, such as that of a kernel
    read from CSV, is written as ``null``.
    """
    if fmt == "csv":
        save_csv(k.entries, path)
    elif fmt == "json":
        sigma = k.sigma if math.isfinite(k.sigma) else None
        doc = {"n": k.n, "sigma": sigma, "rows": [[float(v) for v in row] for row in k.entries]}
        with open(path, "w") as fh:
            json.dump(doc, fh)
    else:
        raise DataError(f"unknown export format {fmt!r}")


def import_matrix(path, fmt: str = "csv") -> KernelMatrix:
    """Read a kernel that ``export_matrix`` wrote.  CSV carries no sigma, and
    JSON's ``null`` stands for none, so either gives a NaN sigma.

    A file that cannot be read, is not UTF-8 or not JSON, or has no
    ``"sigma"`` or no ``"rows"`` raises ``DataError``, as a bad CSV file does.
    """
    if fmt == "csv":
        return KernelMatrix(load_real_csv(path), sigma=float("nan"))
    if fmt == "json":
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise DataError(exc.strerror) from None
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
            raise DataError(f"not a JSON kernel file: {exc}") from None
        missing = [key for key in ("sigma", "rows") if not isinstance(doc, dict) or key not in doc]
        if missing:
            raise DataError(f"JSON kernel file has no {' or '.join(map(repr, missing))}")
        sigma = float("nan") if doc["sigma"] is None else doc["sigma"]
        return KernelMatrix(np.array(doc["rows"], dtype=float), sigma=sigma)
    raise DataError(f"unknown export format {fmt!r}")
