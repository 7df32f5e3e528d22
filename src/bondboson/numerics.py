"""Dense complex Hermitian matrices, their exact eigensystems, residual maxima.

Every spectrum computed anywhere in this package (band structures,
4x4 momentum blocks) funnels through :func:`hermitian_eigenvalues`, so
input validation is concentrated here: a matrix that is not Hermitian
within tolerance is rejected with the offending entry pair named, and
non-finite entries never enter.

Matrices live at desk scale (dim <= a few thousand), so the solver is
LAPACK's Hermitian eigensolver via numpy; robustness and exact sorting
matter more than asymptotics.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance for the conjugate-symmetry check, scaled by the
# largest entry modulus.
HERMITICITY_RTOL = 1e-14


class NonHermitianError(ValueError):
    """Raised when a matrix fails the conjugate-symmetry invariant."""


class HermitianMatrix:
    """Validated dense complex Hermitian matrix.

    Construction checks that ``entries[i][j] == conj(entries[j][i])``
    within ``1e-14 * max|entry|`` and that all entries are finite, then
    forces the (numerically tiny) imaginary parts on the diagonal to
    exactly zero.  The validated array is exposed as ``.array``.
    """

    def __init__(self, entries):
        a = np.array(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] == 0:
            raise ValueError("zero-dimensional matrix rejected")
        if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
            bad = np.argwhere(~(np.isfinite(a.real) & np.isfinite(a.imag)))[0]
            raise ValueError(f"non-finite entry at ({bad[0]}, {bad[1]})")
        scale = np.max(np.abs(a))
        diff = np.abs(a - a.conj().T)
        if np.max(diff) > HERMITICITY_RTOL * scale:
            i, j = np.unravel_index(np.argmax(diff), diff.shape)
            raise NonHermitianError(
                f"entry ({i},{j})={a[i, j]} is not the conjugate of "
                f"({j},{i})={a[j, i]}"
            )
        np.fill_diagonal(a, a.diagonal().real)
        a.setflags(write=False)
        self.array = a

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    def __repr__(self):
        return f"HermitianMatrix(dim={self.dim})"


def _as_hermitian(matrix) -> HermitianMatrix:
    if isinstance(matrix, HermitianMatrix):
        return matrix
    return HermitianMatrix(matrix)


def hermitian_eigensystem(matrix):
    """Eigenvalues and eigenvectors of a Hermitian matrix.

    Parameters
    ----------
    matrix : HermitianMatrix or array_like
        Array input is validated as for :class:`HermitianMatrix`.

    Returns
    -------
    (eigenvalues, eigenvectors)
        Eigenvalues ascending; eigenvectors as orthonormal columns,
        ``eigenvectors[:, i]`` belonging to ``eigenvalues[i]``.
    """
    h = _as_hermitian(matrix)
    eigenvalues, eigenvectors = np.linalg.eigh(h.array)
    return eigenvalues, eigenvectors


def hermitian_eigenvalues(matrix):
    """Ascending eigenvalues of a Hermitian matrix (vectors discarded)."""
    h = _as_hermitian(matrix)
    return np.linalg.eigvalsh(h.array)


def max_residual(values) -> float:
    """Largest of the non-negative ``values`` (0.0 if there are none); NaN if any is NaN.

    The builtin ``max`` keeps its running value when compared with NaN,
    so a NaN residual anywhere but first would vanish from a report.
    """
    return float(np.max(np.fromiter(values, dtype=float), initial=0.0))


def frobenius_norm(matrix) -> float:
    """Square root of the sum of squared entry moduli (any matrix)."""
    a = matrix.array if isinstance(matrix, HermitianMatrix) else np.asarray(matrix)
    return float(np.linalg.norm(a, "fro"))
