"""Dense complex Hermitian matrices, their eigenvalues, residual maxima.

Every spectrum computed anywhere in this package (band structures,
4x4 momentum blocks) funnels through :func:`hermitian_eigenvalues`, so
input validation is concentrated here: a matrix that is not Hermitian
within tolerance is rejected with the offending entry pair named, and
non-finite entries never enter.  A stack of matrices, shape
``(..., n, n)``, takes the same path: every matrix of it is checked on
its own scale and the stack is diagonalized in one call.

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
    """Validated dense complex Hermitian matrix, or a stack of them.

    ``entries`` is one matrix or a stack of shape ``(..., n, n)``.
    Construction checks each matrix on its own: all entries finite and
    ``entries[i][j] == conj(entries[j][i])`` within
    ``1e-14 * max|entry|`` of that matrix.  The first matrix of a stack
    that fails raises the error it raises alone.  The (numerically tiny)
    imaginary parts on the diagonals are then forced to exactly zero.
    The validated array is exposed as ``.array``.
    """

    def __init__(self, entries):
        a = np.array(entries, dtype=complex)
        if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        n = a.shape[-1]
        if n == 0:
            raise ValueError("zero-dimensional matrix rejected")
        stack = a.reshape(-1, n, n)
        finite = np.all(np.isfinite(stack), axis=(1, 2))
        # inf - inf in a non-finite matrix is NaN; that matrix fails as non-finite
        with np.errstate(invalid="ignore"):
            diff = np.abs(stack - stack.conj().transpose(0, 2, 1))
            scale = np.max(np.abs(stack), axis=(1, 2))
            hermitian = np.max(diff, axis=(1, 2)) <= HERMITICITY_RTOL * scale
        failed = np.flatnonzero(~(finite & hermitian))
        if failed.size:
            first = failed[0]
            m = stack[first]
            if not finite[first]:
                bad = np.argwhere(~np.isfinite(m))[0]
                raise ValueError(f"non-finite entry at ({bad[0]}, {bad[1]})")
            i, j = np.unravel_index(np.argmax(diff[first]), (n, n))
            raise NonHermitianError(
                f"entry ({i},{j})={m[i, j]} is not the conjugate of "
                f"({j},{i})={m[j, i]}"
            )
        diagonal = np.arange(n)
        a[..., diagonal, diagonal] = a[..., diagonal, diagonal].real
        a.setflags(write=False)
        self.array = a

    @property
    def dim(self) -> int:
        return self.array.shape[-1]

    def __repr__(self):
        return f"HermitianMatrix(dim={self.dim})"


def hermitian_eigenvalues(matrix):
    """Ascending eigenvalues of a Hermitian matrix, or of each matrix of a stack.

    Array input is validated as for :class:`HermitianMatrix`.
    """
    h = matrix if isinstance(matrix, HermitianMatrix) else HermitianMatrix(matrix)
    return np.linalg.eigvalsh(h.array)


def pow2(x):
    """``x ** 2`` rounded as libm ``pow`` rounds it, for scalars and arrays alike.

    numpy squares a float64 scalar with ``pow`` but an array with ``x * x``;
    the two differ in the last bit on about one input in a thousand, so a
    formula written with ``** 2`` would give a table other bits than its
    one-point calls.
    """
    return np.float_power(x, 2)


def unfused_product(x, y) -> np.ndarray:
    """``x * y`` of complex arrays (broadcast), each part rounded as written:
    ``(xr*yr - xi*yi, xr*yi + xi*yr)``.

    This is the complex product of a C++ sparse kernel (scipy's
    ``csr_matmat``).  numpy's complex ``*`` may fuse a multiply-add, which
    rounds once where this rounds twice, so a sum of such products would
    differ from the sparse product's in the last bits.
    """
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    product = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    product.real = x.real * y.real - x.imag * y.imag
    product.imag = x.real * y.imag + x.imag * y.real
    return product


def max_residual(values) -> float:
    """Largest of the non-negative ``values`` (0.0 if there are none); NaN if any is NaN.

    The builtin ``max`` keeps its running value when compared with NaN,
    so a NaN residual anywhere but first would vanish from a report.  ``values`` is
    an array or a sequence.
    """
    return float(np.max(np.asarray(values, dtype=float), initial=0.0))
