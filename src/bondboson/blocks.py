"""Momentum-space bond-boson blocks, closed-form spectra, correspondence.

Each (q, k) of the chain model and each (s, p, kx, ky) of the 2D model
carries a 4x4 Hermitian block whose eigenvalues are signed sums of two
single-fermion band energies (:func:`ssh_band_energy`,
:func:`dirac2d_band_energy`).  This module builds the literal blocks,
evaluates those sums (the closed forms), and produces the table that
measures the numeric spectrum against them: two independent routes, the
eigensolver and the band formulas, so the table's closed-form and
fermion-pair columns are one evaluation.  The table holds measurements
only; the caller judges its ``max_discrepancy`` against a bound.

The builders and closed forms broadcast over their momentum arguments:
scalars give one :class:`HermitianMatrix` block, arrays give a stack of
shape ``(..., 4, 4)``.
The correspondence table evaluates the closed forms over the whole
momentum grid at once, and the blocks ``CHUNK_ROWS`` rows at a time: one
block stack and one stacked eigensolve per chunk, so their temporaries
stay bounded on any grid.  Each block is built and diagonalized on its
own, so the table's bits do not depend on the chunk.  A one-point call
runs the same formula, with the same rounding, as the table entry at
that point.

Chain block basis order: (A, q), (A, q - pi), (B, q), (B, q - pi).
2D block basis order: same-component combinations (+, -) then
mixed-component combinations (+, -).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fermion_model import dirac2d_band_energy, ssh_band_energy
from .lattice import ChainSpec, SquareSpec, chain_momenta, square_momenta
from .numerics import HermitianMatrix, hermitian_eigenvalues, max_residual

CHUNK_ROWS = 1024  # table rows (momentum blocks) diagonalized, and written, per chunk


# The block entries are written in real arithmetic, in the order and with
# the zero terms of the scalar complex products they stand for: numpy may
# fuse the multiply-adds of an array complex product, and the signs of zero
# parts reach the eigensolver, so this keeps every entry's bits.

def _times_real(c: complex, x):
    """Real and imaginary parts of the product of the complex number c and real x."""
    return c.real * x - c.imag * 0.0, c.real * 0.0 + c.imag * x


def _stack(*momenta) -> np.ndarray:
    """Zero complex 4x4 blocks, one per entry of the momenta's broadcast shape."""
    return np.zeros(np.broadcast_shapes(*map(np.shape, momenta)) + (4, 4), dtype=complex)


def _signed_sums(r1, r2) -> np.ndarray:
    """The four signed sums +-r1 +-r2 along a new last axis, ascending."""
    r1 = np.asarray(r1)[..., None]
    r2 = np.asarray(r2)[..., None]
    return np.sort(np.array([1.0, 1.0, -1.0, -1.0]) * r1 + np.array([1.0, -1.0, 1.0, -1.0]) * r2,
                   axis=-1)


def ssh_boson_block(q, k, t0: float, alpha_u: float) -> HermitianMatrix:
    """Chain bond-boson block at (q, k); arrays of momenta give the stack.

    Momenta may be arbitrary reals; q and k broadcast against each other.
    The same-spin and mixed-spin sectors share this block because the
    hopping is spin independent.
    """
    y = 2.0 * t0 * np.cos(q)
    x = 4.0 * alpha_u * np.sin(q)
    # z = e^{ik/2} (c + i d)
    e = np.exp(0.5j * k)
    c = 2.0 * t0 * np.cos(k / 2.0 - q)
    d = 0.0 + 4.0 * alpha_u * np.sin(k / 2.0 - q)
    zr = e.real * c - e.imag * d
    zi = e.real * d + e.imag * c
    a = _stack(q, k)
    re, im = a.real, a.imag
    re[..., 0, 0] = re[..., 2, 2] = y
    re[..., 1, 1] = re[..., 3, 3] = -y
    re[..., 0, 1], im[..., 0, 1] = _times_real(-1j, x)
    re[..., 1, 0], im[..., 1, 0] = _times_real(1j, x)
    re[..., 2, 3], im[..., 2, 3] = _times_real(1j, x)
    re[..., 3, 2], im[..., 3, 2] = _times_real(-1j, x)
    re[..., 2, 0], im[..., 2, 0] = zr, zi
    re[..., 0, 2], im[..., 0, 2] = zr, -zi
    re[..., 3, 1], im[..., 3, 1] = -zr, -zi
    re[..., 1, 3], im[..., 1, 3] = -zr, zi
    return HermitianMatrix(a)


def ssh_boson_closed_eigs(q, k, t0: float, alpha_u: float) -> np.ndarray:
    """All four signed sums of the two chain band radicals, ascending.

    The two radicals are the single-fermion band energies at momenta q
    and k/2 - q; the four sign combinations reproduce the block
    spectrum exactly (pairs of valence/valence, conduction/conduction,
    and mixed fermions).  Arrays of momenta give one row per block.
    """
    return _signed_sums(ssh_band_energy(q, t0, alpha_u),
                        ssh_band_energy(k / 2.0 - q, t0, alpha_u))


def dirac_boson_block(s, p, kx, ky, delta: float) -> HermitianMatrix:
    """Square-lattice bond-boson block at (s, p) for total momentum (kx, ky).

    Arrays of momenta give the stack; all four broadcast together.
    ``delta`` is the on-site splitting of the fermion model
    (:attr:`SquareSpec.delta`), twice the band parameter m of
    :func:`dirac2d_band_energy`.
    """
    sin_kx = np.sin(kx - s)
    sin_ky = np.sin(ky - p)
    sp = np.sin(s) + sin_kx
    sm = -np.sin(s) + sin_kx
    pp = -np.sin(p) + sin_ky
    pm = np.sin(p) + sin_ky
    a = _stack(s, p, kx, ky)
    re, im = a.real, a.imag
    re[..., 0, 1] = re[..., 1, 0] = -2.0 * delta
    re[..., 0, 2] = re[..., 2, 0] = -2.0 * pp
    re[..., 1, 3] = re[..., 3, 1] = 2.0 * pm
    re[..., 0, 3], im[..., 0, 3] = _times_real(-2.0j, sm)
    re[..., 3, 0], im[..., 3, 0] = _times_real(2.0j, sm)
    re[..., 1, 2], im[..., 1, 2] = _times_real(2.0j, sp)
    re[..., 2, 1], im[..., 2, 1] = _times_real(-2.0j, sp)
    return HermitianMatrix(a)


def dirac_boson_closed_eigs(s, p, kx, ky, delta: float) -> np.ndarray:
    """All four signed sums of the two 2D band radicals, ascending.

    The radicals are the single-fermion band energies
    ``2*sqrt(m^2 + sin^2 + sin^2)`` (:func:`dirac2d_band_energy`) at
    (s, p) and (kx - s, ky - p) of the lattice model with on-site
    splitting delta = 2m.  The zero-momentum limit fixes the overall
    scale, giving {-2 delta, 0, 0, +2 delta} there.  Arrays of momenta
    give one row per block.
    """
    m = delta / 2.0
    return _signed_sums(dirac2d_band_energy(s, p, m), dirac2d_band_energy(kx - s, ky - p, m))


# ---------------------------------------------------------------------------
# Correspondence table
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpectrumTable:
    """Per-block eigenvalue table and its discrepancies: measurements, no verdict.

    ``spec`` is the lattice the table was computed on.  One row per
    momentum block, held as arrays: ``momenta`` holds integer
    grid indices, (N, 2), (q, k) on the chain's cell grid, and (N, 4),
    (s, p, kx, ky) on the x, y, x and y axis grids, in 2D;
    ``numeric``, ``closed_form`` and ``fermion_pairs`` are (N, 4), each
    row ascending: the numerically diagonalized block spectrum, the
    closed-form evaluation, and the reconstruction from signed pairs of
    single-fermion band energies.  The last two are one array: the
    closed forms are those signed pairs (see the module docstring).
    ``discrepancy`` (N,) is each block's largest pointwise difference
    of the numeric column from the closed form, and ``max_discrepancy``
    the largest of them, NaN if any block's is.
    """

    spec: ChainSpec | SquareSpec
    momenta: np.ndarray
    numeric: np.ndarray
    closed_form: np.ndarray
    fermion_pairs: np.ndarray
    discrepancy: np.ndarray

    @property
    def max_discrepancy(self) -> float:
        return max_residual(self.discrepancy)


def correspondence_report(spec) -> SpectrumTable:
    """Eigenvalue table over the full momentum grid.

    For every block the numeric spectrum is compared against the closed
    form, the signed sums of single-fermion band energies at the paired
    momenta (q and k/2 - q on the chain; (s, p) and (kx - s, ky - p) on
    the square lattice), evaluated once.  Every row stays in the table,
    one carrying a NaN too; nothing is dropped.  Rows are ordered by
    momentum tuple.
    The closed forms are one whole-grid evaluation; the blocks are built,
    validated and diagonalized as one stack per ``CHUNK_ROWS`` rows, and
    no entry's bits depend on the chunk.
    """
    if isinstance(spec, ChainSpec):
        grid = chain_momenta(spec.n_cells)
        momenta = np.column_stack(np.divmod(np.arange(grid.size ** 2), grid.size))
        points = grid[momenta[:, 0]], grid[momenta[:, 1]]  # q, k
        build, closed_eigs = ssh_boson_block, ssh_boson_closed_eigs
        params = spec.t0, spec.alpha_u
    elif isinstance(spec, SquareSpec):
        grid = square_momenta(spec.lx, spec.ly)
        # flat x-major cell indices of (s, p) and of (kx, ky)
        first, total = np.divmod(np.arange(len(grid) ** 2), len(grid))
        momenta = np.column_stack(np.divmod(first, spec.ly) + np.divmod(total, spec.ly))
        points = np.hstack((grid[first], grid[total])).T  # s, p, kx, ky
        build, closed_eigs = dirac_boson_block, dirac_boson_closed_eigs
        params = (spec.delta,)
    else:
        raise TypeError(f"expected ChainSpec or SquareSpec, got {type(spec).__name__}")
    closed = closed_eigs(*points, *params)
    # eigvalsh and the closed forms are ascending already
    numeric = np.empty_like(closed)
    for start in range(0, len(closed), CHUNK_ROWS):
        rows = slice(start, start + CHUNK_ROWS)
        numeric[rows] = hermitian_eigenvalues(build(*(x[rows] for x in points), *params))
    return SpectrumTable(spec=spec, momenta=momenta, numeric=numeric,
                         closed_form=closed, fermion_pairs=closed,
                         discrepancy=np.max(np.abs(numeric - closed), axis=-1))
