"""Momentum-space bond-boson blocks, closed-form spectra, correspondence.

Each (q, k) of the chain model and each (s, p, kx, ky) of the 2D model
carries a 4x4 Hermitian block whose eigenvalues are signed sums of two
single-fermion band energies.  This module builds the literal blocks,
evaluates the closed forms, and produces the table that checks the
numeric, closed-form, and fermion-pair routes against each other.

The builders and closed forms broadcast over their momentum arguments:
scalars give one block, arrays give a stack of shape ``(..., 4, 4)``.
The correspondence table evaluates a whole momentum grid at once: one
block stack, one stacked eigensolve, one closed-form and one band
evaluation per table.  A one-point call runs the same formula, with the
same rounding, as the table entry at that point.

Chain block basis order: (A, q), (A, q - pi), (B, q), (B, q - pi).
2D block basis order: same-component combinations (+, -) then
mixed-component combinations (+, -).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fermion_model import dirac2d_band_energy, ssh_band_energy
from .lattice import ChainSpec, SquareSpec, chain_momenta, square_momenta
from .numerics import HermitianMatrix, hermitian_eigenvalues, max_residual, pow2


@dataclass(frozen=True)
class SSHBlock:
    """4x4 chain block at fixed (q, k), or the stack over arrays of them.

    cos_term  = 2 t0 cos q          (same-momentum diagonal energy)
    sin_term  = 4 alpha_u sin q     (dimerization-induced q <-> q-pi mixing)
    cross_term = e^{ik/2} (2 t0 cos(k/2 - q) + 4i alpha_u sin(k/2 - q))
                                    (cross-sublattice coupling)

    For a stack the terms are arrays of the momenta's broadcast shape.
    The same-spin and mixed-spin sectors share this block because the
    hopping is spin independent.
    """

    q: float
    k: float
    t0: float
    alpha_u: float
    cos_term: float
    sin_term: float
    cross_term: complex
    matrix: HermitianMatrix


@dataclass(frozen=True)
class DiracBlock:
    """4x4 square-lattice block at fixed (s, p, kx, ky) and mass m, or a stack.

    sin_x_plus  = sin s + sin(kx - s)    sin_x_minus = -sin s + sin(kx - s)
    sin_y_plus  = -sin p + sin(ky - p)   sin_y_minus =  sin p + sin(ky - p)

    m here is the block mass entering the off-diagonal -2m couplings;
    it equals the on-site splitting delta of the fermion model (twice
    the band-parameter m of dirac2d_band_energy).
    """

    s: float
    p: float
    kx: float
    ky: float
    m: float
    sin_x_plus: float
    sin_x_minus: float
    sin_y_plus: float
    sin_y_minus: float
    matrix: HermitianMatrix


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
    """The four signed sums +-r1 +-r2 along a new last axis, unsorted."""
    r1 = np.asarray(r1)[..., None]
    r2 = np.asarray(r2)[..., None]
    return np.array([1.0, 1.0, -1.0, -1.0]) * r1 + np.array([1.0, -1.0, 1.0, -1.0]) * r2


def ssh_boson_block(q, k, t0: float, alpha_u: float) -> SSHBlock:
    """Chain bond-boson block at (q, k); arrays of momenta give the stack.

    Momenta may be arbitrary reals; q and k broadcast against each other.
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
    matrix = HermitianMatrix(a)
    return SSHBlock(
        q=q, k=k, t0=t0, alpha_u=alpha_u,
        cos_term=y, sin_term=x, cross_term=matrix.array[..., 2, 0],
        matrix=matrix,
    )


def ssh_boson_closed_eigs(q, k, t0: float, alpha_u: float) -> np.ndarray:
    """All four signed sums of the two chain band radicals, ascending.

    The two radicals are the single-fermion band energies at momenta q
    and k/2 - q; the four sign combinations reproduce the block
    spectrum exactly (pairs of valence/valence, conduction/conduction,
    and mixed fermions).  Arrays of momenta give one row per block.
    """
    r1 = ssh_band_energy(q, t0, alpha_u).plus_branch
    r2 = ssh_band_energy(k / 2.0 - q, t0, alpha_u).plus_branch
    return np.sort(_signed_sums(r1, r2), axis=-1)


def dirac_boson_block(s, p, kx, ky, m: float) -> DiracBlock:
    """Square-lattice bond-boson block at (s, p) for total momentum (kx, ky).

    Arrays of momenta give the stack; all four broadcast together.
    """
    sin_kx = np.sin(kx - s)
    sin_ky = np.sin(ky - p)
    sp = np.sin(s) + sin_kx
    sm = -np.sin(s) + sin_kx
    pp = -np.sin(p) + sin_ky
    pm = np.sin(p) + sin_ky
    a = _stack(s, p, kx, ky)
    re, im = a.real, a.imag
    re[..., 0, 1] = re[..., 1, 0] = -2.0 * m
    re[..., 0, 2] = re[..., 2, 0] = -2.0 * pp
    re[..., 1, 3] = re[..., 3, 1] = 2.0 * pm
    re[..., 0, 3], im[..., 0, 3] = _times_real(-2.0j, sm)
    re[..., 3, 0], im[..., 3, 0] = _times_real(2.0j, sm)
    re[..., 1, 2], im[..., 1, 2] = _times_real(2.0j, sp)
    re[..., 2, 1], im[..., 2, 1] = _times_real(-2.0j, sp)
    return DiracBlock(
        s=s, p=p, kx=kx, ky=ky, m=m,
        sin_x_plus=sp, sin_x_minus=sm, sin_y_plus=pp, sin_y_minus=pm,
        matrix=HermitianMatrix(a),
    )


def dirac_boson_closed_eigs(s, p, kx, ky, m: float) -> np.ndarray:
    """All four signed sums of the two 2D band radicals, ascending.

    The radicals are ``sqrt(m^2 + 4 sin^2(.) + 4 sin^2(.))`` at (s, p)
    and (kx - s, ky - p): the single-fermion band energies of the
    lattice model with on-site splitting m.  The doubled sines carry
    the lattice hopping amplitude 2; the zero-momentum limit fixes the
    overall scale, giving {-2m, 0, 0, +2m} there.  Arrays of momenta
    give one row per block.
    """
    def radical(a, b):
        return np.sqrt(m * m + 4.0 * pow2(np.sin(a)) + 4.0 * pow2(np.sin(b)))

    return np.sort(_signed_sums(radical(s, p), radical(kx - s, ky - p)), axis=-1)


# ---------------------------------------------------------------------------
# Correspondence table
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpectrumTable:
    """Per-block eigenvalue table with a global pass/fail verdict.

    One row per momentum block, held as arrays: ``momenta`` is (N, 2),
    (q, k), on the chain and (N, 4), (s, p, kx, ky), in 2D;
    ``numeric``, ``closed_form`` and ``fermion_pairs`` are (N, 4), each
    row ascending: the numerically diagonalized block spectrum, the
    closed-form evaluation, and the reconstruction from signed pairs of
    single-fermion band energies.  ``discrepancy`` (N,) is each block's
    largest pointwise difference among the three.
    """

    model: str
    params: dict
    tolerance: float
    momenta: np.ndarray
    numeric: np.ndarray
    closed_form: np.ndarray
    fermion_pairs: np.ndarray
    discrepancy: np.ndarray

    @property
    def max_discrepancy(self) -> float:
        return max_residual(self.discrepancy)

    @property
    def passed(self) -> bool:
        """True if every block agrees within the tolerance (a NaN never does)."""
        return bool(np.all(self.discrepancy <= self.tolerance))


def correspondence_report(spec, tolerance: float = 1e-10) -> SpectrumTable:
    """Three-route eigenvalue table over the full momentum grid.

    For every block the numeric spectrum is compared against the closed
    form and against the signed sums of single-fermion band energies at
    the paired momenta (q and k/2 - q on the chain; (s, p) and
    (kx - s, ky - p) on the square lattice).  Rows exceeding the
    tolerance (or carrying a NaN) stay in the table and flip the
    verdict; nothing is dropped.  Rows are ordered by momentum tuple.
    """
    if isinstance(spec, ChainSpec):
        grid = chain_momenta(spec.n_cells)
        q, k = np.repeat(grid, grid.size), np.tile(grid, grid.size)
        t0, alpha_u = spec.t0, spec.alpha_u
        block = ssh_boson_block(q, k, t0, alpha_u)
        closed = ssh_boson_closed_eigs(q, k, t0, alpha_u)
        pairs = _signed_sums(ssh_band_energy(q, t0, alpha_u).plus_branch,
                             ssh_band_energy(k / 2.0 - q, t0, alpha_u).plus_branch)
        momenta = np.column_stack((q, k))
        model = "ssh"
        params = {"n_sites": spec.n_sites, "t0": spec.t0, "alpha_u": spec.alpha_u}
    elif isinstance(spec, SquareSpec):
        grid = square_momenta(spec.lx, spec.ly)
        momenta = np.column_stack((np.repeat(grid, len(grid), axis=0),
                                   np.tile(grid, (len(grid), 1))))
        s, p, kx, ky = momenta.T
        block = dirac_boson_block(s, p, kx, ky, spec.delta)
        closed = dirac_boson_closed_eigs(s, p, kx, ky, spec.delta)
        # The block mass is the on-site splitting delta; the band energies
        # use the model's m = delta/2, so each radical is one full fermion
        # band energy and the block spectrum is the signed pair sums.
        pairs = _signed_sums(dirac2d_band_energy(s, p, spec.m).plus_branch,
                             dirac2d_band_energy(kx - s, ky - p, spec.m).plus_branch)
        model = "dirac2d"
        params = {"lx": spec.lx, "ly": spec.ly, "delta": spec.delta}
    else:
        raise TypeError(f"expected ChainSpec or SquareSpec, got {type(spec).__name__}")
    numeric, closed, pairs = (
        np.sort(route, axis=-1) for route in (hermitian_eigenvalues(block.matrix), closed, pairs)
    )
    spread = np.max(np.abs(np.concatenate((numeric - closed, numeric - pairs), axis=-1)), axis=-1)
    return SpectrumTable(
        model=model,
        params=params,
        tolerance=tolerance,
        momenta=momenta,
        numeric=numeric,
        closed_form=closed,
        fermion_pairs=pairs,
        discrepancy=spread,
    )
