"""Momentum-space bond-boson blocks, closed-form spectra, correspondence.

Each (q, k) of the chain model and each (s, p, kx, ky) of the 2D model
carries a 4x4 Hermitian block whose eigenvalues are signed sums of two
single-fermion band energies.  This module builds the literal blocks,
evaluates the closed forms, and produces the table that checks the
numeric, closed-form, and fermion-pair routes against each other.

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


@dataclass(frozen=True)
class SSHBlock:
    """4x4 chain block at fixed (q, k).

    cos_term  = 2 t0 cos q          (same-momentum diagonal energy)
    sin_term  = 4 alpha_u sin q     (dimerization-induced q <-> q-pi mixing)
    cross_term = e^{ik/2} (2 t0 cos(k/2 - q) + 4i alpha_u sin(k/2 - q))
                                    (cross-sublattice coupling)

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
    """4x4 square-lattice block at fixed (s, p, kx, ky) and mass m.

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


def ssh_boson_block(q: float, k: float, t0: float, alpha_u: float) -> SSHBlock:
    """Chain bond-boson block at (q, k); momenta may be arbitrary reals."""
    y = 2.0 * t0 * np.cos(q)
    x = 4.0 * alpha_u * np.sin(q)
    z = np.exp(0.5j * k) * (
        2.0 * t0 * np.cos(k / 2.0 - q) + 4.0j * alpha_u * np.sin(k / 2.0 - q)
    )
    zc = np.conj(z)
    arr = np.array(
        [
            [y, -1j * x, zc, 0.0],
            [1j * x, -y, 0.0, -zc],
            [z, 0.0, y, 1j * x],
            [0.0, -z, -1j * x, -y],
        ],
        dtype=complex,
    )
    return SSHBlock(
        q=float(q), k=float(k), t0=float(t0), alpha_u=float(alpha_u),
        cos_term=float(y), sin_term=float(x), cross_term=complex(z),
        matrix=HermitianMatrix(arr),
    )


def ssh_boson_closed_eigs(q: float, k: float, t0: float, alpha_u: float) -> np.ndarray:
    """All four signed sums of the two chain band radicals, ascending.

    The two radicals are the single-fermion band energies at momenta q
    and k/2 - q; the four sign combinations reproduce the block
    spectrum exactly (pairs of valence/valence, conduction/conduction,
    and mixed fermions).
    """
    r1 = ssh_band_energy(q, t0, alpha_u).plus_branch
    r2 = ssh_band_energy(k / 2.0 - q, t0, alpha_u).plus_branch
    return np.sort([s1 * r1 + s2 * r2 for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)])


def dirac_boson_block(s: float, p: float, kx: float, ky: float, m: float) -> DiracBlock:
    """Square-lattice bond-boson block at (s, p) for total momentum (kx, ky)."""
    sp = np.sin(s) + np.sin(kx - s)
    sm = -np.sin(s) + np.sin(kx - s)
    pp = -np.sin(p) + np.sin(ky - p)
    pm = np.sin(p) + np.sin(ky - p)
    arr = np.array(
        [
            [0.0, -2.0 * m, -2.0 * pp, -2.0j * sm],
            [-2.0 * m, 0.0, 2.0j * sp, 2.0 * pm],
            [-2.0 * pp, -2.0j * sp, 0.0, 0.0],
            [2.0j * sm, 2.0 * pm, 0.0, 0.0],
        ],
        dtype=complex,
    )
    return DiracBlock(
        s=float(s), p=float(p), kx=float(kx), ky=float(ky), m=float(m),
        sin_x_plus=float(sp), sin_x_minus=float(sm),
        sin_y_plus=float(pp), sin_y_minus=float(pm),
        matrix=HermitianMatrix(arr),
    )


def dirac_boson_closed_eigs(s: float, p: float, kx: float, ky: float, m: float) -> np.ndarray:
    """All four signed sums of the two 2D band radicals, ascending.

    The radicals are ``sqrt(m^2 + 4 sin^2(.) + 4 sin^2(.))`` at (s, p)
    and (kx - s, ky - p): the single-fermion band energies of the
    lattice model with on-site splitting m.  The doubled sines carry
    the lattice hopping amplitude 2; the zero-momentum limit fixes the
    overall scale, giving {-2m, 0, 0, +2m} there.
    """
    r1 = float(np.sqrt(m * m + 4.0 * np.sin(s) ** 2 + 4.0 * np.sin(p) ** 2))
    r2 = float(np.sqrt(m * m + 4.0 * np.sin(kx - s) ** 2 + 4.0 * np.sin(ky - p) ** 2))
    return np.sort([s1 * r1 + s2 * r2 for s1 in (1.0, -1.0) for s2 in (1.0, -1.0)])


# ---------------------------------------------------------------------------
# Correspondence table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockRow:
    """One momentum block: three eigenvalue routes and their spread."""

    momenta: tuple
    numeric: tuple
    closed_form: tuple
    fermion_pairs: tuple
    max_discrepancy: float


@dataclass(frozen=True)
class SpectrumTable:
    """Per-block eigenvalue table with a global pass/fail verdict.

    Every row carries the numerically diagonalized block spectrum, the
    closed-form evaluation, and the reconstruction from signed pairs of
    single-fermion band energies; ``max_discrepancy`` is the largest
    pointwise difference among the three sorted lists.
    """

    model: str
    params: dict
    tolerance: float
    rows: tuple
    max_discrepancy: float
    passed: bool

    def flagged_rows(self):
        return [row for row in self.rows if not row.max_discrepancy <= self.tolerance]


def _three_way(momenta, numeric, closed, pairs) -> BlockRow:
    numeric = np.sort(np.asarray(numeric, dtype=float))
    closed = np.sort(np.asarray(closed, dtype=float))
    pairs = np.sort(np.asarray(pairs, dtype=float))
    spread = float(np.max(np.abs(np.concatenate((numeric - closed, numeric - pairs)))))
    return BlockRow(
        momenta=tuple(momenta),
        numeric=tuple(numeric),
        closed_form=tuple(closed),
        fermion_pairs=tuple(pairs),
        max_discrepancy=spread,
    )


def _ssh_rows_at(spec: ChainSpec, q: float):
    grid = chain_momenta(spec.n_cells)
    band_q = ssh_band_energy(q, spec.t0, spec.alpha_u).plus_branch
    rows = []
    for k in grid:
        block = ssh_boson_block(q, k, spec.t0, spec.alpha_u)
        numeric = hermitian_eigenvalues(block.matrix)
        closed = ssh_boson_closed_eigs(q, k, spec.t0, spec.alpha_u)
        band_pair = ssh_band_energy(k / 2.0 - q, spec.t0, spec.alpha_u).plus_branch
        pairs = [s1 * band_q + s2 * band_pair for s1 in (1, -1) for s2 in (1, -1)]
        rows.append(_three_way((float(q), float(k)), numeric, closed, pairs))
    return rows


def _dirac_rows_at(spec: SquareSpec, sp):
    # The block mass is the on-site splitting delta; the band energies
    # use the model's m = delta/2, so each radical is one full fermion
    # band energy and the block spectrum is the signed pair sums.
    s, p = sp
    grid = square_momenta(spec.lx, spec.ly)
    band_sp = dirac2d_band_energy(s, p, spec.m).plus_branch
    rows = []
    for kx, ky in grid:
        block = dirac_boson_block(s, p, kx, ky, spec.delta)
        numeric = hermitian_eigenvalues(block.matrix)
        closed = dirac_boson_closed_eigs(s, p, kx, ky, spec.delta)
        band_pair = dirac2d_band_energy(kx - s, ky - p, spec.m).plus_branch
        pairs = [s1 * band_sp + s2 * band_pair for s1 in (1, -1) for s2 in (1, -1)]
        rows.append(_three_way((float(s), float(p), float(kx), float(ky)), numeric, closed, pairs))
    return rows


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
        rows = [row for q in chain_momenta(spec.n_cells) for row in _ssh_rows_at(spec, q)]
        model = "ssh"
        params = {"n_sites": spec.n_sites, "t0": spec.t0, "alpha_u": spec.alpha_u}
    elif isinstance(spec, SquareSpec):
        rows = [row for sp in square_momenta(spec.lx, spec.ly) for row in _dirac_rows_at(spec, sp)]
        model = "dirac2d"
        params = {"lx": spec.lx, "ly": spec.ly, "delta": spec.delta}
    else:
        raise TypeError(f"expected ChainSpec or SquareSpec, got {type(spec).__name__}")
    return SpectrumTable(
        model=model,
        params=params,
        tolerance=tolerance,
        rows=tuple(rows),
        max_discrepancy=max_residual(row.max_discrepancy for row in rows),
        passed=all(row.max_discrepancy <= tolerance for row in rows),
    )
