"""Single-particle fermion Hamiltonians and their analytic band energies.

These are the oracle side of every correspondence check: the dimerized
chain (spinless or spinful) and the two-component square-lattice model
are built by one function, :func:`hopping_matrix`, as real-space
Hermitian matrices in the Fock mode order, diagonalized exactly, and
compared against the closed-form bands

* chain:  ``E(K) = +-sqrt((2 t0 cos K)^2 + (4 alpha_u sin K)^2)``
* square: ``E(kx, ky) = +-2 sqrt(m^2 + sin^2 kx + sin^2 ky)``, m = delta/2.
"""

from __future__ import annotations

import numpy as np

from .lattice import ChainSpec, SquareSpec, chain_mode, square_mode
from .numerics import HermitianMatrix, pow2

# The ten terms of a square-lattice site, in the order they are added:
#   delta (c+c - b+b) + c+_xy (b_{x-1,y} - b_{x+1,y} + i b_{x,y+1} - i b_{x,y-1})
#                     + b+_xy (c_{x+1,y} - c_{x-1,y} + i c_{x,y+1} - i c_{x,y-1}),
# as the created component (0 = c, 1 = b), the hop (dx, dy) to the annihilated
# mode, its component, and the amplitudes of the eight hops.
_CREATED, _DX, _DY, _ANNIHILATED = np.array([[0, 1, 0, 0, 0, 0, 1, 1, 1, 1],
                                             [0, 0, -1, 1, 0, 0, 1, -1, 0, 0],
                                             [0, 0, 0, 0, 1, -1, 0, 0, 1, -1],
                                             [0, 1, 1, 1, 1, 1, 0, 0, 0, 0]])
_HOPS = np.array([1.0, -1.0, 1.0j, -1.0j] * 2)


def hopping_matrix(spec) -> np.ndarray:
    """One-body matrix ``h`` of ``H = sum_ij h_ij c+_i c_j`` in the Fock mode order; read-only.

    Chain (:class:`ChainSpec`): entry (n, n+1 mod n_sites) is
    ``-t0 + (-1)**n * 2*alpha_u`` plus its Hermitian partner, for each
    spin species when spinful (the hopping is spin independent).
    Square lattice (:class:`SquareSpec`): c modes couple to b neighbours
    with amplitude +-1 along x and +-i along y; the diagonal carries
    +delta on c modes and -delta on b modes.  Both wrap periodically.
    All terms are added by one unbuffered scatter in site order, so
    terms that share an entry (both orientations of the bond of a
    2-site ring, or of a hop on a lattice of extent 1 or 2) combine.
    """
    if isinstance(spec, ChainSpec):
        n, spin = spec.n_sites, np.arange(2 if spec.spinful else 1)
        site = np.arange(n)[:, None]
        here = chain_mode(n, site, spin, spec.spinful)
        there = chain_mode(n, site + 1, spin, spec.spinful)
        # per site and spin: the bond (n, n+1), then its Hermitian partner
        rows, cols = np.stack((here, there), -1), np.stack((there, here), -1)
        values = np.broadcast_to(spec.bond_amplitude(site)[:, :, None], rows.shape)
    elif isinstance(spec, SquareSpec):
        lx, ly = spec.lx, spec.ly
        x, y = np.divmod(np.arange(lx * ly)[:, None], ly)
        rows = square_mode(lx, ly, x, y, _CREATED)
        cols = square_mode(lx, ly, x + _DX, y + _DY, _ANNIHILATED)
        values = np.broadcast_to(np.concatenate(([spec.delta, -spec.delta], _HOPS)), rows.shape)
    else:
        raise TypeError(f"expected ChainSpec or SquareSpec, got {type(spec).__name__}")
    h = np.zeros((spec.n_modes, spec.n_modes), dtype=complex)
    np.add.at(h, (rows.ravel(), cols.ravel()), values.ravel())
    return HermitianMatrix(h).array


def ssh_band_energy(momentum, t0: float, alpha_u: float):
    """Upper chain band E >= 0 at one momentum, or elementwise over an array."""
    return np.hypot(2.0 * t0 * np.cos(momentum), 4.0 * alpha_u * np.sin(momentum))


def dirac2d_band_energy(kx, ky, m: float):
    """Upper square-lattice band E >= 0 at one momentum, or elementwise; m = delta/2."""
    return 2.0 * np.sqrt(m * m + pow2(np.sin(kx)) + pow2(np.sin(ky)))
