"""Single-particle fermion Hamiltonians and their analytic band energies.

These are the oracle side of every correspondence check: the dimerized
chain and the two-component square-lattice model are built as real-space
Hermitian matrices, diagonalized exactly, and compared against the
closed-form bands

* chain:  ``E(K) = +-sqrt((2 t0 cos K)^2 + (4 alpha_u sin K)^2)``
* square: ``E(kx, ky) = +-2 sqrt(m^2 + sin^2 kx + sin^2 ky)``, m = delta/2.
"""

from __future__ import annotations

import numpy as np

from .lattice import ChainSpec, SquareSpec, square_mode
from .numerics import HermitianMatrix, pow2


def ssh_hopping_matrix(spec: ChainSpec) -> HermitianMatrix:
    """Real-space hopping matrix of the dimerized chain (one spin species).

    Entry (n, n+1 mod n_sites) is ``-t0 + (-1)**n * 2*alpha_u`` plus its
    Hermitian partner.  On a 2-site ring both orientations of the single
    bond land on the same entry and their amplitudes add; golden tests
    use n_sites >= 4 where the wrap is non-degenerate.
    """
    n = spec.n_sites
    h = np.zeros((n, n), dtype=complex)
    for site in range(n):
        partner = (site + 1) % n
        amp = spec.bond_amplitude(site)
        h[site, partner] += amp
        h[partner, site] += amp
    return HermitianMatrix(h)


def ssh_band_energy(momentum, t0: float, alpha_u: float):
    """Upper chain band E >= 0 at one momentum, or elementwise over an array."""
    return np.hypot(2.0 * t0 * np.cos(momentum), 4.0 * alpha_u * np.sin(momentum))


def dirac2d_hopping_matrix(spec: SquareSpec) -> HermitianMatrix:
    """Real-space matrix of the two-component square-lattice model.

    c modes couple to b neighbours with amplitude +-1 along x and +-i
    along y; the diagonal carries +delta on c modes and -delta on b
    modes.  Periodic wrap in both directions; on lattices of extent 1
    or 2 the two orientations of a hop share an entry and combine.
    """
    lx, ly = spec.lx, spec.ly
    dim = 2 * lx * ly
    h = np.zeros((dim, dim), dtype=complex)
    idx = lambda x, y, c: square_mode(lx, ly, x, y, c)
    for x in range(lx):
        for y in range(ly):
            c = idx(x, y, 0)
            b = idx(x, y, 1)
            h[c, c] += spec.delta
            h[b, b] += -spec.delta
            # c_xy^dag (b_{x-1,y} - b_{x+1,y}) + i c_xy^dag (b_{x,y+1} - b_{x,y-1})
            h[c, idx(x - 1, y, 1)] += 1.0
            h[c, idx(x + 1, y, 1)] += -1.0
            h[c, idx(x, y + 1, 1)] += 1.0j
            h[c, idx(x, y - 1, 1)] += -1.0j
            # b_xy^dag (c_{x+1,y} - c_{x-1,y}) + i b_xy^dag (c_{x,y+1} - c_{x,y-1})
            h[b, idx(x + 1, y, 0)] += 1.0
            h[b, idx(x - 1, y, 0)] += -1.0
            h[b, idx(x, y + 1, 0)] += 1.0j
            h[b, idx(x, y - 1, 0)] += -1.0j
    return HermitianMatrix(h)


def dirac2d_band_energy(kx, ky, m: float):
    """Upper square-lattice band E >= 0 at one momentum, or elementwise; m = delta/2."""
    return 2.0 * np.sqrt(m * m + pow2(np.sin(kx)) + pow2(np.sin(ky)))
