"""Lattice descriptions and the momentum grids fixed by periodic boundaries.

A :class:`ChainSpec` or :class:`SquareSpec` is the package's one
description of a lattice: its kind, its extents and its model
parameters.  The CLI's run configuration, the spectrum table and the
Fock space each carry one, and read sizes and mode counts from it.

Conventions used throughout the package:

* Chain sites are indexed ``0 .. n_sites-1``.  Sublattice A is the odd
  sites, sublattice B the even sites, so the B cell index ``n // 2`` is
  an integer.
* A momentum is an integer index ``j = 0..n-1`` on the ``n``-point grid
  of its ring, standing for ``k = 2*pi*j/n``; sums and differences of
  momenta are index arithmetic mod ``n``.  Radians exist only where a
  formula takes a sine or cosine, through :func:`chain_momenta` and
  :func:`square_momenta`.
* Square-lattice momenta are the Cartesian product of the two axis
  grids, x-major: index pairs ``(jx, jy)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# The sublattice code of a chain pair label: anchored on every site, on
# sublattice A (the odd sites) or on sublattice B (the even sites); and
# per code, whether it anchors on the even and on the odd sites.
ALL_SITES, SUBLATTICE_A, SUBLATTICE_B = 0, 1, 2
_ANCHORED = np.array([[True, True], [False, True], [True, False]])


@dataclass(frozen=True)
class ChainSpec:
    """Dimerized periodic chain with alternating bond amplitudes.

    The bond (n, n+1) carries hopping ``-t0 + (-1)**n * 2*alpha_u``;
    ``alpha_u`` is the product of the fermion-lattice coupling and the
    staggered displacement.  ``spinful`` adds an identical second spin
    species (the hopping is spin independent).
    """

    n_sites: int
    t0: float = 1.0
    alpha_u: float = 0.0
    spinful: bool = False

    def __post_init__(self):
        if self.n_sites <= 0 or self.n_sites % 2 != 0:
            raise ValueError(f"n_sites must be a positive even integer, got {self.n_sites}")
        if self.t0 <= 0:
            raise ValueError(f"t0 must be positive, got {self.t0}")

    @property
    def n_cells(self) -> int:
        return self.n_sites // 2

    @property
    def n_modes(self) -> int:
        """One fermion mode per site, two when spinful."""
        return self.n_sites * (2 if self.spinful else 1)

    def bond_amplitude(self, n: int) -> float:
        """Hopping amplitude on the bond (n, n+1), periodic in n."""
        return -self.t0 + (-1) ** (n % self.n_sites) * 2.0 * self.alpha_u


@dataclass(frozen=True)
class SquareSpec:
    """Periodic square lattice carrying the two-component (c, b) model.

    ``delta`` is the on-site mass splitting (+delta on c modes, -delta
    on b modes); ``m = delta / 2`` is the mass parameter in which the
    band energy reads ``2*sqrt(m^2 + sin^2 kx + sin^2 ky)``.

    A 1x1 lattice is accepted (the hopping terms cancel identically
    there, which makes it a useful mass-only sanity case).
    """

    lx: int
    ly: int
    delta: float = 0.0

    def __post_init__(self):
        if self.lx < 1 or self.ly < 1:
            raise ValueError(f"lattice dims must be >= 1, got {self.lx}x{self.ly}")

    @property
    def m(self) -> float:
        return self.delta / 2.0

    @property
    def n_sites(self) -> int:
        return self.lx * self.ly

    @property
    def n_modes(self) -> int:
        """Two fermion modes (c and b) per site."""
        return 2 * self.lx * self.ly


def chain_momenta(n_cells: int) -> np.ndarray:
    """Periodic momentum grid ``{2*pi*j/n_cells}`` of an n-cell ring."""
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    return TWO_PI * np.arange(n_cells, dtype=float) / n_cells


def square_momenta(lx: int, ly: int) -> np.ndarray:
    """Cartesian-product momentum grid, shape (lx*ly, 2), x-major."""
    if lx < 1 or ly < 1:
        raise ValueError(f"lattice dims must be >= 1, got {lx}x{ly}")
    kx, ky = np.meshgrid(chain_momenta(lx), chain_momenta(ly), indexing="ij")
    return np.column_stack((kx.ravel(), ky.ravel()))


@functools.cache
def unit_roots(n: int) -> np.ndarray:
    """Phase table ``w[m] = exp(2*pi*i*m/n)``, m = 0..n-1, exact at quarter turns; read-only.

    A momentum on the n-point grid is an integer index K, and the phase
    of ``k*x`` is ``w[K*x mod n]``: arguments never grow with x.  Each
    entry is taken from its angle folded into the first eighth of a
    turn and turned by an exact power of i, so ``w[0] = 1``,
    ``w[n/2] = -1`` and ``w[n/4] = i`` hold exactly and ``w[n - m]`` is
    exactly the conjugate of ``w[m]``; every entry is within about one
    rounding of the true root.
    """
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    # quarter turns and the remainder, both in units of a quarter turn / n
    quarter, rest = np.divmod(4 * np.arange(n), n)
    low = 2 * rest <= n
    angle = (np.pi / 2.0) * np.where(low, rest, n - rest) / n
    cos = np.cos(angle)
    # at an eighth turn the rounded angle sits below pi/4; cos is the rounded sqrt(1/2)
    sin = np.where(2 * rest == n, cos, np.sin(angle))
    folded = np.where(low, cos + 1j * sin, sin + 1j * cos)
    roots = folded * np.array([1.0, 1.0j, -1.0, -1.0j])[quarter]
    roots.setflags(write=False)
    return roots


def chain_anchors(n_sites: int, sublattices) -> tuple:
    """``(p, site, position)``: the anchor sites of the chain pair sums with sublattice codes
    ``sublattices``, pair by pair in ascending site order (every site, the odd sites on A,
    the even sites on B), and what the bond phase e^{ikx} multiplies there: x = the site,
    or on B its cell index."""
    sublattices = np.asarray(sublattices).ravel()
    p, site = np.nonzero(_ANCHORED[sublattices[:, None], np.arange(n_sites) % 2])
    return p, site, np.where(sublattices[p] == SUBLATTICE_B, site // 2, site)


def chain_mode(n_sites: int, site, spin=0, spinful: bool = False):
    """Site-major mode index on the periodic chain (spin 0 = up, 1 = down)."""
    return (2 * (site % n_sites) + spin) if spinful else site % n_sites


def square_mode(lx: int, ly: int, x: int, y: int, component: int) -> int:
    """Site-major mode index on the periodic square lattice; component 0 = c, 1 = b."""
    return 2 * ((x % lx) * ly + (y % ly)) + component


def on_grid(k: float, n: int, tol: float = 1e-9) -> bool:
    """True if exp(i*k*n) == 1 within tol, i.e. k sits on the n-point grid."""
    return abs(np.exp(1j * k * n) - 1.0) < tol
