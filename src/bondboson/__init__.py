"""Bond-boson mapping of lattice fermions with exact small-lattice checks.

The package covers two models: the dimerized (alternating-hopping)
periodic chain and a two-component square-lattice model whose long
wavelength limit is the 2+1D Dirac equation.  For both it provides

* the one-body matrix h of either lattice, built by one function
  (`hopping_matrix`), and the closed-form bands (`fermion_model`),
* the quadratic pair algebra on n x n coefficient matrices, with the
  H-bond commutator identities and the near-filling commutator table
  (Wick's theorem on a basis state) evaluated on it (`bilinear`),
* exact many-body operators on bitset Fock spaces, the tests'
  independent oracle of the coefficient route (`fock`),
* 4x4 momentum-space bond-boson blocks whose eigenvalues are signed
  sums of two fermion band energies (`blocks`),
* the quartic-to-quadratic interaction rewrite, measured on pair
  tensors (`interactions`),
* a CLI emitting deterministic JSON/CSV reports (`cli`).

The names below are the coefficient-matrix and spectrum API; the
interaction checks are imported from ``bondboson.interactions``.  No
command loads scipy or ``bondboson.fock``: scipy is imported by ``fock``
and by the Fock builders of ``interactions`` that the tests call, and
the near-filling table of :func:`pair_commutator_table` (``verify
commutators``) is one ordered numpy scatter with the bits of scipy's
row-by-row sparse product.
"""

from .bilinear import (
    ChainPair,
    FockSizeError,
    IdentityTable,
    SquarePair,
    bond_identities,
    bond_self_paired,
    boson_commutator_report,
    h_bond_commutator_residuals,
    pair_commutator_table,
    pair_norm,
    pair_stack,
    square_bond_offsets,
)
from .blocks import (
    SpectrumTable,
    correspondence_report,
    dirac_boson_block,
    dirac_boson_closed_eigs,
    ssh_boson_block,
    ssh_boson_closed_eigs,
)
from .fermion_model import dirac2d_band_energy, hopping_matrix, ssh_band_energy
from .lattice import ChainSpec, SquareSpec, chain_momenta, square_momenta
from .numerics import (
    HermitianMatrix,
    NonHermitianError,
    hermitian_eigenvalues,
)

__version__ = "0.1.0"
