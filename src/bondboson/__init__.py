"""Bond-boson mapping of lattice fermions with exact small-lattice checks.

The package covers two models: the dimerized (alternating-hopping)
periodic chain and a two-component square-lattice model whose long
wavelength limit is the 2+1D Dirac equation.  For both it provides

* single-particle Hamiltonians and closed-form bands (`fermion_model`),
* the quadratic pair algebra on n x n coefficient matrices, with the
  H-bond commutator identities and the near-filling commutator table
  (Wick's theorem on a basis state) evaluated on it (`bilinear`),
* exact many-body operators on bitset Fock spaces: the engine of the
  quartic interaction checks, and the pair sums of integer pair labels
  that the tests use as an independent oracle (`fock`),
* 4x4 momentum-space bond-boson blocks whose eigenvalues are signed
  sums of two fermion band energies (`blocks`),
* the quartic-to-quadratic interaction rewrite (`interactions`),
* a CLI emitting deterministic JSON/CSV reports (`cli`).
"""

from .bilinear import (
    BosonCommutatorReport,
    ChainPair,
    FockSizeError,
    Identity,
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
from .fermion_model import (
    dirac2d_band_energy,
    dirac2d_hopping_matrix,
    ssh_band_energy,
    ssh_hopping_matrix,
)
from .fock import (
    FockSpace,
    SparseOperator,
    chain_hamiltonian,
    commutator,
    creation_op,
    dirac_hamiltonian,
    pair_bilinear,
)
from .interactions import (
    coulomb_operator,
    coulomb_pair_form,
    creation_pair_direct,
    interaction_equivalence_residual,
    pair_from_bonds,
    pair_reconstruction_max,
    random_offdiag_coupling,
)
from .lattice import ChainSpec, SquareSpec, chain_momenta, square_momenta
from .numerics import (
    HermitianMatrix,
    NonHermitianError,
    hermitian_eigenvalues,
)

__version__ = "0.1.0"
