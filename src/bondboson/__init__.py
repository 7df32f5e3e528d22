"""Bond-boson mapping of lattice fermions with exact small-lattice checks.

The package covers two models: the dimerized (alternating-hopping)
periodic chain and a two-component square-lattice model whose long
wavelength limit is the 2+1D Dirac equation.  For both it provides

* single-particle Hamiltonians and closed-form bands (`fermion_model`),
* exact many-body pair ("bond") operators on bitset Fock spaces and
  the commutator identities they satisfy (`fock`),
* 4x4 momentum-space bond-boson blocks whose eigenvalues are signed
  sums of two fermion band energies (`blocks`),
* the quartic-to-quadratic interaction rewrite (`interactions`),
* a CLI emitting deterministic JSON/CSV reports (`cli`).
"""

from .blocks import (
    BlockRow,
    DiracBlock,
    SpectrumTable,
    SSHBlock,
    correspondence_report,
    dirac_boson_block,
    dirac_boson_closed_eigs,
    ssh_boson_block,
    ssh_boson_closed_eigs,
)
from .fermion_model import (
    BandEnergy,
    dirac2d_band_energy,
    dirac2d_hopping_matrix,
    ssh_band_energy,
    ssh_hopping_matrix,
)
from .fock import (
    BosonCommutatorReport,
    CommutatorResidual,
    FockSizeError,
    FockSpace,
    SparseOperator,
    annihilation_op,
    anticommutator,
    bond_operator,
    bond_self_paired,
    boson_commutator_report,
    chain_hamiltonian,
    combo_operator,
    commutator,
    creation_op,
    dirac_hamiltonian,
    h_bond_commutator_residuals,
    near_filling_commutator_table,
    square_bond_offsets,
    square_combo_operator,
    square_pair_operator,
    verify_H_bond_commutators,
)
from .interactions import (
    coulomb_operator,
    coulomb_pair_form,
    creation_pair_direct,
    interaction_equivalence_residual,
    pair_from_bonds,
    random_offdiag_coupling,
)
from .lattice import ChainSpec, SquareSpec, chain_momenta, square_momenta
from .numerics import (
    HermitianMatrix,
    NonHermitianError,
    frobenius_norm,
    hermitian_eigensystem,
    hermitian_eigenvalues,
)

__version__ = "0.1.0"
