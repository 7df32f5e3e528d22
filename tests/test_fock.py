import functools
import json

import numpy as np
import pytest
from conftest import dense_jw_creation
from fock_oracle import fock_pair
from scipy import sparse

from bondboson import bilinear
from bondboson.bilinear import (
    ChainPair,
    FockSizeError,
    SquarePair,
    boson_commutator_report,
    h_bond_commutator_residuals,
    pair_commutator_table,
    pair_stack,
    square_bond_offsets,
)
from bondboson.cli import main
from bondboson.fermion_model import dirac2d_hopping_matrix, ssh_hopping_matrix
from bondboson.fock import (
    FockSpace,
    SparseOperator,
    chain_hamiltonian,
    commutator,
    creation_op,
    dirac_hamiltonian,
    pair_bilinear,
)
from bondboson.lattice import ALL_SITES, SUBLATTICE_A, SUBLATTICE_B, ChainSpec, SquareSpec
from bondboson.numerics import max_residual

EPS = np.finfo(float).eps


def test_single_mode_creation_matrix():
    space = FockSpace(ChainSpec(2))
    c0 = creation_op(space, 0).to_dense()
    # mode 0 occupies bit 0; no modes sit below it, so both signs are +1
    assert c0[0b01, 0b00] == 1.0
    assert c0[0b11, 0b10] == 1.0
    c1 = creation_op(space, 1).to_dense()
    # mode 1 strings over mode 0: sign flips when mode 0 is occupied
    assert c1[0b10, 0b00] == 1.0
    assert c1[0b11, 0b01] == -1.0


def test_creation_ops_match_dense_oracle():
    space = FockSpace(ChainSpec(4))
    dense = dense_jw_creation(4)
    for mode in range(4):
        assert np.array_equal(creation_op(space, mode).to_dense(), dense[mode])


@pytest.mark.parametrize("n_modes", [1, 2, 3, 5])
def test_anticommutation_relations_exact(n_modes):
    space = FockSpace(ChainSpec(2)) if n_modes <= 2 else FockSpace(ChainSpec(6))
    modes = range(n_modes)
    eye = SparseOperator.identity(space)
    for i in modes:
        ci = creation_op(space, i)
        ai = ci.adjoint()
        for j in modes:
            cj = creation_op(space, j)
            aj = cj.adjoint()
            delta = 1.0 if i == j else 0.0
            assert (ai @ cj + cj @ ai - delta * eye).norm() == 0.0
            assert (ci @ cj + cj @ ci).norm() == 0.0
            assert (ai @ aj + aj @ ai).norm() == 0.0


def test_adjoint_of_adjoint_is_original():
    space = FockSpace(ChainSpec(4))
    e = fock_pair(space, ChainPair(1, 0))
    assert (e.adjoint().adjoint() - e).norm() == 0.0


def test_stored_zeros_are_pruned():
    space = FockSpace(ChainSpec(2))
    tiny = 1e-16 * creation_op(space, 0)
    assert tiny.nnz == 0


def test_mode_out_of_range_rejected():
    space = FockSpace(ChainSpec(2))
    with pytest.raises(ValueError):
        creation_op(space, 2)


def test_space_mismatch_rejected():
    a = creation_op(FockSpace(ChainSpec(2)), 0)
    b = creation_op(FockSpace(ChainSpec(2)), 0)
    with pytest.raises(ValueError):
        commutator(a, b)


def test_size_cap_enforced():
    with pytest.raises(FockSizeError):
        FockSpace(ChainSpec(18))
    with pytest.raises(FockSizeError):
        FockSpace(SquareSpec(3, 3))


def test_commutator_basics():
    space = FockSpace(ChainSpec(4))
    c0 = creation_op(space, 0)
    n0 = c0 @ c0.adjoint()
    assert commutator(c0, c0).norm() == 0.0
    assert (commutator(n0, c0) - c0).norm() == 0.0


def test_chain_hamiltonian_single_particle_sector():
    spec = ChainSpec(6, t0=1.0, alpha_u=0.2)
    space = FockSpace(spec)
    h_many = chain_hamiltonian(space).matrix
    h_one = ssh_hopping_matrix(spec).array
    for i in range(6):
        for j in range(6):
            assert h_many[1 << i, 1 << j] == pytest.approx(h_one[i, j], abs=1e-14)


def test_dirac_hamiltonian_single_particle_sector():
    spec = SquareSpec(2, 2, delta=0.8)
    space = FockSpace(spec)
    h_many = dirac_hamiltonian(space).matrix
    h_one = dirac2d_hopping_matrix(spec).array
    for i in range(8):
        for j in range(8):
            assert h_many[1 << i, 1 << j] == pytest.approx(h_one[i, j], abs=1e-14)


# -- pair sums of integer labels ----------------------------------------------
#
# ``fock_pair`` builds a label's Fock operator from creation matrices with
# np.exp phases; the package builds it from the label's coefficient matrix
# (exact root table, ``pair_bilinear``).  A dense Jordan-Wigner build
# written from the documented conventions is the third route.

def dense_pair(dense, spec, pair):
    """The pair sum of a label from dense creation matrices and the documented conventions."""
    if isinstance(spec, ChainSpec):
        n = spec.n_sites
        mode = lambda site, spin: 2 * (site % n) + spin if spec.spinful else site % n
        anchors = {ALL_SITES: range(n), SUBLATTICE_A: range(1, n, 2),
                   SUBLATTICE_B: range(0, n, 2)}[pair.sublattice]
        # sublattice B carries the cell phase e^{ik n/2}
        position = (lambda site: site // 2) if pair.sublattice == SUBLATTICE_B else (lambda site: site)
        return sum(np.exp(2j * np.pi * pair.K * position(site) / n)
                   * dense[mode(site, pair.spin1)] @ dense[mode(site + pair.l, pair.spin2)]
                   for site in anchors)
    lx, ly = spec.lx, spec.ly
    mode = lambda x, y, comp: 2 * ((x % lx) * ly + (y % ly)) + comp
    return sum(np.exp(2j * np.pi * (pair.Kx * x / lx + pair.Ky * y / ly))
               * dense[mode(x, y, pair.comp1)] @ dense[mode(x + pair.l, y + pair.m, pair.comp2)]
               for x in range(lx) for y in range(ly))


# the two spins of a chain channel, the two components (0 = c, 1 = b) of a square pairing
SPINS = {"uu": (0, 0), "dd": (1, 1), "ud": (0, 1), "du": (1, 0)}
COMPONENTS = {"cc": (0, 0), "bb": (1, 1), "cb": (0, 1), "bc": (1, 0)}
SUBLATTICES = {"all": ALL_SITES, "A": SUBLATTICE_A, "B": SUBLATTICE_B}


def chain_labels(n_sites, channels, sublattices):
    return [ChainPair(l, K, *SPINS[channel], SUBLATTICES[sublattice]) for channel in channels
            for sublattice in sublattices for l in range(n_sites) for K in range(n_sites)]


def square_labels(lx, ly, pairing):
    return [SquarePair(l, m, Kx, Ky, *COMPONENTS[pairing]) for l, m in np.ndindex(lx, ly)
            for Kx, Ky in np.ndindex(lx, ly)]


PER_LABEL_CASES = (
    [(f"ssh6-{sub}", ChainSpec(6), chain_labels(6, ["uu"], [sub])) for sub in SUBLATTICES]
    + [(f"ssh4-spinful-{channel}", ChainSpec(4, spinful=True),
        chain_labels(4, [channel], SUBLATTICES)) for channel in SPINS]
    + [(f"dirac{lx}x{ly}-{pairing}", SquareSpec(lx, ly), square_labels(lx, ly, pairing))
       for lx, ly in ((1, 2), (2, 2)) for pairing in COMPONENTS]
)


@pytest.mark.parametrize("spec,labels", [case[1:] for case in PER_LABEL_CASES],
                         ids=[case[0] for case in PER_LABEL_CASES])
def test_fock_pair_matches_coefficients_and_dense_build(spec, labels):
    space = FockSpace(spec)
    dense = dense_jw_creation(space.n_modes)
    for pair, coefficients in zip(labels, pair_stack(spec, labels)):
        built = fock_pair(space, pair)
        from_coefficients = pair_bilinear(space, coefficients)
        assert abs(built.matrix - from_coefficients.matrix).max() <= 4 * EPS, pair
        # the dense build's phase arguments are not reduced mod 2 pi
        assert np.max(np.abs(built.to_dense() - dense_pair(dense, spec, pair))) <= 32 * EPS, pair


def test_bond_adjoint_equals_independent_lowering_operator():
    space = FockSpace(ChainSpec(6))
    k = 2 * np.pi / 6
    raised = fock_pair(space, ChainPair(2, 1))
    lowering = SparseOperator.zero(space)
    for n in range(6):
        lowering = lowering + np.exp(-1j * k * n) * (
            creation_op(space, (n + 2) % 6).adjoint() @ creation_op(space, n).adjoint()
        )
    assert (raised.adjoint() - lowering).norm() < 1e-14


def test_square_bond_offsets_canonical():
    # one representative per {d, -d} class of nonzero offsets
    assert square_bond_offsets(3, 2) == [(0, 1), (1, 0), (1, 1)]
    assert square_bond_offsets(2, 2) == [(0, 1), (1, 0), (1, 1)]
    offsets = square_bond_offsets(4, 2)
    assert (1, 0) in offsets and (3, 0) not in offsets
    flat = {((-l) % 4, (-m) % 2) for l, m in offsets} | set(offsets)
    assert len(flat) == 4 * 2 - 1  # classes cover every nonzero offset


def test_bond_operator_raises_number_by_two():
    space = FockSpace(ChainSpec(4))
    e = fock_pair(space, ChainPair(1, 2))  # k = pi
    total = SparseOperator.zero(space)
    for mode in range(space.n_modes):
        c = creation_op(space, mode)
        total = total + c @ c.adjoint()
    assert (commutator(total, e) - 2.0 * e).norm() < 1e-12


def test_filled_state_pair_expectation():
    # only the diagonal n = n' terms survive on the filled state
    space = FockSpace(ChainSpec(6))
    for l in (1, 2):
        for K in range(6):
            e = fock_pair(space, ChainPair(l, K))
            product = e @ e.adjoint()
            assert product.expectation(space.filled_state) == pytest.approx(6.0, abs=1e-12)


def test_half_ring_bond_vanishes_on_cell_grid():
    # the l = n_cells pair sum self-pairs across the ring and cancels
    # for momenta with e^{i k n_cells} = 1 (up to phase-rounding dust)
    space = FockSpace(ChainSpec(6))
    for K in (0, 2, 4):
        assert fock_pair(space, ChainPair(3, K)).norm() < 1e-13


# -- near-filling commutator reports -----------------------------------------
#
# The package evaluates the table on coefficient matrices
# (``bilinear.pair_commutator_table``); the Fock pair sums of the same
# labels are the oracle here.

CHAIN6 = ChainSpec(6)


def test_filled_commutator_matched():
    bond = ChainPair(1, 0)
    rep = boson_commutator_report(CHAIN6, bond, bond)
    assert rep.expectation == pytest.approx(6.0, abs=1e-12)
    assert rep.deviation == pytest.approx(0.0, abs=1e-12)
    assert not rep.self_paired


def test_filled_commutator_four_mode_chain():
    rep = boson_commutator_report(ChainSpec(4), ChainPair(1, 0), ChainPair(1, 0))
    assert rep.expectation == pytest.approx(4.0, abs=1e-12)


def test_filled_commutator_momentum_mismatch():
    rep = boson_commutator_report(CHAIN6, ChainPair(1, 1), ChainPair(1, 2))
    assert abs(rep.expectation) < 1e-12
    assert rep.target == 0.0


def test_filled_commutator_length_mismatch():
    rep = boson_commutator_report(CHAIN6, ChainPair(1, 0), ChainPair(2, 0))
    assert abs(rep.expectation) < 1e-12


@pytest.mark.parametrize("holes", [0, 1, 2, 3])
@pytest.mark.parametrize("l", [1, 2])
def test_hole_count_drops_expectation_by_two_each(holes, l):
    bond = ChainPair(l, 0)
    rep = boson_commutator_report(CHAIN6, bond, bond, n_holes=holes, seed=11)
    assert rep.expectation == pytest.approx(6.0 - 2.0 * holes, abs=1e-12)
    assert rep.deviation == pytest.approx(2.0 * holes, abs=1e-12)


def test_hole_positions_do_not_matter():
    bond = ChainPair(1, 0)
    values = [boson_commutator_report(CHAIN6, bond, bond, n_holes=2, seed=s).expectation
              for s in range(6)]
    assert all(v == pytest.approx(2.0, abs=1e-12) for v in values)


def test_self_paired_bond_report():
    bond = ChainPair(3, 0)
    rep = boson_commutator_report(CHAIN6, bond, bond)
    assert rep.self_paired
    assert rep.expectation == pytest.approx(0.0)  # operator vanishes at this k
    odd_j = ChainPair(3, 1)
    rep = boson_commutator_report(CHAIN6, odd_j, odd_j)
    assert rep.self_paired
    # doubled amplitudes on the surviving momenta: twice the site count
    assert rep.expectation == pytest.approx(12.0, abs=1e-12)


def test_too_many_holes_rejected():
    spec, bond = ChainSpec(4), ChainPair(1, 0)
    with pytest.raises(ValueError):
        boson_commutator_report(spec, bond, bond, n_holes=17)
    with pytest.raises(ValueError):
        boson_commutator_report(spec, bond, bond, n_holes=5)


def test_square_filled_commutator():
    spec = SquareSpec(3, 2)
    # momentum indices (Kx, Ky): (0, 1) and (1, 0) are grid points 1 and 2
    bond = SquarePair(1, 0, 0, 1)
    rep = boson_commutator_report(spec, bond, bond)
    assert not rep.self_paired
    assert rep.expectation == pytest.approx(6.0, abs=1e-12)  # site count
    rep = boson_commutator_report(spec, bond, SquarePair(1, 0, 1, 0))
    assert abs(rep.expectation) < 1e-12
    wrapped = SquarePair(0, 1, 0, 1)
    rep = boson_commutator_report(spec, wrapped, wrapped)
    assert rep.self_paired  # 2*(0,1) wraps to (0,0) on the 3x2 torus


def near_filling_labels(spec):
    """Every pair label of the commutators suite, in report order."""
    if isinstance(spec, ChainSpec):
        return [ChainPair(l, K) for l in range(1, spec.n_cells + 1) for K in range(spec.n_sites)]
    return [SquarePair(l, m, Kx, Ky) for l, m in square_bond_offsets(spec.lx, spec.ly)
            for Kx, Ky in np.ndindex(spec.lx, spec.ly)]


def holed_state(space, hole_modes):
    state = space.filled_state
    for hole in hole_modes:
        state &= ~(1 << hole)
    return state


def single_pair_expectation(slices1, slices2):
    """<s|[e1, e2^dag]|s> from each operator's row and column at s."""
    (row1, col1), (row2, col2) = slices1, slices2
    return complex(np.vdot(row2, row1) - np.vdot(col2, col1))


def dense_support(vectors):
    """Stack sparse 1 x dim vectors, restricted to the union of their supports, as a dense array."""
    stacked = sparse.vstack(vectors, format="csr")
    return stacked[:, np.unique(stacked.indices)].toarray()


ORACLE_SPECS = {"ssh6": ChainSpec(6), "ssh8": ChainSpec(8), "ssh12": ChainSpec(12),
                "ssh16": ChainSpec(16), "dirac2x2": SquareSpec(2, 2),
                "dirac2x3": SquareSpec(2, 3), "dirac2x4": SquareSpec(2, 4)}
ORACLE_HOLES = (0, 1, 2, 3)
ORACLE_SEED = 3


@functools.lru_cache(maxsize=None)
def fock_near_filling(name):
    """Per hole count: the table, its hole modes and every label's Fock row and column at s."""
    spec = ORACLE_SPECS[name]
    space = FockSpace(spec)
    labels = near_filling_labels(spec)
    tables = {holes: pair_commutator_table(spec, labels, n_holes=holes, seed=ORACLE_SEED)
              for holes in ORACLE_HOLES}
    states = {holes: holed_state(space, hole_modes) for holes, (_, hole_modes) in tables.items()}
    rows, cols = {holes: [] for holes in ORACLE_HOLES}, {holes: [] for holes in ORACLE_HOLES}
    for pair in labels:
        matrix = fock_pair(space, pair).matrix
        # one operator at a time: all 128 at 16 sites would hold 700 MB
        space._op_cache.clear()
        for holes, state in states.items():
            rows[holes].append(matrix[[state], :])
            cols[holes].append(matrix[:, [state]].T)
    return {holes: (table, hole_modes, dense_support(rows[holes]), dense_support(cols[holes]))
            for holes, (table, hole_modes) in tables.items()}


@pytest.mark.parametrize("name,holes", [(name, holes) for name in ORACLE_SPECS
                                        for holes in ORACLE_HOLES])
def test_table_matches_the_fock_single_pair_route(name, holes):
    spec = ORACLE_SPECS[name]
    table, hole_modes, rows, cols = fock_near_filling(name)[holes]
    labels = near_filling_labels(spec)
    assert table.shape == (len(labels), len(labels))
    assert len(hole_modes) == holes
    bound = 64 * spec.n_sites * EPS
    for i in range(len(labels)):
        for j in range(len(labels)):
            expected = single_pair_expectation((rows[i], cols[i]), (rows[j], cols[j]))
            assert abs(table[i, j] - expected) <= bound, (labels[i], labels[j])
    rep = boson_commutator_report(spec, labels[0], labels[-1], n_holes=holes, seed=ORACLE_SEED)
    assert rep.expectation == complex(table[0, -1])
    assert rep.holes == hole_modes


@pytest.mark.parametrize("holes", ORACLE_HOLES)
def test_table_matches_dense_commutator(holes):
    space = FockSpace(ChainSpec(6))
    labels = near_filling_labels(CHAIN6)
    table, hole_modes = pair_commutator_table(CHAIN6, labels, n_holes=holes, seed=1)
    state = holed_state(space, hole_modes)
    dense = [fock_pair(space, pair).to_dense() for pair in labels]
    for i, e1 in enumerate(dense):
        for j, e2 in enumerate(dense):
            e2_dag = e2.conj().T
            exact = (e1 @ e2_dag - e2_dag @ e1)[state, state]
            assert abs(table[i, j] - exact) <= 64 * 6 * EPS, (i, j)


def wrong_momentum_step(spec, pair, matrix):
    """The coefficients of the next momentum on the grid."""
    if isinstance(pair, ChainPair):
        return pair_stack(spec, [pair._replace(K=pair.K + 1)])[0]
    return pair_stack(spec, [pair._replace(Ky=pair.Ky + 1)])[0]


def flipped_sign(spec, pair, matrix):
    """The first nonzero coefficient negated."""
    flipped = matrix.copy()
    flipped[tuple(np.argwhere(matrix)[0])] *= -1.0
    return flipped


def mutate_stack_row(monkeypatch, target, mutation):
    """Make every :func:`pair_stack` the CLI builds carry ``mutation`` in the row of ``target``."""
    def mutated(spec, labels):
        stack = pair_stack(spec, labels).copy()
        for row, label in enumerate(np.asarray(labels).tolist()):
            if tuple(label) == target:
                stack[row] = mutation(spec, target, stack[row])
        return stack

    monkeypatch.setattr(bilinear, "pair_stack", mutated)


# the second label of each suite: (l, K) = (1, 1) on the chain
MUTATED_LABELS = {"ssh": ChainPair(1, 1), "dirac2d": SquarePair(0, 1, 0, 1)}


@pytest.mark.parametrize("mutation", [wrong_momentum_step, flipped_sign])
@pytest.mark.parametrize("argv", [["--model", "ssh", "--sites", "6"],
                                  ["--model", "dirac2d", "--lx", "2", "--ly", "3"]],
                         ids=["ssh6", "dirac2x3"])
def test_one_wrong_coefficient_matrix_fails_the_unmatched_law(monkeypatch, tmp_path,
                                                              argv, mutation):
    out = tmp_path / "report.json"
    command = ["verify", "commutators"] + argv + ["--output", str(out)]
    assert main(command) == 0
    mutate_stack_row(monkeypatch, MUTATED_LABELS[argv[1]], mutation)
    assert main(command) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert not checks["filled_unmatched_law"]["pass"]
    assert float(checks["filled_unmatched_law"]["residual"]) > 1e-12


# a target label of each identity suite: (l, K) = (1, 0) on sublattice A of the chain
IDENTITY_LABELS = {"ssh": ChainPair(1, 0, 0, 0, SUBLATTICE_A), "dirac2d": SquarePair(0, 1, 0, 1, 0, 0)}


@pytest.mark.parametrize("argv", [["--model", "ssh", "--sites", "6", "--alpha-u", "0.1"],
                                  ["--model", "dirac2d", "--lx", "2", "--ly", "3"]],
                         ids=["ssh6", "dirac2x3"])
def test_one_wrong_stack_row_fails_the_identities(monkeypatch, tmp_path, argv):
    out = tmp_path / "report.json"
    command = ["verify", "identities"] + argv + ["--output", str(out)]
    assert main(command) == 0
    mutate_stack_row(monkeypatch, IDENTITY_LABELS[argv[1]], flipped_sign)
    assert main(command) == 1
    report = json.loads(out.read_text())
    assert report["verdict"] == "fail"
    failed = [c for c in report["checks"] if not c["pass"]]
    assert failed and all(float(c["residual"]) > 1e-12 for c in failed)


# -- exact H-bond commutator identities ---------------------------------------

def max_identity_residual(spec):
    return max_residual(h_bond_commutator_residuals(spec)[1])


def test_chain_identities_spinless():
    assert max_identity_residual(ChainSpec(6, t0=1.0, alpha_u=0.1)) <= 1e-12


def test_chain_identities_uniform_limit():
    # alpha_u = 0: all coefficients collapse to t0 and the same-sublattice
    # terms carry the plain shift structure
    assert max_identity_residual(ChainSpec(6, t0=1.0, alpha_u=0.0)) <= 1e-12


def test_chain_identities_spinful():
    assert max_identity_residual(ChainSpec(4, t0=1.0, alpha_u=0.2, spinful=True)) <= 1e-12


def test_chain_identity_detail_covers_all_cells():
    spec = ChainSpec(4, t0=1.0, alpha_u=0.15)
    identities, residuals = h_bond_commutator_residuals(spec)
    # 1 channel x 2 sublattices x l in 1..2 x 2 momenta
    assert len(residuals) == len(identities.channel) == 8
    assert set(identities.sublattice.tolist()) == {"A", "B"}
    assert max(residuals) <= 1e-12


@pytest.mark.parametrize(
    "lx,ly,delta", [(2, 2, 0.8), (3, 2, 0.6), (2, 3, 1.1)]
)
def test_square_identities(lx, ly, delta):
    assert max_identity_residual(SquareSpec(lx, ly, delta=delta)) <= 1e-12


def test_square_identity_detail_channels():
    identities, residuals = h_bond_commutator_residuals(SquareSpec(2, 2, delta=0.5))
    assert set(identities.channel.tolist()) == {"E1(+)", "E1(-)", "E2(+)", "E2(-)"}
    assert max(residuals) <= 1e-12
