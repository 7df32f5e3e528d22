import numpy as np
import pytest
from conftest import dense_jw_creation

from bondboson.bilinear import h_bond_commutator_residuals, verify_H_bond_commutators
from bondboson.fermion_model import dirac2d_hopping_matrix, ssh_hopping_matrix
from bondboson.fock import (
    FockSizeError,
    FockSpace,
    SparseOperator,
    annihilation_op,
    anticommutator,
    bond_operator,
    boson_commutator_report,
    chain_hamiltonian,
    combo_operator,
    commutator,
    creation_op,
    dirac_hamiltonian,
    near_filling_commutator_table,
    square_bond_offsets,
    square_combo_operator,
    square_pair_operator,
)
from bondboson.lattice import ChainSpec, SquareSpec, chain_momenta, square_momenta


def test_single_mode_creation_matrix():
    space = FockSpace.chain(2)
    c0 = creation_op(space, 0).to_dense()
    # mode 0 occupies bit 0; no modes sit below it, so both signs are +1
    assert c0[0b01, 0b00] == 1.0
    assert c0[0b11, 0b10] == 1.0
    c1 = creation_op(space, 1).to_dense()
    # mode 1 strings over mode 0: sign flips when mode 0 is occupied
    assert c1[0b10, 0b00] == 1.0
    assert c1[0b11, 0b01] == -1.0


def test_creation_ops_match_dense_oracle():
    space = FockSpace.chain(4)
    dense = dense_jw_creation(4)
    for mode in range(4):
        assert np.array_equal(creation_op(space, mode).to_dense(), dense[mode])


@pytest.mark.parametrize("n_modes", [1, 2, 3, 5])
def test_anticommutation_relations_exact(n_modes):
    space = FockSpace.chain(2) if n_modes <= 2 else FockSpace.chain(6)
    modes = range(n_modes)
    eye = SparseOperator.identity(space)
    for i in modes:
        ci = creation_op(space, i)
        ai = annihilation_op(space, i)
        for j in modes:
            cj = creation_op(space, j)
            aj = annihilation_op(space, j)
            delta = 1.0 if i == j else 0.0
            assert (anticommutator(ai, cj) - delta * eye).norm() == 0.0
            assert anticommutator(ci, cj).norm() == 0.0
            assert anticommutator(ai, aj).norm() == 0.0


def test_adjoint_of_adjoint_is_original():
    space = FockSpace.chain(4)
    e = bond_operator(space, 1, 0.0)
    assert (e.adjoint().adjoint() - e).norm() == 0.0


def test_stored_zeros_are_pruned():
    space = FockSpace.chain(2)
    tiny = 1e-16 * creation_op(space, 0)
    assert tiny.nnz == 0


def test_mode_out_of_range_rejected():
    space = FockSpace.chain(2)
    with pytest.raises(ValueError):
        creation_op(space, 2)


def test_space_mismatch_rejected():
    a = creation_op(FockSpace.chain(2), 0)
    b = creation_op(FockSpace.chain(2), 0)
    with pytest.raises(ValueError):
        commutator(a, b)


def test_size_cap_enforced():
    with pytest.raises(FockSizeError):
        FockSpace.chain(18)
    with pytest.raises(FockSizeError):
        FockSpace.square(3, 3)


def test_commutator_basics():
    space = FockSpace.chain(4)
    c0 = creation_op(space, 0)
    n0 = c0 @ annihilation_op(space, 0)
    assert commutator(c0, c0).norm() == 0.0
    assert (commutator(n0, c0) - c0).norm() == 0.0


def test_chain_hamiltonian_single_particle_sector():
    spec = ChainSpec(6, t0=1.0, alpha_u=0.2)
    space = FockSpace.chain(6)
    h_many = chain_hamiltonian(space, spec).matrix
    h_one = ssh_hopping_matrix(spec).array
    for i in range(6):
        for j in range(6):
            assert h_many[1 << i, 1 << j] == pytest.approx(h_one[i, j], abs=1e-14)


def test_dirac_hamiltonian_single_particle_sector():
    spec = SquareSpec(2, 2, delta=0.8)
    space = FockSpace.square(2, 2)
    h_many = dirac_hamiltonian(space, spec).matrix
    h_one = dirac2d_hopping_matrix(spec).array
    for i in range(8):
        for j in range(8):
            assert h_many[1 << i, 1 << j] == pytest.approx(h_one[i, j], abs=1e-14)


# -- bond operators ---------------------------------------------------------

def test_bond_operator_uniform_phase_matches_oracle():
    space = FockSpace.chain(4)
    dense = dense_jw_creation(4)
    expected = sum(dense[n] @ dense[(n + 1) % 4] for n in range(4))
    built = bond_operator(space, 1, 0.0).to_dense()
    assert np.allclose(built, expected, atol=1e-15)


def test_bond_operator_sublattice_conventions_match_oracle():
    # A = odd sites with site phase e^{ikn}; B = even sites with cell
    # phase e^{ik n/2}.
    space = FockSpace.chain(6)
    dense = dense_jw_creation(6)
    k = 2 * np.pi / 3
    expected_a = sum(np.exp(1j * k * n) * dense[n] @ dense[(n + 2) % 6] for n in (1, 3, 5))
    built_a = bond_operator(space, 2, k, sublattice="A").to_dense()
    assert np.allclose(built_a, expected_a, atol=1e-14)
    expected_b = sum(
        np.exp(1j * k * (n // 2)) * dense[n] @ dense[(n + 2) % 6] for n in (0, 2, 4)
    )
    built_b = bond_operator(space, 2, k, sublattice="B").to_dense()
    assert np.allclose(built_b, expected_b, atol=1e-14)


def test_bond_operator_validation():
    space = FockSpace.chain(6)
    with pytest.raises(ValueError):
        bond_operator(space, 0, 0.0)  # vanishes identically
    with pytest.raises(ValueError):
        bond_operator(space, 4, 0.0)  # beyond n_cells
    with pytest.raises(ValueError):
        bond_operator(space, 1, 0.123)  # off-grid momentum
    with pytest.raises(ValueError):
        bond_operator(space, 1, 0.0, channel="dd")  # spinless space
    with pytest.raises(ValueError):
        bond_operator(space, 1, 0.0, sublattice="C")
    # B closes on the cell grid only
    site_only = 2 * np.pi / 6
    bond_operator(space, 1, site_only, sublattice="A")
    with pytest.raises(ValueError):
        bond_operator(space, 1, site_only, sublattice="B")


def test_bond_adjoint_equals_independent_lowering_operator():
    space = FockSpace.chain(6)
    k = 2 * np.pi / 6
    raised = bond_operator(space, 2, k)
    lowering = SparseOperator.zero(space)
    for n in range(6):
        lowering = lowering + np.exp(-1j * k * n) * (
            annihilation_op(space, (n + 2) % 6) @ annihilation_op(space, n)
        )
    assert (raised.adjoint() - lowering).norm() < 1e-14


def test_square_bond_offsets_canonical():
    from bondboson.fock import square_bond_offsets

    # one representative per {d, -d} class of nonzero offsets
    assert square_bond_offsets(3, 2) == [(0, 1), (1, 0), (1, 1)]
    assert square_bond_offsets(2, 2) == [(0, 1), (1, 0), (1, 1)]
    offsets = square_bond_offsets(4, 2)
    assert (1, 0) in offsets and (3, 0) not in offsets
    flat = {((-l) % 4, (-m) % 2) for l, m in offsets} | set(offsets)
    assert len(flat) == 4 * 2 - 1  # classes cover every nonzero offset


def test_bond_operator_raises_number_by_two():
    space = FockSpace.chain(4)
    e = bond_operator(space, 1, np.pi)
    total = SparseOperator.zero(space)
    for mode in range(space.n_modes):
        total = total + creation_op(space, mode) @ annihilation_op(space, mode)
    assert (commutator(total, e) - 2.0 * e).norm() < 1e-12


def test_filled_state_pair_expectation():
    # only the diagonal n = n' terms survive on the filled state
    space = FockSpace.chain(6)
    for l in (1, 2):
        for k in chain_momenta(6):
            e = bond_operator(space, l, k)
            product = e @ e.adjoint()
            assert product.expectation(space.filled_state) == pytest.approx(6.0, abs=1e-12)


def test_half_ring_bond_vanishes_on_cell_grid():
    # the l = n_cells pair sum self-pairs across the ring and cancels
    # for momenta with e^{i k n_cells} = 1 (up to phase-rounding dust)
    space = FockSpace.chain(6)
    for k in chain_momenta(3):
        assert bond_operator(space, 3, k).norm() < 1e-13


def test_combo_operator_algebra():
    space = FockSpace.chain(4, spinful=True)
    plus = combo_operator(space, 1, 0.0, family="E", parity=+1)
    minus = combo_operator(space, 1, 0.0, family="E", parity=-1)
    down_only = bond_operator(space, 1, 0.0, channel="dd")
    assert ((plus - minus) - 2.0 * down_only).norm() == 0.0
    d_plus = combo_operator(space, 1, 0.0, family="D", parity=+1)
    ud = bond_operator(space, 1, 0.0, channel="ud")
    du = bond_operator(space, 1, 0.0, channel="du")
    assert (d_plus - (ud + du)).norm() == 0.0
    assert (d_plus.adjoint().adjoint() - d_plus).norm() == 0.0


def test_combo_rejected_on_spinless_space():
    space = FockSpace.chain(4)
    with pytest.raises(ValueError):
        combo_operator(space, 1, 0.0, family="D")
    with pytest.raises(ValueError):
        combo_operator(space, 1, 0.0, family="E")


def test_square_pair_operator_matches_oracle():
    space = FockSpace.square(2, 2)
    dense = dense_jw_creation(8)
    kx, ky = np.pi, 0.0
    idx = lambda x, y, c: 2 * ((x % 2) * 2 + (y % 2)) + c
    expected = sum(
        np.exp(1j * (kx * x + ky * y)) * dense[idx(x, y, 0)] @ dense[idx(x + 1, y, 1)]
        for x in range(2)
        for y in range(2)
    )
    built = square_pair_operator(space, 1, 0, kx, ky, pairing="cb").to_dense()
    assert np.allclose(built, expected, atol=1e-14)


def test_square_pair_validation():
    space = FockSpace.square(2, 2)
    with pytest.raises(ValueError):
        square_pair_operator(space, 0, 0, 0.0, 0.0, pairing="cc")
    with pytest.raises(ValueError):
        square_pair_operator(space, 1, 0, 0.1, 0.0)
    # mixed pairing at zero offset is a legitimate on-site pair
    assert square_pair_operator(space, 0, 0, 0.0, 0.0, pairing="cb").nnz > 0


def test_square_combo_normalization():
    space = FockSpace.square(2, 2)
    cc = square_pair_operator(space, 1, 0, 0.0, 0.0, pairing="cc")
    bb = square_pair_operator(space, 1, 0, 0.0, 0.0, pairing="bb")
    combo = square_combo_operator(space, 1, 0, 0.0, 0.0, family=1, parity=+1)
    assert (combo - (1 / np.sqrt(2)) * (cc + bb)).norm() == 0.0


# -- near-filling commutator reports -----------------------------------------

def test_filled_commutator_matched():
    space = FockSpace.chain(6)
    rep = boson_commutator_report(space, 1, 1, 0.0, 0.0)
    assert rep.expectation == pytest.approx(6.0, abs=1e-12)
    assert rep.deviation == pytest.approx(0.0, abs=1e-12)
    assert not rep.self_paired


def test_filled_commutator_four_mode_chain():
    rep = boson_commutator_report(FockSpace.chain(4), 1, 1, 0.0, 0.0)
    assert rep.expectation == pytest.approx(4.0, abs=1e-12)


def test_filled_commutator_momentum_mismatch():
    space = FockSpace.chain(6)
    k1, k2 = 2 * np.pi / 6, 4 * np.pi / 6
    rep = boson_commutator_report(space, 1, 1, k1, k2)
    assert abs(rep.expectation) < 1e-12
    assert rep.target == 0.0


def test_filled_commutator_length_mismatch():
    space = FockSpace.chain(6)
    rep = boson_commutator_report(space, 1, 2, 0.0, 0.0)
    assert abs(rep.expectation) < 1e-12


@pytest.mark.parametrize("holes", [0, 1, 2, 3])
@pytest.mark.parametrize("l", [1, 2])
def test_hole_count_drops_expectation_by_two_each(holes, l):
    space = FockSpace.chain(6)
    rep = boson_commutator_report(space, l, l, 0.0, 0.0, n_holes=holes, seed=11)
    assert rep.expectation == pytest.approx(6.0 - 2.0 * holes, abs=1e-12)
    assert rep.deviation == pytest.approx(2.0 * holes, abs=1e-12)


def test_hole_positions_do_not_matter():
    space = FockSpace.chain(6)
    values = [
        boson_commutator_report(space, 1, 1, 0.0, 0.0, n_holes=2, seed=s).expectation
        for s in range(6)
    ]
    assert all(v == pytest.approx(2.0, abs=1e-12) for v in values)


def test_self_paired_bond_report():
    space = FockSpace.chain(6)
    rep = boson_commutator_report(space, 3, 3, 0.0, 0.0)
    assert rep.self_paired
    assert rep.expectation == pytest.approx(0.0)  # operator vanishes at this k
    odd_j = 2 * np.pi / 6
    rep = boson_commutator_report(space, 3, 3, odd_j, odd_j)
    assert rep.self_paired
    # doubled amplitudes on the surviving momenta: twice the site count
    assert rep.expectation == pytest.approx(12.0, abs=1e-12)


def test_too_many_holes_rejected():
    space = FockSpace.chain(4)
    with pytest.raises(ValueError):
        boson_commutator_report(space, 1, 1, 0.0, 0.0, n_holes=17)
    with pytest.raises(ValueError):
        boson_commutator_report(space, 1, 1, 0.0, 0.0, n_holes=5)


def test_square_filled_commutator():
    space = FockSpace.square(3, 2)
    grid = square_momenta(3, 2)
    k = tuple(grid[1])
    rep = boson_commutator_report(space, (1, 0), (1, 0), k, k)
    assert not rep.self_paired
    assert rep.expectation == pytest.approx(6.0, abs=1e-12)  # site count
    other = tuple(grid[2])
    rep = boson_commutator_report(space, (1, 0), (1, 0), k, other)
    assert abs(rep.expectation) < 1e-12
    rep = boson_commutator_report(space, (0, 1), (0, 1), k, k)
    assert rep.self_paired  # 2*(0,1) wraps to (0,0) on the 3x2 torus


def near_filling_labels(space):
    """Every (l, k) label of the commutators suite, with its pair operator."""
    if space.kind == "chain":
        n = space.n_sites
        return [((l, k), bond_operator(space, l, k))
                for l in range(1, n // 2 + 1) for k in chain_momenta(n)]
    lx, ly = space.geometry["lx"], space.geometry["ly"]
    return [((l, tuple(k)), square_pair_operator(space, *l, *k, pairing="cc"))
            for l in square_bond_offsets(lx, ly) for k in square_momenta(lx, ly)]


def single_pair_expectation(e1, e2, state):
    """<state|[e1, e2^dag]|state> from one row and one column slice per operator."""
    row1, row2 = e1.matrix.getrow(state), e2.matrix.getrow(state)
    col1, col2 = e1.matrix.getcol(state), e2.matrix.getcol(state)
    raise_then_lower = (row1 @ row2.conj().T).toarray()[0, 0]
    lower_then_raise = (col2.conj().T @ col1).toarray()[0, 0]
    return complex(raise_then_lower - lower_then_raise)


@pytest.mark.parametrize("holes", [0, 1, 2])
@pytest.mark.parametrize(
    "space",
    [FockSpace.chain(6), FockSpace.chain(8), FockSpace.square(2, 2), FockSpace.square(2, 3)],
    ids=["ssh6", "ssh8", "dirac2x2", "dirac2x3"],
)
def test_batched_table_equals_single_pair_route_exactly(space, holes):
    labels, ops = zip(*near_filling_labels(space))
    table, hole_modes = near_filling_commutator_table(space, labels, n_holes=holes, seed=3)
    assert table.shape == (len(labels), len(labels))
    assert len(hole_modes) == holes
    state = space.filled_state
    for hole in hole_modes:
        state &= ~(1 << hole)
    for i, e1 in enumerate(ops):
        for j, e2 in enumerate(ops):
            assert complex(table[i, j]) == single_pair_expectation(e1, e2, state), (i, j)
    (l, k), (lp, kp) = labels[0], labels[-1]
    rep = boson_commutator_report(space, l, lp, k, kp, n_holes=holes, seed=3)
    assert rep.expectation == complex(table[0, -1])
    assert rep.holes == hole_modes


@pytest.mark.parametrize("holes", [0, 2])
def test_batched_table_matches_dense_commutator(holes):
    space = FockSpace.chain(6)
    labels, ops = zip(*near_filling_labels(space))
    table, hole_modes = near_filling_commutator_table(space, labels, n_holes=holes, seed=1)
    state = space.filled_state
    for hole in hole_modes:
        state &= ~(1 << hole)
    dense = [op.to_dense() for op in ops]
    for i, e1 in enumerate(dense):
        for j, e2 in enumerate(dense):
            e2_dag = e2.conj().T
            exact = (e1 @ e2_dag - e2_dag @ e1)[state, state]
            assert abs(table[i, j] - exact) <= 1e-12, (i, j)


# -- exact H-bond commutator identities ---------------------------------------

def test_chain_identities_spinless():
    assert verify_H_bond_commutators(ChainSpec(6, t0=1.0, alpha_u=0.1)) <= 1e-12


def test_chain_identities_uniform_limit():
    # alpha_u = 0: all coefficients collapse to t0 and the same-sublattice
    # terms carry the plain shift structure
    assert verify_H_bond_commutators(ChainSpec(6, t0=1.0, alpha_u=0.0)) <= 1e-12


def test_chain_identities_spinful():
    assert verify_H_bond_commutators(ChainSpec(4, t0=1.0, alpha_u=0.2, spinful=True)) <= 1e-12


def test_chain_identity_detail_covers_all_cells():
    spec = ChainSpec(4, t0=1.0, alpha_u=0.15)
    rows = h_bond_commutator_residuals(spec)
    # 1 channel x 2 sublattices x l in 1..2 x 2 momenta
    assert len(rows) == 8
    assert {r.sublattice for r in rows} == {"A", "B"}
    assert max(r.residual for r in rows) <= 1e-12


@pytest.mark.parametrize(
    "lx,ly,delta", [(2, 2, 0.8), (3, 2, 0.6), (2, 3, 1.1)]
)
def test_square_identities(lx, ly, delta):
    assert verify_H_bond_commutators(SquareSpec(lx, ly, delta=delta)) <= 1e-12


def test_square_identity_detail_channels():
    rows = h_bond_commutator_residuals(SquareSpec(2, 2, delta=0.5))
    assert {r.channel for r in rows} == {"E1(+)", "E1(-)", "E2(+)", "E2(-)"}
    assert max(r.residual for r in rows) <= 1e-12
