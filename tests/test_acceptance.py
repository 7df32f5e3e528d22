"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line with the measured figure next
to its pinned tolerance (run with ``pytest -s`` to see them), then
asserts.  Tolerances are fixed here, not configurable.
"""

import pathlib
import time

import numpy as np

from bondboson.blocks import (
    dirac_boson_block,
    dirac_boson_closed_eigs,
    ssh_boson_block,
    ssh_boson_closed_eigs,
)
from bondboson.bilinear import (
    ChainPair,
    bond_self_paired,
    boson_commutator_report,
    h_bond_commutator_residuals,
    pair_commutator_table,
)
from bondboson.cli import main
from bondboson.fermion_model import hopping_matrix, ssh_band_energy
from bondboson.fock import FockSpace, creation_op
from bondboson.blocks import correspondence_report
from bondboson.interactions import (
    coulomb_operator,
    coulomb_pair_form,
    creation_pair_direct,
    interaction_equivalence_residual,
    pair_form_stacks,
    pair_from_bonds,
    pair_tensor,
    random_offdiag_coupling,
)
from bondboson.lattice import ChainSpec, SquareSpec, chain_momenta, square_momenta
from bondboson.numerics import hermitian_eigenvalues, max_residual

GOLDEN = pathlib.Path(__file__).parent / "golden"


def report(criterion, ok, detail):
    print(f"{criterion} {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_a1_closed_form_vs_numeric_ssh():
    tol = 1e-10
    start = time.perf_counter()
    worst = 0.0
    grid = chain_momenta(3)
    for q in grid:
        for k in grid:
            numeric = hermitian_eigenvalues(ssh_boson_block(q, k, 1.0, 0.1))
            closed = ssh_boson_closed_eigs(q, k, 1.0, 0.1)
            worst = max(worst, float(np.max(np.abs(numeric - closed))))
    rng = np.random.default_rng(1)
    for _ in range(100):
        q, k = rng.uniform(0, 2 * np.pi, 2)
        t0 = float(rng.uniform(0.2, 3.0))
        alpha_u = float(rng.uniform(-1.0, 1.0))
        numeric = hermitian_eigenvalues(ssh_boson_block(q, k, t0, alpha_u))
        closed = ssh_boson_closed_eigs(q, k, t0, alpha_u)
        worst = max(worst, float(np.max(np.abs(numeric - closed))))
    elapsed = time.perf_counter() - start
    # the literal block itself must match its closed form: no convention is adjusted
    report(
        "A1",
        worst <= tol and elapsed < 1.0,
        f"max |numeric - closed| = {worst:.3e} <= {tol}, runtime {elapsed:.3f}s < 1s",
    )


def test_a2_one_to_one_correspondence_ssh():
    tol = 1e-10
    worst = 0.0
    grid = chain_momenta(3)
    for q in grid:
        e_q = ssh_band_energy(q, 1.0, 0.1)
        for k in grid:
            numeric = hermitian_eigenvalues(ssh_boson_block(q, k, 1.0, 0.1))
            e_pair = ssh_band_energy(k / 2.0 - q, 1.0, 0.1)
            combos = np.sort([s1 * e_q + s2 * e_pair for s1 in (1, -1) for s2 in (1, -1)])
            worst = max(worst, float(np.max(np.abs(numeric - combos))))
    report("A2", worst <= tol, f"max multiset mismatch = {worst:.3e} <= {tol}")


def test_a3_exact_commutator_identities():
    tol = 1e-12
    start = time.perf_counter()
    spinless, spinful, dirac = (
        max_residual(h_bond_commutator_residuals(spec)[1])
        for spec in (ChainSpec(6, t0=1.0, alpha_u=0.1),
                     ChainSpec(4, t0=1.0, alpha_u=0.2, spinful=True),
                     SquareSpec(2, 2, delta=0.8)))
    elapsed = time.perf_counter() - start
    worst = max(spinless, spinful, dirac)
    report(
        "A3",
        worst <= tol and elapsed < 30.0,
        f"residuals: chain spinless {spinless:.3e}, chain spinful {spinful:.3e}, "
        f"2x2 lattice {dirac:.3e}; all <= {tol}; runtime {elapsed:.1f}s < 30s",
    )


def test_a4_near_filling_commutator_and_hole_table(tmp_path):
    tol = 1e-12
    spec = ChainSpec(6)
    bonds = [ChainPair(l, K) for l in (1, 2, 3) for K in range(6)]
    worst = 0.0
    anomalies_ok = True
    table, _ = pair_commutator_table(spec, bonds)
    for i, first in enumerate(bonds):
        for j, second in enumerate(bonds):
            if i == j and bond_self_paired(spec, first):
                # the half-ring bond self-pairs: the sum collapses to
                # 0 or doubles to 2 * n_sites depending on e^{3ik}
                expected = 0.0 if (3 * first.K) % 6 == 0 else 12.0
                anomalies_ok &= abs(table[i, j] - expected) <= tol
            else:
                # the canonical-boson value: the site count on matched labels, else 0
                worst = max(worst, abs(table[i, j] - (6.0 if i == j else 0.0)))
    hole_law_ok = True
    for holes in range(0, 4):
        for l in (1, 2):
            bond = ChainPair(l, 0)
            expectation = boson_commutator_report(spec, bond, n_holes=holes, seed=7)
            hole_law_ok &= abs(expectation - (6.0 - 2.0 * holes)) <= tol
    out = tmp_path / "verify_commutators_ssh6.json"
    code = main(["verify", "commutators", "--model", "ssh", "--sites", "6",
                 "--holes", "0", "--output", str(out)])
    golden_ok = code == 0 and out.read_bytes() == (GOLDEN / "verify_commutators_ssh6.json").read_bytes()
    report(
        "A4",
        worst <= tol and anomalies_ok and hole_law_ok and golden_ok,
        f"filled-state law deviation {worst:.3e} <= {tol} (self-paired half-ring "
        f"cells documented: {anomalies_ok}), hole drop exact: {hole_law_ok}, "
        f"golden table match: {golden_ok}",
    )


def test_a5_closed_form_vs_numeric_dirac():
    tol = 1e-10
    m = 0.8
    zero = hermitian_eigenvalues(dirac_boson_block(0.0, 0.0, 0.0, 0.0, m))
    scale_ok = bool(np.allclose(zero, [-2 * m, 0.0, 0.0, 2 * m], atol=tol))
    worst = 0.0
    grid = square_momenta(4, 4)
    for s, p in grid:
        for kx, ky in grid:
            numeric = hermitian_eigenvalues(dirac_boson_block(s, p, kx, ky, m))
            closed = dirac_boson_closed_eigs(s, p, kx, ky, m)
            worst = max(worst, float(np.max(np.abs(numeric - closed))))
    report(
        "A5",
        scale_ok and worst <= tol,
        f"zero-momentum oracle (+-2m, 0, 0): {scale_ok}; "
        f"max |numeric - closed| over 4x4 grid = {worst:.3e} <= {tol}",
    )


def test_a6_fermion_correspondence_dirac():
    spec = SquareSpec(4, 4, delta=1.2)
    numeric = hermitian_eigenvalues(hopping_matrix(spec))
    analytic = []
    for kx, ky in square_momenta(4, 4):
        e = np.sqrt(spec.delta**2 + 4 * np.sin(kx) ** 2 + 4 * np.sin(ky) ** 2)
        analytic.extend([e, -e])
    band_gap = float(np.max(np.abs(numeric - np.sort(analytic))))
    table = correspondence_report(spec)
    pair_gap = float(np.max(np.abs(table.numeric - table.fermion_pairs)))
    report(
        "A6",
        band_gap <= 1e-9 and pair_gap <= 1e-10,
        f"lattice spectrum vs band multiset: {band_gap:.3e} <= 1e-9; "
        f"boson eigenvalues vs signed band pairs (delta = 2m): {pair_gap:.3e} <= 1e-10",
    )


def test_a7_interaction_rewrite():
    space = FockSpace(ChainSpec(6))
    alpha = random_offdiag_coupling(6, seed=3)
    form_distance = (coulomb_operator(space, alpha) - coulomb_pair_form(space, alpha)).norm()
    reconstruction = 0.0
    for p in range(6):
        for l in range(1, 6):
            reconstruction = max(
                reconstruction,
                (pair_from_bonds(space, p, l) - creation_pair_direct(space, p, l)).norm(),
            )
    pair_form = coulomb_pair_form(space, alpha)
    pair = pair_tensor(*pair_form_stacks(alpha))
    assembled = interaction_equivalence_residual(alpha, pair)
    scale = pair_form.norm()
    ok = form_distance <= 1e-12 and reconstruction <= 1e-13 and assembled <= 1e-12 * scale
    report(
        "A7",
        ok,
        f"density vs pair form {form_distance:.3e} <= 1e-12; pair reconstruction "
        f"{reconstruction:.3e} <= 1e-13; bond-assembled {assembled:.3e} <= "
        f"{1e-12 * scale:.3e}",
    )


def test_a8_property_suites():
    rng = np.random.default_rng(2024)
    cases = 200
    anticommutation_ok = True
    hermitian_ok = True
    negation_ok = True
    zero_mode_ok = True
    space4 = FockSpace(ChainSpec(4))
    space_sq = FockSpace(SquareSpec(2, 2))
    for _ in range(cases):
        q, k, s, p, kx, ky = rng.uniform(0, 2 * np.pi, 6)
        t0 = float(rng.uniform(0.2, 3.0))
        alpha_u = float(rng.uniform(-1.0, 1.0))
        m = float(rng.uniform(-2.0, 2.0))

        space = space4 if rng.integers(2) else space_sq
        i, j = rng.integers(space.n_modes, size=2)
        ci, cj = creation_op(space, int(i)), creation_op(space, int(j))
        aj = cj.adjoint()
        delta = 1.0 if i == j else 0.0
        anti = (ci @ aj + aj @ ci).to_dense()
        anticommutation_ok &= np.array_equal(anti, delta * np.eye(space.dim))
        anticommutation_ok &= (ci @ cj + cj @ ci).nnz == 0

        chain_block = ssh_boson_block(q, k, t0, alpha_u)
        dirac_block = dirac_boson_block(s, p, kx, ky, m)
        for arr in (chain_block.array, dirac_block.array):
            hermitian_ok &= bool(np.max(np.abs(arr - arr.conj().T)) == 0.0)
            eigs = np.linalg.eigvalsh(arr)
            negation_ok &= bool(np.allclose(eigs, -eigs[::-1], atol=1e-10))

        zero_chain = np.abs(hermitian_eigenvalues(ssh_boson_block(q, 0.0, t0, alpha_u)))
        zero_dirac = np.abs(hermitian_eigenvalues(dirac_boson_block(s, p, 0.0, 0.0, m)))
        zero_mode_ok &= int(np.sum(zero_chain < 1e-10)) >= 2
        zero_mode_ok &= int(np.sum(zero_dirac < 1e-10)) >= 2
    report(
        "A8",
        anticommutation_ok and hermitian_ok and negation_ok and zero_mode_ok,
        f"{cases} seeded cases: anticommutators exact {anticommutation_ok}, "
        f"block Hermiticity {hermitian_ok}, spectral negation {negation_ok}, "
        f"zero modes at zero total momentum {zero_mode_ok}",
    )
