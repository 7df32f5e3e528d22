import numpy as np
import pytest

from bondboson.blocks import (
    correspondence_report,
    dirac_boson_block,
    dirac_boson_closed_eigs,
    ssh_boson_block,
    ssh_boson_closed_eigs,
)
from bondboson.fermion_model import ssh_band_energy
from bondboson.lattice import ChainSpec, SquareSpec
from bondboson.numerics import hermitian_eigenvalues


def block_eigs(block):
    return hermitian_eigenvalues(block.matrix)


def test_ssh_block_uniform_zero_momentum():
    block = ssh_boson_block(0.0, 0.0, 1.0, 0.0)
    assert block.cos_term == pytest.approx(2.0)
    assert block.sin_term == pytest.approx(0.0)
    assert block.cross_term == pytest.approx(2.0)
    assert np.allclose(block_eigs(block), [-4.0, 0.0, 0.0, 4.0], atol=1e-12)


def test_ssh_block_dimerized_point():
    block = ssh_boson_block(np.pi / 2, 0.0, 1.0, 0.25)
    assert block.cos_term == pytest.approx(0.0, abs=1e-15)
    assert block.sin_term == pytest.approx(1.0)
    assert block.cross_term == pytest.approx(-1.0j, abs=1e-15)
    assert np.allclose(block_eigs(block), [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_ssh_block_hermitian_for_random_inputs(seed):
    rng = np.random.default_rng(seed)
    q, k = rng.uniform(0, 2 * np.pi, 2)
    # HermitianMatrix construction inside the builder enforces the invariant
    block = ssh_boson_block(q, k, rng.uniform(0.2, 3.0), rng.uniform(-1, 1))
    a = block.matrix.array
    assert np.max(np.abs(a - a.conj().T)) == 0.0


def test_ssh_closed_form_matches_numeric_random():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(300):
        q, k = rng.uniform(0, 2 * np.pi, 2)
        t0 = rng.uniform(0.2, 3.0)
        alpha_u = rng.uniform(-1.0, 1.0)
        numeric = block_eigs(ssh_boson_block(q, k, t0, alpha_u))
        closed = ssh_boson_closed_eigs(q, k, t0, alpha_u)
        worst = max(worst, float(np.max(np.abs(numeric - closed))))
    assert worst <= 1e-10


def test_ssh_closed_form_zero_total_momentum():
    # at k = 0 the two radicals coincide: {-2E, 0, 0, 2E}
    for q in (0.0, 0.4, np.pi / 2):
        e = ssh_band_energy(q, 1.0, 0.3).plus_branch
        closed = ssh_boson_closed_eigs(q, 0.0, 1.0, 0.3)
        assert np.allclose(closed, [-2 * e, 0.0, 0.0, 2 * e], atol=1e-12)


def test_ssh_spectral_negation_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(50):
        q, k = rng.uniform(0, 2 * np.pi, 2)
        eigs = block_eigs(ssh_boson_block(q, k, 1.0, 0.2))
        assert np.allclose(eigs, -eigs[::-1], atol=1e-10)


def test_ssh_zero_modes_at_zero_total_momentum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        q = rng.uniform(0, 2 * np.pi)
        eigs = np.abs(block_eigs(ssh_boson_block(q, 0.0, 1.0, 0.35)))
        assert np.sum(eigs < 1e-10) >= 2


def test_ssh_gauge_periodicity():
    # q has period 2*pi; the half-angle phase makes k periodic with 4*pi
    q, k = 0.7, 1.3
    base = block_eigs(ssh_boson_block(q, k, 1.0, 0.2))
    assert np.allclose(base, block_eigs(ssh_boson_block(q + 2 * np.pi, k, 1.0, 0.2)), atol=1e-10)
    assert np.allclose(base, block_eigs(ssh_boson_block(q, k + 4 * np.pi, 1.0, 0.2)), atol=1e-10)


def test_dirac_block_mass_only_point():
    block = dirac_boson_block(0.0, 0.0, 0.0, 0.0, 0.5)
    assert np.allclose(block_eigs(block), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(
        dirac_boson_closed_eigs(0.0, 0.0, 0.0, 0.0, 0.5), [-1.0, 0.0, 0.0, 1.0]
    )


def test_dirac_block_pure_sine_point():
    block = dirac_boson_block(np.pi / 2, 0.0, 0.0, 0.0, 0.0)
    assert block.sin_x_plus == pytest.approx(0.0, abs=1e-15)
    assert block.sin_x_minus == pytest.approx(-2.0)
    assert np.allclose(block_eigs(block), [-4.0, 0.0, 0.0, 4.0], atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_dirac_block_hermitian_for_random_inputs(seed):
    rng = np.random.default_rng(100 + seed)
    s, p, kx, ky = rng.uniform(0, 2 * np.pi, 4)
    block = dirac_boson_block(s, p, kx, ky, rng.uniform(-2, 2))
    a = block.matrix.array
    assert np.max(np.abs(a - a.conj().T)) == 0.0


def test_dirac_closed_form_matches_numeric_random():
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(300):
        s, p, kx, ky = rng.uniform(0, 2 * np.pi, 4)
        m = rng.uniform(-2.0, 2.0)
        numeric = block_eigs(dirac_boson_block(s, p, kx, ky, m))
        closed = dirac_boson_closed_eigs(s, p, kx, ky, m)
        worst = max(worst, float(np.max(np.abs(numeric - closed))))
    assert worst <= 1e-10


def test_dirac_closed_form_reflection_symmetry():
    # at zero total momentum the spectrum is even in s
    for s in (0.3, 1.1, 2.5):
        a = dirac_boson_closed_eigs(s, 0.4, 0.0, 0.0, 0.7)
        b = dirac_boson_closed_eigs(-s, 0.4, 0.0, 0.0, 0.7)
        assert np.allclose(a, b, atol=1e-12)


def test_dirac_zero_modes_at_zero_total_momentum():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s, p = rng.uniform(0, 2 * np.pi, 2)
        eigs = np.abs(block_eigs(dirac_boson_block(s, p, 0.0, 0.0, 0.9)))
        assert np.sum(eigs < 1e-10) >= 2


def test_correspondence_report_ssh():
    table = correspondence_report(ChainSpec(6, t0=1.0, alpha_u=0.1))
    assert table.model == "ssh"
    assert len(table.rows) == 9
    assert table.passed
    assert table.max_discrepancy <= 1e-10
    assert table.flagged_rows() == []


def test_correspondence_report_ssh_degenerate_chain():
    # alpha_u = 0: every block decomposes into pure cosine-band pairs
    table = correspondence_report(ChainSpec(6, t0=1.0, alpha_u=0.0))
    assert table.passed
    for row in table.rows:
        q, k = row.momenta
        e1 = abs(2 * np.cos(q))
        e2 = abs(2 * np.cos(k / 2 - q))
        expected = np.sort([s1 * e1 + s2 * e2 for s1 in (1, -1) for s2 in (1, -1)])
        assert np.allclose(row.numeric, expected, atol=1e-10)


def test_correspondence_report_dirac():
    table = correspondence_report(SquareSpec(4, 4, delta=1.2))
    assert table.model == "dirac2d"
    assert len(table.rows) == 256
    assert table.passed
    assert table.max_discrepancy <= 1e-10


def test_correspondence_report_rejects_unknown_spec():
    with pytest.raises(TypeError):
        correspondence_report(object())
