import numpy as np
import pytest

from bondboson.blocks import (
    correspondence_report,
    dirac_boson_block,
    dirac_boson_closed_eigs,
    ssh_boson_block,
    ssh_boson_closed_eigs,
)
from bondboson.fermion_model import dirac2d_band_energy, ssh_band_energy
from bondboson.lattice import ChainSpec, SquareSpec, chain_momenta, square_momenta
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
    assert table.numeric.shape == (9, 4)
    assert table.passed
    assert table.max_discrepancy <= 1e-10
    assert np.all(table.discrepancy <= table.tolerance)


def test_correspondence_report_ssh_degenerate_chain():
    # alpha_u = 0: every block decomposes into pure cosine-band pairs
    table = correspondence_report(ChainSpec(6, t0=1.0, alpha_u=0.0))
    assert table.passed
    for (q, k), numeric in zip(table.momenta, table.numeric):
        e1 = abs(2 * np.cos(q))
        e2 = abs(2 * np.cos(k / 2 - q))
        expected = np.sort([s1 * e1 + s2 * e2 for s1 in (1, -1) for s2 in (1, -1)])
        assert np.allclose(numeric, expected, atol=1e-10)


def test_correspondence_report_dirac():
    table = correspondence_report(SquareSpec(4, 4, delta=1.2))
    assert table.model == "dirac2d"
    assert table.numeric.shape == (256, 4)
    assert table.passed
    assert table.max_discrepancy <= 1e-10


def test_correspondence_report_rejects_unknown_spec():
    with pytest.raises(TypeError):
        correspondence_report(object())


# ---------------------------------------------------------------------------
# Oracle: the per-block route (one block, one validated matrix, one eigvalsh,
# one closed form and one band-pair sum per momentum) that the stacked table
# replaced.  The stacked table must reproduce it bit for bit.
# ---------------------------------------------------------------------------

def oracle_ssh_matrix(q, k, t0, alpha_u):
    y = 2.0 * t0 * np.cos(q)
    x = 4.0 * alpha_u * np.sin(q)
    z = np.exp(0.5j * k) * (
        2.0 * t0 * np.cos(k / 2.0 - q) + 4.0j * alpha_u * np.sin(k / 2.0 - q)
    )
    zc = np.conj(z)
    return np.array(
        [
            [y, -1j * x, zc, 0.0],
            [1j * x, -y, 0.0, -zc],
            [z, 0.0, y, 1j * x],
            [0.0, -z, -1j * x, -y],
        ],
        dtype=complex,
    )


def oracle_dirac_matrix(s, p, kx, ky, m):
    sp = np.sin(s) + np.sin(kx - s)
    sm = -np.sin(s) + np.sin(kx - s)
    pp = -np.sin(p) + np.sin(ky - p)
    pm = np.sin(p) + np.sin(ky - p)
    return np.array(
        [
            [0.0, -2.0 * m, -2.0 * pp, -2.0j * sm],
            [-2.0 * m, 0.0, 2.0j * sp, 2.0 * pm],
            [-2.0 * pp, -2.0j * sp, 0.0, 0.0],
            [2.0j * sm, 2.0 * pm, 0.0, 0.0],
        ],
        dtype=complex,
    )


def oracle_eigenvalues(matrix):
    a = np.array(matrix, dtype=complex)
    np.fill_diagonal(a, a.diagonal().real)
    return np.linalg.eigvalsh(a)


def oracle_ssh_band(momentum, t0, alpha_u):
    return float(np.hypot(2.0 * t0 * np.cos(momentum), 4.0 * alpha_u * np.sin(momentum)))


def oracle_dirac_band(kx, ky, m):
    return 2.0 * float(np.sqrt(m * m + np.sin(kx) ** 2 + np.sin(ky) ** 2))


def oracle_signed_sums(r1, r2, signs=(1.0, -1.0)):
    return [s1 * r1 + s2 * r2 for s1 in signs for s2 in signs]


def oracle_ssh_closed(q, k, t0, alpha_u):
    r1 = oracle_ssh_band(q, t0, alpha_u)
    r2 = oracle_ssh_band(k / 2.0 - q, t0, alpha_u)
    return np.sort(oracle_signed_sums(r1, r2))


def oracle_dirac_closed(s, p, kx, ky, m):
    r1 = float(np.sqrt(m * m + 4.0 * np.sin(s) ** 2 + 4.0 * np.sin(p) ** 2))
    r2 = float(np.sqrt(m * m + 4.0 * np.sin(kx - s) ** 2 + 4.0 * np.sin(ky - p) ** 2))
    return np.sort(oracle_signed_sums(r1, r2))


def oracle_row(momenta, numeric, closed, pairs):
    numeric = np.sort(np.asarray(numeric, dtype=float))
    closed = np.sort(np.asarray(closed, dtype=float))
    pairs = np.sort(np.asarray(pairs, dtype=float))
    spread = float(np.max(np.abs(np.concatenate((numeric - closed, numeric - pairs)))))
    return tuple(momenta), numeric, closed, pairs, spread


def oracle_rows(spec):
    rows = []
    if isinstance(spec, ChainSpec):
        t0, alpha_u = spec.t0, spec.alpha_u
        grid = chain_momenta(spec.n_cells)
        for q in grid:
            band_q = oracle_ssh_band(q, t0, alpha_u)
            for k in grid:
                numeric = oracle_eigenvalues(oracle_ssh_matrix(q, k, t0, alpha_u))
                closed = oracle_ssh_closed(q, k, t0, alpha_u)
                band_pair = oracle_ssh_band(k / 2.0 - q, t0, alpha_u)
                pairs = oracle_signed_sums(band_q, band_pair, signs=(1, -1))
                rows.append(oracle_row((float(q), float(k)), numeric, closed, pairs))
        return rows
    m = spec.delta
    grid = square_momenta(spec.lx, spec.ly)
    for s, p in grid:
        band_sp = oracle_dirac_band(s, p, spec.m)
        for kx, ky in grid:
            numeric = oracle_eigenvalues(oracle_dirac_matrix(s, p, kx, ky, m))
            closed = oracle_dirac_closed(s, p, kx, ky, m)
            band_pair = oracle_dirac_band(kx - s, ky - p, spec.m)
            pairs = oracle_signed_sums(band_sp, band_pair, signs=(1, -1))
            rows.append(oracle_row((float(s), float(p), float(kx), float(ky)),
                                   numeric, closed, pairs))
    return rows


def bits(values):
    """The float64 bytes of ``values``: equal only if every entry has the same bits."""
    return np.asarray(values, dtype=np.float64).tobytes()


ORACLE_SPECS = [
    ChainSpec(6, alpha_u=0.1),
    ChainSpec(6, alpha_u=0.0),
    ChainSpec(10, t0=1.3, alpha_u=0.23),
    ChainSpec(10, alpha_u=0.0),
    ChainSpec(40, t0=0.7, alpha_u=-0.31),
    ChainSpec(40, alpha_u=0.0),
    ChainSpec(200, alpha_u=0.17),
    SquareSpec(1, 1, delta=0.5),
    SquareSpec(2, 2, delta=0.8),
    SquareSpec(2, 3, delta=1.3),
    SquareSpec(3, 5, delta=-0.7),
    SquareSpec(10, 10, delta=1.1),
]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=repr)
def test_table_is_bit_identical_to_the_per_block_route(spec):
    table = correspondence_report(spec)
    expected = oracle_rows(spec)
    assert len(table.momenta) == len(expected)
    assert [tuple(point) for point in table.momenta.tolist()] == [row[0] for row in expected]
    for column, name in enumerate(("numeric", "closed_form", "fermion_pairs", "discrepancy"),
                                  start=1):
        assert bits(getattr(table, name)) == bits([row[column] for row in expected]), name
    assert bits(table.max_discrepancy) == bits(max(row[4] for row in expected))
    assert table.passed


def grid_points(spec):
    """The table's momentum grid as columns: (q, k) or (s, p, kx, ky)."""
    if isinstance(spec, ChainSpec):
        grid = chain_momenta(spec.n_cells)
        return [np.repeat(grid, grid.size), np.tile(grid, grid.size)]
    grid = square_momenta(spec.lx, spec.ly)
    return list(np.column_stack((np.repeat(grid, len(grid), axis=0),
                                 np.tile(grid, (len(grid), 1)))).T)


@pytest.mark.parametrize("spec", [ChainSpec(10, alpha_u=0.0), ChainSpec(40, t0=0.7, alpha_u=-0.31),
                                  SquareSpec(2, 3, delta=1.3), SquareSpec(3, 5, delta=-0.7)],
                         ids=repr)
def test_block_stack_keeps_every_entry_bit_and_one_point_calls_agree(spec):
    points = grid_points(spec)
    if isinstance(spec, ChainSpec):
        args = (spec.t0, spec.alpha_u)
        build, closed, oracle = ssh_boson_block, ssh_boson_closed_eigs, oracle_ssh_matrix
    else:
        args = (spec.delta,)
        build, closed, oracle = dirac_boson_block, dirac_boson_closed_eigs, oracle_dirac_matrix
    stack = build(*points, *args).matrix.array
    closed_rows = closed(*points, *args)
    for i, point in enumerate(zip(*points)):
        expected = oracle(*point, *args)
        np.fill_diagonal(expected, expected.diagonal().real)
        # tobytes also tells -0.0 from +0.0
        assert stack[i].tobytes() == expected.tobytes()
        assert build(*point, *args).matrix.array.tobytes() == expected.tobytes()
        assert closed(*point, *args).tobytes() == closed_rows[i].tobytes()


def test_stacks_keep_the_per_block_bits_at_random_momenta():
    # off the grid too: a formula that rounds an array otherwise than a
    # scalar (``x ** 2``, a fused complex product) shows up here
    rng = np.random.default_rng(9)
    q, k, s, p, kx, ky = rng.uniform(-7.0, 7.0, (6, 2000))
    t0, alpha_u, m = 1.3, -0.4, 0.9
    chain = ssh_boson_block(q, k, t0, alpha_u).matrix.array
    chain_closed = ssh_boson_closed_eigs(q, k, t0, alpha_u)
    dirac = dirac_boson_block(s, p, kx, ky, m).matrix.array
    dirac_closed = dirac_boson_closed_eigs(s, p, kx, ky, m)
    chain_band = ssh_band_energy(q, t0, alpha_u).plus_branch
    dirac_band = dirac2d_band_energy(kx, ky, m).plus_branch
    for i in range(q.size):
        expected = oracle_ssh_matrix(q[i], k[i], t0, alpha_u)
        np.fill_diagonal(expected, expected.diagonal().real)
        assert chain[i].tobytes() == expected.tobytes()
        expected = oracle_dirac_matrix(s[i], p[i], kx[i], ky[i], m)
        np.fill_diagonal(expected, expected.diagonal().real)
        assert dirac[i].tobytes() == expected.tobytes()
        assert bits(chain_closed[i]) == bits(oracle_ssh_closed(q[i], k[i], t0, alpha_u))
        assert bits(dirac_closed[i]) == bits(oracle_dirac_closed(s[i], p[i], kx[i], ky[i], m))
        assert bits(chain_band[i]) == bits(oracle_ssh_band(q[i], t0, alpha_u))
        assert bits(dirac_band[i]) == bits(oracle_dirac_band(kx[i], ky[i], m))
