"""Symbolic proofs of the two block claims, for all real momenta and parameters.

Each 4x4 bond-boson block has the eigenvalues ``+-r1 +-r2``, the signed
sums of two single-fermion band energies.  The correspondence table's
closed-form column rests on that claim alone, so it is proved here: the
characteristic polynomial of the symbolic block, minus
``prod (lam - (+-r1 +-r2))``, simplifies to zero.  The symbols stand for
the real quantities the code computes, so the proof holds at every real
momentum and parameter:

* chain: ``y = 2 t0 cos q``, ``x = 4 alpha_u sin q`` and
  ``z = e^{ik/2} (c + i d)`` with ``c = 2 t0 cos(k/2 - q)`` and
  ``d = 4 alpha_u sin(k/2 - q)``; ``r1 = sqrt(x^2 + y^2)``, ``r2 = |z|``;
* square lattice: the sines ``sin s``, ``sin p``, ``sin(kx - s)`` and
  ``sin(ky - p)`` and the splitting ``delta``;
  ``r1 = sqrt(delta^2 + 4 sin^2 s + 4 sin^2 p)`` and r2 likewise.

A second test ties each symbolic entry to the code's block at random
points, entry by entry, and the radicals to the code's band energies, so
a flipped sign in a block builder fails here too.
"""

import numpy as np
import pytest
import sympy as sp

from bondboson.blocks import (
    dirac_boson_block,
    dirac_boson_closed_eigs,
    ssh_boson_block,
    ssh_boson_closed_eigs,
)
from bondboson.fermion_model import dirac2d_band_energy, ssh_band_energy

LAM = sp.Symbol("lam")
I = sp.I

# chain: the block's real ingredients and the half total momentum theta = k/2
Y, X, C, D, THETA = sp.symbols("y x c d theta", real=True)
Z = sp.exp(I * THETA) * (C + I * D)
ZC = sp.exp(-I * THETA) * (C - I * D)
CHAIN_BLOCK = sp.Matrix([
    [Y, -I * X, ZC, 0],
    [I * X, -Y, 0, -ZC],
    [Z, 0, Y, I * X],
    [0, -Z, -I * X, -Y],
])
CHAIN_RADICALS = (sp.sqrt(X**2 + Y**2), sp.sqrt(C**2 + D**2))

# square lattice: sin s, sin p, sin(kx - s), sin(ky - p) and the splitting delta
SIN_S, SIN_P, SIN_KX, SIN_KY, DELTA = sp.symbols("sin_s sin_p sin_kx sin_ky delta", real=True)
SP, SM = SIN_S + SIN_KX, -SIN_S + SIN_KX
PP, PM = -SIN_P + SIN_KY, SIN_P + SIN_KY
DIRAC_BLOCK = sp.Matrix([
    [0, -2 * DELTA, -2 * PP, -2 * I * SM],
    [-2 * DELTA, 0, 2 * I * SP, 2 * PM],
    [-2 * PP, -2 * I * SP, 0, 0],
    [2 * I * SM, 2 * PM, 0, 0],
])
DIRAC_RADICALS = (sp.sqrt(DELTA**2 + 4 * SIN_S**2 + 4 * SIN_P**2),
                  sp.sqrt(DELTA**2 + 4 * SIN_KX**2 + 4 * SIN_KY**2))


def signed_sum_polynomial(r1, r2):
    """``prod (lam - (+-r1 +-r2))`` over the four sign pairs."""
    return sp.Mul(*(LAM - (s1 * r1 + s2 * r2) for s1 in (1, -1) for s2 in (1, -1)))


@pytest.mark.parametrize("block,radicals", [(CHAIN_BLOCK, CHAIN_RADICALS),
                                            (DIRAC_BLOCK, DIRAC_RADICALS)],
                         ids=["chain", "dirac2d"])
def test_block_spectrum_is_the_signed_sums_of_two_band_energies(block, radicals):
    assert sp.simplify(block - block.H) == sp.zeros(4, 4)
    characteristic = (LAM * sp.eye(4) - block).det()
    assert sp.simplify(sp.expand(characteristic - signed_sum_polynomial(*radicals))) == 0


def chain_values(q, k, t0, alpha_u):
    """The chain symbols' values at (q, k) as the code defines them."""
    return {Y: 2 * t0 * np.cos(q), X: 4 * alpha_u * np.sin(q), THETA: k / 2,
            C: 2 * t0 * np.cos(k / 2 - q), D: 4 * alpha_u * np.sin(k / 2 - q)}


def dirac_values(s, p, kx, ky, delta):
    """The square-lattice symbols' values at (s, p, kx, ky) as the code defines them."""
    return {SIN_S: np.sin(s), SIN_P: np.sin(p), SIN_KX: np.sin(kx - s),
            SIN_KY: np.sin(ky - p), DELTA: delta}


def evaluate(expressions, values) -> np.ndarray:
    """The symbolic expressions at the given symbol values, as complex floats."""
    symbols = list(values)
    return np.asarray(sp.lambdify(symbols, expressions, "numpy")(*values.values()),
                      dtype=complex)


@pytest.mark.parametrize("seed", range(4))
def test_symbolic_blocks_are_the_code_blocks(seed):
    rng = np.random.default_rng(seed)
    for _ in range(5):
        q, k, s, p, kx, ky = rng.uniform(-2 * np.pi, 2 * np.pi, 6)
        t0, alpha_u, delta = rng.uniform(0.1, 2.0), rng.uniform(-1.5, 1.5), rng.uniform(-2, 2)
        cases = [
            (ssh_boson_block(q, k, t0, alpha_u).array, CHAIN_BLOCK, chain_values(q, k, t0, alpha_u),
             ssh_boson_closed_eigs(q, k, t0, alpha_u),
             (ssh_band_energy(q, t0, alpha_u), ssh_band_energy(k / 2 - q, t0, alpha_u)),
             CHAIN_RADICALS),
            (dirac_boson_block(s, p, kx, ky, delta).array, DIRAC_BLOCK,
             dirac_values(s, p, kx, ky, delta), dirac_boson_closed_eigs(s, p, kx, ky, delta),
             (dirac2d_band_energy(s, p, delta / 2), dirac2d_band_energy(kx - s, ky - p, delta / 2)),
             DIRAC_RADICALS),
        ]
        for code, block, values, closed, bands, radicals in cases:
            symbolic = evaluate(block, values)
            scale = np.max(np.abs(code))
            for i, j in np.ndindex(4, 4):
                assert abs(code[i, j] - symbolic[i, j]) <= 1e-14 * scale, (i, j)
            r1, r2 = evaluate(radicals, values).real
            assert np.allclose(bands, (r1, r2), rtol=1e-14, atol=0.0)
            expected = np.sort([r1 + r2, r1 - r2, -r1 + r2, -r1 - r2])
            assert np.allclose(closed, expected, rtol=0.0, atol=1e-14 * (r1 + r2))
