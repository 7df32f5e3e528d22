import numpy as np
import pytest
from conftest import random_hermitian, random_unitary

from bondboson.numerics import (
    HermitianMatrix,
    NonHermitianError,
    frobenius_norm,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    max_residual,
)


def test_identity_eigenvalues():
    w, v = hermitian_eigensystem(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(v @ v.conj().T, np.eye(2))


def test_diagonal_sorted_ascending():
    w, _ = hermitian_eigensystem(np.diag([3.0, -1.0]))
    assert np.allclose(w, [-1.0, 3.0])


def test_pauli_x_spectrum():
    w, _ = hermitian_eigensystem(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])


def test_rejects_non_hermitian_and_names_pair():
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(NonHermitianError) as err:
        HermitianMatrix(bad)
    msg = str(err.value)
    assert ("(0,1)" in msg and "(1,0)" in msg) or ("(1,0)" in msg and "(0,1)" in msg)


def test_rejects_zero_dim():
    with pytest.raises(ValueError):
        HermitianMatrix(np.zeros((0, 0)))


def test_rejects_non_square():
    with pytest.raises(ValueError):
        HermitianMatrix(np.zeros((2, 3)))


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        HermitianMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        HermitianMatrix(np.array([[0.0, 1j * np.inf], [0.0, 1.0]]))


def test_diagonal_imaginary_parts_zeroed():
    a = np.array([[1.0 + 1e-16j, 0.0], [0.0, 2.0 - 1e-16j]])
    h = HermitianMatrix(a)
    assert np.all(h.array.diagonal().imag == 0.0)


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 13, 21, 34, 64])
def test_eigen_residual_random(dim):
    rng = np.random.default_rng(dim)
    m = random_hermitian(rng, dim)
    w, v = hermitian_eigensystem(m)
    norm = frobenius_norm(m)
    for i in range(dim):
        assert np.linalg.norm(m @ v[:, i] - w[i] * v[:, i]) <= 1e-10 * norm
    assert np.allclose(v.conj().T @ v, np.eye(dim), atol=1e-10)
    assert np.all(np.diff(w) >= -1e-14)


@pytest.mark.parametrize("dim", [2, 7, 32])
def test_trace_matches_eigenvalue_sum(dim):
    rng = np.random.default_rng(100 + dim)
    m = random_hermitian(rng, dim)
    w = hermitian_eigenvalues(m)
    bound = 1e-10 * dim * np.max(np.abs(m))
    assert abs(np.sum(w) - np.trace(m).real) <= bound


@pytest.mark.parametrize("dim", [2, 5, 16])
def test_eigenvalues_invariant_under_unitary_similarity(dim):
    rng = np.random.default_rng(200 + dim)
    m = random_hermitian(rng, dim)
    u = random_unitary(rng, dim)
    rotated = u @ m @ u.conj().T
    rotated = 0.5 * (rotated + rotated.conj().T)
    assert np.allclose(
        hermitian_eigenvalues(m), hermitian_eigenvalues(rotated), atol=1e-9
    )


def test_frobenius_norm_examples():
    assert frobenius_norm(np.zeros((3, 3))) == 0.0
    assert frobenius_norm(np.eye(4)) == pytest.approx(2.0)
    assert frobenius_norm(np.array([[0, 1], [1, 0]])) == pytest.approx(np.sqrt(2.0))


def test_hermitian_eigenvalues_examples():
    assert np.allclose(hermitian_eigenvalues(np.eye(3)), [1.0, 1.0, 1.0])
    assert np.allclose(hermitian_eigenvalues(np.diag([2.0, -2.0])), [-2.0, 2.0])


def test_max_residual_propagates_nan():
    assert max_residual([]) == 0.0
    assert max_residual([1e-13, 3e-12, 2e-12]) == 3e-12
    # the builtin max keeps 1.0 here and would hide the failed residual
    assert max(1.0, float("nan")) == 1.0
    assert np.isnan(max_residual([1.0, float("nan"), 2.0]))
    assert np.isnan(max_residual(r for r in (0.0, float("nan"))))
