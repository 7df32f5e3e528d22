import numpy as np
import pytest
from conftest import random_hermitian, random_unitary

from bondboson.numerics import (
    HermitianMatrix,
    NonHermitianError,
    hermitian_eigenvalues,
    max_residual,
)


def test_identity_eigenvalues():
    assert np.allclose(hermitian_eigenvalues(np.eye(2)), [1.0, 1.0])


def test_diagonal_sorted_ascending():
    w = hermitian_eigenvalues(np.diag([3.0, -1.0]))
    assert np.allclose(w, [-1.0, 3.0])


def test_pauli_x_spectrum():
    w = hermitian_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
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
    w = hermitian_eigenvalues(m)
    norm = np.linalg.norm(m)
    # each eigenvalue makes m - w I singular: its smallest singular value vanishes
    for value in w:
        smallest = np.linalg.svd(m - value * np.eye(dim), compute_uv=False)[-1]
        assert smallest <= 1e-10 * norm
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


def test_hermitian_eigenvalues_examples():
    assert np.allclose(hermitian_eigenvalues(np.eye(3)), [1.0, 1.0, 1.0])
    assert np.allclose(hermitian_eigenvalues(np.diag([2.0, -2.0])), [-2.0, 2.0])


def test_max_residual_propagates_nan():
    assert max_residual([]) == 0.0
    assert max_residual([1e-13, 3e-12, 2e-12]) == 3e-12
    # the builtin max keeps 1.0 here and would hide the failed residual
    assert max(1.0, float("nan")) == 1.0
    assert np.isnan(max_residual([1.0, float("nan"), 2.0]))


def test_max_residual_reduces_an_array_as_a_list():
    assert max_residual(np.array([])) == 0.0
    assert np.isnan(max_residual(np.array([1.0, np.nan, 2.0])))
    assert np.isnan(max_residual(np.array([np.nan, 1.0])))
    values = np.abs(np.random.default_rng(5).normal(size=1000))
    assert max_residual(values) == max_residual(values.tolist()) == values.max()
    assert type(max_residual(values)) is float


def test_stack_eigenvalues_match_one_matrix_at_a_time():
    rng = np.random.default_rng(11)
    stack = np.array([random_hermitian(rng, 4) for _ in range(5)])
    assert HermitianMatrix(stack).dim == 4
    together = hermitian_eigenvalues(stack)
    assert together.shape == (5, 4)
    for matrix, eigs in zip(stack, together):
        assert hermitian_eigenvalues(matrix).tobytes() == eigs.tobytes()


def alone_error(matrix):
    with pytest.raises(ValueError) as err:
        HermitianMatrix(matrix)
    return type(err.value), str(err.value)


@pytest.mark.parametrize("order", ["non-hermitian first", "non-finite first"])
def test_stack_raises_the_error_of_its_first_failing_matrix(order):
    good = np.eye(3)
    # 1e-6 off, but within tolerance at scale 1e9: only the scale of its own block counts
    good_large = np.diag([1e9, 1.0, 1.0]).astype(complex)
    good_large[0, 1] = 1e-6
    non_hermitian = np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    non_finite = np.array([[0.0, np.inf, 0.0], [np.inf, 0.0, 0.0], [0.0, 0.0, np.nan]])
    failing = [non_hermitian, non_finite]
    if order == "non-finite first":
        failing.reverse()
    stack = np.array([good, good_large, failing[0], good, failing[1]])
    with pytest.raises(ValueError) as err:
        HermitianMatrix(stack)
    assert (type(err.value), str(err.value)) == alone_error(failing[0])
    with pytest.raises(ValueError) as err:
        hermitian_eigenvalues(stack.reshape(5, 1, 3, 3))
    assert (type(err.value), str(err.value)) == alone_error(failing[0])
    assert alone_error(non_hermitian)[0] is NonHermitianError
    assert alone_error(non_finite) == (ValueError, "non-finite entry at (0, 1)")


def test_stack_diagonals_are_made_real():
    stack = np.array([[[1.0 + 1e-17j, 2.0], [2.0, 3.0 - 1e-17j]]] * 2)
    h = HermitianMatrix(stack)
    assert np.all(np.diagonal(h.array, axis1=-2, axis2=-1).imag == 0.0)
