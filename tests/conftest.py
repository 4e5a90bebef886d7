import numpy as np
import pytest
from scipy import sparse

from fockcharge import charge, fock


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def model6(rng):
    return fock.random_model(6, rng)


@pytest.fixture
def model8(rng):
    return fock.random_model(8, rng)


def random_unitary(rng, d):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, R = np.linalg.qr(A)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def random_involution(rng, d):
    W = random_unitary(rng, d)
    return W @ W.T


def dense_gram(suite, name):
    """The full n x n Gram `name` ("one", "g0".."g3") of a suite, gathered."""
    idx = np.arange(suite.shell.count)
    return suite.gather(name, idx[:, None], idx[None, :])


def dense_spectrum_deviation(model, matrix, expected):
    """`charge.spectrum_deviation` by one dense solve of the full 2^n matrix,
    with no sector split and no off-sector term."""
    dense = matrix.toarray() if sparse.issparse(matrix) else np.asarray(matrix)
    got = charge.cluster_eigenvalues(np.linalg.eigvalsh(dense))
    expected = np.sort(np.asarray(expected, dtype=float))
    if got.size != expected.size:
        return float("inf")
    return float(np.max(np.abs(got - expected)))


def assert_bitwise_csr(A, B):
    """Same CSR structure and the same bits in every stored value, except
    that an exact zero may carry either sign."""
    assert A.format == B.format == "csr" and A.shape == B.shape
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    a, b = A.data.view(np.float64), B.data.view(np.float64)
    differ = a.view(np.uint64) != b.view(np.uint64)
    assert np.all((a[differ] == 0) & (b[differ] == 0))


def sorted_csr(M):
    """A CSR copy of M with the indices sorted in each row: scipy's sparse
    products and sums of such products leave them in its own order."""
    M = sparse.csr_matrix(M, copy=True)
    M.has_sorted_indices = False
    M.sort_indices()
    return M
