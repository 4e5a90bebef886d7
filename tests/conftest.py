import dataclasses

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
    """The full n x n Gram `name` ("one", "g0".."g3") of a suite, read at
    every mode pair through `one` or `terms`; G0 is the first term of the
    same suite at m = 1, since `terms` carries m G0."""
    idx = np.arange(suite.shell.count)
    if name == "one":
        return suite.one(idx[:, None], idx)
    terms = dataclasses.replace(suite, m=1.0).terms(idx[:, None], idx)
    return terms[("g0", "g1", "g2", "g3").index(name)]


def table_gather(suite, name, rows, cols):
    """Entries G[rows, cols] of the Gram `name`, with the index arrays
    broadcast against each other as in fancy indexing: the oracle for
    `GramMatrices.terms` and `one`, reading p_i, p_j of the flat accumulator index
    together from an (M^2, M^2) table and p_k by a second 2-d read."""
    a, PI = suite.shell.modes + suite.shell.K, suite.pair_index.astype(int)
    if name == "one":
        g = suite.g1d[PI]
        return (g[a[rows, 0], a[cols, 0]] * g[a[rows, 1], a[cols, 1]]
                * g[a[rows, 2], a[cols, 2]])
    acc, (i, j, k) = {"g0": (suite.acc0, (0, 1, 2)), "g1": (suite.acc3, (2, 1, 0)),
                      "g2": (suite.acc3, (0, 2, 1)), "g3": (suite.acc3, (0, 1, 2))}[name]
    M, npair = PI.shape[0], acc.shape[0]
    T = (PI[:, None, :, None] * npair + PI[None, :, None, :]) * npair
    c = a[:, i] * M + a[:, j]
    flat = T.reshape(M * M, M * M)[c[rows], c[cols]]
    flat += PI[a[rows, k], a[cols, k]]
    return acc.take(flat)


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
