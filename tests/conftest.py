import dataclasses

import numpy as np
import pytest
from scipy import sparse

from fockcharge import charge, fock, modes, spinor


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


def mode_ft(k, p, center=(0.0, 0.0, 0.0)):
    """Fourier transform of the scalar cube mode phi_k at momenta p, the
    product of the axis factors D(k_s - p_s) over (2 pi)^3: the node-by-node
    oracle for the quadrature's folded pair tables.

    `p` may be a single 3-vector or an (N, 3) array.  The center enters only
    through the phase e^{-i p.x0}.
    """
    k = np.asarray(k, dtype=float)
    p = np.atleast_2d(np.asarray(p, dtype=float))
    x0 = np.asarray(center, dtype=float)
    value = np.prod(modes.axis_factor(k[None, :] - p), axis=1) / (2.0 * np.pi) ** 3
    out = np.exp(-1j * (p @ x0)) * value
    return out if out.shape[0] > 1 else complex(out[0])


def energy(p, m):
    """Energy lambda(p) = sqrt(|p|^2 + m^2) of momentum p at mass m >= 0."""
    if m < 0:
        raise ValueError(f"mass must be non-negative, got {m}")
    p = np.asarray(p, dtype=float)
    return float(np.sqrt(np.dot(p, p) + m * m))


def spectral_projector(p, m, sign):
    """Momentum-space projector onto the positive/negative energy subspace,

        Lambda^{+-}(p) = 1/2 +- (m beta + alpha . p) / (2 lambda(p)),

    the node-by-node oracle for `quadrature.m_plus`.  `sign` is +1 or -1.
    Undefined at the singular point m = 0, p = 0.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    lam = energy(p, m)
    if lam == 0.0:
        raise ValueError("spectral projector undefined at m = 0, p = 0 (lambda = 0)")
    g = spinor.gamma_matrices()
    p = np.asarray(p, dtype=float)
    h = m * g.beta + sum(p[a] * g.alpha[a] for a in range(3))
    return 0.5 * np.eye(4, dtype=complex) + sign * h / (2.0 * lam)


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
