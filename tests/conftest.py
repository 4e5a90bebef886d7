import dataclasses

import numpy as np
import pytest
from scipy import sparse

from fockcharge import charge, fock, modes, quadrature as quad, spinor


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def model6(rng):
    return fock.random_model(6, rng)


@pytest.fixture
def model8(rng):
    return fock.random_model(8, rng)


def random_involution(rng, d):
    W = fock.random_unitary(rng, d)
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


def axis_pair_gather(suite, name, rows, cols):
    """Entries G[rows, cols] of the Gram `name`, with the index arrays
    broadcast against each other as in fancy indexing: the oracle for
    `GramMatrices.terms` and `one`, reading the signed pair code p_s of each
    axis (in two stages for a column of rows against 1-d columns), its class
    q_s = p_s >> 1, and building the flat accumulator index
    (q_i n + q_j) 2n + p_k per layout by integer arithmetic."""
    a, PI = suite.shell.modes + suite.shell.K, suite.pair_index
    if np.shape(rows)[1:] == (1,) and np.ndim(cols) == 1:
        p = [PI[a[rows[:, 0], s]][:, a[cols, s]].astype(np.int64) for s in range(3)]
    else:
        p = [PI[a[rows, s], a[cols, s]].astype(np.int64) for s in range(3)]
    q = [c >> 1 for c in p]
    if name == "one":
        return suite.g1d[q[0]] * suite.g1d[q[1]] * suite.g1d[q[2]]
    acc, (i, j, k) = {"g0": (suite.acc0, (0, 1, 2)), "g1": (suite.acc3, (2, 1, 0)),
                      "g2": (suite.acc3, (0, 2, 1)), "g3": (suite.acc3, (0, 1, 2))}[name]
    n = acc.shape[0]
    return acc.take((q[i] * n + q[j]) * 2 * n + p[k])


# ---------------------------------------------------------------------------
# the unfolded Gram assembly: one table row and one accumulator entry per
# unordered pair a <= a', no mirror classes


@dataclasses.dataclass
class UnfoldedGrams:
    shell: modes.Shell
    m: float
    pair_index: np.ndarray   # PI[a, a'], the pair's place in np.triu_indices order
    g1d: np.ndarray          # (npair,)
    acc0: np.ndarray         # (npair,)*3, weight 1/lambda
    acc3: np.ndarray         # (npair,)*3, weight p3/lambda


def unfolded_axis_tables(K, grid):
    """(E, Ox, xp, PI) of `quadrature._axis_tables` with a row for every
    unordered pair a <= a' of offsets, PI[a, a'] its row."""
    N, M = grid.nodes_per_axis, 2 * K + 1
    xp, wp = grid.nodes[N // 2:], grid.weights[N // 2:]
    offsets = np.arange(-K, K + 1, dtype=float)
    sq = np.sqrt(wp)
    Bp = sq[None, :] * modes.axis_factor(offsets[:, None] - xp[None, :]) / (2 * np.pi)
    Bm = sq[None, :] * modes.axis_factor(offsets[:, None] + xp[None, :]) / (2 * np.pi)
    a, b = np.triu_indices(M)
    PI = np.empty((M, M), dtype=int)
    PI[a, b] = PI[b, a] = np.arange(a.size)
    prod_p, prod_m = Bp[a] * Bp[b], Bm[a] * Bm[b]
    return prod_p + prod_m, xp[None, :] * (prod_p - prod_m), xp, PI


def unfolded_grams(shell, m, grid):
    """The Gram suite of a shell as two (npair,)*3 accumulators over every
    unordered pair, acc0 = sum_r chat_r g_r (x) g_r (x) g_r and acc3 with
    h_r last, on the exponential sum of `quadrature.axis_factors`: the
    oracle for the mirror-folded accumulators."""
    E, Ox, xp, PI = unfolded_axis_tables(shell.K, grid)
    x2, m2 = xp ** 2, quad.mass_squared(m)
    a, c = quad._inverse_sqrt_terms(3.0 * x2.min() + m2, 3.0 * x2.max() + m2)
    phi = np.exp(-x2[:, None] * a[None, :])
    g, h, chat = E @ phi, Ox @ phi, c * np.exp(-a * m2)
    U = (g * chat)[:, None, :] * g[None, :, :]
    return UnfoldedGrams(shell, float(m), PI, E.sum(axis=1), U @ g.T, U @ h.T)


def shell_permutation(shell):
    """Positions of the canonically ordered shell modes inside the plain
    product enumeration over (k1, k2, k3)."""
    M = 2 * shell.K + 1
    a = shell.modes + shell.K
    return (a[:, 0] * M + a[:, 1]) * M + a[:, 2]


def unfold(acc, PI, perm):
    """(npair,)*3 accumulator -> (M^3, M^3) Gram in canonical shell order."""
    M = PI.shape[0]
    I1 = PI[:, None, None, :, None, None]
    I2 = PI[None, :, None, None, :, None]
    I3 = PI[None, None, :, None, None, :]
    G = acc[I1, I2, I3].reshape(M ** 3, M ** 3)
    return G[np.ix_(perm, perm)]


def unfolded_dense(oracle, name):
    """The full n x n Gram `name` ("one", "g0".."g3") of an `UnfoldedGrams`,
    G1 and G2 being G3 with its odd axis moved to the first or second place."""
    PI, perm = oracle.pair_index, shell_permutation(oracle.shell)
    if name == "one":
        g = oracle.g1d[PI]
        return np.kron(np.kron(g, g), g)[np.ix_(perm, perm)]
    acc = {"g0": oracle.acc0, "g1": oracle.acc3.transpose(2, 1, 0),
           "g2": oracle.acc3.transpose(0, 2, 1), "g3": oracle.acc3}[name]
    return unfold(acc, PI, perm)


def folded_at_pair_triples(acc, PI):
    """A mirror-folded accumulator read at every triple of unordered pairs,
    (npair,)*3 in np.triu_indices order: the pair classes on the first two
    axes and the signed pair code on the last, as `GramMatrices.terms` reads."""
    code = PI[np.triu_indices(PI.shape[0])].astype(int)
    q = code >> 1
    return acc[q[:, None, None], q[None, :, None], code[None, None, :]]


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
