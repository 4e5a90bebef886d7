import tracemalloc

import numpy as np
import pytest

from conftest import dense_gram
from fockcharge import divergence, modes, quadrature as quad, spinor

GS = ("g1", "g2", "g3")


def naive_grams(shell, grid, masses):
    """Literal B diag(w g) B* assembly over the full 3d node set; yields
    (m, G_one, G0, (G1, G2, G3)) for each mass."""
    x, w = grid.nodes, grid.weights
    P = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    W3 = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    B = np.stack([modes.mode_ft(k, P) for k in shell.modes])

    def gram(g):
        return np.real((B * (W3 * g)[None, :]) @ B.conj().T)

    for m in masses:
        lam = np.sqrt(np.sum(P ** 2, axis=1) + m * m)
        yield (m, gram(np.ones_like(lam)), gram(1.0 / lam),
               tuple(gram(P[:, s] / lam) for s in range(3)))


def test_build_grid_node_count():
    grid = quad.build_grid(8, 1, 8)
    assert grid.nodes_per_axis == 128
    assert grid.effective_nodes() == 128.0 ** 3


def test_build_grid_rejects_absurd_sizes():
    with pytest.raises(ValueError, match="rejected"):
        quad.build_grid(100, 2, 8)  # 3200^3 > 1e9


def test_build_grid_validation():
    for bad in [(0, 1, 4), (4, 0, 4), (4, 1, 1), (4, 1, 4.5)]:
        with pytest.raises(ValueError):
            quad.build_grid(*bad)


def test_grid_nodes_symmetric_and_weights_positive():
    grid = quad.build_grid(5, 2, 4)
    assert np.all(grid.weights > 0)
    assert np.max(np.abs(grid.nodes + grid.nodes[::-1])) < 1e-15
    assert np.max(grid.nodes) < 5.0
    assert np.min(grid.nodes) > -5.0


def test_folded_assembly_matches_naive_reference():
    for K, grid_args in ((1, (5, 1, 4)), (2, (3, 1, 4))):
        shell = modes.enumerate_shell(K)
        grid = quad.build_grid(*grid_args)
        for m, g_one, g0, gs in naive_grams(shell, grid, (0.0, 0.1, 1.0, 10.0)):
            suite = quad.gram_suite(shell, m, grid)
            assert np.max(np.abs(dense_gram(suite, "g0") - g0)) < 1e-13
            for name, ref in zip(GS, gs):
                assert np.max(np.abs(dense_gram(suite, name) - ref)) < 1e-13
            assert np.max(np.abs(dense_gram(suite, "one") - g_one)) < 1e-13


def plane_loop_accumulators(K, m, grid):
    """acc0 and acc3 by the direct plane loop: 1/lambda evaluated on every
    plane of positive 3d nodes, contracted with the folded pair tables.
    Since D is even, the pairs (a, a') and (-a', -a) share their E row, so
    each plane is contracted over one pair of each such class (`reps`) and
    `cls` gives every pair the position of its class in `reps`."""
    E, Ox, xp, PI = quad._axis_tables(K, grid)
    M = PI.shape[0]
    a, b = np.triu_indices(M)
    mirror = PI[M - 1 - b, M - 1 - a]
    reps, cls = np.unique(np.minimum(np.arange(a.size), mirror), return_inverse=True)
    Er = E[reps]
    x2 = xp ** 2
    plane = x2[:, None] + x2[None, :] + m * m
    Yr = np.stack([Er @ (1.0 / np.sqrt(plane + x2_3)) @ Er.T for x2_3 in x2])
    Y = Yr[:, cls[:, None], cls[None, :]]
    return np.tensordot(Y, E, axes=([0], [1])), np.tensordot(Y, Ox, axes=([0], [1]))


HEADLINE_GRID = (40, 2, 6)
MASSES = (0.0, 0.1, 1.0, 10.0, 1.3407807929942596e154)  # the last: largest m with finite m^2


@pytest.mark.parametrize("K, grid_args, masses", [
    (2, (3, 1, 4), MASSES),
    (4, (6, 2, 6), MASSES),
    (4, (5, 1, 12), MASSES),
    (4, HEADLINE_GRID, (1.0,)),
])
def test_exponential_sum_matches_plane_loop(K, grid_args, masses):
    shell = modes.enumerate_shell(K)
    grid = quad.build_grid(*grid_args)
    for m in masses:
        suite = quad.gram_suite(shell, m, grid)
        for acc, ref in zip((suite.acc0, suite.acc3), plane_loop_accumulators(K, m, grid)):
            assert np.max(np.abs(acc - ref)) < 1e-13 * np.max(np.abs(ref)), m


@pytest.mark.parametrize("m", MASSES)
def test_inverse_sqrt_sum_error_bound(m):
    # over the |p|^2 + m^2 range of the headline grid: a log-spaced sweep
    # and a sample of actual 3d node values
    x2 = quad.build_grid(*HEADLINE_GRID).nodes ** 2
    m2 = m * m
    x_min, x_max = 3 * x2.min() + m2, 3 * x2.max() + m2
    a, c = quad._inverse_sqrt_terms(x_min, x_max)
    triples = np.random.default_rng(0).integers(0, x2.size, size=(2000, 3))
    sweep = x_min * (x_max / x_min) ** np.linspace(0.0, 1.0, 2000)
    x = np.concatenate([sweep, x2[triples].sum(axis=1) + m2])
    approx = c @ np.exp(-a[:, None] * x[None, :])
    assert np.max(np.abs(approx * np.sqrt(x) - 1.0)) < 1e-13


def test_gram_suite_memory_stays_near_its_accumulators():
    # the rank-R sums are built in blocks, never as an (R, npair^2) array
    shell = modes.enumerate_shell(8)
    grid = quad.build_grid(*HEADLINE_GRID)
    tracemalloc.start()
    try:
        suite = quad.gram_suite(shell, 1.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < suite.acc0.nbytes + suite.acc3.nbytes + 16 * 2 ** 20


def shell_permutation(shell):
    """Positions of the canonically ordered shell modes inside the plain
    product enumeration over (k1, k2, k3)."""
    K, M = shell.K, 2 * shell.K + 1
    a = shell.modes + K
    return (a[:, 0] * M + a[:, 1]) * M + a[:, 2]


def unfold(acc, PI, perm):
    """Pair-compressed (npair, npair, npair) accumulator -> (M^3, M^3) Gram
    in canonical shell order."""
    M = PI.shape[0]
    I1 = PI[:, None, None, :, None, None]
    I2 = PI[None, :, None, None, :, None]
    I3 = PI[None, None, :, None, None, :]
    G = acc[I1, I2, I3].reshape(M ** 3, M ** 3)
    return G[np.ix_(perm, perm)]


@pytest.mark.parametrize("K", [0, 1, 2])
def test_gather_matches_unfolded_accumulators(K):
    # the on-demand gather against the dense unfolding of the accumulators,
    # G1 and G2 being G3 with its odd axis moved to the first or second place
    shell = modes.enumerate_shell(K)
    suite = quad.gram_suite(shell, 0.7, quad.build_grid(4, 1, 4))
    PI, perm = suite.pair_index, shell_permutation(shell)
    g1d = suite.g1d[PI]
    oracle = {
        "one": np.kron(np.kron(g1d, g1d), g1d)[np.ix_(perm, perm)],
        "g0": unfold(suite.acc0, PI, perm),
        "g1": unfold(suite.acc3.transpose(2, 1, 0), PI, perm),
        "g2": unfold(suite.acc3.transpose(0, 2, 1), PI, perm),
        "g3": unfold(suite.acc3, PI, perm),
    }
    for name, G in oracle.items():
        assert np.array_equal(dense_gram(suite, name), G), name


def test_suite_stores_less_than_one_dense_gram():
    shell = modes.enumerate_shell(4)
    suite = quad.gram_suite(shell, 1.0, quad.build_grid(5, 1, 2))
    stored = sum(v.nbytes for v in vars(suite).values() if isinstance(v, np.ndarray))
    assert stored < shell.count ** 2 * 8


@pytest.mark.parametrize("m", [0.0, 1.0])
def test_axis_gram_matrices_related_by_mode_permutations(m):
    # relabelling the axes maps G3 onto G1 (swap k1, k3) and onto G2 (swap k2, k3)
    shell = modes.enumerate_shell(2)
    suite = quad.gram_suite(shell, m, quad.build_grid(4, 1, 4))
    index = {tuple(k): i for i, k in enumerate(shell.modes)}
    g3 = dense_gram(suite, "g3")
    for name, axes in (("g1", [2, 1, 0]), ("g2", [0, 2, 1])):
        perm = np.array([index[tuple(k[axes])] for k in shell.modes])
        assert np.max(np.abs(dense_gram(suite, name) - g3[np.ix_(perm, perm)])) <= 1e-15


def test_gram_weighted_single_entry_points():
    shell = modes.enumerate_shell(0)
    grid = quad.build_grid(6, 1, 4)
    suite = quad.gram_suite(shell, 1.0, grid)
    g0, g2, gone = (dense_gram(suite, name) for name in ("g0", "g2", "one"))
    assert g0.shape == (1, 1) and g0[0, 0] > 0
    assert abs(g2[0, 0]) < 1e-16  # odd weight kills the diagonal at k = 0
    assert abs(gone[0, 0] - 1.0) < grid.tail_estimate(0)


def test_plancherel_within_tail():
    shell = modes.enumerate_shell(1)
    grid = quad.build_grid(16, 1, 5)
    gone = dense_gram(quad.gram_suite(shell, 1.0, grid), "one")
    assert np.max(np.abs(gone - np.eye(shell.count))) < grid.tail_estimate(1)


def test_gram_matrices_real_symmetric():
    shell = modes.enumerate_shell(1)
    grid = quad.build_grid(8, 1, 5)
    suite = quad.gram_suite(shell, 1.0, grid)
    for G in (dense_gram(suite, name) for name in ("g0",) + GS):
        assert np.isrealobj(G)
        assert np.max(np.abs(G - G.T)) < 1e-14


def test_negation_symmetry_of_gram_entries():
    # G0_{k,k'} = G0_{-k,-k'} and Gs_{k,k'} = -Gs_{-k,-k'}
    shell = modes.enumerate_shell(1)
    grid = quad.build_grid(8, 1, 5)
    suite = quad.gram_suite(shell, 1.0, grid)
    index = {tuple(m): i for i, m in enumerate(shell.modes)}
    neg = np.array([index[tuple(-m)] for m in shell.modes])
    g0 = dense_gram(suite, "g0")
    assert np.max(np.abs(g0 - g0[np.ix_(neg, neg)])) < 1e-14
    for G in (dense_gram(suite, name) for name in GS):
        assert np.max(np.abs(G + G[np.ix_(neg, neg)])) < 1e-14


def test_heavy_mass_scaling():
    # G0 entries scale like 1/m for large m
    shell = modes.enumerate_shell(0)
    grid = quad.build_grid(10, 1, 5)
    a = dense_gram(quad.gram_suite(shell, 10.0, grid), "g0")[0, 0]
    b = dense_gram(quad.gram_suite(shell, 20.0, grid), "g0")[0, 0]
    assert a / b == pytest.approx(2.0, rel=0.02)


def test_order_refinement_self_convergence():
    shell = modes.enumerate_shell(1)
    ref = dense_gram(quad.gram_suite(shell, 1.0, quad.build_grid(8, 1, 8)), "g0")
    fine = dense_gram(quad.gram_suite(shell, 1.0, quad.build_grid(8, 1, 12)), "g0")
    assert abs(ref[0, 0] - fine[0, 0]) < 1e-6


def test_m_plus_properties():
    shell = modes.enumerate_shell(1)
    grid = quad.build_grid(12, 1, 6)
    suite = quad.gram_suite(shell, 1.0, grid)
    M = quad.m_plus(suite)
    tail = grid.tail_estimate(1)
    assert np.max(np.abs(M - M.conj().T)) < 1e-13
    eigs = np.linalg.eigvalsh(M)
    assert eigs.min() > -tail and eigs.max() < 1.0 + tail
    # product-basis trace: beta and alpha traces cancel over the spins
    assert abs(np.trace(M).real - 2.0 * shell.count) < 4 * shell.count * tail
    # C-invariant diagonal sits at 1/2
    diag = divergence.mplus_diagonal(suite, divergence.C_INVARIANT)
    assert np.max(np.abs(diag - 0.5)) < tail


@pytest.mark.parametrize("m", [0.1, 2.5])
def test_m_plus_matches_literal_projector_quadrature(m):
    # M+_{(i,s),(j,t)} = sum_p w phi_i(p) conj(phi_j(p)) Lambda+(p)_{st}, with
    # the projector evaluated node by node: checks where the mass enters
    shell = modes.enumerate_shell(1)
    grid = quad.build_grid(2, 1, 4)
    x, w = grid.nodes, grid.weights
    P = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    W3 = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    B = np.stack([modes.mode_ft(k, P) for k in shell.modes])
    lam_plus = np.stack([spinor.spectral_projector(p, m, +1) for p in P])
    literal = np.einsum("ip,jp,pst->isjt", B * W3, B.conj(), lam_plus)
    literal = literal.reshape(4 * shell.count, 4 * shell.count)
    M = quad.m_plus(quad.gram_suite(shell, m, grid))
    assert np.max(np.abs(M - literal)) < 1e-13


def test_scalar_spinor_trace_consistency():
    # sum over spins of the scalar reduction equals tr(M+) - tr(M+^2) with
    # the exact identity part
    shell = modes.enumerate_shell(1)
    grid = quad.build_grid(10, 1, 5)
    suite = quad.gram_suite(shell, 1.0, grid)
    M = quad.ideal_m_plus(suite)
    trace_route = float(np.trace(M).real - np.vdot(M, M).real)
    scalar = shell.count - sum(np.sum(dense_gram(suite, name) ** 2) for name in ("g0",) + GS)
    assert trace_route == pytest.approx(float(scalar), rel=1e-8)


def test_inverse_energy_gram_entry_position_space_crosscheck():
    # <phi_0, phi_0 / lambda> two ways: momentum-space quadrature against the
    # position-space Bessel kernel folded with the cube's autocorrelation
    # volume prod_s (2 pi - |r_s|); the routes share no code path
    from fockcharge import bessel
    m = 1.0
    grid = quad.build_grid(24, 2, 6)
    momentum = dense_gram(quad.gram_suite(modes.enumerate_shell(0), m, grid), "g0")[0, 0]
    n = 60
    xi, wi = np.polynomial.legendre.leggauss(n)
    t = np.pi * (xi + 1.0)
    wt = np.pi * wi
    X, Y, Z = np.meshgrid(t, t, t, indexing="ij")
    R = np.sqrt(X ** 2 + Y ** 2 + Z ** 2)
    kernel = bessel.k1(m * R.ravel()).reshape(R.shape) / R
    overlap = (2 * np.pi - X) * (2 * np.pi - Y) * (2 * np.pi - Z)
    W3 = wt[:, None, None] * wt[None, :, None] * wt[None, None, :]
    position = (8.0 * m * np.sqrt(2 / np.pi) * np.sum(W3 * kernel * overlap)
                / (2 * np.pi) ** 4.5)
    assert abs(momentum - position) / momentum < 2e-4


def test_gram_suite_validation():
    shell = modes.enumerate_shell(2)
    with pytest.raises(ValueError, match="cutoff"):
        quad.gram_suite(shell, 1.0, quad.build_grid(2, 1, 4))
    for m in (-1.0, float("nan"), float("inf"), 2e154):
        with pytest.raises(ValueError, match="non-negative"):
            quad.gram_suite(shell, m, quad.build_grid(6, 1, 4))


def test_tail_estimate_monotone():
    grid = quad.build_grid(20, 1, 4)
    assert grid.tail_estimate(0) < grid.tail_estimate(4)
    with pytest.raises(ValueError):
        grid.tail_estimate(20)
