import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import (axis_pair_gather, dense_gram, folded_at_pair_triples, mode_ft,
                      spectral_projector, unfolded_axis_tables, unfolded_dense, unfolded_grams)
from fockcharge import divergence, modes, quadrature as quad

GS = ("g1", "g2", "g3")


def naive_grams(shell, grid, masses):
    """Literal B diag(w g) B* assembly over the full 3d node set; yields
    (m, G_one, G0, (G1, G2, G3)) for each mass."""
    x, w = grid.nodes, grid.weights
    P = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    W3 = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    B = np.stack([mode_ft(k, P) for k in shell.modes])

    def gram(g):
        return np.real((B * (W3 * g)[None, :]) @ B.conj().T)

    for m in masses:
        lam = np.sqrt(np.sum(P ** 2, axis=1) + m * m)
        yield (m, gram(np.ones_like(lam)), gram(1.0 / lam),
               tuple(gram(P[:, s] / lam) for s in range(3)))


def test_build_grid_node_count():
    grid = quad.build_grid(8, 1, 8)
    assert grid.nodes_per_axis == 128


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
    """acc0 and acc3 over every triple of unordered pairs by the direct plane
    loop: 1/lambda evaluated on every plane of positive 3d nodes, contracted
    with the unfolded pair tables.  Since D is even, the pairs (a, a') and
    (-a', -a) share their E row, so each plane is contracted over one pair
    of each such class (`reps`) and `cls` gives every pair the position of
    its class in `reps`."""
    E, Ox, xp, PI = unfolded_axis_tables(K, grid)
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
REFERENCE_GRID = (40, 2, 3)  # the headline's self-convergence reference
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
            acc = folded_at_pair_triples(acc, suite.pair_index)
            assert np.max(np.abs(acc - ref)) < 1e-13 * np.max(np.abs(ref)), m


@pytest.mark.parametrize("m", MASSES)
def test_inverse_sqrt_sum_error_bound(m):
    # over the |p|^2 + m^2 range of the headline grid and of its reference
    # grid, which has its own x_min: a log-spaced sweep and a sample of
    # actual 3d node values
    for grid_args in (HEADLINE_GRID, REFERENCE_GRID):
        x2 = quad.build_grid(*grid_args).nodes ** 2
        m2 = m * m
        x_min, x_max = 3 * x2.min() + m2, 3 * x2.max() + m2
        a, c = quad._inverse_sqrt_terms(x_min, x_max)
        triples = np.random.default_rng(0).integers(0, x2.size, size=(2000, 3))
        sweep = x_min * (x_max / x_min) ** np.linspace(0.0, 1.0, 2000)
        x = np.concatenate([sweep, x2[triples].sum(axis=1) + m2])
        approx = c @ np.exp(-a[:, None] * x[None, :])
        assert np.max(np.abs(approx * np.sqrt(x) - 1.0)) < 1e-13, grid_args


@pytest.mark.parametrize("m", [0.0, 0.1, 1.0, 10.0])
def test_exponential_sum_stays_short(m):
    # the double-exponential substitution: 125 / 114 / 95 / 76 terms on the
    # headline grid, against 390 / 379 / 361 / 341 for the plain trapezoid in s
    factors = quad.axis_factors(modes.enumerate_shell(1), m, quad.build_grid(*HEADLINE_GRID))
    assert factors.chat.size <= 130


@pytest.mark.parametrize("m, tol", [(0.0, 1e-7), (0.1, 2e-6), (1.0, 1e-9), (10.0, 1e-12)])
def test_quadrature_error_across_the_mass_range(m, tol):
    # the scalar series at K = 4 on the order-6 grid against order 12 (the
    # largest order within the node cap at cutoff 20): the largest relative
    # change over the shells, at 1.9e-8 / 4.0e-7 / 2.0e-10 / 1.2e-13
    coarse, fine = (divergence.vacuum_series_scalar(range(5), m, quad.build_grid(20, 2, n)).S
                    for n in (6, 12))
    assert max(abs(a - b) / abs(b) for a, b in zip(coarse, fine)) < tol


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


def oracle_fro2(oracle, k):
    """sum_{i,j<=n} [(m g0_ij)^2 + sum_s gs_ij^2] over the first
    n = (2k+1)^3 modes, summed over pair triples of the unfolded
    accumulators with a pair a != a' counted twice; g1..g3 add up equally on
    the sub-shell."""
    a, b = np.triu_indices(2 * k + 1)
    K = oracle.shell.K
    sub = np.ix_(*[oracle.pair_index[a + K - k, b + K - k]] * 3)
    w = np.where(a == b, 1.0, 2.0)
    T = (oracle.m * oracle.acc0[sub]) ** 2 + 3.0 * oracle.acc3[sub] ** 2
    return float(w @ (T @ w) @ w)


@pytest.mark.parametrize("K, m", [(4, m) for m in MASSES] + [(8, 1.0)])
def test_closed_form_fro2_matches_pair_triple_sum(K, m):
    # the scalar route's closed form on the 1d factors, whose pair classes
    # are counted off the folded pair codes, against the pair-triple sum of
    # the unfolded accumulators, every sub-shell, across the mass range
    shell, grid = modes.enumerate_shell(K), quad.build_grid(*HEADLINE_GRID)
    factors, oracle = quad.axis_factors(shell, m, grid), unfolded_grams(shell, m, grid)
    for k in range(K + 1):
        ref = oracle_fro2(oracle, k)
        assert abs(factors.fro2(k) - ref) <= 1e-13 * ref, (k, ref)


def relative_deviation(got, want):
    """max |got - want| relative to max |want|; an all-zero `want` (m G0 at
    m = 0, the Gs at K = 0) must be matched exactly."""
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), np.finfo(float).tiny)


def max_oracle_deviation(suite, oracle):
    """Largest relative deviation of `terms` and `one`, read at every mode
    pair, from the unfolded oracle, Gram by Gram."""
    idx = np.arange(suite.shell.count)
    got = [*suite.terms(idx[:, None], idx), suite.one(idx[:, None], idx)]
    want = [suite.m * unfolded_dense(oracle, "g0"),
            *(unfolded_dense(oracle, name) for name in GS + ("one",))]
    return max(relative_deviation(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("K", [0, 1, 2, 3, 4])
def test_gather_matches_unfolded_accumulators(K):
    # the folded accumulators, read by `terms` and `one` at every mode pair,
    # against the unfolded assembly over every unordered pair, across the
    # mass range
    shell, grid = modes.enumerate_shell(K), quad.build_grid(6, 1, 4)
    for m in MASSES:
        suite, oracle = quad.gram_suite(shell, m, grid), unfolded_grams(shell, m, grid)
        assert max_oracle_deviation(suite, oracle) <= 1e-13, m


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_accumulators_hold_one_entry_per_mirror_class(K):
    # nf classes on the even axes and a signed slot per class on the last:
    # the npair unordered pairs, K + 1 of them (-a, a) their own mirror, make
    # nf = (npair + K + 1) / 2 classes, 25 of the 45 pairs at K = 4
    suite = quad.gram_suite(modes.enumerate_shell(K), 1.0, quad.build_grid(6, 1, 4))
    nf = ((2 * K + 1) * (K + 1) + K + 1) // 2
    assert suite.acc0.shape == suite.acc3.shape == (nf, nf, 2 * nf)
    assert suite.g.shape[0] == suite.h.shape[0] == suite.g1d.size == nf
    assert suite.pair_index.dtype == np.min_scalar_type(2 * nf - 1)
    # the odd slots are exact copies (acc0) and negations (acc3)
    assert np.array_equal(suite.acc0[..., 1::2], suite.acc0[..., ::2])
    assert np.array_equal(suite.acc3[..., 1::2], -suite.acc3[..., ::2])
    # a pair and its mirror (-a', -a) share their class, with opposite bits
    # unless the pair is its own mirror
    PI, M = suite.pair_index.astype(int), 2 * K + 1
    mirror = PI[::-1, ::-1].T
    assert np.array_equal(PI >> 1, mirror >> 1)
    own = np.add.outer(np.arange(M), np.arange(M)) == M - 1
    assert np.array_equal((PI ^ mirror) & 1, np.where(own, 0, 1))
    assert np.unique(PI >> 1).size == nf


@pytest.mark.parametrize("K", [1, 2])
def test_flipped_mirror_bit_fails_the_unfolded_oracle(K):
    # one off-diagonal pair read with its mirrored bit flipped (both of its
    # entries in PI) reads the other signed slot, so its Gs entries change
    # sign: the oracle comparison above fails for every such pair that is
    # not its own mirror, while the routes' squares cannot see it
    grid = quad.build_grid(6, 1, 4)
    suite = quad.gram_suite(modes.enumerate_shell(K), 1.0, grid)
    oracle = unfolded_grams(suite.shell, 1.0, grid)
    assert max_oracle_deviation(suite, oracle) <= 1e-13
    M = 2 * K + 1
    for a, b in zip(*np.triu_indices(M, 1)):
        if a + b == M - 1:
            continue
        flipped = suite.pair_index.copy()
        flipped[a, b] ^= 1
        flipped[b, a] ^= 1
        broken = dataclasses.replace(suite, pair_index=flipped)
        assert max_oracle_deviation(broken, oracle) > 1e-3, (a, b)


@pytest.mark.parametrize("K", [0, 1, 2, 3])
def test_class_table_read_matches_the_axis_pair_gather(K):
    # `terms` (also into a given buffer) and `one`, in the two-stage outer
    # read, a permuted and strided outer read and the elementwise read,
    # against the per-axis pair reads and flat-index arithmetic of the
    # folded layout, bit for bit, and against the unfolded oracle
    shell, grid = modes.enumerate_shell(K), quad.build_grid(6, 1, 4)
    suite, oracle = quad.gram_suite(shell, 0.7, grid), unfolded_grams(shell, 0.7, grid)
    dense = {name: unfolded_dense(oracle, name) for name in ("one", "g0") + GS}
    dense["g0"] *= suite.m
    idx = np.arange(shell.count)
    perm = np.random.default_rng(K).permutation(shell.count)
    for rows, cols in ((idx[:, None], idx), (perm[:, None], idx[::2]), (perm, idx)):
        expected = np.stack([axis_pair_gather(suite, name, rows, cols) for name in ("g0",) + GS])
        expected[0] *= suite.m
        out = np.empty_like(expected)
        assert np.array_equal(suite.terms(rows, cols), expected), rows.shape
        assert suite.terms(rows, cols, out) is out and np.array_equal(out, expected)
        one = axis_pair_gather(suite, "one", rows, cols)
        assert np.array_equal(suite.one(rows, cols), one)
        for got, name in zip([*expected, one], ("g0",) + GS + ("one",)):
            assert relative_deviation(got, dense[name][rows, cols]) <= 1e-13, name


def test_pairs_reject_modes_off_the_suite_shell():
    # `terms` clips its flat index, so the range is checked where the pairs
    # are read: modes of a larger shell raise there, in both reads
    suite = quad.gram_suite(modes.enumerate_shell(1), 0.7, quad.build_grid(6, 1, 4))
    idx = np.arange(modes.enumerate_shell(2).count)
    for rows in (idx[:, None], idx):
        for read in (suite.terms, suite.one):
            with pytest.raises(IndexError):
                read(rows, idx)


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
    B = np.stack([mode_ft(k, P) for k in shell.modes])
    lam_plus = np.stack([spectral_projector(p, m, +1) for p in P])
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
