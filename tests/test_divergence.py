import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from conftest import dense_gram
from fockcharge import charge, divergence as dv, fock, modes, quadrature as quad, spinor, suites

SMALL_GRID = quad.build_grid(10, 1, 5)
SHELLS = [0, 1, 2]


@pytest.fixture(scope="module")
def small_suite():
    return quad.gram_suite(modes.enumerate_shell(2), 1.0, SMALL_GRID)


def test_routes_agree_on_product_basis(small_suite):
    tr, _ = dv.vacuum_series_trace(SHELLS, small_suite)
    sc = dv.vacuum_series_scalar(SHELLS, 1.0, SMALL_GRID, suite=small_suite)
    for a, b in zip(tr.S, sc.S):
        assert abs(a - b) / abs(b) < 1e-6
    assert tr.mode_counts == [4, 108, 500]


def test_series_positive_and_increasing(small_suite):
    sc = dv.vacuum_series_scalar(SHELLS, 1.0, SMALL_GRID, suite=small_suite)
    assert all(s > -SMALL_GRID.tail_estimate(2) for s in sc.S)
    assert all(b > a for a, b in zip(sc.S, sc.S[1:]))


def test_k0_partial_sum_parity():
    # at K = 0 the p_s/lambda terms vanish by parity, so S1 reduces to
    # 1 - |<phi0, phi0/lambda>|^2
    suite = quad.gram_suite(modes.enumerate_shell(0), 1.0, SMALL_GRID)
    for name in ("g1", "g2", "g3"):
        assert abs(dense_gram(suite, name)[0, 0]) < 1e-16
    sc = dv.vacuum_series_scalar([0], 1.0, SMALL_GRID, suite=suite)
    assert sc.S[0] == pytest.approx(1.0 - dense_gram(suite, "g0")[0, 0] ** 2, abs=1e-14)


def test_single_c_invariant_mode_quarter():
    # one conjugation-fixed spinor mode: S1 = mu(1 - mu) with mu = 1/2
    shell = modes.enumerate_shell(0)
    suite = quad.gram_suite(shell, 1.0, SMALL_GRID)
    V = dv.c_invariant_transform(shell)
    M = quad.m_plus(suite)
    Mc = V.conj().T @ (M @ V)
    s1 = float(Mc[0, 0].real - abs(Mc[0, 0]) ** 2)
    assert abs(s1 - 0.25) < SMALL_GRID.tail_estimate(0)


def test_c_invariant_route_matches_at_shell_boundaries(small_suite):
    series = dict(zip(dv.FRAMES, dv.vacuum_series_trace(SHELLS, small_suite)))
    prod, ci = series[dv.PRODUCT], series[dv.C_INVARIANT]
    for a, b in zip(prod.S, ci.S):
        assert abs(a - b) / abs(b) < 1e-8


def _dense_series(M, shells):
    out = []
    for K in shells:
        j4 = 4 * (2 * K + 1) ** 3
        W = M[:j4, :j4]
        out.append(float(np.trace(W).real - np.vdot(W, W).real))
    return out


def _dense_both(suite, shells):
    # tr(W_K) - |W_K|_F^2 on the dense M+ in the product and invariant bases
    M = quad.ideal_m_plus(suite)
    V = dv.c_invariant_transform(suite.shell).toarray()
    return [_dense_series(M, shells), _dense_series(V.conj().T @ M @ V, shells)]


@pytest.mark.parametrize("K", [0, 1, 2])
def test_trace_series_matches_dense_oracle(K):
    # the Kronecker-frame route against tr(W_K) - |W_K|_F^2 on the dense M+
    suite = quad.gram_suite(modes.enumerate_shell(K), 1.0, SMALL_GRID)
    shells = list(range(K + 1))
    both = dv.vacuum_series_trace(shells, suite)
    for series, dense in zip(both, _dense_both(suite, shells)):
        for a, b in zip(series.S, dense):
            assert abs(a - b) <= 1e-12 * abs(b)


@pytest.mark.parametrize("block", [1, 5, 7])
def test_small_row_blocks_match_default_and_dense_oracle(block, small_suite, monkeypatch):
    # the row blocks restart at each layer; layers 1 and 2 hold 13 and 49
    # rows of L, so 5 and 7 rows leave a short block at the end of each and
    # 1 row makes every row its own block.  The (L, pi L) x L triangle reads
    # the same blocks: a single-row square at 1 row, and below every block
    # but the first a strip from column 0 up to the block
    default = dv.vacuum_series_trace(SHELLS, small_suite)
    monkeypatch.setattr(dv, "_ROW_BLOCK", block)
    both = dv.vacuum_series_trace(SHELLS, small_suite)
    for series, ref, dense in zip(both, default, _dense_both(small_suite, SHELLS)):
        for a, b, c in zip(series.S, ref.S, dense):
            assert abs(a - b) <= 1e-13 * abs(b)
            assert abs(a - c) <= 1e-12 * abs(c)


SIGNS = [1.0] * 4 + [e for _, e in quad.m_plus_terms()]  # Z_a[j, i] = s_a Z_a[i, j]


def _full_square_block_grams(suite, col_sets, rows, counts):
    # the oracle of a symmetric group's Grams: each sub-shell's whole square
    # of every scalar block, read at once, no triangle, blocks or cumsum
    D = []
    for n in counts:
        Z = np.concatenate([suite.terms(cols[:n, None], rows[:n]) for cols in col_sets])
        Z = Z.reshape(len(Z), -1)
        D.append(Z @ Z.T)
    return np.array(D)


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_triangle_block_grams_match_full_square_read(K):
    # the (L, pi L) x L group read as a lower triangle, its strips weighted
    # 1 + s_a s_b, against the full square of every sub-shell
    suite = quad.gram_suite(modes.enumerate_shell(K), 1.0, SMALL_GRID)
    _, L, pL = dv._shell_frame(K)
    half = [((2 * k + 1) ** 3 - 1) // 2 for k in range(K + 1)]
    got = dv._block_grams(suite, [L, pL], half, SIGNS)
    want = _full_square_block_grams(suite, [L, pL], L, half)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("K", [0, 1, 2, 3, 4])
def test_zero_mode_grams_match_whole_block_read(K):
    # (fixed, fixed) and (L, fixed) from one read of the zero mode's row, cut
    # into L's layers and summed, against each sub-shell's blocks read whole
    suite = quad.gram_suite(modes.enumerate_shell(K), 1.0, SMALL_GRID)
    fixed, L, _ = dv._shell_frame(K)
    half = [((2 * k + 1) ** 3 - 1) // 2 for k in range(K + 1)]
    ff, fl = dv._zero_mode_grams(suite, fixed, L, half)
    for got, cols in ((ff, [fixed] * (K + 1)), (fl, [L[:n] for n in half])):
        Zs = [suite.terms(c[:, None], fixed).reshape(4, -1) for c in cols]
        want = np.array([Z @ Z.T for Z in Zs])
        assert got.shape == want.shape == (K + 1, 4, 4)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), 1e-300)


def test_trace_route_reads_the_triangle_of_the_symmetric_group(monkeypatch):
    # at K=4 with 32-row blocks the (L, pi L) x L group fills 71,682 of the
    # 364^2 = 132,496 entries of each column set's square (76,738 with
    # 64-row blocks), and the (fixed, fixed) and (L, fixed) groups 365 more:
    # a full-square read fails
    K = 4
    suite = quad.gram_suite(modes.enumerate_shell(K), 1.0, SMALL_GRID)
    filled = []
    terms = quad.GramMatrices.terms

    def counted(self, rows, cols, out=None):
        filled.append(np.broadcast(rows, cols).size)
        return terms(self, rows, cols, out)

    monkeypatch.setattr(quad.GramMatrices, "terms", counted)
    dv.vacuum_series_trace([K], suite)
    square = (((2 * K + 1) ** 3 - 1) // 2) ** 2
    assert sum(filled) <= 0.6 * 2 * square


@pytest.mark.parametrize("K", [0, 1, 2])
def test_mplus_diagonal_matches_dense_oracle(K):
    # the frame diagonal against diag(V* M+ V) on the dense M+
    shell = modes.enumerate_shell(K)
    suite = quad.gram_suite(shell, 1.0, SMALL_GRID)
    M = quad.m_plus(suite)
    V = dv.c_invariant_transform(shell).toarray()
    diag = dv.mplus_diagonal(suite)
    assert np.max(np.abs(diag - np.diagonal(V.conj().T @ M @ V).real)) < 1e-14


def blockwise_mplus_diagonal(suite, basis_kind):
    # every (u, u') block of each column group read through `one` and
    # `terms`, each spin factor's diagonal taken apart, summed term-major
    Ys = [0.5 * np.eye(4)] + [Y for Y, _ in quad.m_plus_terms()]
    (fixed, T0), (L, A), (pL, B) = zip(dv._shell_frame(suite.shell.K), dv.FRAMES[basis_kind])
    groups = [[([suite.one(r, r2), *suite.terms(r, r2)], Q, Q2)
               for r, Q in group for r2, Q2 in group]
              for group in ([(fixed, T0)], [(L, A), (pL, B)])]
    return np.concatenate([
        sum(np.outer(Xs[t], np.diagonal(Q.conj().T @ Y @ Q2).real)
            for t, Y in enumerate(Ys) for Xs, Q, Q2 in blocks).ravel()
        for blocks in groups])


@pytest.mark.parametrize("K", [0, 1, 2, 3, 4])
def test_folded_mplus_diagonal_matches_blockwise_read_bitwise(K):
    # (pi L, L) and (pi L, pi L) are not read but taken from (L, pi L) and
    # eps_t (L, L): the same slots, copied or negated, so no bit may move
    shell = modes.enumerate_shell(K)
    for m in (0.0, 0.1, 1.0, 10.0):
        suite = quad.gram_suite(shell, m, SMALL_GRID)
        assert np.array_equal(dv.mplus_diagonal(suite),
                              blockwise_mplus_diagonal(suite, dv.C_INVARIANT)), m


@pytest.mark.parametrize("K", [0, 1, 2, 3, 4])
def test_shell_frame_matches_shell_conjugation(K):
    # the layer reversal and conjugation_matrix() rebuild U = P_pi (x) C
    fixed, L, pL = dv._shell_frame(K)
    n = (2 * K + 1) ** 3
    partner = np.arange(n)
    partner[L], partner[pL] = pL, L
    U = modes.shell_conjugation(modes.enumerate_shell(K)).U
    P = sparse.csr_matrix((np.ones(n), (partner, np.arange(n))), shape=(n, n))
    assert (U != sparse.kron(P, spinor.conjugation_matrix())).nnz == 0
    assert np.array_equal(fixed, [0])
    assert np.all(pL > L) and np.all(np.diff(L) > 0)


@pytest.mark.parametrize("K", [1, 2])
def test_folded_blocks_reproduce_frame_blocks(K):
    # the norm |R|_F^2 cannot see the parities the fold adds with (A B* = 0
    # and T0 is unitary), so compare each folded block with V_g* R V_g'
    suite = quad.gram_suite(modes.enumerate_shell(K), 1.0, SMALL_GRID)
    R = quad.ideal_m_plus(suite) - 0.5 * np.eye(4 * suite.shell.count)
    eye = np.eye(suite.shell.count)
    for kind in dv.FRAMES:
        fixed, L, pL = dv._shell_frame(K)
        T0, A, B = dv.FRAMES[kind]
        Vf = np.kron(eye[:, fixed], T0)
        V2 = np.kron(eye[:, L], A) + np.kron(eye[:, pL], B)
        Y, e = (np.array(t) for t in zip(*quad.m_plus_terms()))
        spins = dv._folded_spins(T0, A, B, Y, e)
        folded = [(Vf, Vf, [(fixed, fixed, 0)]), (Vf, V2, [(fixed, L, 1)]),
                  (V2, Vf, [(L, fixed, 2)]), (V2, V2, [(L, L, 3), (L, pL, 4)])]
        for Vl, Vr, blocks in folded:
            built = sum(np.kron(X, P) for r, c, j in blocks
                        for X, P in zip(suite.terms(r[:, None], c), spins[j]))
            assert np.max(np.abs(built - Vl.conj().T @ R @ Vr)) < 1e-14


@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("m", [0.0, 1.0, 1.3407807929942596e154])
def test_gathered_blocks_mirror_symmetric(K, m):
    # X_t(pi r, pi r') = eps_t X_t(r, r'): one and g0 even, g1..g3 odd
    fixed, L, pL = dv._shell_frame(K)
    idx = np.arange((2 * K + 1) ** 3)
    pi = idx.copy()
    pi[L], pi[pL] = pL, L
    parity = {"one": 1.0, "g0": 1.0, "g1": -1.0, "g2": -1.0, "g3": -1.0}
    assert [e for _, e in quad.m_plus_terms()] == [1.0, -1.0, -1.0, -1.0]
    for grid in (SMALL_GRID, quad.build_grid(9, 2, 4)):
        suite = quad.gram_suite(modes.enumerate_shell(K), m, grid)
        for name, eps in parity.items():
            X = dense_gram(suite, name)
            mirrored = X[np.ix_(pi, pi)]
            assert np.max(np.abs(mirrored - eps * X)) <= 1e-15 * np.max(np.abs(X))


@pytest.mark.parametrize("kind", [dv.PRODUCT, dv.C_INVARIANT])
def test_trace_route_gathers_each_block_once(kind, small_suite, monkeypatch):
    # every sub-shell reads the top shell's row blocks, which do not depend
    # on the shells asked for: the series over all shells reads the terms as
    # often as the top shell alone, and gives it the same value in both bases
    calls = []
    terms = quad.GramMatrices.terms

    def counted(self, rows, cols, out=None):
        calls.append(np.size(cols))
        return terms(self, rows, cols, out)

    monkeypatch.setattr(quad.GramMatrices, "terms", counted)
    top = dict(zip(dv.FRAMES, dv.vacuum_series_trace([2], small_suite)))
    top_only = len(calls)
    calls.clear()
    every = dict(zip(dv.FRAMES, dv.vacuum_series_trace(SHELLS, small_suite)))
    assert top_only > 0 and len(calls) == top_only
    assert every[kind].S[-1] == top[kind].S[0]


def test_trace_route_memory_below_one_dense_gram():
    # the row blocks bound the trace route's memory: at K=6 it stays below
    # one dense n x n float64 of the top shell (38.6 MB)
    K = 6
    suite = quad.gram_suite(modes.enumerate_shell(K), 1.0, SMALL_GRID)
    tracemalloc.start()
    try:
        dv.vacuum_series_trace(list(range(K + 1)), suite)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * suite.shell.count ** 2


def traced_peak(run):
    """Peak traced bytes of run(), from cold Fock pattern caches."""
    fock._jw_terms.cache_clear()
    fock._jw_pattern.cache_clear()
    fock._product_classes.cache_clear()
    fock._product_pattern.cache_clear()
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_product_table_build_memory():
    # the builder classes G.G's entries in blocks of rows; the n = 12 table
    # and bit layout hold 3.1 MB, and one block of all 4096 rows would
    # take 13.9 MB
    assert traced_peak(lambda: (fock._product_pattern(12), fock._product_classes(12))) < 8e6


def test_jordan_wigner_tables_build_memory():
    # the n = 12 bit layout, pattern and table hold 3.7 MB; 512-row blocks
    # would take the build to 5.4 MB, 128-row blocks keep it at 4.8 MB
    assert traced_peak(lambda: (fock._jw_pattern(12), fock._product_pattern(12),
                                fock._product_classes(12))) < 5.5e6


def test_car_check_memory():
    # 15.5 MB with sparse products of freshly built operators, 5.5 MB with
    # the whole G.G table built at n = 12 and a diagonal gathered for every
    # row; 4.05 MB with the classes alone and diagonals only for the rows
    # with a nonzero diagonal product.  Gathering the 60 n = 12 diagonals
    # in one batch would take it to 14.8 MB, building the G.G pattern as
    # well to 6.0 MB.
    config = suites.ExperimentConfig(seed=1)
    assert traced_peak(lambda: suites.run_car_check(config)) < 4.5e6


def test_complete_shell_sums_invariant_under_intra_shell_mixing(small_suite, rng):
    # unitary mixing inside complete shells must not move the shell sums
    M = quad.ideal_m_plus(small_suite)
    sizes = [4 * c for c in (1, 26, 98)]  # spinor modes added per shell
    blocks = [fock.random_unitary(rng, s) for s in sizes]
    U = np.zeros((M.shape[0], M.shape[0]), dtype=complex)
    at = 0
    for B in blocks:
        U[at:at + B.shape[0], at:at + B.shape[0]] = B
        at += B.shape[0]
    Mr = U.conj().T @ (M @ U)
    for sa, sb in zip(_dense_series(M, SHELLS), _dense_series(Mr, SHELLS)):
        assert abs(sa - sb) < 1e-8


def test_mass_zero_drops_mass_term():
    suite = quad.gram_suite(modes.enumerate_shell(0), 0.0, SMALL_GRID)
    sc = dv.vacuum_series_scalar([0], 0.0, SMALL_GRID, suite=suite)
    expected = 1.0 - sum(float(dense_gram(suite, name)[0, 0]) ** 2
                         for name in ("g1", "g2", "g3"))
    assert sc.S[0] == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("m", [0.0, 0.1, 2.5])
def test_scalar_route_matches_dense_sub_block_sums(m):
    # the closed form on the 1d factors against sum_{i,j<=n} [|m G0_ij|^2 + sum_s |Gs_ij|^2]
    suite = quad.gram_suite(modes.enumerate_shell(2), m, SMALL_GRID)
    grams = [m * dense_gram(suite, "g0")] + [dense_gram(suite, name)
                                             for name in ("g1", "g2", "g3")]
    sc = dv.vacuum_series_scalar(SHELLS, m, SMALL_GRID, suite=suite)
    for K, S in zip(SHELLS, sc.S):
        n = (2 * K + 1) ** 3
        dense = n - sum(float(np.sum(G[:n, :n] ** 2)) for G in grams)
        assert abs(S - dense) <= 1e-13 * abs(dense)


@pytest.mark.parametrize("name", ["acc0", "acc3"])
def test_route_check_covers_the_accumulators(name):
    # the scalar route reads only the suite's 1d factors, so the largest
    # class entry of an accumulator off by 1e-5 relative, in both of its
    # signed slots, opens a gap above the CLI's 1e-6 tolerance; the slots
    # stay a copy (acc0) or a negation (acc3) of each other, so the trace
    # route's mirror fold still holds and the gap comes from the class
    # entry alone
    suite = quad.gram_suite(modes.enumerate_shell(2), 1.0, SMALL_GRID)
    acc = getattr(suite, name)
    even = acc[..., ::2]
    q0, q1, q2 = np.unravel_index(np.argmax(np.abs(even)), even.shape)
    acc[q0, q1, 2 * q2:2 * q2 + 2] *= 1.0 + 1e-5
    tr, _ = dv.vacuum_series_trace(SHELLS, suite)
    sc = dv.vacuum_series_scalar(SHELLS, 1.0, SMALL_GRID, suite=suite)
    assert max(abs(a - b) / abs(b) for a, b in zip(tr.S, sc.S)) > 1e-6


def test_scalar_route_without_suite_reads_the_same_factors(small_suite):
    # without a suite the route builds only the top shell's 1d factors
    alone = dv.vacuum_series_scalar(SHELLS, 1.0, SMALL_GRID)
    assert alone.S == dv.vacuum_series_scalar(SHELLS, 1.0, SMALL_GRID, suite=small_suite).S


def test_scalar_route_without_suite_builds_no_accumulators():
    # two K=8 accumulators would hold 8.5 MB each
    grid = quad.build_grid(40, 2, 6)
    tracemalloc.start()
    try:
        dv.vacuum_series_scalar(range(9), 1.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


@pytest.mark.parametrize("K", range(7))
def test_suite_bytes_estimate_matches_the_arrays_it_estimates(K):
    # the accumulators and class table of a built suite plus the row-block
    # buffer of `_block_grams`, 8 doubles per mode of L and block row: exact
    # once L fills a block, an upper bound before
    suite = quad.gram_suite(modes.enumerate_shell(K), 1.0, SMALL_GRID)
    rows = ((2 * K + 1) ** 3 - 1) // 2
    built = (suite.acc0.nbytes + suite.acc3.nbytes + suite.class_table.nbytes
             + 64 * rows * min(dv._ROW_BLOCK, rows))
    need = dv.checked_suite_bytes(K)
    assert need == built if rows >= dv._ROW_BLOCK else need >= built


def test_growth_diagnostics_verdicts():
    counts = [4, 108, 500, 1372]
    grown = dv.DivergenceSeries(counts, [0.5, 8.0, 26.0, 54.0], 0.01)
    assert dv.growth_diagnostics(grown) == "no Cauchy convergence"
    flat = dv.DivergenceSeries(counts, [1.0, 1.0, 1.0, 1.0], 0.01)
    assert dv.growth_diagnostics(flat) == "converged"
    stalled = dv.DivergenceSeries(counts, [0.0, 2.0, 2.4, 2.41], 0.01)
    assert dv.growth_diagnostics(stalled) == "converged"
    with pytest.raises(ValueError):
        dv.growth_diagnostics(dv.DivergenceSeries(counts[:2], [0.5, 8.0], 0.01))


def test_toy_oracle_equivalence(model8, rng):
    basis = charge.random_subspace(model8, 6, rng)
    for J in range(7):
        assert dv.toy_oracle_equivalence(model8, basis, J) < 1e-10


def test_toy_c_invariant_diagonal(model8, rng):
    basis = charge.c_invariant_subspace(model8, 4, rng)
    Mt = basis.vectors.conj().T @ model8.p_plus @ basis.vectors
    assert np.max(np.abs(np.diagonal(Mt).real - 0.5)) < 1e-10


def test_aligned_toy_series_vanishes_termwise(model6):
    basis = charge.aligned_subspace(model6, 2, 1)
    for J in range(basis.dim + 1):
        fock_value, _ = charge.vacuum_norm(model6, basis, J)
        assert fock_value < 1e-28


def test_shell_and_grid_validation():
    with pytest.raises(ValueError, match="ascending"):
        dv.vacuum_series_scalar([1, 0], 1.0, SMALL_GRID)
    with pytest.raises(ValueError):
        dv.vacuum_series_scalar([], 1.0, SMALL_GRID)
    tiny = quad.build_grid(3, 1, 3)
    with pytest.raises(ValueError, match="tail"):
        dv.vacuum_series_scalar([0, 1, 2], 1.0, tiny)
    small = quad.gram_suite(modes.enumerate_shell(0), 1.0, SMALL_GRID)
    with pytest.raises(ValueError, match="covers shell"):
        dv.vacuum_series_scalar([0, 1], 1.0, SMALL_GRID, suite=small)
    with pytest.raises(ValueError, match="covers shell"):
        dv.vacuum_series_trace([0, 1], small)
    with pytest.raises(ValueError, match="ascending"):
        dv.vacuum_series_trace([1, 0], small)
    # the trace route takes mass and grid from the suite; the scalar route
    # is given both, so the suite must be the one asked for
    with pytest.raises(ValueError, match="at m=1.0, not shell 0 at m=2.0"):
        dv.vacuum_series_scalar([0], 2.0, SMALL_GRID, suite=small)
    # a suite from another grid would carry that grid's values under this
    # grid's description and tail estimate
    coarse = quad.gram_suite(modes.enumerate_shell(1), 1.0, quad.build_grid(3, 1, 2))
    with pytest.raises(ValueError, match="built on the grid cutoff=3"):
        dv.vacuum_series_scalar([0, 1], 1.0, quad.build_grid(10, 1, 4), suite=coarse)
    # the suite's own grid is too coarse for its top shell
    with pytest.raises(ValueError, match="tail"):
        dv.vacuum_series_trace([0, 1], coarse)
