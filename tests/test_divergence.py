import numpy as np
import pytest

from conftest import dense_gram, random_unitary
from fockcharge import charge, divergence as dv, modes, quadrature as quad

SMALL_GRID = quad.build_grid(10, 1, 5)
SHELLS = [0, 1, 2]


@pytest.fixture(scope="module")
def small_suite():
    return quad.gram_suite(modes.enumerate_shell(2), 1.0, SMALL_GRID)


def test_routes_agree_on_product_basis(small_suite):
    tr = dv.vacuum_series_trace(SHELLS, 1.0, SMALL_GRID, suite=small_suite)
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
    prod = dv.vacuum_series_trace(SHELLS, 1.0, SMALL_GRID, suite=small_suite)
    ci = dv.vacuum_series_trace(SHELLS, 1.0, SMALL_GRID,
                                basis_kind=dv.C_INVARIANT, suite=small_suite)
    for a, b in zip(prod.S, ci.S):
        assert abs(a - b) / abs(b) < 1e-8


def _dense_series(M, shells):
    out = []
    for K in shells:
        j4 = 4 * (2 * K + 1) ** 3
        W = M[:j4, :j4]
        out.append(float(np.trace(W).real - np.vdot(W, W).real))
    return out


@pytest.mark.parametrize("K", [0, 1, 2])
def test_trace_series_matches_dense_oracle(K):
    # the Kronecker-frame route against tr(W_K) - |W_K|_F^2 on the dense M+
    shell = modes.enumerate_shell(K)
    suite = quad.gram_suite(shell, 1.0, SMALL_GRID)
    shells = list(range(K + 1))
    M = quad.ideal_m_plus(suite)
    V = dv.c_invariant_transform(shell).toarray()
    for kind, dense in ((dv.PRODUCT, M), (dv.C_INVARIANT, V.conj().T @ M @ V)):
        series = dv.vacuum_series_trace(shells, 1.0, SMALL_GRID, basis_kind=kind, suite=suite)
        for a, b in zip(series.S, _dense_series(dense, shells)):
            assert abs(a - b) <= 1e-12 * abs(b)


@pytest.mark.parametrize("K", [0, 1, 2])
def test_mplus_diagonal_matches_dense_oracle(K):
    # the frame diagonal against diag(V* M+ V) on the dense M+, both bases
    shell = modes.enumerate_shell(K)
    suite = quad.gram_suite(shell, 1.0, SMALL_GRID)
    M = quad.m_plus(suite)
    V = dv.c_invariant_transform(shell).toarray()
    for kind, dense in ((dv.PRODUCT, M), (dv.C_INVARIANT, V.conj().T @ M @ V)):
        diag = dv.mplus_diagonal(suite, kind)
        assert np.max(np.abs(diag - np.diagonal(dense).real)) < 1e-14


@pytest.mark.parametrize("kind", [dv.PRODUCT, dv.C_INVARIANT])
def test_trace_route_gathers_each_block_once(kind, small_suite, monkeypatch):
    # every sub-shell reads the top shell's blocks: the series over all
    # shells gathers as often as the top shell alone
    calls = []
    gather = quad.GramMatrices.gather

    def counted(self, name, rows, cols):
        calls.append(name)
        return gather(self, name, rows, cols)

    monkeypatch.setattr(quad.GramMatrices, "gather", counted)
    dv.vacuum_series_trace([2], 1.0, SMALL_GRID, basis_kind=kind, suite=small_suite)
    top_only = len(calls)
    calls.clear()
    dv.vacuum_series_trace(SHELLS, 1.0, SMALL_GRID, basis_kind=kind, suite=small_suite)
    assert top_only > 0 and len(calls) == top_only


def test_complete_shell_sums_invariant_under_intra_shell_mixing(small_suite, rng):
    # unitary mixing inside complete shells must not move the shell sums
    M = quad.ideal_m_plus(small_suite)
    sizes = [4 * c for c in (1, 26, 98)]  # spinor modes added per shell
    blocks = [random_unitary(rng, s) for s in sizes]
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
    # the pair-triple closed form against sum_{i,j<=n} [|m G0_ij|^2 + sum_s |Gs_ij|^2]
    suite = quad.gram_suite(modes.enumerate_shell(2), m, SMALL_GRID)
    grams = [m * dense_gram(suite, "g0")] + [dense_gram(suite, name)
                                             for name in ("g1", "g2", "g3")]
    sc = dv.vacuum_series_scalar(SHELLS, m, SMALL_GRID, suite=suite)
    for K, S in zip(SHELLS, sc.S):
        n = (2 * K + 1) ** 3
        dense = n - sum(float(np.sum(G[:n, :n] ** 2)) for G in grams)
        assert abs(S - dense) <= 1e-13 * abs(dense)


def test_growth_diagnostics_verdicts():
    grown = dv.DivergenceSeries([0, 1, 2, 3], [4, 108, 500, 1372],
                                [0.5, 8.0, 26.0, 54.0], dv.PRODUCT, 1.0, "g", 0.01)
    rep = dv.growth_diagnostics(grown)
    assert rep["verdict"] == "no Cauchy convergence"
    assert len(rep["increments"]) == 4
    assert "fit_log" in rep and "fit_surface" in rep
    flat = dv.DivergenceSeries([0, 1, 2, 3], [4, 108, 500, 1372],
                               [1.0, 1.0, 1.0, 1.0], dv.PRODUCT, 1.0, "g", 0.01)
    assert dv.growth_diagnostics(flat)["verdict"] == "converged"
    stalled = dv.DivergenceSeries([0, 1, 2, 3], [4, 108, 500, 1372],
                                  [0.0, 2.0, 2.4, 2.41], dv.PRODUCT, 1.0, "g", 0.01)
    assert dv.growth_diagnostics(stalled)["verdict"] == "converged"
    with pytest.raises(ValueError):
        dv.growth_diagnostics(dv.DivergenceSeries([0, 1], [4, 108], [0.5, 8.0],
                                                  dv.PRODUCT, 1.0, "g", 0.01))


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
    with pytest.raises(ValueError, match="basis kind"):
        dv.vacuum_series_trace([0], 1.0, SMALL_GRID, basis_kind="bogus")
    # the basis kind is rejected before the shells or the grid are looked at
    with pytest.raises(ValueError, match="basis kind"):
        dv.vacuum_series_trace([0, 1, 2], 1.0, tiny, basis_kind="bogus")
    small = quad.gram_suite(modes.enumerate_shell(0), 1.0, SMALL_GRID)
    with pytest.raises(ValueError, match="basis kind"):
        dv.mplus_diagonal(small, "bogus")
    with pytest.raises(ValueError, match="covers shell"):
        dv.vacuum_series_scalar([0, 1], 1.0, SMALL_GRID, suite=small)
    # both routes read the mass from the suite, so it must be the one asked for
    for route in (dv.vacuum_series_scalar, dv.vacuum_series_trace):
        with pytest.raises(ValueError, match="at m=1.0, not shell 0 at m=2.0"):
            route([0], 2.0, SMALL_GRID, suite=small)
    # a suite from another grid would carry that grid's values under this
    # grid's description and tail estimate
    coarse = quad.gram_suite(modes.enumerate_shell(1), 1.0, quad.build_grid(3, 1, 2))
    for route in (dv.vacuum_series_scalar, dv.vacuum_series_trace):
        with pytest.raises(ValueError, match="built on the grid cutoff=3"):
            route([0, 1], 1.0, quad.build_grid(10, 1, 4), suite=coarse)
