import numpy as np
import pytest
from scipy import sparse

from conftest import random_unitary
from fockcharge import charge, fock
from fockcharge.charge import max_abs


def test_single_c_invariant_mode_eigenvalues(model6, rng):
    # a C-fixed unit vector has |P+ f|^2 = 1/2, so the density has
    # eigenvalues -1/2 and +1/2
    basis = charge.c_invariant_subspace(model6, 1, rng)
    Q = charge.q_subspace(model6, basis)
    eigs = charge.cluster_eigenvalues(np.linalg.eigvalsh(Q.toarray()))
    assert np.allclose(eigs, [-0.5, 0.5], atol=1e-10)


@pytest.mark.parametrize("fmt", ["csr", "csc", "coo"])
def test_max_abs_leaves_sparse_argument_unchanged(fmt):
    M = sparse.csr_matrix((np.array([0.0, -2.0]), np.array([0, 1]), np.array([0, 1, 2])),
                          shape=(2, 2)).asformat(fmt)
    before = {k: getattr(M, k).copy() for k in ("data", "indices", "indptr", "row", "col")
              if hasattr(M, k)}
    assert M.nnz == 2
    assert max_abs(M) == 2.0
    assert M.nnz == 2
    for k, arr in before.items():
        assert np.array_equal(getattr(M, k), arr)


def test_max_abs_of_stored_zeros_only():
    M = sparse.csr_matrix((np.zeros(2), np.array([0, 1]), np.array([0, 1, 2])), shape=(2, 2))
    assert max_abs(M) == 0.0
    assert max_abs(sparse.csr_matrix((3, 3))) == 0.0


def test_empty_subspace_gives_zero_operator(model6):
    empty = charge.SubspaceBasis.from_vectors(model6, np.zeros((6, 0)))
    assert max_abs(charge.q_subspace(model6, empty)) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.filterwarnings("ignore:invalid value")
def test_non_finite_vectors_rejected(model6, bad):
    V = np.eye(6)[:, :2]
    V[0, 0] = bad
    with pytest.raises(ValueError, match="orthonormal"):
        charge.SubspaceBasis.from_vectors(model6, V)


def test_spectrum_lattice_random_instances(rng):
    for n, d in [(6, 3), (8, 4), (4, 2)]:
        model = fock.random_model(n, rng)
        basis = charge.random_subspace(model, d, rng)
        dev = charge.spectrum_deviation(charge.q_subspace(model, basis),
                                        charge.predicted_spectrum(basis))
        assert dev < 1e-9


def test_spectrum_independent_of_which_subset(model6, rng):
    # eigenvalue for q occupied modes is q - d^-, regardless of the subset
    basis = charge.random_subspace(model6, 3, rng)
    Q = charge.q_subspace(model6, basis).toarray()
    eigs = np.sort(np.linalg.eigvalsh(Q))
    lattice = charge.predicted_spectrum(basis)
    assert all(np.min(np.abs(lattice - e)) < 1e-9 for e in eigs)


def test_basis_independence(model6, rng):
    basis = charge.random_subspace(model6, 3, rng)
    assert charge.q_basis_independence_check(model6, basis, np.eye(3)) == 0.0
    assert charge.q_basis_independence_check(model6, basis, random_unitary(rng, 3)) < 1e-10
    perm = np.eye(3)[rng.permutation(3)]
    assert charge.q_basis_independence_check(model6, basis, perm) < 1e-12


def test_orthogonal_additivity_and_commutation(model6, rng):
    frame, _ = np.linalg.qr(rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4)))
    b1 = charge.SubspaceBasis.from_vectors(model6, frame[:, :2])
    b2 = charge.SubspaceBasis.from_vectors(model6, frame[:, 2:])
    rep = charge.q_additivity_and_commutation(model6, b1, b2)
    assert rep["commutator"] < 1e-11
    assert rep["additivity"] < 1e-11


def test_overlap_commutation(model6, rng):
    frame, _ = np.linalg.qr(rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)))
    k1 = charge.SubspaceBasis.from_vectors(model6, frame[:, :2])
    k2 = charge.SubspaceBasis.from_vectors(model6, frame[:, [0, 2]])
    rep = charge.q_additivity_and_commutation(model6, k1, k2, require_orthogonal=False)
    assert rep["commutator"] < 1e-11
    assert rep["additivity"] is None


def test_non_orthogonal_pair_rejected(model6, rng):
    b1 = charge.random_subspace(model6, 2, rng)
    with pytest.raises(ValueError, match="orthogonal"):
        charge.q_additivity_and_commutation(model6, b1, b1)


def test_c_invariant_subspace_half_split(model6, rng):
    for d in (1, 2, 3):
        basis = charge.c_invariant_subspace(model6, d, rng)
        assert abs(basis.dplus - d / 2) < 1e-10
        lattice = -d / 2 + np.arange(d + 1)
        assert charge.spectrum_deviation(charge.q_subspace(model6, basis), lattice) < 1e-9


def test_q_tilde_aligned_equals_q(model6):
    aligned = charge.aligned_subspace(model6, 2, 1)
    assert max_abs(charge.q_tilde(model6, aligned)
                   - charge.q_subspace(model6, aligned)) < 1e-11


def test_q_tilde_noncommuting_witness():
    # frozen instance: orthogonal subspaces whose number-operator variants
    # visibly fail to commute while the charge operators commute
    rng = np.random.default_rng(10)
    model = fock.random_model(6, rng)
    frame, _ = np.linalg.qr(rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4)))
    b1 = charge.SubspaceBasis.from_vectors(model, frame[:, :2])
    b2 = charge.SubspaceBasis.from_vectors(model, frame[:, 2:])
    t1, t2 = charge.q_tilde(model, b1), charge.q_tilde(model, b2)
    assert max_abs(t1 @ t2 - t2 @ t1) > 1e-6
    q1, q2 = charge.q_subspace(model, b1), charge.q_subspace(model, b2)
    assert max_abs(q1 @ q2 - q2 @ q1) < 1e-11


def test_q_tilde_generic_spectrum_noninteger(model6, rng):
    basis = charge.random_subspace(model6, 3, rng)
    eigs = charge.cluster_eigenvalues(
        np.linalg.eigvalsh(charge.q_tilde(model6, basis).toarray()))
    assert np.max(np.abs(eigs - np.round(eigs))) > 1e-3


def test_q_total(model6, rng):
    Q = charge.q_total(model6)
    omega = fock.vacuum(model6)
    assert np.linalg.norm(Q @ omega) < 1e-13
    u = model6.basis_plus[:, 1]
    one = fock.creator_b(model6, u) @ omega
    assert np.linalg.norm(Q @ one - one) < 1e-13
    n_p, n_a = fock.sector_labels(model6)
    assert np.max(np.abs(Q.diagonal().real - (n_p - n_a))) < 1e-12
    assert max_abs(Q - np.diag(Q.diagonal())) < 1e-12


def test_q_weighted_limits(model6, rng):
    basis = charge.random_subspace(model6, 2, rng)
    assert max_abs(charge.q_weighted(model6, basis, [0, 0])) == 0.0
    assert max_abs(charge.q_weighted(model6, basis, [1, 1])
                   - charge.q_subspace(model6, basis)) < 1e-12


def test_q_weighted_subset_sum_spectrum(model6, rng):
    basis = charge.random_subspace(model6, 2, rng)
    w = np.array([1.0, 0.5])
    Q = charge.q_weighted(model6, basis, w)
    mus = [np.linalg.norm(model6.p_plus @ basis.vectors[:, j]) ** 2 for j in range(2)]
    predicted = sorted({sum(w[j] * (mus[j] if (s >> j) & 1 else mus[j] - 1)
                            for j in range(2)) for s in range(4)})
    got = charge.cluster_eigenvalues(np.linalg.eigvalsh(Q.toarray()))
    assert np.allclose(got, predicted, atol=1e-9)


def test_q_weighted_rejects_out_of_range(model6, rng):
    basis = charge.random_subspace(model6, 2, rng)
    for weights in ([0.5, 1.5], [-0.1, 0.5], [np.nan, 0.5]):
        with pytest.raises(ValueError):
            charge.q_weighted(model6, basis, weights)


def test_truncated_q(model6, rng):
    basis = charge.random_subspace(model6, 3, rng)
    assert max_abs(charge.truncated_q(model6, basis, 0)) == 0.0
    assert max_abs(charge.truncated_q(model6, basis, 3)
                   - charge.q_subspace(model6, basis)) < 1e-13
    for bad in (-1, 4):
        with pytest.raises(ValueError):
            charge.truncated_q(model6, basis, bad)
        with pytest.raises(ValueError):
            charge.vacuum_norm(model6, basis, bad)


def test_truncated_vacuum_norm_gram_identity(model8, rng):
    # |Q^J Omega|^2 = tr(M+) - tr(M+^2) over the first J vectors
    basis = charge.random_subspace(model8, 5, rng)
    omega = fock.vacuum(model8)
    assert charge.vacuum_norm(model8, basis, 0) == (0.0, 0.0)
    for J in (1, 3, 5):
        QJ = charge.truncated_q(model8, basis, J)
        val = float(np.vdot(QJ @ omega, QJ @ omega).real)
        F = basis.vectors[:, :J]
        Mt = F.conj().T @ model8.p_plus @ F
        ref = float((np.trace(Mt) - np.trace(Mt @ Mt)).real)
        assert abs(val - ref) < 1e-12
        fock_value, trace_value = charge.vacuum_norm(model8, basis, J)
        assert abs(fock_value - val) < 1e-12 and abs(trace_value - ref) < 1e-12
        assert abs(fock_value - trace_value) < 1e-12


def test_eigenvector_witnesses(model6, rng):
    basis = charge.random_subspace(model6, 3, rng)
    for j in range(4):
        _, res = charge.eigenvector_witness(model6, basis, j)
        assert res < 1e-10


def test_decomposition_cases(model8, rng):
    basis = charge.random_subspace(model8, 5, rng)

    def vec():
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        return v / np.linalg.norm(v)

    cases = [([], []), ([vec()], []), ([vec()], [vec()]), ([vec(), vec()], [vec()])]
    for gs, hs in cases:
        r = charge.sector_norm_decomposition(model8, basis, 4, gs, hs)
        assert r.residual_direct < 1e-10
        assert r.residual_kernel < 1e-10
        assert r.route_deviation < 1e-10
    # vacuum case: corrections vanish and sum1 is the vacuum norm itself
    r = charge.sector_norm_decomposition(model8, basis, 4, [], [])
    assert max(abs(x) for x in r.sums_kernel[1:]) < 1e-14


def test_decomposition_matches_sector_projection(model8, rng):
    # the (n0+1, m0+1) sector of Q^J psi is what the decomposition measures
    basis = charge.random_subspace(model8, 4, rng)
    g = rng.normal(size=8) + 1j * rng.normal(size=8)
    h = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi = charge.state_from_creators(model8, [g], [h])
    QJ = charge.truncated_q(model8, basis, 4)
    out = QJ @ psi
    mask = fock.sector_mask(model8, 2, 2)
    sector_norm = float(np.vdot(out[mask], out[mask]).real)
    r = charge.sector_norm_decomposition(model8, basis, 4, [g], [h])
    assert abs(sector_norm - r.sector_norm) < 1e-10 * max(1.0, sector_norm)


def test_decomposition_rejects_vanishing_state(model6):
    basis = charge.SubspaceBasis.from_vectors(model6, np.eye(6)[:, :2])
    u = model6.basis_minus[:, 0]  # P+ u = 0, so b*(u) Omega = 0
    with pytest.raises(ValueError, match="vanishes"):
        charge.sector_norm_decomposition(model6, basis, 2, [u], [])
