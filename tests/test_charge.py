import numpy as np
import pytest
from scipy import sparse

from conftest import assert_bitwise_csr, dense_spectrum_deviation, sorted_csr
from fockcharge import charge, fock, suites
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
        dev = charge.spectrum_deviation(model, charge.q_subspace(model, basis),
                                        charge.predicted_spectrum(basis))
        assert dev < 1e-9


def sector_cases():
    """(label, model, matrix) for Q_k, a fractional Q^w and Q_total at
    n = 2..8."""
    for n in (2, 4, 6, 8):
        rng = np.random.default_rng(200 + n)
        model = fock.random_model(n, rng)
        basis = charge.random_subspace(model, n // 2, rng)
        yield f"q_subspace-{n}", model, charge.q_subspace(model, basis)
        yield (f"q_weighted-{n}", model,
               charge.q_weighted(model, basis, rng.uniform(size=basis.dim)))
        yield f"q_total-{n}", model, charge.q_total(model)


def test_sector_spectrum_matches_dense_oracle():
    for label, model, matrix in sector_cases():
        eigenvalues, off_sector = charge._sector_spectrum(model, matrix)
        dense = np.linalg.eigvalsh(matrix.toarray())
        assert eigenvalues.shape == dense.shape, label
        assert np.max(np.abs(np.sort(eigenvalues) - dense)) < 1e-13, label
        assert off_sector == 0.0, label


def test_off_sector_leak_fails_the_spectrum_check(model6, rng):
    """A Hermitian coupling of size 1e-6 between two charge sectors moves the
    blocks' spectrum by nothing the check can see; the off-sector term makes
    it fail all the same."""
    basis = charge.random_subspace(model6, 3, rng)
    Q = charge.q_subspace(model6, basis).toarray()
    n_p, n_a = fock.sector_labels(model6)
    q = n_p - n_a
    j = int(np.flatnonzero(q != q[0])[0])  # a state outside the vacuum's sector
    Q[0, j] += 1e-6
    Q[j, 0] += 1e-6
    lattice = charge.predicted_spectrum(basis)
    blocks = charge.cluster_eigenvalues(charge._sector_spectrum(model6, Q)[0])
    assert np.max(np.abs(blocks - lattice)) < 1e-9
    dev = charge.spectrum_deviation(model6, Q, lattice)
    assert dev >= 1e-6
    assert not suites.Check.below("spectrum-law/spectrum-lattice", dev, 1e-9).passed


def test_spectrum_solves_sector_blocks_only(model8, rng, monkeypatch):
    """At n = 8 the nine charge sectors have at most 70 states, and no
    256 x 256 solve is left."""
    basis = charge.random_subspace(model8, 4, rng)
    Q = charge.q_subspace(model8, basis)
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert charge.spectrum_deviation(model8, Q, charge.predicted_spectrum(basis)) < 1e-9
    assert len(shapes) == 9
    assert max(max(s) for s in shapes) == 70


@pytest.mark.parametrize("seed", [0, 1, 2, 2024])
def test_sector_spectra_agree_with_dense_solves_in_the_suites(seed, monkeypatch):
    """run_spectrum and run_weighted give the same statuses, and values within
    1e-14, with every spectrum from one dense solve of the full matrix."""
    cfg = suites.ExperimentConfig(seed=seed)
    for run in (suites.run_spectrum, suites.run_weighted):
        shipped = run(cfg)
        with monkeypatch.context() as dense:
            dense.setattr(charge, "spectrum_deviation", dense_spectrum_deviation)
            oracle = run(cfg)
        assert len(shipped.rows) == len(oracle.rows)
        assert len(shipped.checks) == len(oracle.checks)
        pairs = list(zip(shipped.rows, oracle.rows))
        pairs += zip(shipped.check_rows(), oracle.check_rows())
        for got, want in pairs:
            assert got["status"] == want["status"]
            for key in ("deviation", "value"):
                if key in got:
                    assert abs(got[key] - want[key]) <= 1e-14, (run.__name__, got)


def test_weighted_builds_one_instance_per_seed(monkeypatch):
    """The weighted checks print almost the same values at every seed, so
    its golden digests barely see the seed; the spectra it predicts must."""
    predicted = []
    shipped = charge.spectrum_deviation

    def capture(model, matrix, expected):
        predicted.append(tuple(expected))
        return shipped(model, matrix, expected)

    monkeypatch.setattr(charge, "spectrum_deviation", capture)
    for seed in (0, 1, 2, 2024):
        assert suites.run_weighted(suites.ExperimentConfig(seed=seed)).ok
    assert len(predicted) == 4 and len(set(predicted)) == 4


def test_spectrum_independent_of_which_subset(model6, rng):
    # eigenvalue for q occupied modes is q - d^-, regardless of the subset
    basis = charge.random_subspace(model6, 3, rng)
    Q = charge.q_subspace(model6, basis).toarray()
    eigs = np.sort(np.linalg.eigvalsh(Q))
    lattice = charge.predicted_spectrum(basis)
    assert all(np.min(np.abs(lattice - e)) < 1e-9 for e in eigs)


def test_basis_independence(model6, rng):
    basis = charge.random_subspace(model6, 3, rng)
    assert charge.q_basis_independence_check(model6, basis, [np.eye(3)]) == 0.0
    assert charge.q_basis_independence_check(model6, basis, [fock.random_unitary(rng, 3)]) < 1e-10
    perm = np.eye(3)[rng.permutation(3)]
    assert charge.q_basis_independence_check(model6, basis, [perm]) < 1e-12
    assert charge.q_basis_independence_check(model6, basis, [np.eye(3), perm]) < 1e-12


def oracle_basis_independence(model, basis, unitaries):
    """One charge per rotated basis, each subtracted from the unrotated one
    as sparse matrices: the deviation the one class sum reproduces."""
    Q = charge.q_subspace(model, basis)
    return max(max_abs(Q - charge.q_subspace(model, charge._rotated(model, basis, U)))
               for U in unitaries)


@pytest.mark.parametrize("seed", [0, 1, 2, 2024])
def test_basis_independence_class_sum_matches_sparse_oracle(seed):
    """The batched check equals the per-rotation sparse route exactly, over
    the suite's 100 rotations of a d = 3 basis at n = 6 and one of them
    alone; the identity gives exactly 0.0."""
    rng = np.random.default_rng(seed)
    model = fock.random_model(6, rng)
    basis = charge.random_subspace(model, 3, rng)
    unitaries = [np.eye(3)] + [fock.random_unitary(rng, 3) for _ in range(100)]
    check = charge.q_basis_independence_check(model, basis, unitaries)
    assert check == oracle_basis_independence(model, basis, unitaries) > 0.0
    assert (charge.q_basis_independence_check(model, basis, unitaries[7:8])
            == oracle_basis_independence(model, basis, unitaries[7:8]))
    assert charge.q_basis_independence_check(model, basis, unitaries[:1]) == 0.0
    with pytest.raises(ValueError, match="unitary"):
        charge.q_basis_independence_check(model, basis, [])
    with pytest.raises(ValueError, match="unitary"):
        charge.q_basis_independence_check(model, basis, [np.eye(3), 2 * np.eye(3)])


def test_spectrum_builds_the_unrotated_charge_once(monkeypatch):
    """run_spectrum builds a charge only for its 50 + 12 spectra: its 100
    basis rotations are one class sum, with no charge and no CSR matrix."""
    calls = []
    q_subspace = charge.q_subspace
    check = charge.q_basis_independence_check

    def counted(*args):
        calls.append(args)
        return q_subspace(*args)

    def without_csr(*args):
        def forbidden(*_, **__):
            raise AssertionError("the basis-independence check builds no CSR matrix")
        with monkeypatch.context() as no_csr:
            no_csr.setattr(sparse.csr_matrix, "__init__", forbidden)
            no_csr.setattr(charge, "q_subspace", forbidden)
            return check(*args)

    monkeypatch.setattr(charge, "q_subspace", counted)
    monkeypatch.setattr(charge, "q_basis_independence_check", without_csr)
    assert suites.run_spectrum(suites.ExperimentConfig(seed=4)).ok
    assert len(calls) == 62


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
        assert charge.spectrum_deviation(model6, charge.q_subspace(model6, basis),
                                         lattice) < 1e-9


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


def oracle_density(model, f):
    """:Psi*(f) Psi(f): as scipy's sparse product Psi*(f) Psi(f) minus
    |P- f|^2 times a sparse identity."""
    psi = fock.field_op(model, f)
    shift = float(np.linalg.norm(model.p_minus @ f) ** 2)
    return (psi.conj().T @ psi - shift * sparse.identity(model.fock_dim, format="csr")).tocsr()


def oracle_q_weighted(model, basis, weights):
    """sum_j m_j :Psi*(f_j) Psi(f_j): as a series of scipy sparse adds."""
    out = sparse.csr_matrix((model.fock_dim, model.fock_dim), dtype=complex)
    for j, w in enumerate(weights):
        if w:
            D = oracle_density(model, basis.vectors[:, j])
            out = out + (D if w == 1 else w * D)
    return out.tocsr()


def oracle_q_tilde(model, basis):
    """sum_j (b*(f_j) b(f_j) - c*(f_j) c(f_j)) as a series of scipy sparse
    products and adds."""
    out = sparse.csr_matrix((model.fock_dim, model.fock_dim), dtype=complex)
    for f in basis.vectors.T:
        bs, cs = fock.creator_b(model, f), fock.creator_c(model, f)
        out = out + bs @ bs.conj().T - cs @ cs.conj().T
    return out.tocsr()


def oracle_vacuum_norm(model, basis, J):
    """The Fock route of |Q^J Omega|^2 by scipy's sparse products
    (b*(f_i) c*(f_i)) Omega, summed over i < J."""
    omega = fock.vacuum(model)
    vec = np.sum([(fock.creator_b(model, f) @ fock.creator_c(model, f)) @ omega
                  for f in basis.vectors[:, :J].T], axis=0) if J else np.zeros_like(omega)
    return float(np.vdot(vec, vec).real)


def oracle_witness_residual(model, basis, phi, j):
    """|(sum_i Psi*(f_i) Psi(f_i)) phi - j phi| / |phi| with the sum taken
    as a series of scipy sparse products and adds."""
    total = sparse.csr_matrix((model.fock_dim, model.fock_dim), dtype=complex)
    for f in basis.vectors.T:
        psi = fock.field_op(model, f)
        total = total + psi.conj().T @ psi
    return float(np.linalg.norm(total @ phi - j * phi) / np.linalg.norm(phi))


def bitwise_cases():
    """(model, basis) over n = 2..8 with random, aligned (exact-zero
    coefficients) and C-invariant bases."""
    for n in (2, 4, 6, 8):
        rng = np.random.default_rng(100 + n)
        for _ in range(2):
            model = fock.random_model(n, rng)
            d = n // 2
            yield model, charge.random_subspace(model, d + 1, rng)
            yield model, charge.aligned_subspace(model, d, d // 2 + 1)
            yield model, charge.c_invariant_subspace(model, d, rng)


def test_wick_gather_matches_sparse_product_oracle_bitwise():
    rng = np.random.default_rng(5)
    witnesses = 0
    for model, basis in bitwise_cases():
        for j in range(basis.dim):
            f = basis.vectors[:, j]
            assert_bitwise_csr(fock.normal_ordered_density(model, f),
                               oracle_density(model, f))
        fractional = rng.uniform(size=basis.dim)
        for weights in (np.zeros(basis.dim), fractional, np.ones(basis.dim),
                        np.where(np.arange(basis.dim) % 2, 1.0, fractional),
                        np.where(np.arange(basis.dim) % 2, 0.0, 1.0)):
            assert_bitwise_csr(charge.q_weighted(model, basis, weights),
                               oracle_q_weighted(model, basis, weights))
        assert_bitwise_csr(charge.q_tilde(model, basis),
                           sorted_csr(oracle_q_tilde(model, basis)))
        for J in range(basis.dim + 1):
            assert charge.vacuum_norm(model, basis, J)[0] == oracle_vacuum_norm(model, basis, J)
        for j in range(basis.dim + 1):
            try:
                phi, residual = charge.eigenvector_witness(model, basis, j)
            except ValueError:  # phi_j vanishes for this basis
                continue
            assert residual == oracle_witness_residual(model, basis, phi, j)
            witnesses += 1
    # the C-invariant bases give every witness; the random ones of dimension
    # d + 1 > n/2 and the aligned ones lose some
    assert witnesses == 56


def test_q_weighted_is_one_gather_per_density(model6, rng, monkeypatch):
    """No density matrix, sparse product or sparse add in the Wick sum, in
    Q~, in the vacuum norm's Fock route or in the eigenvector witness, and
    one Jordan-Wigner pattern and one product table per mode count, which
    the car-check shares."""
    basis = charge.random_subspace(model6, 3, rng)
    expected = oracle_q_weighted(model6, basis, [1.0, 0.5, 1.0])
    expected_tilde = sorted_csr(oracle_q_tilde(model6, basis))

    def forbidden(*args, **kwargs):
        raise AssertionError("no sparse products or sums on the product-table route")

    monkeypatch.setattr(fock, "normal_ordered_density", forbidden)
    monkeypatch.setattr(sparse.csr_matrix, "_matmul_sparse", forbidden)
    fock._jw_pattern.cache_clear()
    fock._product_classes.cache_clear()
    fock._product_pattern.cache_clear()
    with monkeypatch.context() as no_sums:
        no_sums.setattr(sparse.csr_matrix, "_binopt", forbidden)
        for _ in range(2):
            assert_bitwise_csr(charge.q_weighted(model6, basis, [1.0, 0.5, 1.0]), expected)
            assert_bitwise_csr(charge.q_tilde(model6, basis), expected_tilde)
            charge.vacuum_norm(model6, basis, 3)
            charge.eigenvector_witness(model6, basis, 1)
    assert fock._product_classes.cache_info().misses == 1
    assert fock._product_pattern.cache_info().misses == 1
    # mode counts 6, 8 and 12; its adjoint check subtracts one pair of sparse
    # matrices per mode count, and it gathers no class values onto G.G, so
    # it builds the classes but no pattern of G.G, at n = 12 or elsewhere
    assert suites.run_car_check(suites.ExperimentConfig()).ok
    assert fock._product_classes.cache_info().misses == 3
    assert fock._product_pattern.cache_info().misses == 1
    assert fock._product_pattern.cache_info().currsize == 1
    assert fock._jw_pattern.cache_info().currsize == 3


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


@pytest.mark.parametrize("call, message", [
    (lambda model, basis: charge.SubspaceBasis.from_vectors(model, np.eye(4)), "expected shape"),
    (lambda model, basis: charge.q_weighted(model, basis, [0.5]), "one weight per basis vector"),
    (lambda model, basis: charge.q_basis_independence_check(model, basis, [2 * np.eye(2)]),
     "^need a d x d unitary$"),
    # the rotation's Gram deviation, 2e-11, is above the 1e-12 it is held to
    (lambda model, basis: charge.q_basis_independence_check(
        model, basis, [(1 + 1e-11) * np.eye(2)]), "^need a d x d unitary$"),
    (lambda model, basis: charge.q_basis_independence_check(model, basis, [np.eye(3)]),
     "^need a d x d unitary$"),
    (lambda model, basis: charge.q_basis_independence_check(
        model, basis, [np.full((2, 2), np.nan)]), "^need a d x d unitary$"),
    (lambda model, basis: charge.eigenvector_witness(model, basis, 3), "j must lie in"),
    (lambda model, basis: charge.eigenvector_witness(model, basis, -1), "j must lie in"),
    (lambda model, basis: charge.sector_norm_decomposition(model, basis, 3, [], []),
     "J must lie in"),
    (lambda model, basis: charge.sector_norm_decomposition(model, basis, -1, [], []),
     "J must lie in"),
    # a spectrum with a different number of clusters is infinitely far off
    (lambda model, basis: charge.spectrum_deviation(
        model, np.diag(np.arange(model.fock_dim) % 2.0), [0.0, 1.0, 2.0]), None),
    (lambda model, basis: charge.spectrum_deviation(model, np.diag([0.0, 1.0]), [0.0, 1.0]),
     r"expected a \(64, 64\) matrix"),
], ids=["basis-shape", "weight-count", "non-unitary-rotation", "near-unitary-rotation",
        "wrong-size-rotation", "nan-rotation", "witness-j-above",
        "witness-j-below", "decomposition-J-above", "decomposition-J-below",
        "spectrum-count-mismatch", "spectrum-wrong-shape"])
def test_unusable_inputs_rejected(call, message, model6, rng):
    basis = charge.random_subspace(model6, 2, rng)
    if message is None:
        assert call(model6, basis) == float("inf")
    else:
        with pytest.raises(ValueError, match=message):
            call(model6, basis)


def truncated_q(model, basis, J):
    """Q^J, the first J terms of the charge series, as 0/1 weights."""
    return charge.q_weighted(model, basis, np.arange(basis.dim) < J)


def test_truncated_q(model6, rng):
    basis = charge.random_subspace(model6, 3, rng)
    assert max_abs(truncated_q(model6, basis, 0)) == 0.0
    assert max_abs(truncated_q(model6, basis, 3)
                   - charge.q_subspace(model6, basis)) < 1e-13
    for bad in (-1, 4):
        with pytest.raises(ValueError):
            charge.vacuum_norm(model6, basis, bad)


def test_truncated_vacuum_norm_gram_identity(model8, rng):
    # |Q^J Omega|^2 = tr(M+) - tr(M+^2) over the first J vectors
    basis = charge.random_subspace(model8, 5, rng)
    omega = fock.vacuum(model8)
    assert charge.vacuum_norm(model8, basis, 0) == (0.0, 0.0)
    for J in (1, 3, 5):
        QJ = truncated_q(model8, basis, J)
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

    # two antiparticles make the kernel route's (-1)^(k+l) signs matter
    cases = [([], []), ([vec()], []), ([vec()], [vec()]), ([vec(), vec()], [vec()]),
             ([vec(), vec()], [vec(), vec()])]
    for gs, hs in cases:
        for J in (0, 4):
            r = charge.sector_norm_decomposition(model8, basis, J, gs, hs)
            assert r.residual_direct < 1e-10
            assert r.residual_kernel < 1e-10
            assert r.route_deviation < 1e-10
    # vacuum case: corrections vanish and sum1 is the vacuum norm itself
    for J in (0, 4):
        r = charge.sector_norm_decomposition(model8, basis, J, [], [])
        assert max(abs(x) for x in r.sums_direct[1:] + r.sums_kernel[1:]) < 1e-14


def test_decomposition_matches_sector_projection(model8, rng):
    # the (n0+1, m0+1) sector of Q^J psi is what the decomposition measures
    basis = charge.random_subspace(model8, 4, rng)
    g = rng.normal(size=8) + 1j * rng.normal(size=8)
    h = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi = charge.state_from_creators(model8, [g], [h])
    QJ = truncated_q(model8, basis, 4)
    out = QJ @ psi
    n_p, n_a = fock.sector_labels(model8)
    mask = (n_p == 2) & (n_a == 2)
    sector_norm = float(np.vdot(out[mask], out[mask]).real)
    r = charge.sector_norm_decomposition(model8, basis, 4, [g], [h])
    assert abs(sector_norm - r.sector_norm) < 1e-10 * max(1.0, sector_norm)


def test_decomposition_rejects_vanishing_state(model6):
    basis = charge.SubspaceBasis.from_vectors(model6, np.eye(6)[:, :2])
    u = model6.basis_minus[:, 0]  # P+ u = 0, so b*(u) Omega = 0
    with pytest.raises(ValueError, match="vanishes"):
        charge.sector_norm_decomposition(model6, basis, 2, [u], [])
