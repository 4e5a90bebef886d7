"""Charge operators on the toy Fock space.

Builds the weighted (fuzzy-set) charge sum_j m_j :Psi*(f_j) Psi(f_j): for
an ONB (f_j) of a subspace k; the subspace charge Q_k (all m_j = 1) and its
truncations Q^J (m_j = 1 for j < J, else 0) are its special cases, so
`q_weighted` is the one Wick sum.  It is one batched class sum on `fock`'s
cached product table over the densities' stacked coefficient rows, added
in j order with no sparse product or sparse add, and gathered onto the
table's pattern once; the series of scipy sparse products and adds it
reproduces bit for bit is the oracle in the tests.  Also the
number-operator variant Q~ = sum_j (b*(f_j) b(f_j) - c*(f_j) c(f_j)),
summed the same way, the total charge, the toy vacuum norm |Q^J Omega|^2
by a Fock route and a trace route (`vacuum_norm`), the spectral /
additivity / commutation checks, the eigenvector witness and the four-sum
decomposition of the truncated-charge sector norm, each correction sum one
contraction of a Gram matrix of stacked Fock states.  The pair operator
sum_i b*(f_i) c*(f_i), which `vacuum_norm` applies to Omega and the
decomposition to psi, and the witness's sum_i Psi*(f_i) Psi(f_i) read the
same table.  Every Wick term keeps the total charge n_p - n_a, so
`spectrum_deviation` solves the charge-sector blocks (at most 70 x 70 at
n = 8) instead of the full 2^n matrix, and adds the off-sector Frobenius
norm as a Weyl bound; one dense solve of the full matrix is the oracle in
the tests.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from . import fock
from .fock import ToyModel
from .involution import c_invariant_onb, gram_deviation

__all__ = [
    "SubspaceBasis",
    "random_subspace",
    "c_invariant_subspace",
    "aligned_subspace",
    "q_subspace",
    "vacuum_norm",
    "q_tilde",
    "q_total",
    "q_weighted",
    "q_basis_independence_check",
    "q_additivity_and_commutation",
    "predicted_spectrum",
    "cluster_eigenvalues",
    "spectrum_deviation",
    "eigenvector_witness",
    "state_from_creators",
    "sector_norm_decomposition",
    "DecompositionResult",
    "max_abs",
]

ONB_TOL = 1e-10
CLUSTER_GAP = 1e-6


def max_abs(M) -> float:
    """Largest absolute entry of a sparse or dense matrix; M is not changed.

    A CSR or CSC matrix is read through its stored values (explicit zeros
    cannot raise the maximum); other sparse formats are converted first.
    """
    if sparse.issparse(M):
        if M.format not in ("csr", "csc"):
            M = M.tocsr()
        return float(np.max(np.abs(M.data))) if M.data.size else 0.0
    return float(np.max(np.abs(M))) if np.asarray(M).size else 0.0


@dataclass
class SubspaceBasis:
    """Ordered ONB (columns) of a subspace of the one-particle space,
    together with the traces d+ = tr(P_k P+) and d- = tr(P_k P-)."""

    vectors: np.ndarray
    dplus: float
    dminus: float

    @classmethod
    def from_vectors(cls, model: ToyModel, vectors) -> "SubspaceBasis":
        V = np.asarray(vectors, dtype=complex)
        if V.ndim != 2 or V.shape[0] != model.n:
            raise ValueError(f"expected shape ({model.n}, d)")
        d = V.shape[1]
        if d and not gram_deviation(V) <= ONB_TOL:
            raise ValueError("basis is not orthonormal")
        dplus = float(np.real(np.einsum("ij,ik,kj->", V.conj(), model.p_plus, V)))
        return cls(vectors=V, dplus=dplus, dminus=d - dplus)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def random_subspace(model: ToyModel, d: int, rng) -> SubspaceBasis:
    """Random d-dimensional subspace (Haar frame via QR)."""
    A = rng.normal(size=(model.n, d)) + 1j * rng.normal(size=(model.n, d))
    Q, _ = np.linalg.qr(A)
    return SubspaceBasis.from_vectors(model, Q)


def c_invariant_subspace(model: ToyModel, d: int, rng) -> SubspaceBasis:
    """Subspace with C k = k, spanned by d vectors fixed by C."""
    F = c_invariant_onb(model.conj, random_subspace(model, model.n, rng).vectors)
    return SubspaceBasis.from_vectors(model, F[:, :d])


def aligned_subspace(model: ToyModel, take_plus: int, take_minus: int) -> SubspaceBasis:
    """Subspace k+ (+) k- aligned with the spectral split, with the basis
    vectors themselves lying in ran(P+) or ran(P-)."""
    cols = [model.basis_plus[:, :take_plus], model.basis_minus[:, :take_minus]]
    return SubspaceBasis.from_vectors(model, np.hstack(cols))


def q_subspace(model: ToyModel, basis: SubspaceBasis) -> sparse.csr_matrix:
    """Q_k = sum_j :Psi*(f_j) Psi(f_j): over the basis columns."""
    return q_weighted(model, basis, np.ones(basis.dim))


def _check_J(basis: SubspaceBasis, J: int) -> None:
    if not 0 <= J <= basis.dim:
        raise ValueError(f"J must lie in [0, {basis.dim}], got {J}")


def vacuum_norm(model: ToyModel, basis: SubspaceBasis, J: int):
    """|Q^J Omega|^2 by two routes, (fock, trace): the Fock route builds
    Q^J Omega = sum_{i<J} b*(f_i) c*(f_i) Omega on the toy Fock space, the
    trace route is tr(M) - tr(M^2) with M = F* P+ F, the exact toy M+ on the
    first J basis vectors F."""
    _check_J(basis, J)
    F = basis.vectors[:, :J]
    vec = _pair_operator(model, fock._ladder_rows(model, F)) @ fock.vacuum(model)
    M = F.conj().T @ model.p_plus @ F
    return (float(np.vdot(vec, vec).real),
            float((np.trace(M) - np.trace(M @ M)).real))


def _pair_operator(model: ToyModel, rows) -> sparse.csr_matrix:
    """sum_i b*(f_i) c*(f_i) on the class table, from the `fock._ladder_rows`
    stacks of the f_i: Q^J's part that raises both particle and antiparticle
    number by one."""
    bs, _, cs, _ = rows
    return fock._table_matrix(model.n, fock._class_sum(model.n, bs, cs))


def q_tilde(model: ToyModel, basis: SubspaceBasis) -> sparse.csr_matrix:
    """Number-operator variant sum_j (b*(f_j) b(f_j) - c*(f_j) c(f_j)).

    Each stored value equals, bit for bit, the one of the series of scipy
    products and adds; the indices are sorted in each row, where scipy's
    sums leave them in its own order."""
    bs, b, cs, c = fock._ladder_rows(model, basis.vectors)
    x = np.hstack([bs, cs]).reshape(-1, 2 * model.n)  # b*(f_j) b(f_j), then c*(f_j) c(f_j)
    y = np.hstack([b, c]).reshape(-1, 2 * model.n)
    signs = np.tile([1.0, -1.0], basis.dim)
    return fock._table_matrix(model.n, fock._class_sum(model.n, x, y, signs))


def q_total(model: ToyModel) -> sparse.csr_matrix:
    """Total charge N+ - N- from the union of an ONB of ran(P+) and one of
    ran(P-); eigenvalue on an (n, m) sector is n - m."""
    union = np.hstack([model.basis_plus, model.basis_minus])
    return q_tilde(model, SubspaceBasis.from_vectors(model, union))


def q_weighted(model: ToyModel, basis: SubspaceBasis, weights) -> sparse.csr_matrix:
    """Fuzzy-set charge sum_j m_j :Psi*(f_j) Psi(f_j): with m_j in [0, 1]."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (basis.dim,):
        raise ValueError("one weight per basis vector required")
    if not np.all((w >= 0) & (w <= 1)):  # also rejects NaN
        raise ValueError("weights must lie in [0, 1]")
    x, y, shift = fock._density_rows(model, basis.vectors)
    return fock._table_matrix(model.n, fock._class_sum(model.n, x, y, w, shift))


def q_basis_independence_check(model: ToyModel, basis: SubspaceBasis, unitaries) -> float:
    """Largest matrix deviation between Q built from (f_j) and from a rotated
    basis g_j = sum_i U_ij f_i, over the d x d unitaries U (at least one).

    One class sum covers (f_j) and every rotated basis: the densities of
    all their columns are reduced at once, and each basis's rows summed in
    j order as `q_subspace` sums them.  The deviation is the largest
    |v_U - v| over the class values, which equals `max_abs(Q - Q_U)` of
    the gathered matrices exactly: every class is a stored entry of G.G,
    a - 0 = a, and entries pruned as zero cannot raise a maximum."""
    rotated = [_rotated(model, basis, U).vectors for U in unitaries]
    if not rotated:
        raise ValueError("need at least one unitary")
    x, y, shift = fock._density_rows(model, np.hstack([basis.vectors, *rotated]))
    per_basis = (len(rotated) + 1, basis.dim)
    values = fock._class_sum(model.n, x.reshape(*per_basis, -1), y.reshape(*per_basis, -1),
                             shift=shift.reshape(per_basis))
    return float(np.max(np.abs(values[1:] - values[0])))


def _rotated(model: ToyModel, basis: SubspaceBasis, unitary) -> SubspaceBasis:
    U = np.asarray(unitary, dtype=complex)
    d = basis.dim
    if U.shape != (d, d) or not gram_deviation(U) <= 1e-12:  # also rejects NaN
        raise ValueError("need a d x d unitary")
    return SubspaceBasis.from_vectors(model, basis.vectors @ U)


def q_additivity_and_commutation(model: ToyModel, basis1: SubspaceBasis,
                                 basis2: SubspaceBasis, require_orthogonal=True):
    """Commutator and (for orthogonal subspaces) additivity deviations.

    With k1 _|_ k2 both [Q_k1, Q_k2] and Q_{k1 (+) k2} - Q_k1 - Q_k2 must
    vanish.  With overlapping subspaces k1 = A (+) B, k2 = A (+) C (A, B, C
    mutually orthogonal) only the commutator check applies; pass
    require_orthogonal=False and the additivity entry is None.
    """
    overlap = max_abs(basis1.vectors.conj().T @ basis2.vectors) if basis1.dim and basis2.dim else 0.0
    if require_orthogonal and overlap > 1e-10:
        raise ValueError(f"subspaces are not orthogonal (overlap {overlap:.2e})")
    Q1 = q_subspace(model, basis1)
    Q2 = q_subspace(model, basis2)
    commutator = max_abs(Q1 @ Q2 - Q2 @ Q1)
    additivity = None
    if require_orthogonal:
        joint = SubspaceBasis.from_vectors(
            model, np.hstack([basis1.vectors, basis2.vectors]))
        additivity = max_abs(q_subspace(model, joint) - Q1 - Q2)
    return {"commutator": commutator, "additivity": additivity}


def predicted_spectrum(basis: SubspaceBasis) -> np.ndarray:
    """The spectrum {-d^- + q : q = 0..d} of Q_k."""
    return -basis.dminus + np.arange(basis.dim + 1, dtype=float)


def cluster_eigenvalues(values) -> np.ndarray:
    """Collapse near-duplicate eigenvalues (means of CLUSTER_GAP-separated clusters)."""
    values = np.sort(np.asarray(values, dtype=float))
    if values.size == 0:
        return values
    splits = np.nonzero(np.diff(values) > CLUSTER_GAP)[0] + 1
    return np.array([c.mean() for c in np.split(values, splits)])


def spectrum_deviation(model: ToyModel, matrix, expected) -> float:
    """Hausdorff-style distance between the clustered spectrum of a Hermitian
    Fock-space matrix and an expected eigenvalue set.

    The spectrum is read off the diagonal blocks of the charge sectors
    n_p - n_a (`_sector_spectrum`), which every toy charge keeps.  The
    Frobenius norm of the off-sector part is added to the distance: by
    Weyl's inequality it bounds how far the blocks' spectrum can lie from
    the full one, so a matrix that mixes sectors cannot pass on its blocks
    alone.  For the toy charges that part is stored as no entry at all and
    adds exactly 0.0.  A clustered spectrum with a different number of
    values than `expected` is infinitely far off.
    """
    eigenvalues, off_sector = _sector_spectrum(model, matrix)
    got = cluster_eigenvalues(eigenvalues)
    expected = np.sort(np.asarray(expected, dtype=float))
    if got.size != expected.size:
        return float("inf")
    return float(np.max(np.abs(got - expected))) + off_sector


def _sector_spectrum(model: ToyModel, matrix):
    """(eigenvalues of the n_p - n_a diagonal blocks, sector by sector,
    Frobenius norm of the part outside them) of a (2^n, 2^n) Hermitian
    matrix."""
    dense = matrix.toarray() if sparse.issparse(matrix) else np.asarray(matrix)
    if dense.shape != (model.fock_dim, model.fock_dim):
        raise ValueError(f"expected a ({model.fock_dim}, {model.fock_dim}) matrix, "
                         f"got {dense.shape}")
    blocks, off_sector_idx = _sector_index(model.n, model.d_plus)
    eigenvalues = np.concatenate([np.linalg.eigvalsh(dense[np.ix_(idx, idx)])
                                  for idx in blocks])
    off_sector = float(np.linalg.norm(dense.ravel()[off_sector_idx]))
    return eigenvalues, off_sector


@lru_cache(maxsize=16)
def _sector_index(nmodes: int, d_plus: int):
    """``(blocks, off_sector)``, read-only: the basis states of each charge
    sector n_p - n_a in ascending charge, and the flat (row-major) indices
    of the (2^n, 2^n) entries between two different sectors.  The first d+
    modes are the particle modes (`fock.sector_labels`)."""
    occ = fock._jw_terms(nmodes)[0]
    q = occ[:, :d_plus].sum(axis=1, dtype=np.int64) - occ[:, d_plus:].sum(axis=1, dtype=np.int64)
    blocks = fock._read_only(*(np.flatnonzero(q == c) for c in np.unique(q)))
    off_sector, = fock._read_only(np.flatnonzero(q[:, None] != q[None, :]))
    return blocks, off_sector


def eigenvector_witness(model: ToyModel, basis: SubspaceBasis, j: int):
    """The explicit eigenvector
    phi_j = Psi(f_d) ... Psi(f_{j+1}) Psi*(f_j) ... Psi*(f_1) Omega
    of sum_i Psi*(f_i) Psi(f_i) with eigenvalue j; returns (phi_j, residual)
    with residual = |(sum_i P_i) phi - j phi| / |phi|."""
    d = basis.dim
    if not 0 <= j <= d:
        raise ValueError(f"j must lie in [0, {d}]")
    phi = fock.vacuum(model)
    for i in range(j):  # Psi*(f_j) ... Psi*(f_1), rightmost first
        phi = fock.field_adjoint(model, basis.vectors[:, i]) @ phi
    for i in range(j, d):
        phi = fock.field_op(model, basis.vectors[:, i]) @ phi
    nrm = np.linalg.norm(phi)
    if nrm < 1e-9:
        raise ValueError("witness vector degenerated to zero for this basis")
    bs, b, cs, c = fock._ladder_rows(model, basis.vectors)
    Q = fock._table_matrix(model.n, fock._class_sum(model.n, bs + c, b + cs))
    residual = np.linalg.norm(Q @ phi - j * phi) / nrm
    return phi, float(residual)


def state_from_creators(model: ToyModel, particles, antiparticles) -> np.ndarray:
    """b*(g_1) ... b*(g_n0) c*(h_1) ... c*(h_m0) Omega."""
    psi = fock.vacuum(model)
    for h in reversed(list(antiparticles)):
        psi = fock.creator_c(model, h) @ psi
    for g in reversed(list(particles)):
        psi = fock.creator_b(model, g) @ psi
    return psi


@dataclass(frozen=True)
class DecompositionResult:
    sector_norm: float
    sums_direct: tuple
    sums_kernel: tuple
    residual_direct: float
    residual_kernel: float
    route_deviation: float


def _gram(model: ToyModel, states) -> np.ndarray:
    """[a, b] = <x_a, x_b> over a list of Fock states x_a (which may be empty)."""
    X = np.reshape(states, (len(states), model.fock_dim))
    return X.conj() @ X.T


def sector_norm_decomposition(model: ToyModel, basis: SubspaceBasis, J: int,
                              particles, antiparticles) -> DecompositionResult:
    """Four-sum decomposition of the top-sector norm of Q^J psi.

    For psi = b*(g_1)..b*(g_n0) c*(h_1)..c*(h_m0) Omega with top sector
    (n0, m0), the (n0+1, m0+1) sector of Q^J psi is sum_i b*(f_i) c*(f_i) psi
    and its squared norm decomposes, via the anticommutation relations, into

        sum1 - sum2 - sum3 + sum4

    where sum1 = |Q^J Omega|^2 |psi|^2 and the correction sums contract the
    one-particle kernels P-+ P_A P+- P_A P-+ (P_A the projector onto the
    first J basis vectors) against overlaps of states with one creator
    removed.  Every sum is evaluated both directly on the Fock space and
    through the kernels, each correction sum as one contraction of a Gram
    matrix of stacked states; the reported residuals compare the sector
    norm against the combination from either route.
    """
    _check_J(basis, J)
    particles, antiparticles = list(particles), list(antiparticles)
    n0, m0 = len(particles), len(antiparticles)
    psi0 = state_from_creators(model, particles, antiparticles)
    norm2 = float(np.vdot(psi0, psi0).real)
    if norm2 < 1e-24:
        raise ValueError("state built from the creators vanishes")

    F = basis.vectors[:, :J]
    fock_norm, trace_norm = vacuum_norm(model, basis, J)

    # ---- direct route (Fock matrices) -------------------------------------
    rows = fock._ladder_rows(model, F)
    w = _pair_operator(model, rows) @ psi0
    sector_norm = float(np.vdot(w, w).real)
    b_psi = [fock._jw_operator(model, row) @ psi0 for row in rows[1]]
    c_ops = [fock._jw_operator(model, row) for row in rows[3]]
    c_psi = [c @ psi0 for c in c_ops]
    cb_psi = [c @ x for c, x in zip(c_ops, b_psi)]
    Mp_f = F.conj().T @ model.p_plus @ F  # toy M+ restricted to the first J vectors
    Mm_f = F.conj().T @ model.p_minus @ F
    sums_direct = tuple(np.real([fock_norm * norm2,
                                 np.sum(Mp_f.T * _gram(model, c_psi)),
                                 np.sum(Mm_f * _gram(model, b_psi)),
                                 np.sum(_gram(model, cb_psi))]).tolist())

    # ---- kernel route ------------------------------------------------------
    # the creators as columns, the k-th times (-1)^k, the sign of removing it
    G = np.reshape(particles, (n0, model.n)).T * (-1.0) ** np.arange(n0)
    H = np.reshape(antiparticles, (m0, model.n)).T * (-1.0) ** np.arange(m0)
    P_A = F @ F.conj().T
    K_pm = model.p_plus @ P_A @ model.p_minus  # K- = K_pm* K_pm, K+ = K_pm K_pm*
    KH, KG = K_pm @ H, K_pm.conj().T @ G
    z = (G.conj().T @ KH).ravel()

    without_g = [particles[:u] + particles[u + 1:] for u in range(n0)]
    without_h = [antiparticles[:k] + antiparticles[k + 1:] for k in range(m0)]
    phi_c = [state_from_creators(model, particles, hs) for hs in without_h]
    phi_b = [state_from_creators(model, gs, antiparticles) for gs in without_g]
    phi_bc = [state_from_creators(model, gs, hs) for gs in without_g for hs in without_h]
    sums_kernel = tuple(np.real([trace_norm * norm2,
                                 np.sum((KH.conj().T @ KH) * _gram(model, phi_c).T),
                                 np.sum((KG.conj().T @ KG) * _gram(model, phi_b)),
                                 z @ _gram(model, phi_bc) @ z.conj()]).tolist())

    def residual(sums):
        s1, s2, s3, s4 = sums
        return abs(sector_norm - (s1 - s2 - s3 + s4))

    return DecompositionResult(sector_norm, sums_direct, sums_kernel,
                               residual(sums_direct), residual(sums_kernel),
                               max(abs(a - b) for a, b in zip(sums_direct, sums_kernel)))
