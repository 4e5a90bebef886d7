"""Charge operators on the toy Fock space.

Builds the weighted (fuzzy-set) charge sum_j m_j :Psi*(f_j) Psi(f_j): for
an ONB (f_j) of a subspace k; the subspace charge Q_k (all m_j = 1) and its
truncations Q^J (m_j = 1 for j < J, else 0) are its special cases, so
`q_weighted` is the one Wick-sum loop.  Also the number-operator variant
Q~ = sum_j (b*(f_j) b(f_j) - c*(f_j) c(f_j)), the total charge, the toy
vacuum norm |Q^J Omega|^2 by a Fock route and a trace route
(`vacuum_norm`), the spectral / additivity / commutation checks and the
four-sum decomposition of the truncated-charge sector norm.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import fock
from .fock import ToyModel
from .involution import c_invariant_onb

__all__ = [
    "SubspaceBasis",
    "random_subspace",
    "c_invariant_subspace",
    "aligned_subspace",
    "q_subspace",
    "truncated_q",
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
        if d and not np.max(np.abs(V.conj().T @ V - np.eye(d))) <= ONB_TOL:
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
    A = rng.normal(size=(model.n, model.n)) + 1j * rng.normal(size=(model.n, model.n))
    Q, _ = np.linalg.qr(A)
    F = c_invariant_onb(model.conj, Q)
    return SubspaceBasis.from_vectors(model, F[:, :d])


def aligned_subspace(model: ToyModel, take_plus: int, take_minus: int) -> SubspaceBasis:
    """Subspace k+ (+) k- aligned with the spectral split, with the basis
    vectors themselves lying in ran(P+) or ran(P-)."""
    cols = [model.basis_plus[:, :take_plus], model.basis_minus[:, :take_minus]]
    return SubspaceBasis.from_vectors(model, np.hstack(cols))


def q_subspace(model: ToyModel, basis: SubspaceBasis) -> sparse.csr_matrix:
    """Q_k = sum_j :Psi*(f_j) Psi(f_j): over the basis columns."""
    return q_weighted(model, basis, np.ones(basis.dim))


def truncated_q(model: ToyModel, basis: SubspaceBasis, J: int) -> sparse.csr_matrix:
    """Partial sum of the first J terms of the charge series."""
    _check_J(basis, J)
    return q_weighted(model, basis, np.arange(basis.dim) < J)


def _check_J(basis: SubspaceBasis, J: int) -> None:
    if not 0 <= J <= basis.dim:
        raise ValueError(f"J must lie in [0, {basis.dim}], got {J}")


def vacuum_norm(model: ToyModel, basis: SubspaceBasis, J: int):
    """|Q^J Omega|^2 by two routes, (fock, trace): the Fock route builds
    Q^J Omega = sum_{i<J} b*(f_i) c*(f_i) Omega on the toy Fock space, the
    trace route is tr(M) - tr(M^2) with M = F* P+ F, the exact toy M+ on the
    first J basis vectors F."""
    _check_J(basis, J)
    omega = fock.vacuum(model)
    F = basis.vectors[:, :J]
    vec = np.sum([(fock.creator_b(model, f) @ fock.creator_c(model, f)) @ omega
                  for f in F.T], axis=0) if J else np.zeros_like(omega)
    M = F.conj().T @ model.p_plus @ F
    return (float(np.vdot(vec, vec).real),
            float((np.trace(M) - np.trace(M @ M)).real))


def q_tilde(model: ToyModel, basis: SubspaceBasis) -> sparse.csr_matrix:
    """Number-operator variant sum_j (b*(f_j) b(f_j) - c*(f_j) c(f_j))."""
    out = sparse.csr_matrix((model.fock_dim, model.fock_dim), dtype=complex)
    for j in range(basis.dim):
        f = basis.vectors[:, j]
        bs = fock.creator_b(model, f)
        cs = fock.creator_c(model, f)
        out = out + bs @ bs.conj().T - cs @ cs.conj().T
    return out.tocsr()


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
    out = sparse.csr_matrix((model.fock_dim, model.fock_dim), dtype=complex)
    for j in range(basis.dim):
        if w[j]:  # a unit weight adds the density itself, with no scaled copy
            D = fock.normal_ordered_density(model, basis.vectors[:, j])
            out = out + (D if w[j] == 1 else w[j] * D)
    return out.tocsr()


def q_basis_independence_check(model: ToyModel, basis: SubspaceBasis, unitary) -> float:
    """Max matrix deviation between Q built from (f_j) and from the rotated
    basis g_j = sum_i U_ij f_i."""
    U = np.asarray(unitary, dtype=complex)
    d = basis.dim
    if U.shape != (d, d) or np.max(np.abs(U.conj().T @ U - np.eye(d))) > 1e-12:
        raise ValueError("need a d x d unitary")
    rotated = SubspaceBasis.from_vectors(model, basis.vectors @ U)
    return max_abs(q_subspace(model, basis) - q_subspace(model, rotated))


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


def cluster_eigenvalues(values, gap: float = CLUSTER_GAP) -> np.ndarray:
    """Collapse near-duplicate eigenvalues (means of gap-separated clusters)."""
    values = np.sort(np.asarray(values, dtype=float))
    if values.size == 0:
        return values
    splits = np.nonzero(np.diff(values) > gap)[0] + 1
    return np.array([c.mean() for c in np.split(values, splits)])


def spectrum_deviation(matrix, expected) -> float:
    """Hausdorff-style distance between the clustered spectrum of a Hermitian
    matrix and an expected eigenvalue set."""
    dense = matrix.toarray() if sparse.issparse(matrix) else np.asarray(matrix)
    got = cluster_eigenvalues(np.linalg.eigvalsh(dense))
    expected = np.sort(np.asarray(expected, dtype=float))
    if got.size != expected.size:
        return float("inf")
    return float(np.max(np.abs(got - expected)))


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
    total = sparse.csr_matrix((model.fock_dim, model.fock_dim), dtype=complex)
    for i in range(d):
        psi = fock.field_op(model, basis.vectors[:, i])
        total = total + psi.conj().T @ psi
    residual = np.linalg.norm(total @ phi - j * phi) / nrm
    return phi, float(residual)


def state_from_creators(model: ToyModel, particles, antiparticles) -> np.ndarray:
    """b*(g_1) ... b*(g_n0) c*(h_1) ... c*(h_m0) Omega."""
    psi = fock.vacuum(model)
    for h in reversed(list(antiparticles)):
        psi = fock.creator_c(model, h) @ psi
    for g in reversed(list(particles)):
        psi = fock.creator_b(model, g) @ psi
    return psi


@dataclass
class DecompositionResult:
    sector_norm: float
    sums_direct: tuple
    sums_kernel: tuple
    residual_direct: float
    residual_kernel: float
    route_deviation: float

    def combination(self, sums) -> float:
        s1, s2, s3, s4 = sums
        return s1 - s2 - s3 + s4


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
    through the kernels; the reported residuals compare the sector norm
    against the combination from either route.
    """
    particles = [np.asarray(g, dtype=complex) for g in particles]
    antiparticles = [np.asarray(h, dtype=complex) for h in antiparticles]
    n0, m0 = len(particles), len(antiparticles)
    psi0 = state_from_creators(model, particles, antiparticles)
    norm2 = float(np.vdot(psi0, psi0).real)
    if norm2 < 1e-24:
        raise ValueError("state built from the creators vanishes")

    F = basis.vectors[:, :J]
    P_A = F @ F.conj().T
    Pp, Pm = model.p_plus, model.p_minus

    # ---- direct route (Fock matrices) -------------------------------------
    b_ops = [fock.annihilator_b(model, basis.vectors[:, i]) for i in range(J)]
    c_ops = [fock.annihilator_c(model, basis.vectors[:, i]) for i in range(J)]
    bc_psi = [b_ops[i].conj().T @ (c_ops[i].conj().T @ psi0) for i in range(J)]
    w = np.sum(bc_psi, axis=0) if J else np.zeros_like(psi0)
    sector_norm = float(np.vdot(w, w).real)

    Mp_f = F.conj().T @ Pp @ F  # toy M+ restricted to the first J vectors
    Mm_f = F.conj().T @ Pm @ F
    fock_norm, trace_norm = vacuum_norm(model, basis, J)
    s1_direct, s1_kernel = fock_norm * norm2, trace_norm * norm2

    c_psi = [c_ops[i] @ psi0 for i in range(J)]
    b_psi = [b_ops[i] @ psi0 for i in range(J)]
    cb_psi = [c_ops[i] @ b_psi[i] for i in range(J)]
    s2_direct = 0.0 + 0.0j
    s3_direct = 0.0 + 0.0j
    s4_direct = 0.0 + 0.0j
    for i in range(J):
        for j in range(J):
            s2_direct += Mp_f[i, j] * np.vdot(c_psi[j], c_psi[i])
            s3_direct += Mm_f[j, i] * np.vdot(b_psi[j], b_psi[i])
            s4_direct += np.vdot(cb_psi[j], cb_psi[i])

    # ---- kernel route ------------------------------------------------------
    K_minus = Pm @ P_A @ Pp @ P_A @ Pm
    K_plus = Pp @ P_A @ Pm @ P_A @ Pp
    K_pm = Pp @ P_A @ Pm  # and its adjoint Pm P_A Pp

    phi_c = [state_from_creators(model, particles,
                                 antiparticles[:k] + antiparticles[k + 1:])
             for k in range(m0)]
    phi_b = [state_from_creators(model, particles[:u] + particles[u + 1:],
                                 antiparticles)
             for u in range(n0)]
    phi_bc = [[state_from_creators(model, particles[:u] + particles[u + 1:],
                                   antiparticles[:k] + antiparticles[k + 1:])
               for k in range(m0)] for u in range(n0)]

    s2_kernel = 0.0 + 0.0j
    for k in range(m0):
        for l in range(m0):
            kern = np.vdot(antiparticles[k], K_minus @ antiparticles[l])
            s2_kernel += (-1) ** (k + l) * kern * np.vdot(phi_c[l], phi_c[k])

    s3_kernel = 0.0 + 0.0j
    for u in range(n0):
        for v in range(n0):
            kern = np.vdot(particles[v], K_plus @ particles[u])
            s3_kernel += (-1) ** (u + v) * kern * np.vdot(phi_b[v], phi_b[u])

    s4_kernel = 0.0 + 0.0j
    for u in range(n0):
        for k in range(m0):
            for v in range(n0):
                for l in range(m0):
                    kern = (np.vdot(particles[v], K_pm @ antiparticles[l])
                            * np.vdot(antiparticles[k], K_pm.conj().T @ particles[u]))
                    s4_kernel += ((-1) ** (u + v + k + l) * kern
                                  * np.vdot(phi_bc[v][l], phi_bc[u][k]))

    sums_direct = tuple(float(np.real(s)) for s in (s1_direct, s2_direct, s3_direct, s4_direct))
    sums_kernel = tuple(float(np.real(s)) for s in (s1_kernel, s2_kernel, s3_kernel, s4_kernel))
    res = DecompositionResult(
        sector_norm=sector_norm,
        sums_direct=sums_direct,
        sums_kernel=sums_kernel,
        residual_direct=0.0,
        residual_kernel=0.0,
        route_deviation=float(max(abs(a - b) for a, b in zip(sums_direct, sums_kernel))),
    )
    res.residual_direct = abs(sector_norm - res.combination(sums_direct))
    res.residual_kernel = abs(sector_norm - res.combination(sums_kernel))
    return res

