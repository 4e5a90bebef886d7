"""Anti-unitary involutions on finite-dimensional complex spaces and the
construction of orthonormal bases fixed pointwise by them.

An anti-unitary involution C acts as v -> U conj(v) with U unitary and
U conj(U) = I.  On a basis (f_j) with C f_j = f_j the action of C is plain
complex conjugation of coefficients, which is the normal form used by the
charge-conjugation arguments downstream.  U may be dense or sparse; the
shell-level conjugation is a signed permutation and profits from sparsity.
"""

import numpy as np
from scipy import sparse

__all__ = [
    "AntiUnitary",
    "make_involution",
    "classify",
    "PARALLEL",
    "ORTHOGONAL",
    "GENERIC",
    "c_invariant_onb",
    "c_fixed_deviation",
    "gram_deviation",
]

UNITARITY_TOL = 1e-12
CLASSIFY_TOL = 1e-10  # loose on purpose: every branch is numerically stable
RANK_TOL = 1e-8

PARALLEL = "parallel"
ORTHOGONAL = "orthogonal"
GENERIC = "generic"


class AntiUnitary:
    """Anti-unitary involution v -> U conj(v) on C^dim."""

    def __init__(self, U):
        if sparse.issparse(U):
            U = U.tocsr().astype(complex)
            n = U.shape[0]
            eye = sparse.identity(n, dtype=complex, format="csr")
        else:
            U = np.asarray(U, dtype=complex)
            n = U.shape[0]
            eye = np.eye(n)
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise ValueError(f"U must be square, got shape {U.shape}")
        # `not <` so that NaN deviations are rejected too
        if not abs(U.conj().T @ U - eye).max() < UNITARITY_TOL:
            raise ValueError("U is not unitary")
        if not abs(U @ U.conj() - eye).max() < UNITARITY_TOL:
            raise ValueError("U conj(U) != I: the map is not an involution")
        self.U = U
        self.dim = n

    def apply(self, v):
        """C v = U conj(v); also applies columnwise to a matrix of vectors."""
        return self.U @ np.conj(v)

    def __call__(self, v):
        return self.apply(v)


def make_involution(U) -> AntiUnitary:
    """Validate U and wrap it as an anti-unitary involution."""
    return AntiUnitary(U)


def classify(g, C: AntiUnitary, tol: float = CLASSIFY_TOL) -> str:
    """Trichotomy for a nonzero vector g: Cg parallel to g, orthogonal to g,
    or neither (generic)."""
    g = np.asarray(g, dtype=complex)
    norm2 = np.vdot(g, g).real
    if norm2 == 0.0:
        raise ValueError("cannot classify the zero vector")
    cg = C.apply(g)
    overlap = np.vdot(g, cg)
    if np.linalg.norm(cg - (overlap / norm2) * g) < tol * np.sqrt(norm2):
        return PARALLEL
    if abs(overlap) < tol * norm2:
        return ORTHOGONAL
    return GENERIC


def c_invariant_onb(C: AntiUnitary, seed_basis=None) -> np.ndarray:
    """Orthonormal basis (columns) with C f_j = f_j for every j.

    Walks the seed basis (default: standard basis) in order; each seed vector
    is orthogonalized against the span built so far and then converted into
    one or two C-fixed vectors by the parallel / orthogonal / generic branch:

    * parallel, Cg = e^{i theta} g:  f = e^{i theta/2} g
    * orthogonal, Cg _|_ g:          f1 = (g + Cg)/sqrt(2), f2 = i(g - Cg)/sqrt(2)
    * generic, alpha^2 = <g, Cg>:    u = alpha g + alpha* Cg,
                                     v = i alpha g - i alpha* Cg, normalized

    Output vectors are appended in seed order, so the result is deterministic
    and the span after consuming any C-invariant prefix of the seeds equals
    the span of that prefix.

    Orthogonalization is classical Gram-Schmidt, applied twice, against all
    vectors emitted so far: O(n^3) and meant for the toy-scale spaces.  The
    shell conjugation is a signed permutation, whose invariant basis
    `divergence.c_invariant_transform` writes down in closed form.
    """
    n = C.dim
    if seed_basis is None:
        seeds = np.eye(n, dtype=complex)
    else:
        seeds = np.asarray(seed_basis, dtype=complex)
        if seeds.shape != (n, n):
            raise ValueError(f"seed basis must be {n}x{n}, got {seeds.shape}")
        if abs(seeds.conj().T @ seeds - np.eye(n)).max() > 1e-10:
            raise ValueError("seed basis is not orthonormal")

    out = np.zeros((n, n), dtype=complex, order="F")
    count = 0

    def emit(vec):
        nonlocal count
        vec = 0.5 * (vec + C.apply(vec))  # exact projection onto {Cv = v}
        # C-fixed vectors have real mutual inner products, so real
        # coefficients suffice and cannot leave the C-fixed subspace
        P = out[:, :count]
        for _ in range(2):
            if P.shape[1]:
                vec = vec - P @ (P.conj().T @ vec).real
        out[:, count] = vec / np.linalg.norm(vec)
        count += 1

    for j in range(n):
        g = seeds[:, j].copy()
        P = out[:, :count]
        for _ in range(2):
            if P.shape[1]:
                g -= P @ (P.conj().T @ g)
        nrm = np.linalg.norm(g)
        if nrm >= RANK_TOL:  # otherwise the seed already sits in the span
            g /= nrm
            cg = C.apply(g)
            kind = classify(g, C)
            if kind == PARALLEL:
                theta = np.angle(np.vdot(g, cg))
                emit(np.exp(0.5j * theta) * g)
            elif kind == ORTHOGONAL:
                emit((g + cg) / np.sqrt(2.0))
                emit(1j * (g - cg) / np.sqrt(2.0))
            else:
                alpha = np.sqrt(complex(np.vdot(g, cg)))
                u = alpha * g + np.conj(alpha) * cg
                v = 1j * alpha * g - 1j * np.conj(alpha) * cg
                emit(u / np.linalg.norm(u))
                emit(v / np.linalg.norm(v))
        if count == n:
            break

    if count != n:
        raise RuntimeError(f"basis construction produced {count} of {n} vectors")
    return np.ascontiguousarray(out)


def c_fixed_deviation(C: AntiUnitary, basis: np.ndarray) -> float:
    """max_j || C f_j - f_j || over the columns of `basis`."""
    return float(np.max(np.linalg.norm(C.apply(basis) - basis, axis=0)))


def gram_deviation(basis: np.ndarray) -> float:
    """Max-entry deviation of the Gram matrix of the columns from identity."""
    g = basis.conj().T @ basis
    return float(np.max(np.abs(g - np.eye(basis.shape[1]))))
