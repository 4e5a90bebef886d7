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
        U = U.tocsr().astype(complex) if sparse.issparse(U) else np.asarray(U, dtype=complex)
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise ValueError(f"U must be square, got shape {U.shape}")
        n = U.shape[0]
        eye = sparse.identity(n, dtype=complex, format="csr") if sparse.issparse(U) else np.eye(n)
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


def make_involution(U) -> AntiUnitary:
    """Validate U and wrap it as an anti-unitary involution."""
    return AntiUnitary(U)


def _classify(g, cg) -> str:
    """Trichotomy for a nonzero vector g, given cg = Cg: Cg parallel to g,
    orthogonal to g, or neither (generic)."""
    norm2 = np.vdot(g, g).real
    if norm2 == 0.0:
        raise ValueError("cannot classify the zero vector")
    overlap = np.vdot(g, cg)
    if _norm(cg - (overlap / norm2) * g) < CLASSIFY_TOL * np.sqrt(norm2):
        return PARALLEL
    if abs(overlap) < CLASSIFY_TOL * norm2:
        return ORTHOGONAL
    return GENERIC


def _norm(v):
    """Euclidean norm of a complex vector, by numpy's own formula for one:
    `np.linalg.norm(v)` bit for bit, without its dispatch."""
    return np.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


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
        if not gram_deviation(seeds) <= 1e-10:  # also rejects NaN
            raise ValueError("seed basis is not orthonormal")

    out = np.zeros((n, n), dtype=complex, order="F")
    out_h = np.zeros((n, n), dtype=complex)  # row k: the conjugate of column k of out
    count = 0

    def emit(vec):
        nonlocal count
        vec = 0.5 * (vec + C.apply(vec))  # exact projection onto {Cv = v}
        # C-fixed vectors have real mutual inner products, so real
        # coefficients suffice and cannot leave the C-fixed subspace
        P, PH = out[:, :count], out_h[:count]
        for _ in range(2):
            if count:
                vec = vec - P @ (PH @ vec).real
        out[:, count] = vec / _norm(vec)
        np.conjugate(out[:, count], out=out_h[count])
        count += 1

    for j in range(n):
        g = seeds[:, j].copy()
        P, PH = out[:, :count], out_h[:count]
        for _ in range(2):
            if count:
                g -= P @ (PH @ g)
        nrm = _norm(g)
        if nrm >= RANK_TOL:  # otherwise the seed already sits in the span
            g /= nrm
            cg = C.apply(g)
            kind = _classify(g, cg)
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
                emit(u / _norm(u))
                emit(v / _norm(v))
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
