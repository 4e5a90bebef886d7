"""Exact finite-mode fermionic Fock space over a toy one-particle space.

The one-particle space is C^n with an orthogonal projector P+ (the analog of
the positive spectral subspace) and an anti-unitary involution C exchanging
ran(P+) and ran(P-).  The Fock space is the fermionic Fock space over
ran(P+) (+) C ran(P-), realized concretely on C^(2^n) with occupation-number
basis states: particle modes occupy the leading positions of the mode list,
antiparticle modes follow.  With that ordering the Jordan-Wigner sign string
of an antiparticle creator crosses the whole particle block, which is exactly
the (-1)^n factor in the antiparticle creation operator.

All operators are returned as scipy CSR matrices, for the mode counts
(n <= 12) this module is meant for.  Each builder is one gather and one CSR
constructor call: the sparsity pattern of sum_k x_k a*_k + sum_l y_l a_l
(row pointers, column indices, which coefficient each stored entry takes and
its Jordan-Wigner sign) is cached per mode count and mode sets, and the
field operators use one merged pattern for their two disjoint blocks.  The
Wick-ordered density :Psi*(f) Psi(f): is a gather on one cached union
pattern too: every stored entry of Psi* Psi - shift I lists the pairs of
field-pattern entries that feed it, in the order scipy's sparse product
adds them, so the values come out bit for bit as by that product.  The
cached arrays are read-only.  The Kronecker-product, sum-of-adds builders
and the sparse-product density are kept in the tests as the exact oracles.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import sparse

from .involution import AntiUnitary

__all__ = [
    "ToyModel",
    "random_model",
    "vacuum",
    "creator_b",
    "annihilator_b",
    "creator_c",
    "annihilator_c",
    "field_op",
    "field_adjoint",
    "normal_ordered_density",
    "sector_labels",
    "sector_mask",
]


@lru_cache(maxsize=64)
def _jw_pattern(nmodes: int, raised: tuple, lowered: tuple):
    """CSR structure of sum_i x_i a*_{raised[i]} + sum_j y_j a_{lowered[j]}.

    Mode 0 is the most significant bit of a basis index.  The Jordan-Wigner
    string sits on the modes *before* the target mode, so raising or lowering
    mode k picks up the parity of the occupation of modes 0..k-1.  Distinct
    (mode, direction) terms never share a stored entry, so the operator is a
    gather: stored entry e holds ``coeffs[pos[e]] * sign[e]`` with ``coeffs``
    the concatenation (x, y).  Returns ``(indptr, indices, pos, sign)`` with
    the indices sorted within each row.
    """
    dim = 2 ** nmodes
    states = np.arange(dim, dtype=np.int64)
    rows, cols, pos, sign = [], [], [], []
    terms = [(k, True) for k in raised] + [(k, False) for k in lowered]
    for p, (k, raise_) in enumerate(terms):
        bit = 1 << (nmodes - 1 - k)
        src = states[((states & bit) == 0) == raise_]
        parity = np.zeros(src.size, dtype=np.int64)
        for j in range(k):
            parity ^= (src >> (nmodes - 1 - j)) & 1
        rows.append(src ^ bit)
        cols.append(src)
        pos.append(np.full(src.size, p, dtype=np.intp))
        sign.append(1.0 - 2.0 * parity)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.lexsort((cols, rows))
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=dim), out=indptr[1:])
    return _read_only(indptr, cols[order].astype(np.int32),
                      np.concatenate(pos)[order], np.concatenate(sign)[order])


def _read_only(*arrays) -> tuple:
    """The arrays, marked non-writeable: a cached pattern is shared by every
    later operator of its mode count, so an in-place write must fail."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=64)
def _density_pattern(nmodes: int, raised: tuple, lowered: tuple):
    """CSR structure of Psi* Psi - shift I for Psi with the `_jw_pattern`
    of (nmodes, raised, lowered), and how each stored entry is summed.

    Entry (r, c) of Psi* Psi is sum_k Psi[k, c] conj(Psi[k, r]) over the
    states k whose field-pattern row holds both columns; scipy's sparse
    product adds these products in ascending k.  The pairs of field-pattern
    entries (a at (k, c), b at (k, r)) are sorted into layers by their rank
    in that order, so layer t holds the t-th term of every entry that has
    one, and each layer is one vectorised update.  Every diagonal entry is
    stored, for the shift.  Returns ``(indptr, indices, diag, a, b, sel,
    bounds)``: pair i feeds stored entry ``sel[i]``, and layer t is the pair
    slice ``bounds[t]:bounds[t + 1]``.
    """
    dim = 2 ** nmodes
    indptr, indices = _jw_pattern(nmodes, raised, lowered)[:2]
    k = np.repeat(np.arange(dim), np.diff(indptr))   # row of each field entry
    per = np.diff(indptr)[k]                         # entries in that row
    a = np.repeat(np.arange(k.size), per)            # entry (k, c), once per entry of row k
    b = np.repeat(indptr[k] - (np.cumsum(per) - per), per) + np.arange(a.size)  # entry (k, r)
    keys = indices[b].astype(np.int64) * dim + indices[a]
    diag_keys = np.arange(dim) * (dim + 1)
    stored = np.union1d(keys, diag_keys)             # sorted: CSR order
    sel = np.searchsorted(stored, keys)
    order = np.lexsort((k[a], sel))                  # by entry, then ascending k
    sel, a, b = sel[order], a[order], b[order]
    rank = np.arange(sel.size) - np.searchsorted(sel, sel)
    layered = np.argsort(rank, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(rank))])
    out_ptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(np.bincount(stored // dim, minlength=dim), out=out_ptr[1:])
    return _read_only(out_ptr, (stored % dim).astype(np.int32),
                      np.searchsorted(stored, diag_keys),
                      a[layered], b[layered], sel[layered], bounds)


@dataclass
class ToyModel:
    """Finite-dimensional stand-in for the split one-particle space.

    Fields
    ------
    n : total one-particle modes
    p_plus : n x n orthogonal projector onto the "positive" subspace
    conj : anti-unitary involution C with C P- C = P+
    basis_plus : ONB of ran(P+), the particle modes (columns)
    basis_antip : ONB of ran(C P-), the antiparticle modes (columns)
    """

    n: int
    p_plus: np.ndarray
    conj: AntiUnitary
    basis_plus: np.ndarray
    basis_antip: np.ndarray
    basis_minus: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        P = self.p_plus
        if np.max(np.abs(P @ P - P)) > 1e-10 or np.max(np.abs(P - P.conj().T)) > 1e-10:
            raise ValueError("p_plus is not an orthogonal projector")
        Pm = self.p_minus
        # C P- C = P+ as anti-linear conjugation: U conj(P-) conj(U) = P+
        U = self.conj.U
        dev = np.max(np.abs(U @ np.conj(Pm) @ np.conj(U) - P))
        if dev > 1e-10:
            raise ValueError(f"C does not exchange the subspaces (dev {dev:.2e})")
        self.d_plus = self.basis_plus.shape[1]
        self.d_minus = self.basis_antip.shape[1]
        if self.d_plus + self.d_minus != self.n:
            raise ValueError("mode count mismatch")
        self.fock_dim = 2 ** self.n

    @property
    def p_minus(self) -> np.ndarray:
        return np.eye(self.n) - self.p_plus


def random_model(n: int, rng) -> ToyModel:
    """Random toy model with dim ran(P+) = dim ran(P-) = n/2.

    P+ and C are generated together: a Haar-ish unitary V = [V+ V-] fixes the
    two subspaces and a random real orthogonal O pairs them, C(V- x) =
    V+ O conj(x).  This guarantees C P- C = P+ by construction.
    """
    if n % 2 != 0 or n < 2:
        raise ValueError("n must be even and >= 2")
    d = n // 2
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    V, R = np.linalg.qr(A)
    V = V * (np.diagonal(R) / np.abs(np.diagonal(R)))  # fix phases
    Vp, Vm = V[:, :d], V[:, d:]
    O, r = np.linalg.qr(rng.normal(size=(d, d)))
    O = O * np.sign(np.diagonal(r))
    U = Vm @ O.T @ Vp.T + Vp @ O @ Vm.T
    return ToyModel(
        n=n,
        p_plus=Vp @ Vp.conj().T,
        conj=AntiUnitary(U),
        basis_plus=Vp,
        basis_antip=Vp @ O,
        basis_minus=Vm,
    )


def vacuum(model: ToyModel) -> np.ndarray:
    """The vacuum vector: amplitude 1 on the empty occupation string."""
    v = np.zeros(model.fock_dim, dtype=complex)
    v[0] = 1.0
    return v


def _check_f(model: ToyModel, f) -> np.ndarray:
    f = np.asarray(f, dtype=complex)
    if f.shape != (model.n,):
        raise ValueError(f"one-particle vector must have shape ({model.n},)")
    return f


def _jw_operator(model: ToyModel, raised: tuple, lowered: tuple, coeffs) -> sparse.csr_matrix:
    """sum_i coeffs[i] a*_{raised[i]} + sum_j coeffs[len(raised) + j] a_{lowered[j]}
    as a fresh CSR matrix that owns its arrays, without explicit zeros."""
    indptr, indices, pos, sign = _jw_pattern(model.n, raised, lowered)
    op = sparse.csr_matrix((coeffs[pos] * sign, indices.copy(), indptr.copy()),
                           shape=(model.fock_dim, model.fock_dim))
    op.eliminate_zeros()
    return op


def _particle_modes(model: ToyModel) -> tuple:
    return tuple(range(model.d_plus))


def _antiparticle_modes(model: ToyModel) -> tuple:
    return tuple(range(model.d_plus, model.n))


def _b_coeffs(model: ToyModel, f) -> np.ndarray:
    """<u_a, f> over the particle ONB: the coefficients of b*(f)."""
    return model.basis_plus.conj().T @ _check_f(model, f)


def _c_coeffs(model: ToyModel, f) -> np.ndarray:
    """Coefficients of c*(f): C P- f over the antiparticle ONB."""
    target = model.conj.apply(model.p_minus @ _check_f(model, f))
    return model.basis_antip.conj().T @ target


def creator_b(model: ToyModel, f) -> sparse.csr_matrix:
    """Particle creation operator b*(f); creates P+ f, linear in f."""
    return _jw_operator(model, _particle_modes(model), (), _b_coeffs(model, f))


def annihilator_b(model: ToyModel, f) -> sparse.csr_matrix:
    """Particle annihilation operator b(f) = (b*(f))^dagger; anti-linear in f."""
    return _jw_operator(model, (), _particle_modes(model), _b_coeffs(model, f).conj())


def creator_c(model: ToyModel, f) -> sparse.csr_matrix:
    """Antiparticle creation operator c*(f); creates C P- f in the
    antiparticle modes, with the parity factor over the particle block
    supplied by the Jordan-Wigner string."""
    return _jw_operator(model, _antiparticle_modes(model), (), _c_coeffs(model, f))


def annihilator_c(model: ToyModel, f) -> sparse.csr_matrix:
    """Antiparticle annihilation operator c(f) = (c*(f))^dagger; linear in f."""
    return _jw_operator(model, (), _antiparticle_modes(model), _c_coeffs(model, f).conj())


def _field_coeffs(model: ToyModel, f) -> np.ndarray:
    """Coefficients of Psi(f) = b(f) + c*(f) on the field pattern's terms."""
    return np.concatenate([_c_coeffs(model, f), _b_coeffs(model, f).conj()])


def field_op(model: ToyModel, f) -> sparse.csr_matrix:
    """Field operator Psi(f) = b(f) + c*(f)."""
    return _jw_operator(model, _antiparticle_modes(model), _particle_modes(model),
                        _field_coeffs(model, f))


def field_adjoint(model: ToyModel, f) -> sparse.csr_matrix:
    """Psi*(f) = b*(f) + c(f), the matrix adjoint of Psi(f)."""
    coeffs = np.concatenate([_b_coeffs(model, f), _c_coeffs(model, f).conj()])
    return _jw_operator(model, _particle_modes(model), _antiparticle_modes(model), coeffs)


def _density_modes(model: ToyModel) -> tuple:
    """Key of the model's `_density_pattern`."""
    return model.n, _antiparticle_modes(model), _particle_modes(model)


def _density_zeros(model: ToyModel) -> np.ndarray:
    """A zero value for every stored entry of the model's density pattern."""
    indptr = _density_pattern(*_density_modes(model))[0]
    return np.zeros(indptr[-1], dtype=complex)


def _density_values(model: ToyModel, f) -> np.ndarray:
    """Stored values of :Psi*(f) Psi(f): on `_density_pattern`, explicit
    zeros included, equal bit for bit to scipy's Psi*(f) Psi(f) - shift I
    up to the sign of exact zeros.  Each product is written in real
    arithmetic: numpy's complex multiply may fuse a multiply-add and leave
    a rounding residue where scipy's gives an exact zero."""
    f = _check_f(model, f)
    nrm = np.linalg.norm(f)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"f must be normalized, |f| = {nrm}")
    key = _density_modes(model)
    _, _, pos, sign = _jw_pattern(*key)
    _, _, diag, a, b, sel, bounds = _density_pattern(*key)
    psi = _field_coeffs(model, f)[pos] * sign
    shift = float(np.linalg.norm(model.p_minus @ f) ** 2)
    br, bi, ar, ai = psi.real[a], psi.imag[a], psi.real[b], psi.imag[b]
    prod_re = br * ar + bi * ai   # Psi[k, c] conj(Psi[k, r])
    prod_im = bi * ar - br * ai
    out = _density_zeros(model)
    re, im = out.real, out.imag
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        re[sel[lo:hi]] += prod_re[lo:hi]
        im[sel[lo:hi]] += prod_im[lo:hi]
    re[diag] -= shift
    return out


def _density_matrix(model: ToyModel, values) -> sparse.csr_matrix:
    """CSR matrix of values on the model's density pattern, without explicit
    zeros; it owns its index arrays."""
    indptr, indices = _density_pattern(*_density_modes(model))[:2]
    op = sparse.csr_matrix((values, indices.copy(), indptr.copy()),
                           shape=(model.fock_dim, model.fock_dim))
    op.eliminate_zeros()
    return op


def normal_ordered_density(model: ToyModel, f) -> sparse.csr_matrix:
    """Wick-ordered density :Psi*(f) Psi(f): = Psi*(f) Psi(f) - |P- f|^2
    for a normalized one-particle vector f."""
    return _density_matrix(model, _density_values(model, f))


def sector_labels(model: ToyModel):
    """(n, m) occupation labels of every Fock basis state.

    Returns two integer arrays: particle count and antiparticle count per
    basis index.  Mode k occupies bit (n_modes - 1 - k) of the index.
    """
    idx = np.arange(model.fock_dim, dtype=np.int64)
    n_p = np.zeros(model.fock_dim, dtype=np.int64)
    n_a = np.zeros(model.fock_dim, dtype=np.int64)
    for k in range(model.n):
        bit = (idx >> (model.n - 1 - k)) & 1
        if k < model.d_plus:
            n_p += bit
        else:
            n_a += bit
    return n_p, n_a


def sector_mask(model: ToyModel, n: int, m: int) -> np.ndarray:
    """Boolean mask of the (n, m) particle/antiparticle sector."""
    n_p, n_a = sector_labels(model)
    return (n_p == n) & (n_a == m)
