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
(n <= 12) this module is meant for.  The Jordan-Wigner bit layout is
written once, in `_jw_terms`: the occupations of every basis state, the
parity of the modes before each mode, and the order of the terms of
G = sum_k x_k a*_k + sum_k y_k a_k (every mode raised and lowered) in each
row.  G's CSR pattern is read off it and cached per mode count.  Each
builder is one gather and one CSR constructor call: its row of
coefficients on G's terms, with zeros on the terms it lacks (for the field
operators the sum of two rows), gathered onto the pattern, zeros dropped.

Products of these operators go through a table of G.G per mode count,
read off the same layout in closed form and cached in two parts.  Every
builder's operator is G with zero coefficients on its absent terms, and
each stored entry of G.G is a fixed ordered sum of coefficient products,
in the order scipy's sparse product adds them.  The entries fall into few
classes of equal sums (`_product_classes`), and one reduction,
`_class_values`, reads the class values of A.B for stacked coefficient
rows off the 2n x 2n table of coefficient products.  The Wick sums of
`charge` (the densities :Psi*(f) Psi(f): of the weighted charge, the
products of the number-operator charge, the ladder products of the vacuum
norm and the eigenvector witness) are one batched class sum of it,
gathered onto G.G's CSR pattern (`_product_pattern`, the other part) once
where a matrix is needed.  The car-check's anticommutators add its values
for A.B and B.A and need no pattern: every row's off-diagonal classes, in
batches of at most 2^14 complex entries per temporary, and the 2^n-entry
diagonal only for the rows with a nonzero product of a mode raised and
lowered; of the others every diagonal entry is exactly -shift.  Both come
out bit for bit as by scipy's products.  The cached arrays are read-only.
The Kronecker-product, sum-of-adds builders and the sparse products are
kept in the tests as the exact oracles.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .involution import AntiUnitary

__all__ = [
    "ToyModel",
    "random_unitary",
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
]


@lru_cache(maxsize=16)
def _jw_terms(nmodes: int):
    """The Jordan-Wigner bit layout, read-only: ``(occ, before, term)``.

    Mode k is bit n - 1 - k of a basis state r; occ[r, k] is its occupation
    and before[r, k] the parity of the modes before it, its string.  Row r of
    G = sum_k x_k a*_k + sum_k y_k a_k holds one entry per mode k, in column
    r ^ bit_k: raising k (term k of the coefficients (x, y)) if k is occupied
    in r, else lowering it (term n + k), with the sign (-1)^before[r, k].
    term[r] lists these terms in ascending columns: the occupied modes
    ascending, then the empty modes descending.
    """
    modes = np.arange(nmodes)
    states = np.arange(2 ** nmodes)[:, None]
    occ = ((states >> (nmodes - 1 - modes)) & 1).astype(np.int8)
    before = ((np.cumsum(occ, axis=1) - occ) & 1).astype(np.int8)
    order = np.argsort(np.where(occ == 1, modes, 2 * nmodes - modes), axis=1)
    term = order + nmodes * (1 - np.take_along_axis(occ, order, axis=1))
    return _read_only(occ, before, term)


@lru_cache(maxsize=16)
def _jw_pattern(nmodes: int):
    """CSR structure of G = sum_k x_k a*_k + sum_k y_k a_k over every mode.

    Distinct terms never share a stored entry, so the operator is a gather:
    stored entry e holds ``coeffs[pos[e]] * sign[e]`` with ``coeffs`` the
    concatenation (x, y), each entry's term and sign as `_jw_terms` lays
    them out.  Returns ``(indptr, indices, pos, sign)`` with the indices
    sorted within each row; every row holds n entries.
    """
    _, before, term = _jw_terms(nmodes)
    mode = term % nmodes
    rows = np.arange(2 ** nmodes)[:, None]
    indptr = np.arange(0, term.size + 1, nmodes, dtype=np.int32)
    indices = (rows ^ (1 << (nmodes - 1 - mode))).astype(np.int32)
    sign = 1.0 - 2.0 * np.take_along_axis(before, mode, axis=1)
    return _read_only(indptr, indices.ravel(), term.ravel(), sign.ravel())


def _read_only(*arrays) -> tuple:
    """The arrays, marked non-writeable: a cached pattern is shared by every
    later operator of its mode count, so an in-place write must fail."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


class _ProductClasses(NamedTuple):
    """The stored entries of G.G, for G = `_jw_pattern(n)`, sorted into
    classes of equal sums.

    Every operator the toy suites multiply is G with zero coefficients on its
    absent terms, so an entry (r, c) of a product A B sums the same terms
    A[r, k] B[k, c] = +-x[p] y[q] whatever the coefficients x of A and y of
    B: one per state k next to both r and c, added in ascending k as scipy's
    sparse product adds them.  Off the diagonal c = r ^ bit_i ^ bit_j, i < j,
    and the two terms go through r ^ bit_i, first if mode i is occupied in
    r, and r ^ bit_j.  Their p, q and signs follow from the occupations of
    modes i, j and the parity of modes i..j-1, which make the class: 8 per
    pair of modes, 4 for adjacent ones, numbered by first term, its sign,
    second term, its sign.  A diagonal entry has n terms, one per mode in
    the order of G's row, all with sign +1, and is a class of its own.
    Where the classes sit in G.G is `_product_pattern`.

    pq, sign : the two terms of each off-diagonal class as flat indices into
        the 2n x 2n table of products x[p] y[q] (`_products`) and their signs
    diag_pq : the n terms of each diagonal entry (one column per row), each a
        mode raised and lowered: p and q = p +- n
    """

    pq: np.ndarray
    sign: np.ndarray
    diag_pq: np.ndarray


# rows of G.G classed at once; bounds the pattern builder's temporaries
_TABLE_BLOCK = 128


def _off_diagonal_classes(nmodes: int):
    """``(class_of, pq, neg)``: the class of each flat code of (i, j,
    occupied i, occupied j, parity of modes i..j-1), -1 where i < j fails or
    the parity of adjacent modes is not mode i's occupation, and each
    class's two terms and sign bits, in class order."""
    width = 2 * nmodes
    i, j, oi, oj, q = np.indices((nmodes, nmodes, 2, 2, 2)).reshape(5, -1)
    is_class = (i < j) & ((j > i + 1) | (q == oi))
    ti, tj = i + nmodes * (1 - oi), j + nmodes * (1 - oj)   # the G terms of modes i, j
    via_i, via_j = ti * width + tj, tj * width + ti          # through r ^ bit_i, r ^ bit_j
    pq = np.where(oi == 1, [via_i, via_j], [via_j, via_i])[:, is_class]
    neg = np.where(oi == 1, [1 - q, q], [q, 1 - q])[:, is_class]
    by_terms = np.lexsort((neg[1], pq[1], neg[0], pq[0]))
    class_of = np.full(is_class.size, -1, dtype=np.int32)
    class_of[np.flatnonzero(is_class)[by_terms]] = np.arange(by_terms.size)
    return class_of, np.take(pq, by_terms, axis=1), np.take(neg, by_terms, axis=1)


@lru_cache(maxsize=16)
def _product_classes(nmodes: int) -> _ProductClasses:
    """The read-only classes of G.G for mode count nmodes, read off the bit
    layout `_jw_terms(nmodes)`: all that a class reduction reads."""
    term = _jw_terms(nmodes)[2]
    width = 2 * nmodes
    _, pq, neg = _off_diagonal_classes(nmodes)
    diag_pq = np.ascontiguousarray((term * width + (term + nmodes) % width).T)
    return _ProductClasses(*_read_only(pq, 1.0 - 2.0 * neg, diag_pq))


@lru_cache(maxsize=16)
def _product_pattern(nmodes: int):
    """The read-only CSR pattern of G.G, ``(indptr, indices, cls)``, indices
    sorted in each row: the class of each stored entry, the off-diagonal
    classes of `_product_classes` first, the diagonal entry of row r class
    ``classes + r``.  Only a class sum gathered onto a matrix
    (`_table_matrix`) reads it."""
    occ, before, _ = _jw_terms(nmodes)
    dim = 2 ** nmodes
    class_of, pq, _ = _off_diagonal_classes(nmodes)
    pair_i, pair_j = np.triu_indices(nmodes, 1)
    flip = (1 << (nmodes - 1 - pair_i)) ^ (1 << (nmodes - 1 - pair_j))
    indices = np.empty((dim, 1 + pair_i.size), dtype=np.int32)
    cls = np.empty((dim, 1 + pair_i.size), dtype=np.int32)
    for lo in range(0, dim, _TABLE_BLOCK):
        rows = slice(lo, lo + _TABLE_BLOCK)
        r = np.arange(lo, min(lo + _TABLE_BLOCK, dim))[:, None]
        o, b = occ[rows], before[rows]
        code = ((((pair_i * nmodes + pair_j) * 2 + o[:, pair_i]) * 2 + o[:, pair_j]) * 2
                + (b[:, pair_i] ^ b[:, pair_j]))
        col = np.hstack([r ^ flip, r])
        by_col = np.argsort(col, axis=1)
        indices[rows] = np.take_along_axis(col, by_col, axis=1)
        entry_cls = np.hstack([class_of[code], pq.shape[1] + r])
        cls[rows] = np.take_along_axis(entry_cls, by_col, axis=1)
    indptr = np.arange(0, indices.size + 1, indices.shape[1], dtype=np.int32)
    return _read_only(indptr, indices.ravel(), cls.ravel())


def _products(x, y) -> np.ndarray:
    """The 2n x 2n table x[p] y[q] of each row of coefficients, each product
    written in real arithmetic as scipy's complex multiply: numpy's complex
    multiply may fuse a multiply-add and leave a rounding residue where
    scipy gives an exact zero.  Takes rows of shape (..., 2n) and returns
    each table flat, shape (..., 4n^2), as `_ProductClasses` indexes it."""
    x, y = np.asarray(x), np.asarray(y)
    xr, xi = x.real[..., :, None], x.imag[..., :, None]
    yr, yi = y.real[..., None, :], y.imag[..., None, :]
    P = np.empty(np.broadcast_shapes(xr.shape, yr.shape), dtype=complex)
    P.real = xr * yr - xi * yi
    P.imag = xr * yi + xi * yr
    return P.reshape(P.shape[:-2] + (P.shape[-2] * P.shape[-1],))


def _off_values(classes: _ProductClasses, P) -> np.ndarray:
    """Each off-diagonal class's two terms, signed and added in order, from
    the `_products` tables P (shape (..., 4n^2))."""
    return (classes.sign[0] * np.take(P, classes.pq[0], axis=-1)
            + classes.sign[1] * np.take(P, classes.pq[1], axis=-1))


def _diag_values(classes: _ProductClasses, P) -> np.ndarray:
    """Each diagonal entry's n terms added in ascending k, from the
    `_products` tables P (shape (..., 4n^2))."""
    diag = np.take(P, classes.diag_pq[0], axis=-1)
    for pq in classes.diag_pq[1:]:
        diag += np.take(P, pq, axis=-1)
    return diag


def _class_values(classes: _ProductClasses, x, y):
    """The class values ``(off, diag)`` of A B for each row of coefficients
    x of A and y of B (shape (..., 2n))."""
    P = _products(x, y)
    return _off_values(classes, P), _diag_values(classes, P)


def _class_sum(nmodes: int, x, y, weights=None, shift=None) -> np.ndarray:
    """Class values of sum_j w_j (A_j B_j - shift_j I), A_j and B_j with the
    coefficient rows x[..., j, :], y[..., j, :] (shape (..., J, 2n)), added
    in j order: bit for bit, up to the sign of exact zeros, scipy's series
    of products, shifted identities, scalings and adds.  Leading axes hold
    separate sums, each added as it would be alone.  The weights (J,)
    default to 1, the shifts (..., J) to 0; rows of weight 0 are dropped
    before the products, and no rows sum to zero.  A charge's J is at most
    twice its basis dimension, so its (J, classes + 2^n) values, summed at
    once, stay below 2 MB at n = 12."""
    keep = slice(None) if weights is None else np.asarray(weights) != 0
    off, diag = _class_values(_product_classes(nmodes), np.asarray(x)[..., keep, :],
                              np.asarray(y)[..., keep, :])
    if shift is not None:
        diag -= np.asarray(shift)[..., keep, None]
    values = np.concatenate([off, diag], axis=-1)
    if weights is not None:
        values *= np.asarray(weights)[keep, None]
    return values.sum(axis=-2)  # row by row: numpy sums pairwise only along the fast axis


def _table_matrix(nmodes: int, values) -> sparse.csr_matrix:
    """CSR matrix of class values gathered onto the pattern of G.G, without
    explicit zeros; it owns its index arrays."""
    indptr, indices, cls = _product_pattern(nmodes)
    op = sparse.csr_matrix((values[cls], indices.copy(), indptr.copy()),
                           shape=(2 ** nmodes, 2 ** nmodes))
    op.eliminate_zeros()
    return op


# complex entries per temporary of a batched anticommutator pass (256 KB)
_BATCH_ENTRIES = 2 ** 14


def _batch_rows(nmodes: int) -> tuple:
    """Rows per anticommutator batch, ``(off, diag)``: a row's widest
    temporary is its 2n x 2n product table, or else its off-diagonal class
    values in an off-diagonal batch and its 2^n diagonal in a diagonal one."""
    widths = (_product_classes(nmodes).pq.shape[1], 2 ** nmodes)
    return tuple(max(1, _BATCH_ENTRIES // max(4 * nmodes ** 2, w)) for w in widths)


def _anticommutator_deviations(nmodes: int, x, y, shift) -> np.ndarray:
    """Largest |entry| of {A, B} - shift I for each row of x, y (shape
    (rows, 2n)) and entry of shift, equal to `charge.max_abs` of scipy's
    A @ B + B @ A - shift * I: the class values of A B and of B A added,
    bit for bit up to the sign of exact zeros.

    The off-diagonal classes are read for every row, the 2^n-entry diagonal
    only for a row with a nonzero diagonal product: a diagonal term is
    x[p] y[q] with p and q raising and lowering one mode, B A's are
    y[q] x[p], the same 2n products, and where they are all exact zeros
    every diagonal entry is +-0 - shift, of absolute value |shift|.  Both
    passes take `_batch_rows(n)` rows at a time, which bounds every
    temporary to `_BATCH_ENTRIES` entries."""
    x, y = np.asarray(x), np.asarray(y)
    shift = np.broadcast_to(shift, x.shape[:1])
    classes = _product_classes(nmodes)
    width = 2 * nmodes
    same_mode = np.arange(width) * width + (np.arange(width) + nmodes) % width
    off_step, diag_step = _batch_rows(nmodes)
    out = np.empty(x.shape[0])
    has_diag = np.empty(x.shape[0], dtype=bool)
    for lo in range(0, x.shape[0], off_step):
        rows = slice(lo, lo + off_step)
        P_xy, P_yx = _products(x[rows], y[rows]), _products(y[rows], x[rows])
        off = _off_values(classes, P_xy) + _off_values(classes, P_yx)
        out[rows] = np.max(np.abs(off), axis=-1, initial=0.0)
        has_diag[rows] = np.any(P_xy[:, same_mode] != 0, axis=-1)
    out[~has_diag] = np.maximum(out[~has_diag], np.abs(shift[~has_diag]))
    diag_rows = np.flatnonzero(has_diag)
    for lo in range(0, diag_rows.size, diag_step):
        rows = diag_rows[lo:lo + diag_step]
        diag = (_diag_values(classes, _products(x[rows], y[rows]))
                + _diag_values(classes, _products(y[rows], x[rows])))
        out[rows] = np.maximum(out[rows], np.max(np.abs(diag - shift[rows, None]), axis=-1))
    return out


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
    p_minus : I - P+, set once on construction
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
        self.p_minus = Pm = np.eye(self.n) - P
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


def random_unitary(rng, d: int) -> np.ndarray:
    """Haar-random d x d unitary: the phase-fixed QR of a complex Gaussian."""
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, R = np.linalg.qr(A)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def random_model(n: int, rng) -> ToyModel:
    """Random toy model with dim ran(P+) = dim ran(P-) = n/2.

    P+ and C are generated together: a Haar-random unitary V = [V+ V-]
    fixes the two subspaces and a random real orthogonal O pairs them,
    C(V- x) = V+ O conj(x).  This guarantees C P- C = P+ by construction.
    """
    if n % 2 != 0 or n < 2:
        raise ValueError("n must be even and >= 2")
    d = n // 2
    V = random_unitary(rng, n)
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


def _jw_operator(model: ToyModel, coeffs) -> sparse.csr_matrix:
    """G with the coefficient row ``coeffs``, sum_k coeffs[k] a*_k +
    sum_k coeffs[n + k] a_k, as a fresh CSR matrix that owns its arrays; the
    zeros of the terms an operator lacks are dropped."""
    indptr, indices, pos, sign = _jw_pattern(model.n)
    op = sparse.csr_matrix((coeffs[pos] * sign, indices.copy(), indptr.copy()),
                           shape=(model.fock_dim, model.fock_dim))
    op.eliminate_zeros()
    return op


def _ladder_coeffs(model: ToyModel, f) -> np.ndarray:
    """Rows b*(f), b(f), c*(f), c(f): each operator's coefficients on the
    terms of G = `_jw_pattern(n)` (raising mode k is term k, lowering it
    term n + k), with zeros on the terms it lacks: <u_a, f> over the
    particle ONB for b*(f), C P- f over the antiparticle ONB for c*(f)."""
    f = _check_f(model, f)
    n, d = model.n, model.d_plus
    b = model.basis_plus.conj().T @ f
    c = model.basis_antip.conj().T @ model.conj.apply(model.p_minus @ f)
    out = np.zeros((4, 2 * n), dtype=complex)
    out[0, :d], out[1, n:n + d] = b, b.conj()
    out[2, d:n], out[3, n + d:] = c, c.conj()
    return out


def _ladder_rows(model: ToyModel, vectors) -> np.ndarray:
    """`_ladder_coeffs` of each column f of vectors as four stacks of rows,
    b*(f), b(f), c*(f) and c(f), shape (4, J, 2n).  One call per vector:
    one matrix product over all columns would change the last bits."""
    rows = np.array([_ladder_coeffs(model, f) for f in np.asarray(vectors).T], dtype=complex)
    return rows.reshape(-1, 4, 2 * model.n).swapaxes(0, 1)


def _density_rows(model: ToyModel, vectors):
    """The rows of :Psi*(f) Psi(f): = Psi*(f) Psi(f) - |P- f|^2 for each
    column f of vectors, as `_class_sum` takes them: (x, y, shift)."""
    bs, b, cs, c = _ladder_rows(model, vectors)
    shift = np.array([np.linalg.norm(model.p_minus @ f) ** 2 for f in np.asarray(vectors).T])
    return bs + c, b + cs, shift


def creator_b(model: ToyModel, f) -> sparse.csr_matrix:
    """Particle creation operator b*(f); creates P+ f, linear in f."""
    return _jw_operator(model, _ladder_coeffs(model, f)[0])


def annihilator_b(model: ToyModel, f) -> sparse.csr_matrix:
    """Particle annihilation operator b(f) = (b*(f))^dagger; anti-linear in f."""
    return _jw_operator(model, _ladder_coeffs(model, f)[1])


def creator_c(model: ToyModel, f) -> sparse.csr_matrix:
    """Antiparticle creation operator c*(f); creates C P- f in the
    antiparticle modes, with the parity factor over the particle block
    supplied by the Jordan-Wigner string."""
    return _jw_operator(model, _ladder_coeffs(model, f)[2])


def annihilator_c(model: ToyModel, f) -> sparse.csr_matrix:
    """Antiparticle annihilation operator c(f) = (c*(f))^dagger; linear in f."""
    return _jw_operator(model, _ladder_coeffs(model, f)[3])


def field_op(model: ToyModel, f) -> sparse.csr_matrix:
    """Field operator Psi(f) = b(f) + c*(f)."""
    _, b, cs, _ = _ladder_coeffs(model, f)
    return _jw_operator(model, b + cs)


def field_adjoint(model: ToyModel, f) -> sparse.csr_matrix:
    """Psi*(f) = b*(f) + c(f), the matrix adjoint of Psi(f)."""
    bs, _, _, c = _ladder_coeffs(model, f)
    return _jw_operator(model, bs + c)


def normal_ordered_density(model: ToyModel, f) -> sparse.csr_matrix:
    """Wick-ordered density :Psi*(f) Psi(f): = Psi*(f) Psi(f) - |P- f|^2
    for a normalized one-particle vector f."""
    f = _check_f(model, f)
    nrm = np.linalg.norm(f)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"f must be normalized, |f| = {nrm}")
    x, y, shift = _density_rows(model, f[:, None])
    return _table_matrix(model.n, _class_sum(model.n, x, y, shift=shift))


def sector_labels(model: ToyModel):
    """(n, m) occupation labels of every Fock basis state.

    Returns two integer arrays: particle count and antiparticle count per
    basis index, read off the bit layout `_jw_terms`.
    """
    occ = _jw_terms(model.n)[0]
    return (occ[:, :model.d_plus].sum(axis=1, dtype=np.int64),
            occ[:, model.d_plus:].sum(axis=1, dtype=np.int64))
