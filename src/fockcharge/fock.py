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
(n <= 12) this module is meant for.  There is one Jordan-Wigner pattern per
mode count: the sparsity pattern of G = sum_k x_k a*_k + sum_k y_k a_k, every
mode both raised and lowered (row pointers, column indices, which
coefficient each stored entry takes and its Jordan-Wigner sign), is cached.
Each builder is one gather and one CSR constructor call: its row of
coefficients on G's terms, with zeros on the terms it lacks (for the field
operators the sum of two rows), gathered onto the pattern, zeros dropped.

Products of these operators go through one cached table per mode count.
Every builder's operator is G with zero coefficients on its absent terms,
and each stored entry of G.G is a fixed ordered sum of coefficient
products, in the order scipy's sparse product adds them.  The entries fall
into few classes of equal sums, so the Wick-ordered density
:Psi*(f) Psi(f):, the products of the number-operator charge, the
anticommutators of the CAR check and the ladder products of `charge`'s
vacuum norm and eigenvector witness are class sums on the 2n x 2n table of
coefficient products, gathered onto the pattern once where a matrix is
needed; they come out bit for bit as by scipy's products.  The class sums
take a leading axis of coefficient rows, so the car-check reduces all
anticommutators of a mode count in batches, each temporary at most 2^14
complex entries; one pair is the one-row case.  The cached arrays are
read-only.  The Kronecker-product, sum-of-adds builders and the
sparse products are kept in the tests as the exact oracles.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

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


@lru_cache(maxsize=16)
def _jw_pattern(nmodes: int):
    """CSR structure of G = sum_k x_k a*_k + sum_k y_k a_k over every mode.

    Mode 0 is the most significant bit of a basis index.  The Jordan-Wigner
    string sits on the modes *before* the target mode, so raising or lowering
    mode k picks up the parity of the occupation of modes 0..k-1.  Distinct
    (mode, direction) terms never share a stored entry, so the operator is a
    gather: stored entry e holds ``coeffs[pos[e]] * sign[e]`` with ``coeffs``
    the concatenation (x, y), raising mode k term k and lowering it term
    n + k.  Returns ``(indptr, indices, pos, sign)`` with the indices sorted
    within each row; every row holds n entries.
    """
    dim = 2 ** nmodes
    states = np.arange(dim, dtype=np.int64)
    rows, cols, pos, sign = [], [], [], []
    terms = [(k, True) for k in range(nmodes)] + [(k, False) for k in range(nmodes)]
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


class _ProductTable(NamedTuple):
    """The stored entries of G.G, for G = `_jw_pattern(n)`,
    sorted into classes of equal sums.

    Every operator the toy suites multiply is G with zero coefficients on its
    absent terms, so an entry (r, c) of a product A B sums the same terms
    A[r, k] B[k, c] = +-x[p] y[q] whatever the coefficients x of A and y of
    B: one per state k next to both r and c, added in ascending k as scipy's
    sparse product adds them.  Off G.G's diagonal r and c differ in two
    modes and there are two terms; entries with the same two terms, in the
    same order and with the same signs, form a class.  A diagonal entry has
    n terms, one per mode, all with sign +1, and is a class of its own.

    indptr, indices : the CSR pattern of G.G, indices sorted in each row
    cls : class of each stored entry; the off-diagonal classes come first,
        the diagonal entry of row r is class ``pq.shape[1] + r``
    pq, sign : the two terms of each off-diagonal class as flat indices into
        the 2n x 2n table of products x[p] y[q] (`_products`) and their signs
    diag_pq : the n terms of each diagonal entry (one column per row)
    """

    indptr: np.ndarray
    indices: np.ndarray
    cls: np.ndarray
    pq: np.ndarray
    sign: np.ndarray
    diag_pq: np.ndarray


# rows of G whose products are expanded at once; bounds the builder's
# temporaries (the n = 12 table expands 590k products in all)
_TABLE_BLOCK = 128


@lru_cache(maxsize=16)
def _product_table(nmodes: int) -> _ProductTable:
    """The read-only class table of G.G for mode count nmodes."""
    _, cols, pos, sign = _jw_pattern(nmodes)
    dim, width = 2 ** nmodes, 2 * nmodes
    per_row = 1 + nmodes * (nmodes - 1) // 2          # stored entries per row of G.G
    indices = np.empty(dim * per_row, dtype=np.int32)
    cls = np.empty(dim * per_row, dtype=np.int32)      # each entry's term key, then class
    diag_pq = np.empty((nmodes, dim), dtype=np.intp)
    found = np.empty(0, dtype=np.int64)
    for lo in range(0, dim, _TABLE_BLOCK):
        hi = min(lo + _TABLE_BLOCK, dim)
        # every row of G holds n entries, so row k is the slice k*n .. k*n + n
        a = np.repeat(np.arange(lo * nmodes, hi * nmodes), nmodes)             # entry (r, k)
        b = cols[a] * nmodes + np.tile(np.arange(nmodes), (hi - lo) * nmodes)  # entry (k, c)
        rc = a // nmodes * dim + cols[b]
        order = np.argsort(rc, kind="stable")          # keeps each entry's terms in ascending k
        a, b, rc = a[order], b[order], rc[order]
        pq = pos[a] * width + pos[b]
        neg = sign[a] != sign[b]
        on_diag = rc % (dim + 1) == 0                  # r * dim + c with c == r
        diag_pq[:, lo:hi] = pq[on_diag].reshape(hi - lo, nmodes).T
        pq2, neg2 = pq[~on_diag].reshape(-1, 2), neg[~on_diag].reshape(-1, 2)
        key = ((pq2[:, 0] * 2 + neg2[:, 0]) * width ** 2 + pq2[:, 1]) * 2 + neg2[:, 1]
        found = np.union1d(found, key)
        rc = rc[np.flatnonzero(np.diff(rc, prepend=-1))]   # the block's entries, in CSR order
        block = cls[lo * per_row:hi * per_row]
        indices[lo * per_row:hi * per_row] = rc % dim
        entry_diag = rc % (dim + 1) == 0
        block[~entry_diag] = key
        block[entry_diag] = -1 - rc[entry_diag] // dim    # row r's diagonal
    for lo in range(0, cls.size, _TABLE_BLOCK * per_row):
        seg = cls[lo:lo + _TABLE_BLOCK * per_row]
        off = seg >= 0
        seg[off] = np.searchsorted(found, seg[off])
        seg[~off] = found.size - 1 - seg[~off]             # diagonal of row r -> class ncls + r
    indptr = np.arange(0, dim * per_row + 1, per_row, dtype=np.int32)
    cells = width ** 2
    pq = np.stack([found // (4 * cells), found // 2 % cells])
    table_sign = 1.0 - 2.0 * np.stack([found // (2 * cells) % 2, found % 2])
    return _ProductTable(*_read_only(
        indptr, indices, cls, pq.astype(np.intp),
        table_sign, diag_pq))


def _products(x, y) -> np.ndarray:
    """The 2n x 2n table x[p] y[q] of each row of coefficients, each product
    written in real arithmetic as scipy's complex multiply: numpy's complex
    multiply may fuse a multiply-add and leave a rounding residue where
    scipy gives an exact zero.  Takes rows of shape (..., 2n) and returns
    each table flat, shape (..., 4n^2), as `_ProductTable` indexes it."""
    x, y = np.asarray(x), np.asarray(y)
    xr, xi = x.real[..., :, None], x.imag[..., :, None]
    yr, yi = y.real[..., None, :], y.imag[..., None, :]
    P = np.empty(np.broadcast_shapes(xr.shape, yr.shape), dtype=complex)
    P.real = xr * yr - xi * yi
    P.imag = xr * yi + xi * yr
    return P.reshape(P.shape[:-2] + (-1,))


def _off_diagonal_sums(table: _ProductTable, P) -> np.ndarray:
    """A B on the off-diagonal classes, for P = `_products(x, y)`."""
    return (table.sign[0] * np.take(P, table.pq[0], axis=-1)
            + table.sign[1] * np.take(P, table.pq[1], axis=-1))


def _diagonal_sums(table: _ProductTable, P) -> np.ndarray:
    """The diagonal of A B, each entry's n terms added in ascending k."""
    out = np.take(P, table.diag_pq[0], axis=-1)
    for pq in table.diag_pq[1:]:
        out += np.take(P, pq, axis=-1)
    return out


def _product_values(nmodes: int, x, y) -> np.ndarray:
    """Class values of A B for A, B with coefficients x, y on G's terms:
    equal bit for bit, up to the sign of exact zeros, to every stored
    value of scipy's A @ B; an entry scipy leaves out is an exact zero."""
    table = _product_table(nmodes)
    P = _products(x, y)
    return np.concatenate([_off_diagonal_sums(table, P), _diagonal_sums(table, P)])


def _class_zeros(nmodes: int) -> np.ndarray:
    """A zero value for every class of the mode count's product table."""
    return np.zeros(_product_table(nmodes).pq.shape[1] + 2 ** nmodes, dtype=complex)


def _table_matrix(nmodes: int, values) -> sparse.csr_matrix:
    """CSR matrix of class values gathered onto the pattern of G.G, without
    explicit zeros; it owns its index arrays."""
    table = _product_table(nmodes)
    op = sparse.csr_matrix((values[table.cls], table.indices.copy(), table.indptr.copy()),
                           shape=(2 ** nmodes, 2 ** nmodes))
    op.eliminate_zeros()
    return op


# complex entries per temporary of a batched anticommutator pass (256 KB)
_BATCH_ENTRIES = 2 ** 14


def _batch_rows(nmodes: int) -> int:
    """Rows per anticommutator batch: a row's widest temporary is its 2n x 2n
    product table or its 2^n diagonal, whichever is larger."""
    return max(1, _BATCH_ENTRIES // max(2 ** nmodes, 4 * nmodes ** 2))


def _anticommutator(nmodes: int, x, y, shift):
    """{A, B} - shift I on the classes, as scipy's A @ B + B @ A - shift * I:
    the off-diagonal class values and the diagonal, each bit for bit up to
    the sign of exact zeros.  x and y are rows of shape (..., 2n) and shift
    broadcasts against their leading shape."""
    table = _product_table(nmodes)
    pxy, pyx = _products(x, y), _products(y, x)
    off = _off_diagonal_sums(table, pxy) + _off_diagonal_sums(table, pyx)
    diag = _diagonal_sums(table, pxy) + _diagonal_sums(table, pyx)
    return off, diag - np.asarray(shift)[..., None]


def _anticommutator_deviations(nmodes: int, x, y, shift) -> np.ndarray:
    """Largest |entry| of {A, B} - shift I for each row of x, y (shape
    (rows, 2n)) and entry of shift, equal to `charge.max_abs` of scipy's
    A @ B + B @ A - shift * I.  The rows are reduced `_batch_rows(n)` at a
    time, which bounds every temporary to `_BATCH_ENTRIES` entries."""
    x, y = np.asarray(x), np.asarray(y)
    shift = np.broadcast_to(shift, x.shape[:1])
    out = np.empty(x.shape[0])
    step = _batch_rows(nmodes)
    for lo in range(0, x.shape[0], step):
        rows = slice(lo, lo + step)
        off, diag = _anticommutator(nmodes, x[rows], y[rows], shift[rows])
        out[rows] = np.maximum(np.max(np.abs(off), axis=-1, initial=0.0),
                               np.max(np.abs(diag), axis=-1))
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


def _density_values(model: ToyModel, f) -> np.ndarray:
    """Class values of :Psi*(f) Psi(f): = Psi*(f) Psi(f) - |P- f|^2, equal
    bit for bit to scipy's product less the shifted identity, up to the sign
    of exact zeros."""
    f = _check_f(model, f)
    nrm = np.linalg.norm(f)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"f must be normalized, |f| = {nrm}")
    bs, b, cs, c = _ladder_coeffs(model, f)
    out = _product_values(model.n, bs + c, b + cs)
    out.real[-model.fock_dim:] -= float(np.linalg.norm(model.p_minus @ f) ** 2)
    return out


def normal_ordered_density(model: ToyModel, f) -> sparse.csr_matrix:
    """Wick-ordered density :Psi*(f) Psi(f): = Psi*(f) Psi(f) - |P- f|^2
    for a normalized one-particle vector f."""
    return _table_matrix(model.n, _density_values(model, f))


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
