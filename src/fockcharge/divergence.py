"""The central experiment: partial sums S_J = |Q^J Omega|^2 of the truncated
region-charge series across mode shells of the cube.

On an orthonormal frame V_J of the first J spinor modes, W_J = V_J* M+ V_J
is I/2 + R_J, where the identity part of M+ is exact by orthonormality of
the modes and R_J = V_J* (sum_t X_t (x) Y_t) V_J carries the quadrature
Grams X_t in {m G0, G1, G2, G3} (`GramMatrices.terms`, weights 1/lambda,
p_s/lambda), spin factors Y_t in {beta/2, alpha_s/2} (`m_plus_terms`).  Hence

    S_J = tr(W_J) - tr(W_J^2) = n - |R_J|_F^2

with n = J/4 scalar modes, and both evaluation routes compute this one
quantity; they differ only in how they reduce |R_J|_F^2:

* trace route: the product basis and the conjugation-invariant basis are
  both frames of column groups sum_u R_u (x) Q_u (R_u selects scalar modes,
  Q_u is a fixed spin matrix) on one skeleton, [(fixed, T0)],
  [(L, A), (pi L, B)], with pi the mode map k -> -k, the zero mode fixed
  and L the modes i < pi(i) (`FRAMES`, `_shell_frame`).  Every block of
  R_J is then sum (R_u^T X_t R_u') (x) (Q_u* Y_t Q_u'), so its Frobenius
  norm follows from inner products of scalar blocks and the computed spin
  cross-Gram <Q_u* Y_t Q_u', Q_v* Y_t' Q_v'>.  The mirror symmetry
  X_t(pi r, pi r') = eps_t X_t(r, r') (eps +1 for G0, -1 for Gs) folds the
  blocks read through pi L onto those of L, so only (fixed, fixed),
  (fixed, L), (L, L) and (L, pi L) are read from the suite, once for the
  top shell and both bases: no spinor matrix and no n x n array is
  formed.  (fixed, fixed) and (L, fixed) are the zero mode's row, read
  once and cut into L's layers.  The Grams are symmetric, so on L's index
  (L, L) is symmetric and (L, pi L) is too up to eps_t:
  X_t(pi L_j, L_i) = X_t(L_i, pi L_j) = eps_t X_t(pi L_i, L_j), the mirror
  applied to both modes.  That group is read as its lower triangle in row
  blocks, each strip below the diagonal counted for its mirror image.
  The route takes the mass and the grid from its suite;
* scalar route: |R_J|_F^2 = sum_{i,j<=n} [|m G0_ij|^2 + sum_s |Gs_ij|^2],
  the four-spin reduction with tr(Gamma_w Gamma_w') = 4 delta written in by
  hand, in closed form on the Grams' 1d factors (`AxisFactors.fro2`).
  This route alone is given m and the grid, to build the factors when no
  suite is passed and to check one that is.

The scalar route never reads the accumulators the trace route's Grams come
from, so the routes' agreement (`trace-vs-scalar-rel`) checks the accumulator
assembly, the four-spin reduction of |R|^2, where the mass enters
`GramMatrices.terms`, the mirror fold and the basis algebra; not the 1d
quadrature both share, nor the sign of a mirrored pair's accumulator slot,
which a squared norm cannot see (the tests' unfolded oracle does).  The
honest quadrature M+, weight-one Gram included, enters only
`mplus_diagonal`, which reads its diagonal in the invariant basis off the
same skeleton, in `c_invariant_transform` order; that sparse frame and the
dense M+ (`quadrature.m_plus`) are oracles for the tests.  On complete
shells the sums are basis independent; the basis matters for partial
shells, which is why the series itself is basis sensitive.
"""

import os
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .charge import SubspaceBasis, vacuum_norm
from .fock import ToyModel
from .modes import Shell, enumerate_shell
from .quadrature import AxisFactors, QuadGrid, GramMatrices, axis_factors, m_plus_terms
from .spinor import conjugation_matrix

__all__ = [
    "DivergenceSeries",
    "vacuum_series_trace",
    "vacuum_series_scalar",
    "checked_tail",
    "checked_suite_bytes",
    "growth_diagnostics",
    "toy_oracle_equivalence",
    "c_invariant_transform",
    "mplus_diagonal",
]

PRODUCT = "product"
C_INVARIANT = "c_invariant"
MAX_TAIL = 0.10
_ROW_BLOCK = 32  # rows of the top shell the trace route gathers at a time


@dataclass
class DivergenceSeries:
    """Per-shell partial sums of the vacuum-norm series."""

    mode_counts: list     # spinor mode count 4 (2K+1)^3 per shell
    S: list               # partial sums at the shell boundaries
    tail: float           # estimated quadrature mass loss at the top shell

    def increments(self):
        return [self.S[0]] + [b - a for a, b in zip(self.S, self.S[1:])]


def _spin_frames():
    """The spin matrices (T0, A, B) of each basis on the shared skeleton
    [(fixed, T0)], [(L, A), (pi L, B)] of `_shell_frame`.

    The product basis takes the zero mode's four spins and, per l in L, the
    spins of L[l] and of pi L[l]: (I4, [I|0], [0|I]).  The invariant basis
    is read off the shell conjugation U = P_pi (x) C, C = i gamma2: each pair
    of modes i < pi(i) gives the columns (e_s, i e_s)/sqrt(2) on i and
    (C e_s, -i C e_s)/sqrt(2) on pi(i), interleaved per spin, and the zero
    mode keeps the sums of the two for the spins s < s' with C e_s = c e_s'.
    """
    C = conjugation_matrix()
    A = np.sqrt(0.5) * np.kron(np.eye(4), [1.0, 1j])
    B = np.sqrt(0.5) * np.kron(C, [1.0, -1j])
    lo = np.flatnonzero(np.abs(C).argmax(axis=0) > np.arange(4))
    T0 = (A + B).reshape(4, 4, 2)[:, lo].reshape(4, -1)
    return {PRODUCT: (np.eye(4), np.eye(4, 8), np.eye(4, 8, 4)),
            C_INVARIANT: (T0, A, B)}


FRAMES = _spin_frames()


def _shell_frame(K: int):
    """(fixed, L, pi L) of the shell of radius K in canonical order.

    pi, the mode map k -> -k, reverses each layer |k|_inf = k of the shell
    order, since negation reverses the lexicographic order:
    pi(i) = start_k + end_k - 1 - i.  Only the zero mode is its own partner.
    L = {i : pi(i) > i} is the first half of every layer k >= 1, so
    sub-shell k holds the first ((2k+1)^3 - 1)/2 entries of L and of pi L.
    """
    ends = (2 * np.arange(K + 1) + 1) ** 3
    starts = np.concatenate([[0], ends[:-1]])
    partner = np.concatenate([np.arange(e - 1, s - 1, -1) for s, e in zip(starts, ends)])
    idx = np.arange(ends[-1])
    L = np.flatnonzero(partner > idx)
    return np.flatnonzero(partner == idx), L, partner[L]


def c_invariant_transform(shell: Shell) -> sparse.csc_matrix:
    """Sparse unitary whose columns express a conjugation-invariant ONB of
    the shell's spinor modes in the product basis.

    The shell conjugation is a signed permutation without fixed indices:
    C e_j = s e_p with p != j.  Each pair j < p yields the two C-fixed columns
    (e_j + s e_p)/sqrt(2) and i(e_j - s e_p)/sqrt(2), emitted in ascending j,
    so every column has exactly two nonzeros.  The shell order is closed
    under k -> -k within each sub-shell, hence the first 4(2k+1)^3 columns
    span sub-shell k.  This is the basis `c_invariant_onb` builds from the
    standard seeds, in closed form, assembled from its Kronecker frame.
    """
    eye = sparse.identity(shell.count, format="csc")
    Vf, VL, VpL = (sparse.kron(eye[:, rows], Q, format="csc")
                   for rows, Q in zip(_shell_frame(shell.K), FRAMES[C_INVARIANT]))
    return sparse.hstack([Vf, VL + VpL], format="csc")


def _block_grams(suite: GramMatrices, col_sets, counts, signs) -> np.ndarray:
    """D[k] = <Z_a, Z_b> of the scalar blocks Z_a, the four `suite.terms` at
    (cols, rows) for each of the col_sets (of one size), rows = col_sets[0],
    cut to sub-shell k: their first counts[k] rows and columns.  Every Z_a is
    square and Z_a[j, i] = s_a Z_a[i, j]; for (L, pi L) x L, s = 1 on L by
    Gram symmetry and eps_t on pi L, as X_t(pi L_j, L_i) = X_t(L_i, pi L_j)
    = eps_t X_t(pi L_i, L_j).  Then Z_a[j, i] Z_b[j, i] = s_a s_b Z_a[i, j]
    Z_b[i, j], and only the lower triangle is read.  Each layer's rows
    (sub-shell k less k-1) are read _ROW_BLOCK = 32 at a time into one
    buffer (0.75 MB at K=4) and transposed (the Grams are symmetric): a row
    block p0..p1 adds its square (columns p0..p1) whole and the strip below
    it (columns 0..p0) weighted 1 + s_a s_b, the strip and its mirror above
    the diagonal, all of it into the row block's layer.  An entry of opposite
    parities sums a symmetric block against an antisymmetric one over a
    symmetric region: zero in exact arithmetic, so none reaches |R|^2.
    """
    rows, T = col_sets[0], 4 * len(col_sets)
    D = np.zeros((len(counts), T, T))
    buf = np.empty(T * rows.size * min(_ROW_BLOCK, rows.size))
    edges = [0] + list(counts)
    strip = 1.0 + np.outer(signs, signs)
    for k in range(len(counts)):
        for p0 in range(edges[k], edges[k + 1], _ROW_BLOCK):
            p1 = min(p0 + _ROW_BLOCK, edges[k + 1])
            Z = buf[:T * p1 * (p1 - p0)].reshape(len(col_sets), 4, p1, p1 - p0)
            for cols, Zc in zip(col_sets, Z):
                suite.terms(cols[:p1, None], rows[p0:p1], out=Zc)
            for c0, c1, weight in ((p0, p1, 1.0), (0, p0, strip)):
                seg = Z[..., c0:c1, :].reshape(T, -1)
                D[k] += weight * (seg @ seg.T)
    return np.cumsum(D, axis=0)


def _zero_mode_grams(suite: GramMatrices, fixed, L, counts) -> tuple:
    """The Grams of the four `suite.terms` on (fixed, fixed) and on (L,
    fixed) cut to sub-shell k, L's first counts[k] modes, from one read of
    the zero mode's row: L's layers are its segments, summed cumulatively."""
    ff, fl = np.split(suite.terms(np.concatenate([fixed, L]), fixed), [fixed.size], axis=1)
    fl = np.cumsum([Z @ Z.T for Z in np.split(fl, counts[:-1], axis=1)], axis=0)
    return np.repeat((ff @ ff.T)[None], len(counts), axis=0), fl


def _cross_gram(spins) -> np.ndarray:
    P = spins.reshape(len(spins), -1)
    return P.conj() @ P.T


def _folded_spins(T0, A, B, Y, e):
    """Spin factors of the terms (Y, e), stacked as Y (T, 4, 4) and e (T,),
    on the folded blocks (fixed, fixed), (fixed, L), (L, fixed), (L, L) and
    (L, pi L), the mirrored blocks added with their parity e: five stacks."""
    e = e[:, None, None]
    AB = A + e * B
    T0h, ABh, Ah, Bh = (np.swapaxes(X.conj(), -1, -2) for X in (T0, AB, A, B))
    return (T0h @ Y @ T0, T0h @ Y @ AB, ABh @ Y @ T0,
            Ah @ Y @ A + e * (Bh @ Y @ B), Ah @ Y @ B + e * (Bh @ Y @ A))


def _frame_fro2(suite: GramMatrices, K: int) -> dict:
    """|R_k|_F^2 of R_k = V_k* (sum_t X_t (x) Y_t) V_k, X_t the `terms` of
    `suite` and (Y_t, eps_t) `m_plus_terms()`, per basis in FRAMES, for every
    sub-shell k = 0..K, V_k the frame's columns on sub-shell k.

    On the skeleton [(fixed, T0)], [(L, A), (pi L, B)] the mirror symmetry
    X_t(pi r, pi r') = eps_t X_t(r, r') and pi(fixed) = fixed fold every
    block onto (fixed, fixed), (fixed, L), its transpose (L, fixed), (L, L)
    and (L, pi L).  The scalar-block Grams do not depend on the basis: they
    are read once, and each basis contracts them with its own spin
    cross-Gram.
    """
    Y, e = (np.array(t) for t in zip(*m_plus_terms()))
    fixed, L, pL = _shell_frame(K)
    half = [((2 * k + 1) ** 3 - 1) // 2 for k in range(K + 1)]
    grams = [*_zero_mode_grams(suite, fixed, L, half),
             _block_grams(suite, [L, pL], half, np.concatenate([np.ones(4), e]))]
    fro2 = {}
    for kind, frame in FRAMES.items():
        ff, fl, lf, ll, lm = _folded_spins(*frame, Y, e)
        # (L, fixed) shares the Gram of its transpose (fixed, L)
        spin_grams = [_cross_gram(ff), _cross_gram(fl) + _cross_gram(lf),
                      _cross_gram(np.concatenate([ll, lm]))]
        # |sum_a Z_a (x) P_a|^2 = sum_ab <Z_a, Z_b> <P_a, P_b>
        fro2[kind] = sum(np.einsum("kab,ab->k", D, PP).real
                         for D, PP in zip(grams, spin_grams))
    return fro2


def checked_tail(grid: QuadGrid, kmax: int) -> float:
    """Tail estimate of `grid` at shell kmax, rejected above MAX_TAIL."""
    tail = grid.tail_estimate(kmax)
    if tail > MAX_TAIL:
        raise ValueError(
            f"grid too small for shell {kmax}: tail estimate {tail:.3f} > {MAX_TAIL}")
    return tail


def checked_suite_bytes(kmax: int) -> int:
    """Bytes of the trace route's arrays at shell kmax, rejected above the
    physical memory: the Gram suite's two accumulators, 32 nf^3 with nf =
    (kmax+1)^2, its class table and the row-block buffer of `_block_grams`."""
    nf, M = (kmax + 1) ** 2, 2 * kmax + 1
    need = 32 * nf ** 3 + M ** 4 * np.min_scalar_type(2 * nf ** 3 - 1).itemsize
    need += 32 * _ROW_BLOCK * (M ** 3 - 1)  # 8 doubles per block row and mode of L
    if need > (have := _physical_memory()):
        raise ValueError(f"shell {kmax} needs about {need / 1e9:.2f} GB, more than "
                         f"the {have / 1e9:.2f} GB of physical memory")
    return need


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _prepare(shells, suite: AxisFactors) -> tuple:
    """The shell radii, their mode counts n = (2K+1)^3 and the tail estimate
    at the top shell, after checking that the radii are a non-empty,
    strictly ascending list that `suite` covers, on a grid whose tail
    estimate at the top shell stays below MAX_TAIL."""
    shells = [int(k) for k in shells]
    if not shells or any(k < 0 for k in shells):
        raise ValueError("need a non-empty list of shell radii >= 0")
    if sorted(set(shells)) != shells:
        raise ValueError("shell radii must be strictly ascending")
    kmax = shells[-1]
    if suite.shell.K < kmax:
        raise ValueError(f"precomputed Gram suite covers shell {suite.shell.K}, "
                         f"not shell {kmax}")
    return shells, [(2 * K + 1) ** 3 for K in shells], checked_tail(suite.grid, kmax)


def vacuum_series_trace(shells, suite: GramMatrices) -> tuple:
    """S_J per shell as n - |R_J|_F^2, R_J = V_J* M+ V_J - I/2, with |R_J|_F^2
    reduced through the Dirac cross-Gram of the frame; no spinor matrix.
    The mass, the grid and the tail estimate are those of `suite`.

    Returns one series per basis, in FRAMES order: the plane-wave spinor
    modes ("product") and the invariant basis of the shell conjugation
    ("c_invariant"), the basis whose terms all carry weight 1/2.  Both read
    the top shell's scalar blocks once.
    """
    shells, ns, tail = _prepare(shells, suite)
    fro2 = _frame_fro2(suite, shells[-1])
    return tuple(DivergenceSeries([4 * n for n in ns],
                                  [n - f[K] for n, K in zip(ns, shells)], tail)
                 for f in fro2.values())


def vacuum_series_scalar(shells, m: float, grid: QuadGrid,
                         suite: GramMatrices = None) -> DivergenceSeries:
    """S_J per shell from the scalar-mode Gram matrices, with the sum over
    the four spins already carried out by tr(Gamma_w Gamma_w') = 4 delta:

        S = n - sum_{i,j<=n} [|m G0_ij|^2 + sum_s |Gs_ij|^2],

    in closed form on the 1d factors (`AxisFactors.fro2`) of `suite`, which
    must be built at m on grid, or of the top shell when none is given.  It
    reads no accumulator, no mirror symmetry and not `GramMatrices.terms`,
    so the trace route's agreement checks all three.
    """
    if suite is None:
        suite = axis_factors(enumerate_shell(max(shells, default=0)), m, grid)
    if suite.grid.describe() != grid.describe():
        raise ValueError(f"precomputed Gram suite was built on the grid "
                         f"{suite.grid.describe()}, not {grid.describe()}")
    shells, ns, tail = _prepare(shells, suite)
    if suite.m != m:
        raise ValueError(f"precomputed Gram suite covers shell {suite.shell.K} "
                         f"at m={suite.m}, not shell {shells[-1]} at m={m}")
    S = [n - suite.fro2(K) for n, K in zip(ns, shells)]
    return DivergenceSeries([4 * n for n in ns], S, tail)


def mplus_diagonal(suite: GramMatrices) -> np.ndarray:
    """Diagonal of the honest (quadrature) M+ in the invariant basis of the
    shell conjugation, in `c_invariant_transform` order; the entries sit at
    1/2 up to the quadrature tolerance.

    Read off the frame: column (l, c) of a group sum_u R_u (x) Q_u gives
    sum_t sum_uu' X_t[r_u[l], r_u'[l]] Re diag(Q_u* Y_t Q_u')[c] over the
    Kronecker terms of M+, the quadrature identity part (`suite.one`, I/2)
    and then `suite.terms`: no spinor matrix.  Only (fixed, fixed), (L, L)
    and (L, pi L) are read; (pi L, L) reads the same slots as (L, pi L), and
    (pi L, pi L) is eps_t (L, L) exactly, a copy or negation of the slot.
    The odd terms G1..G3 add exact zeros: their spin diagonals vanish on
    (L, L) and (pi L, pi L), their Grams at the zero mode and at (u, -u),
    where the self-mirror axis pairs' h rows are 0, so eps_t multiplies
    zeros; they stay so that `c-invariant-diag-half` would see a nonzero h.
    """
    Y, eps = (np.array(t) for t in zip((0.5 * np.eye(4), 1.0), *m_plus_terms()))
    (fixed, T0), (L, A), (pL, B) = zip(_shell_frame(suite.shell.K), FRAMES[C_INVARIANT])
    ff, ll, lm = (np.concatenate([suite.one(r, r2)[None], suite.terms(r, r2)])
                  for r, r2 in ((fixed, fixed), (L, L), (L, pL)))
    blocks = [[(ff, T0, T0)], [(ll, A, A), (lm, A, B), (lm, B, A), (eps[:, None] * ll, B, B)]]
    # each block's five Re diag(Q* Y_t Q') come from one stacked product
    groups = [[(X, np.diagonal(Q.conj().T @ Y @ Q2, axis1=1, axis2=2).real) for X, Q, Q2 in group]
              for group in blocks]
    return np.concatenate([sum(np.outer(X[t], d[t]) for t in range(len(Y)) for X, d in g).ravel()
                           for g in groups])


def growth_diagnostics(series: DivergenceSeries) -> str:
    """Cauchy verdict on the series' increments.

    The verdict is "no Cauchy convergence" when the last shell still adds at
    least half the median increment; an (almost) vanishing last increment
    means the series has stalled and is reported as "converged".
    """
    if len(series.S) < 3:
        raise ValueError("need at least 3 shells for diagnostics")
    inc = np.asarray(series.increments(), dtype=float)
    scale = max(1.0, float(np.max(np.abs(series.S))))
    growing = abs(inc[-1]) > 1e-12 * scale and inc[-1] >= 0.5 * float(np.median(inc))
    return "no Cauchy convergence" if growing else "converged"


def toy_oracle_equivalence(model: ToyModel, basis: SubspaceBasis, J: int) -> float:
    """|Q^J Omega|^2 on the toy Fock space versus tr(M+) - tr(M+^2) with the
    exact toy Gram M+_ij = <f_i, P+ f_j>; returns the absolute deviation."""
    fock_value, trace_value = vacuum_norm(model, basis, J)
    return abs(fock_value - trace_value)
