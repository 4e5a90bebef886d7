"""The central experiment: partial sums S_J = |Q^J Omega|^2 of the truncated
region-charge series across mode shells of the cube.

On an orthonormal frame V_J of the first J spinor modes, W_J = V_J* M+ V_J
is I/2 + R_J, where the identity part of M+ is exact by orthonormality of
the modes and R_J = V_J* (sum_t X_t (x) Y_t) V_J carries the quadrature
Grams: X_t in {m G0, G1, G2, G3} (weights 1/lambda and p_s/lambda), Y_t in
{beta/2, alpha_s/2} (`quadrature.m_plus_terms`).  Hence

    S_J = tr(W_J) - tr(W_J^2) = n - |R_J|_F^2

with n = J/4 scalar modes, and both evaluation routes compute this one
quantity; they differ only in how they reduce |R_J|_F^2:

* trace route: for the product basis (V = 1) or the conjugation-invariant
  basis, V is a frame of column groups sum_u R_u (x) Q_u (R_u selects
  scalar modes, Q_u is a fixed spin matrix).  Every block of R_J is then
  sum (R_u^T X_t R_u') (x) (Q_u* Y_t Q_u'), so its Frobenius norm follows
  from inner products of scalar blocks together with the spin cross-Gram
  <Q_u* Y_t Q_u', Q_v* Y_t' Q_v'>, which is computed, not assumed.  The
  scalar blocks of the top shell are gathered from the suite once, and each
  sub-shell reads their leading corner; no spinor matrix is formed;
* scalar route: |R_J|_F^2 = sum_{i,j<=n} [|m G0_ij|^2 + sum_s |Gs_ij|^2],
  the four-spin reduction with tr(Gamma_w Gamma_w') = 4 delta written in by
  hand, summed over pair triples of the suite (`GramMatrices.fro2`).

Both routes read the same quadrature Grams, so their agreement
(`trace-vs-scalar-rel`) checks the four-spin reduction of |R|^2, the place
where the mass enters `m_plus_terms` and the basis algebra, not the
quadrature.  The honest quadrature M+, weight-one Gram included, enters
only `mplus_diagonal`, which reads its diagonal off the same frames
(`FRAMES`); `c_invariant_transform` assembles the invariant frame as a sparse
matrix and, like the dense M+ (`quadrature.m_plus`), serves as an oracle for
the tests.  On complete shells the sums are basis independent (trace
invariance); the basis matters for partial shells, which is exactly why the
series itself is basis sensitive.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import fock
from .charge import SubspaceBasis, vacuum_norm
from .modes import Shell, enumerate_shell, shell_conjugation
from .quadrature import QuadGrid, GramMatrices, gram_suite, m_plus_terms

__all__ = [
    "DivergenceSeries",
    "vacuum_series_trace",
    "vacuum_series_scalar",
    "checked_tail",
    "growth_diagnostics",
    "toy_oracle_equivalence",
    "c_invariant_transform",
    "mplus_diagonal",
]

PRODUCT = "product"
C_INVARIANT = "c_invariant"
MAX_TAIL = 0.10


@dataclass
class DivergenceSeries:
    """Per-shell partial sums of the vacuum-norm series."""

    shells: list          # shell radii K
    mode_counts: list     # spinor mode count 4 (2K+1)^3 per shell
    S: list               # partial sums at the shell boundaries
    basis_kind: str
    m: float
    grid: str             # grid description string
    tail: float           # estimated quadrature mass loss at the top shell

    def increments(self):
        return [self.S[0]] + [b - a for a, b in zip(self.S, self.S[1:])]


def _product_frame(shell: Shell):
    return [[(np.arange(shell.count), np.eye(4))]]


def _invariant_frame(shell: Shell):
    """The conjugation-invariant basis as column groups sum_u R_u (x) Q_u,
    each term given as (rows, Q) with R_u the selection of `rows`.

    Read off the shell conjugation U = P_pi (x) C, C = i gamma2: the zero
    mode is its own partner and gives the group (0, T0), T0 pairing the
    spins s < s' with C e_s = c e_s'; every other pair of modes i < pi(i)
    gives eight columns, collected into the group (L, [I, iI]/sqrt(2)) +
    (pi(L), [C, -iC]/sqrt(2)) over L = {i : pi(i) > i} in ascending order
    (columns interleaved per spin, (e_s, i e_s) and (C e_s, -i C e_s)).
    """
    U = shell_conjugation(shell).U.tocsc()
    n = shell.count
    partner = U.indices[::4] // 4
    C = U[4 * partner[0]:4 * partner[0] + 4, :4].toarray()
    A = np.sqrt(0.5) * np.kron(np.eye(4), [1.0, 1j])
    B = np.sqrt(0.5) * np.kron(C, [1.0, -1j])
    fixed = np.flatnonzero(partner == np.arange(n))
    # a self-partner mode keeps the columns of the spins s < s'
    lo = np.flatnonzero(np.abs(C).argmax(axis=0) > np.arange(4))
    T0 = (A + B).reshape(4, 4, 2)[:, lo].reshape(4, -1)
    L = np.flatnonzero(partner > np.arange(n))
    return [[(fixed, T0)], [(L, A), (partner[L], B)]]


FRAMES = {PRODUCT: _product_frame, C_INVARIANT: _invariant_frame}


def _frame_builder(basis_kind: str):
    if basis_kind not in FRAMES:
        raise ValueError(f"unknown basis kind {basis_kind!r}")
    return FRAMES[basis_kind]


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
    groups = [sum(sparse.kron(eye[:, rows], Q, format="csc")
                  for rows, Q in group)
              for group in _invariant_frame(shell)]
    return sparse.hstack(groups, format="csc")


def _frame_fro2(frame, terms, ns) -> list:
    """|R_n|_F^2 of R_n = V_n* (sum_t X_t (x) Y_t) V_n for each n in ns, where
    V_n holds the frame's columns on the first n scalar modes."""
    # each group's leading rows are ascending and a sub-shell's come first
    counts = [[np.count_nonzero(group[0][0] < n) for n in ns] for group in frame]
    fro2 = [0.0] * len(ns)
    for left, ca in zip(frame, counts):
        for right, cb in zip(frame, counts):
            # the top sub-shell's blocks, gathered once; sub-shell n reads the
            # leading ca[n] x cb[n] corner of each
            blocks = [(X, r, r2) for X, _ in terms for r, _ in left for r2, _ in right]
            Z = np.empty((len(blocks), left[0][0].size, right[0][0].size))
            for z, (X, r, r2) in zip(Z, blocks):
                z[...] = X(r[:, None], r2)
            P = np.stack([(Q.conj().T @ Y @ Q2).ravel()
                          for _, Y in terms for _, Q in left for _, Q2 in right])
            PP = P.conj() @ P.T
            for k, (a, b) in enumerate(zip(ca, cb)):
                Zn = Z[:, :a, :b].reshape(len(blocks), -1)
                # |sum_a Z_a (x) P_a|^2 = sum_ab <Z_a, Z_b> <P_a, P_b>
                fro2[k] += float(np.sum((Zn @ Zn.T) * PP).real)
    return fro2


def checked_tail(grid: QuadGrid, kmax: int) -> float:
    """Tail estimate of `grid` at shell kmax, rejected above MAX_TAIL."""
    tail = grid.tail_estimate(kmax)
    if tail > MAX_TAIL:
        raise ValueError(
            f"grid too small for shell {kmax}: tail estimate {tail:.3f} > {MAX_TAIL}")
    return tail


def _prepare(shells, m: float, grid: QuadGrid, suite: GramMatrices):
    """Validate the shell radii, the grid and a precomputed suite.

    Returns the radii, their scalar mode counts n = (2K+1)^3, the tail
    estimate at the top shell, the top shell and its Gram suite, built when
    none is given.
    """
    shells = [int(k) for k in shells]
    if not shells or any(k < 0 for k in shells):
        raise ValueError("need a non-empty list of shell radii >= 0")
    if sorted(set(shells)) != shells:
        raise ValueError("shell radii must be strictly ascending")
    kmax = shells[-1]
    tail = checked_tail(grid, kmax)
    if suite is not None and (suite.shell.K < kmax or suite.m != m):
        raise ValueError(f"precomputed Gram suite covers shell {suite.shell.K} "
                         f"at m={suite.m}, not shell {kmax} at m={m}")
    if suite is not None and suite.grid.describe() != grid.describe():
        raise ValueError(f"precomputed Gram suite was built on the grid "
                         f"{suite.grid.describe()}, not {grid.describe()}")
    top = enumerate_shell(kmax)
    if suite is None:
        suite = gram_suite(top, m, grid)
    return shells, [(2 * K + 1) ** 3 for K in shells], tail, top, suite


def vacuum_series_trace(shells, m: float, grid: QuadGrid,
                        basis_kind: str = PRODUCT,
                        suite: GramMatrices = None) -> DivergenceSeries:
    """S_J per shell as n - |R_J|_F^2, R_J = V_J* M+ V_J - I/2, with |R_J|_F^2
    reduced through the Dirac cross-Gram of the frame; no spinor matrix.

    basis_kind "product" uses the plane-wave spinor modes; "c_invariant"
    uses the invariant basis built from the shell conjugation, realizing the
    basis whose terms all carry weight 1/2.
    """
    frame = _frame_builder(basis_kind)
    shells, ns, tail, top, suite = _prepare(shells, m, grid, suite)
    fro2 = _frame_fro2(frame(top), m_plus_terms(suite), ns)
    S = [n - f for n, f in zip(ns, fro2)]
    return DivergenceSeries(shells, [4 * n for n in ns], S, basis_kind, float(m),
                            grid.describe(), tail)


def vacuum_series_scalar(shells, m: float, grid: QuadGrid,
                         suite: GramMatrices = None) -> DivergenceSeries:
    """S_J per shell from the scalar-mode Gram matrices, with the sum over
    the four spins already carried out by tr(Gamma_w Gamma_w') = 4 delta:

        S = n - sum_{i,j<=n} [|m G0_ij|^2 + sum_s |Gs_ij|^2],

    by `GramMatrices.fro2`.  The mass enters there, not through
    `m_plus_terms`, so the trace route's agreement checks where it enters.
    """
    shells, ns, tail, _, suite = _prepare(shells, m, grid, suite)
    S = [n - suite.fro2(K) for n, K in zip(ns, shells)]
    return DivergenceSeries(shells, [4 * n for n in ns], S, PRODUCT, float(m),
                            grid.describe(), tail)


def mplus_diagonal(suite: GramMatrices, basis_kind: str = PRODUCT) -> np.ndarray:
    """Diagonal of the honest (quadrature) M+ in the basis `basis_kind`; for
    "c_invariant" (columns in `c_invariant_transform` order) the entries sit
    at 1/2 up to the quadrature tolerance.

    Read off the frame: column (l, c) of a group sum_u R_u (x) Q_u gives
    sum_t sum_uu' X_t[r_u[l], r_u'[l]] Re diag(Q_u* Y_t Q_u')[c] over the
    Kronecker terms of M+, the quadrature identity part ("one", I/2) followed
    by `m_plus_terms`, so no spinor matrix is formed.
    """
    frame = _frame_builder(basis_kind)(suite.shell)
    terms = [(lambda r, c: suite.gather("one", r, c), 0.5 * np.eye(4))] + m_plus_terms(suite)
    return np.concatenate([
        sum(np.outer(X(r, r2), np.diagonal(Q.conj().T @ Y @ Q2).real)
            for X, Y in terms for r, Q in group for r2, Q2 in group).ravel()
        for group in frame])


def growth_diagnostics(series: DivergenceSeries) -> dict:
    """Increment table and Cauchy verdict.

    The verdict is "no Cauchy convergence" when the last shell still adds at
    least half the median increment; an (almost) vanishing last increment
    means the series has stalled and is reported as "converged".
    """
    if len(series.S) < 3:
        raise ValueError("need at least 3 shells for diagnostics")
    inc = np.asarray(series.increments(), dtype=float)
    scale = max(1.0, float(np.max(np.abs(series.S))))
    growing = abs(inc[-1]) > 1e-12 * scale and inc[-1] >= 0.5 * float(np.median(inc))
    return {"increments": inc.tolist(),
            "verdict": "no Cauchy convergence" if growing else "converged"}


def toy_oracle_equivalence(model: fock.ToyModel, basis: SubspaceBasis, J: int) -> float:
    """|Q^J Omega|^2 on the toy Fock space versus tr(M+) - tr(M+^2) with the
    exact toy Gram M+_ij = <f_i, P+ f_j>; returns the absolute deviation."""
    fock_value, trace_value = vacuum_norm(model, basis, J)
    return abs(fock_value - trace_value)
